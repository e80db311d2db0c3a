#include "core/global.h"

#include <algorithm>

#include "trace/sink.h"
#include "util/check.h"
#include "util/log.h"

namespace ioc::core {

GlobalManager::GlobalManager(Container::Env env, const PipelineSpec& spec,
                             ResourcePool& pool,
                             std::vector<Container*> containers, Options opt)
    : env_(std::move(env)),
      spec_(&spec),
      pool_(pool),
      containers_(std::move(containers)),
      opt_(opt),
      hub_(opt.monitoring_window),
      trace_(*env_.sim) {
  // The GM lives on its own node; by convention the deployment reserves
  // node 1 for it.
  mon_ep_ = env_.bus->open(1, "gm.monitor").id();
  ctl_ep_ = env_.bus->open(1, "gm.control").id();
  for (Container* c : containers_) {
    c->set_gm_endpoint(mon_ep_);
    // Current state, not the spec's: a failover GM inherits containers that
    // may have been activated or taken offline since launch.
    trace_.track(c->name(),
                 c->online() ? CmState::kIdle : CmState::kOffline);
  }
}

GlobalManager::~GlobalManager() {
  if (mon_ep_ != ev::kInvalidEndpoint) env_.bus->close(mon_ep_);
  if (ctl_ep_ != ev::kInvalidEndpoint) env_.bus->close(ctl_ep_);
}

void GlobalManager::start() {
  mon_proc_ = spawn(*env_.sim, monitor_loop());
  if (spec_->management_enabled) {
    policy_proc_ = spawn(*env_.sim, policy_loop());
  }
}

void GlobalManager::fail() {
  if (failed_) return;
  failed_ = true;
  shutdown();
  IOC_WARN << "global manager failed (simulated crash)";
}

void GlobalManager::shutdown() {
  stopping_ = true;
  if (mon_ep_ != ev::kInvalidEndpoint) env_.bus->close(mon_ep_);
  if (ctl_ep_ != ev::kInvalidEndpoint) env_.bus->close(ctl_ep_);
  mon_ep_ = ev::kInvalidEndpoint;
  ctl_ep_ = ev::kInvalidEndpoint;
}

Container* GlobalManager::find(const std::string& name) const {
  for (Container* c : containers_) {
    if (c->name() == name) return c;
  }
  return nullptr;
}

std::vector<std::string> GlobalManager::online_names() const {
  std::vector<std::string> out;
  for (Container* c : containers_) {
    if (c->online()) out.push_back(c->name());
  }
  return out;
}

des::Process GlobalManager::monitor_loop() {
  ev::Endpoint* ep = env_.bus->find(mon_ep_);
  while (ep != nullptr) {
    auto msg = co_await ep->mailbox().get();
    if (!msg.has_value()) break;
    if (msg->type_id != kMidMetric) continue;
    if (const auto* s = msg->as<mon::MetricSample>()) hub_.ingest(*s);
  }
}

des::Process GlobalManager::policy_loop() {
  while (!stopping_) {
    co_await des::delay(*env_.sim, opt_.policy_interval);
    if (stopping_) break;
    const des::SimTime t0 = env_.sim->now();
    const std::size_t events_before = events_.size();
    co_await evaluate();
    if (trace::active(env_.trace)) {
      env_.trace->span(
          "policy.round", "gm", "gm", 0, t0, env_.sim->now(),
          {{"actions", static_cast<double>(events_.size() - events_before)}});
    }
  }
}

des::Task<ev::Message> GlobalManager::escalate_fence(Container* c,
                                                     std::uint64_t token) {
  const std::string name = c->name();
  IOC_WARN << "GM escalating: fencing container " << name;
  // Offline fallback, as in offline_cascade: before the stage disappears,
  // its upstream survivor switches its output to disk with provenance
  // labels, so no timestep loses its processing history.
  const std::string upstream = c->spec().upstream;
  Container* survivor = upstream.empty() ? nullptr : find(upstream);
  if (survivor != nullptr && survivor->online() && !survivor->disk_mode()) {
    auto [done_ops, pending_ops] = provenance_labels(upstream);
    ev::Message m;
    m.type_id = kMidSwitchToDisk;
    m.payload = SwitchToDiskPayload{done_ops, pending_ops};
    co_await request_cm(survivor, std::move(m));
    if (survivor->online()) survivor->set_sink(true);
  }
  c->fence();
  const auto freed = pool_.reclaim_all(name);
  // The recorded delta is the pool's view; the lint replay settles the
  // fenced container's width to zero regardless (an in-flight grant may not
  // have reached the trace ledger yet).
  trace_.escalate(name, -static_cast<int>(freed.size()));
  recompute_sinks();
  ProtocolReport rep;
  rep.action = "fence";
  rep.container = name;
  rep.delta = -static_cast<int>(freed.size());
  rep.ok = false;
  log_event("fence", name, "control round exhausted retries/unreachable",
            rep.delta, rep);
  if (trace::active(env_.trace)) {
    env_.trace->span("escalate", "control", name, token, env_.sim->now(),
                     env_.sim->now(),
                     {{"freed", static_cast<double>(freed.size())}});
  }
  IOC_CHECK(pool_.conserved()) << "pool corrupted fencing " << name;
  hub_.reset_container(name);
  ev::Message reply;
  reply.type_id = kMidErrFenced;
  reply.token = token;
  co_return reply;
}

des::Task<ev::Message> GlobalManager::request_cm(Container* c,
                                                 ev::Message m) {
  const std::string_view type = m.type();
  const des::SimTime t0 = env_.sim->now();
  trace_.control(c->name(), type, /*to_cm=*/true, 0);
  const CmState from = trace_.state(c->name());
  // One token for the whole round, retries included: the CM-side reply
  // cache recognizes a resend and replays its answer instead of executing
  // the request a second time.
  m.token = env_.bus->fresh_token();
  const std::uint64_t token = m.token;
  const RoundHooks hooks{c->name(), &trace_, env_.trace};
  ev::Message reply =
      co_await run_control_round(*env_.bus, ctl_ep_, c->manager_endpoint(),
                                 std::move(m), opt_.round, hooks);
  if (reply.type_id == ev::kMidErrClosed) {
    // The GM itself died under this round (simulated crash). Stop quietly;
    // fencing a healthy container for our own failure would throw away its
    // nodes for nothing.
    stopping_ = true;
    co_return reply;
  }
  if (reply.type_id == ev::kMidErrTimeout ||
      reply.type_id == ev::kMidErrUnreachable) {
    ev::Message fenced = co_await escalate_fence(c, token);
    co_return fenced;
  }
  int delta = 0;
  if (const auto* done = reply.as<DonePayload>()) delta = done->report.delta;
  trace_.control(c->name(), reply.type(), /*to_cm=*/false, delta);
  // One span per Fig. 3 control round, labeled with the FSM edge the round
  // drove, so a trace shows both what a round cost and why it was legal.
  if (trace::active(env_.trace)) {
    const std::string edge = std::string(cm_state_name(from)) + " -> " +
                             cm_state_name(trace_.state(c->name()));
    env_.trace->span(type, "control", c->name(), 0, t0,
                     env_.sim->now(),
                     {{"delta", static_cast<double>(delta)}}, edge);
  }
  co_return reply;
}

void GlobalManager::log_event(const std::string& action,
                              const std::string& container,
                              const std::string& reason, int delta,
                              ProtocolReport report) {
  ManagementEvent ev;
  ev.at = env_.sim->now();
  ev.action = action;
  ev.container = container;
  ev.reason = reason;
  ev.delta = delta;
  ev.report = std::move(report);
  IOC_INFO << "GM " << action << " " << container << " (" << delta
           << " nodes): " << reason;
  events_.push_back(std::move(ev));
}

des::Task<ProtocolReport> GlobalManager::increase(std::string name,
                                                  std::uint32_t n) {
  ProtocolReport rep;
  rep.action = "increase";
  rep.container = name;
  Container* c = find(name);
  // An offline CM has no conversation to join (Fig. 3): growing it goes
  // through activate() instead, so refuse here rather than round-trip a
  // request the CM would reject anyway.
  if (c == nullptr || n == 0 || !c->online()) {
    rep.ok = false;
    co_return rep;
  }
  const net::NodeId near =
      c->nodes().empty() ? net::NodeId{2} : c->nodes().front();
  auto nodes = pool_.grant_near(name, n, near);
  if (nodes.empty()) {
    rep.ok = false;
    co_return rep;
  }
  const des::SimTime t0 = env_.sim->now();
  ev::Message m;
  m.type_id = kMidIncrease;
  m.payload = IncreasePayload{nodes};
  ev::Message reply = co_await request_cm(c, std::move(m));
  if (const auto* done = reply.as<DonePayload>()) {
    rep = done->report;
  } else {
    rep.ok = false;
  }
  rep.total = env_.sim->now() - t0;
  rep.gm_cm_messaging = rep.total - rep.aprun - rep.metadata_exchange -
                        rep.pause_wait - rep.endpoint_update -
                        rep.state_migration;
  // A fenced round already repaired the pool wholesale (reclaim_all);
  // reclaiming the grant again would throw on the ownership mismatch.
  if (!rep.ok && reply.type_id != kMidErrFenced) pool_.reclaim(name, nodes);
  IOC_CHECK(pool_.conserved()) << "pool corrupted by increase of " << name;
  hub_.reset_container(name);
  co_return rep;
}

des::Task<ProtocolReport> GlobalManager::decrease(std::string name,
                                                  std::uint32_t k) {
  ProtocolReport rep;
  rep.action = "decrease";
  rep.container = name;
  Container* c = find(name);
  if (c == nullptr || k == 0 || !c->online()) {
    rep.ok = false;
    co_return rep;
  }
  const des::SimTime t0 = env_.sim->now();
  ev::Message m;
  m.type_id = kMidDecrease;
  m.payload = DecreasePayload{k};
  ev::Message reply = co_await request_cm(c, std::move(m));
  if (const auto* done = reply.as<DonePayload>()) {
    rep = done->report;
    pool_.reclaim(name, done->freed_nodes);
  } else {
    rep.ok = false;
  }
  rep.total = env_.sim->now() - t0;
  rep.gm_cm_messaging = rep.total - rep.aprun - rep.metadata_exchange -
                        rep.pause_wait - rep.endpoint_update -
                        rep.state_migration;
  IOC_CHECK(pool_.conserved()) << "pool corrupted by decrease of " << name;
  hub_.reset_container(name);
  co_return rep;
}

des::Task<ProtocolReport> GlobalManager::steal(std::string donor,
                                               std::string recipient,
                                               std::uint32_t k) {
  const std::size_t before = pool_.total();
  ProtocolReport dec = co_await decrease(donor, k);
  if (!dec.ok) co_return dec;
  log_event("decrease", donor, "donating to " + recipient, dec.delta, dec);
  ProtocolReport inc = co_await increase(recipient, k);
  // The property the D2T trade protects: a node leaving the donor is either
  // owned by the recipient or back in the spare pool — never lost.
  IOC_CHECK(pool_.conserved() && pool_.total() == before)
      << "node-count conservation violated trading " << k << " nodes from "
      << donor << " to " << recipient;
  co_return inc;
}

std::pair<std::string, std::string> GlobalManager::provenance_labels(
    const std::string& upto) const {
  // Walk the chain from the source to `upto` (done), then past it (pending).
  std::string done;
  std::string pending;
  bool past = false;
  // Start from containers with no upstream and follow links.
  std::string cur;
  for (const auto& c : spec_->containers) {
    if (c.upstream.empty()) cur = c.name;
  }
  while (!cur.empty()) {
    const ContainerSpec* cs = spec_->find(cur);
    if (cs == nullptr) break;
    if (!past) {
      if (!done.empty()) done += ",";
      done += sp::component_name(cs->kind);
    } else {
      if (!pending.empty()) pending += ",";
      pending += sp::component_name(cs->kind);
    }
    if (cur == upto) past = true;
    // Find the (unique) container downstream of cur.
    std::string next;
    for (const auto& c : spec_->containers) {
      if (c.upstream == cur) next = c.name;
    }
    cur = next;
  }
  return {done, pending};
}

des::Task<ProtocolReport> GlobalManager::offline_cascade(
    std::string name, std::string reason) {
  ProtocolReport rep;
  rep.action = "offline";
  rep.container = name;
  Container* target = find(name);
  if (target == nullptr || !target->online() || target->spec().essential) {
    rep.ok = false;
    co_return rep;
  }
  const des::SimTime t0 = env_.sim->now();

  // The upstream survivor must switch its output to disk, labeling the data
  // with its processing provenance, before the downstream stages disappear.
  const std::string upstream = target->spec().upstream;
  Container* survivor = upstream.empty() ? nullptr : find(upstream);
  if (survivor != nullptr && survivor->online()) {
    auto [done_ops, pending_ops] = provenance_labels(upstream);
    ev::Message m;
    m.type_id = kMidSwitchToDisk;
    m.payload = SwitchToDiskPayload{done_ops, pending_ops};
    co_await request_cm(survivor, std::move(m));
    survivor->set_sink(true);
  }

  // Take the target and everything depending on it offline (the paper's
  // cascade: the GM "decreases each affected container's resources to 0").
  std::vector<std::string> chain{name};
  for (const auto& d : spec_->downstream_of(name)) chain.push_back(d);
  for (const auto& cname : chain) {
    Container* c = find(cname);
    if (c == nullptr || !c->online()) continue;
    ev::Message m;
    m.type_id = kMidOffline;
    ev::Message reply = co_await request_cm(c, std::move(m));
    if (const auto* done = reply.as<DonePayload>()) {
      pool_.reclaim(cname, done->freed_nodes);
      log_event("offline", cname, reason, done->report.delta,
                done->report);
    }
  }
  recompute_sinks();
  rep.total = env_.sim->now() - t0;
  co_return rep;
}

void GlobalManager::recompute_sinks() {
  for (Container* c : containers_) {
    if (!c->online()) continue;
    if (c->disk_mode()) {
      c->set_sink(true);
      continue;
    }
    bool online_downstream = false;
    for (Container* d : containers_) {
      if (d->online() && d->spec().upstream == c->name()) {
        online_downstream = true;
      }
    }
    c->set_sink(!online_downstream);
  }
}

des::Task<bool> GlobalManager::enable_hashes(std::string name,
                                             bool enabled) {
  Container* c = find(name);
  if (c == nullptr) co_return false;
  ev::Message m;
  m.type_id = kMidEnableHashes;
  m.payload = EnableHashesPayload{enabled};
  co_return co_await env_.bus->post(ctl_ep_, c->manager_endpoint(),
                                    std::move(m));
}

des::Task<ProtocolReport> GlobalManager::activate(std::string name,
                                                  std::uint32_t n) {
  ProtocolReport rep;
  rep.action = "activate";
  rep.container = name;
  Container* c = find(name);
  if (c == nullptr || c->online()) {
    rep.ok = false;
    co_return rep;
  }
  auto nodes = pool_.grant(name, n);
  if (nodes.empty()) {
    rep.ok = false;
    co_return rep;
  }
  ev::Message m;
  m.type_id = kMidActivate;
  m.payload = IncreasePayload{nodes};
  ev::Message reply = co_await request_cm(c, std::move(m));
  if (const auto* done = reply.as<DonePayload>()) {
    rep = done->report;
  } else {
    rep.ok = false;
    if (reply.type_id != kMidErrFenced) pool_.reclaim(name, nodes);
  }
  recompute_sinks();
  log_event("activate", name, "dynamic branch", rep.delta, rep);
  co_return rep;
}

des::Task<bool> GlobalManager::try_feed(Container* c, std::string why) {
  // Ask the container's local manager what it needs (only it understands
  // its component's speedup behaviour).
  ev::Message q;
  q.type_id = kMidQueryNeeds;
  ev::Message reply = co_await request_cm(c, std::move(q));
  const auto* needs = reply.as<NeedsPayload>();
  std::uint32_t want = needs != nullptr ? needs->extra_nodes : 0;
  if (want == 0) co_return false;  // latency is queue drain, not capacity
  want = std::min(want, opt_.max_grant_per_action);

  // Spare staging nodes first.
  const auto spare = static_cast<std::uint32_t>(pool_.spare_count());
  if (spare > 0) {
    const std::uint32_t take = std::min(want, spare);
    ProtocolReport rep = co_await increase(c->name(), take);
    log_event("increase", c->name(), why + "; using spare nodes", rep.delta,
              rep);
    co_return true;
  }

  // Otherwise steal from the most over-provisioned donor.
  Container* donor = nullptr;
  double donor_latency = spec_->latency_sla_s * opt_.donor_slack_factor;
  for (Container* d : containers_) {
    if (!d->online() || d == c) continue;
    const auto lat = hub_.avg_latency(d->name());
    if (!lat.has_value()) continue;
    if (d->width() <= d->spec().min_nodes) continue;
    if (*lat < donor_latency) {
      donor_latency = *lat;
      donor = d;
    }
  }
  if (donor != nullptr) {
    const std::uint32_t give =
        std::min(want, donor->width() - donor->spec().min_nodes);
    if (give > 0) {
      ProtocolReport rep = co_await steal(donor->name(), c->name(), give);
      log_event("increase", c->name(),
                why + "; stole " + std::to_string(give) + " nodes from " +
                    donor->name(),
                rep.delta, rep);
      co_return true;
    }
  }
  co_return false;
}

des::Task<void> GlobalManager::evaluate() {
  const auto online = online_names();
  if (online.empty()) co_return;

  // SLA management: feed the container with the worst windowed latency.
  auto bn = hub_.bottleneck(online);
  if (bn.has_value()) {
    Container* b = find(*bn);
    const auto avg = hub_.avg_latency(*bn);
    if (b != nullptr && avg.has_value() && *avg > spec_->latency_sla_s) {
      const bool acted = co_await try_feed(
          b, "latency " + std::to_string(*avg) + "s > SLA");
      if (acted) co_return;
    }
  }

  // Overflow guard: a container whose input backlog is heading for a queue
  // overflow will eventually block the application. Feed it if resources
  // can be found anywhere; failing that, prune it from the data path
  // (Fig. 9), unless it is essential.
  for (Container* c : containers_) {
    if (!c->online() || c->input() == nullptr) continue;
    const bool deep_backlog =
        c->input()->backlog() > spec_->overflow_backlog;
    // An upstream writer blocked on this stream means the stall has already
    // propagated toward the application — the state the paper's runtime
    // must prevent.
    const bool blocking_upstream = c->input()->write_blocked();
    if (!deep_backlog && !blocking_upstream) continue;
    const std::string reason =
        deep_backlog ? "backlog " + std::to_string(c->input()->backlog()) +
                           " > overflow threshold"
                     : "upstream writers blocked on a full staging buffer";
    const bool fed = co_await try_feed(c, reason);
    if (fed) co_return;
    if (!c->spec().essential) {
      co_await offline_cascade(c->name(),
                               "no resources available and " + reason);
    }
    co_return;
  }
}

}  // namespace ioc::core
