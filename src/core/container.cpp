#include "core/container.h"

#include <algorithm>

#include "core/rounds.h"
#include "trace/sink.h"
#include "util/check.h"
#include "util/log.h"

namespace ioc::core {

using des::SimTime;

Container::Container(Env env, ContainerSpec spec,
                     std::vector<net::NodeId> nodes, net::NodeId head_node,
                     dt::Stream* input)
    : env_(std::move(env)),
      spec_(std::move(spec)),
      head_node_(head_node),
      input_(input),
      disk_group_(spec_.name + ".out"),
      done_(*env_.sim) {
  output_ = std::make_unique<dt::Stream>(env_.bus->network(), head_node_,
                                         env_.stream_config);
  mgr_ep_ = env_.bus->open(head_node_, "cm." + spec_.name).id();
  disk_group_.define_var({"data", sio::DataType::kByte, {0}});
  hashing_enabled_ = spec_.hash_output;
  state_ = spec_.starts_offline ? State::kOffline : State::kOnline;
  for (net::NodeId n : nodes) add_replica(n);
}

Container::~Container() { shutdown(); }

void Container::shutdown() {
  for (auto& r : replicas_) {
    if (r->ep != ev::kInvalidEndpoint) {
      env_.bus->close(r->ep);
      r->ep = ev::kInvalidEndpoint;
    }
    if (r->stop) r->stop->set();
  }
  if (mgr_ep_ != ev::kInvalidEndpoint) {
    env_.bus->close(mgr_ep_);
    mgr_ep_ = ev::kInvalidEndpoint;
  }
  if (output_) output_->close();
}

void Container::fence() {
  if (mgr_ep_ == ev::kInvalidEndpoint && replicas_.empty() &&
      state_ == State::kOffline) {
    return;  // already fenced / torn down
  }
  IOC_WARN << "container " << name() << " fenced";
  state_ = State::kOffline;
  fenced_ = true;
  is_sink_ = false;
  disk_mode_ = false;
  for (auto& r : replicas_) {
    if (r->ep != ev::kInvalidEndpoint) {
      env_.bus->close(r->ep);
      r->ep = ev::kInvalidEndpoint;
    }
    if (r->stop) r->stop->set();
  }
  if (input_ != nullptr) input_->kick();  // wake readers parked on the input
  for (auto& r : replicas_) fenced_replicas_.push_back(std::move(r));
  replicas_.clear();
  node_list_.clear();
  if (mgr_ep_ != ev::kInvalidEndpoint) {
    env_.bus->close(mgr_ep_);
    mgr_ep_ = ev::kInvalidEndpoint;
  }
  output_->close();
  done_.set();
}

void Container::start() {
  started_ = true;
  manager_proc_ = spawn(*env_.sim, manager_loop());
  if (env_.heartbeat_interval > 0) {
    heartbeat_proc_ = spawn(*env_.sim, heartbeat_loop());
  }
  for (auto& r : replicas_) {
    if (r->proc.valid()) continue;
    if (spec_.model == sp::ComputeModel::kRoundRobin ||
        r.get() == replicas_.front().get()) {
      r->proc = spawn(*env_.sim, replica_loop(r.get()));
    }
  }
}

void Container::add_replica(net::NodeId node) {
  auto r = std::make_unique<Replica>();
  r->node = node;
  r->ep = env_.bus->open(node, spec_.name + ".replica").id();
  r->stop = std::make_unique<des::Event>(*env_.sim);
  if (started_ && state_ == State::kOnline) {
    const bool runs_loop = spec_.model == sp::ComputeModel::kRoundRobin ||
                           replicas_.empty();
    if (runs_loop) r->proc = spawn(*env_.sim, replica_loop(r.get()));
  }
  node_list_.push_back(node);
  replicas_.push_back(std::move(r));
}

double Container::service_seconds(std::uint64_t items) const {
  return env_.cost->step_seconds(spec_.kind, spec_.model, items,
                                 std::max<std::uint32_t>(width(), 1),
                                 spec_.threads_per_node);
}

std::uint32_t Container::nodes_needed(std::uint64_t items) const {
  if (items == 0) return 0;
  const double target = 1.0 / env_.pipeline->output_interval_s;
  const std::uint32_t needed = env_.cost->width_for_throughput(
      spec_.kind, spec_.model, items, target, spec_.threads_per_node);
  return needed > width() ? needed - width() : 0;
}

des::Process Container::replica_loop(Replica* r) {
  while (!r->stop->is_set()) {
    auto step = co_await input_->read(r->node, r->stop.get());
    if (!step.has_value()) {
      if (!r->stop->is_set()) r->eof = true;
      break;
    }
    co_await process_step(r, std::move(*step));
  }
  maybe_done();
}

void Container::maybe_done() {
  if (state_ != State::kOnline || replicas_.empty()) return;
  for (const auto& r : replicas_) {
    if (r->proc.valid() && !r->eof) return;
  }
  // All processing replicas hit end-of-stream: this stage is finished.
  output_->close();
  done_.set();
}

des::Task<void> Container::process_step(Replica* r, dt::StepData step) {
  (void)r;
  last_items_ = step.items;
  const double svc = service_seconds(step.items);
  co_await des::delay(*env_.sim, des::from_seconds(svc));
  const dt::StepData in = step;  // keep timestamps for metrics
  co_await emit_output(std::move(step));
  ++steps_processed_;
  const double lat = des::to_seconds(env_.sim->now() - in.ingress);
  latency_.add(lat);
  // A step finishing while the container is being torn down must not feed
  // stale samples into the hub (they would outlive the management action).
  if (state_ != State::kOnline) co_return;
  // The per-timestep span mirrors the latency metric exactly (same start,
  // same end, same online gate) so trace totals reconcile with the hub.
  if (trace::active(env_.trace)) {
    env_.trace->span("step", "container", name(), in.step, in.ingress,
                     env_.sim->now(),
                     {{"queue_depth", static_cast<double>(input_->backlog())},
                      {"bytes", static_cast<double>(in.bytes)},
                      {"items", static_cast<double>(in.items)}});
  }
  const std::uint32_t cadence = std::max<std::uint32_t>(1, spec_.monitor_every);
  if (steps_processed_ % cadence == 0) {
    co_await post_metric(mon::MetricKind::kLatency, in.step, lat, name());
    co_await post_metric(mon::MetricKind::kQueueDepth, in.step,
                         static_cast<double>(input_->backlog()), name());
  }
  if (is_sink_) {
    if (trace::active(env_.trace)) {
      env_.trace->span("e2e", "pipeline", "pipeline", in.step, in.origin,
                       env_.sim->now());
    }
    co_await post_metric(mon::MetricKind::kEndToEnd, in.step,
                         des::to_seconds(env_.sim->now() - in.origin),
                         "pipeline");
  }
}

des::Task<void> Container::emit_output(dt::StepData in) {
  dt::StepData out = std::move(in);
  out.bytes = static_cast<std::uint64_t>(
      static_cast<double>(out.bytes) * spec_.output_ratio);
  out.created = env_.sim->now();
  if (hashing_enabled_) out.checksum = dt::step_checksum(out);
  // The last online stage of the pipeline writes to disk (the paper: "After
  // this stage, the data is written to disk"), as does any stage switched to
  // disk mode by the offline path — the latter labels the data with its
  // processing provenance.
  if (disk_mode_ || is_sink_) {
    if (disk_writer_ == nullptr) {
      disk_writer_ = std::make_unique<sio::Writer>(
          *env_.sim, disk_group_,
          std::make_shared<sio::PosixMethod>(*env_.fs));
    }
    disk_writer_->open(out.step);
    disk_writer_->write_bytes("data", out.bytes, out.payload);
    if (disk_mode_) {
      disk_writer_->attribute(sio::kAttrProvenance, provenance_);
      if (!pending_.empty()) {
        disk_writer_->attribute(sio::kAttrPending, pending_);
      }
    }
    if (hashing_enabled_) {
      disk_writer_->attribute("ioc.hash", std::to_string(out.checksum));
    }
    co_await disk_writer_->close();
  } else if (!output_->closed()) {
    co_await output_->write(std::move(out));
  }
}

des::Task<void> Container::post_metric(mon::MetricKind kind,
                                       std::uint64_t step, double value,
                                       const std::string& source) {
  if (gm_ep_ == ev::kInvalidEndpoint) co_return;
  mon::MetricSample s;
  s.source = source;
  s.kind = kind;
  s.step = step;
  s.value = value;
  s.at = env_.sim->now();
  ev::Message m;
  m.type_id = kMidMetric;
  m.size_bytes = 128;
  m.payload = s;
  co_await env_.bus->post(mgr_ep_, gm_ep_, std::move(m),
                          ev::TrafficClass::kMonitoring);
}

des::Process Container::heartbeat_loop() {
  while (env_.heartbeat_interval > 0 && !heartbeats_stopped_) {
    co_await des::delay(*env_.sim, env_.heartbeat_interval);
    if (heartbeats_stopped_) break;
    if (state_ != State::kOnline || mgr_ep_ == ev::kInvalidEndpoint) break;
    if (gm_ep_ == ev::kInvalidEndpoint) continue;
    ev::Message m;
    m.type_id = kMidHeartbeat;
    m.size_bytes = 32;
    const ev::EndpointId src = mgr_ep_;
    const bool ok = co_await env_.bus->post(src, gm_ep_, std::move(m),
                                            ev::TrafficClass::kMonitoring);
    // Only a delivery failure while this container is itself alive indicts
    // the GM: a crashed container's own endpoint is gone too, and a fault-
    // injected drop reports success by design (lossy-fabric semantics).
    if (!ok && env_.bus->find(src) != nullptr && state_ == State::kOnline &&
        env_.on_gm_unreachable) {
      env_.on_gm_unreachable();
    }
  }
}

des::Task<void> Container::metadata_exchange(std::size_t new_replicas,
                                             std::size_t existing,
                                             ProtocolReport& report) {
  const SimTime t0 = env_.sim->now();
  const std::uint32_t writers = env_.upstream_width(spec_.upstream);
  for (std::size_t i = existing; i < existing + new_replicas; ++i) {
    Replica& r = *replicas_.at(i);
    ev::Message cfg;
    cfg.type_id = kMidReplicaConfig;
    cfg.size_bytes = 512;
    co_await env_.bus->post(mgr_ep_, r.ep, std::move(cfg),
                            ev::TrafficClass::kMetadata);
    ev::Message hello;
    hello.type_id = kMidReplicaHello;
    co_await env_.bus->post(r.ep, mgr_ep_, std::move(hello),
                            ev::TrafficClass::kMetadata);
    report.metadata_messages += 2;
    // Contact exchange with the peer replicas already in the container.
    for (std::size_t j = 0; j < existing && j < replicas_.size(); ++j) {
      ev::Message peer;
      peer.type_id = kMidReplicaConfig;
      co_await env_.bus->post(r.ep, replicas_[j]->ep, std::move(peer),
                              ev::TrafficClass::kMetadata);
      ++report.metadata_messages;
    }
    // Every upstream DataTap writer must learn the new replica's contact
    // information before it can serve pulls to it.
    for (std::uint32_t w = 0; w < writers; ++w) {
      ev::Message contact;
      contact.type_id = kMidEndpointUpdate;
      contact.size_bytes = 512;
      co_await env_.bus->post(mgr_ep_, r.ep, std::move(contact),
                              ev::TrafficClass::kMetadata);
      ++report.metadata_messages;
    }
  }
  report.metadata_exchange += env_.sim->now() - t0;
}

des::Task<void> Container::endpoint_update(ProtocolReport& report) {
  const SimTime t0 = env_.sim->now();
  const std::uint32_t writers = env_.upstream_width(spec_.upstream);
  ev::EndpointId target = mgr_ep_;
  if (!spec_.upstream.empty()) {
    if (ev::Endpoint* up = env_.bus->find_by_name("cm." + spec_.upstream)) {
      target = up->id();
    }
  }
  for (std::uint32_t w = 0; w < writers; ++w) {
    ev::Message m;
    m.type_id = kMidEndpointUpdate;
    co_await env_.bus->post(mgr_ep_, target, std::move(m),
                            ev::TrafficClass::kMetadata);
    ++report.metadata_messages;
  }
  report.endpoint_update += env_.sim->now() - t0;
}

des::Task<void> Container::migrate_state(std::size_t replica_count,
                                         bool to_replicas,
                                         ProtocolReport& report) {
  if (!spec_.stateful || replica_count == 0) co_return;
  const des::SimTime t0 = env_.sim->now();
  auto& net = env_.bus->network();
  for (std::size_t i = 0; i < replica_count && i < replicas_.size(); ++i) {
    const net::NodeId node = replicas_[replicas_.size() - 1 - i]->node;
    if (to_replicas) {
      co_await net.transfer(head_node_, node, spec_.state_bytes);
    } else {
      co_await net.transfer(node, head_node_, spec_.state_bytes);
    }
  }
  report.state_migration += env_.sim->now() - t0;
}

des::Task<void> Container::stop_replicas(std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to && i < replicas_.size(); ++i) {
    replicas_[i]->stop->set();
  }
  input_->kick();
  for (std::size_t i = from; i < to && i < replicas_.size(); ++i) {
    if (replicas_[i]->proc.valid()) co_await replicas_[i]->proc;
  }
}

des::Task<ProtocolReport> Container::do_increase(
    std::vector<net::NodeId> add) {
  ProtocolReport rep;
  rep.action = "increase";
  rep.container = name();
  rep.delta = static_cast<int>(add.size());
  const SimTime t0 = env_.sim->now();
  if (add.empty() || state_ != State::kOnline) {
    rep.ok = false;
    co_return rep;
  }
  switch (spec_.model) {
    case sp::ComputeModel::kRoundRobin:
    case sp::ComputeModel::kTree: {
      // New replicas join the running cohort: no pause required.
      const SimTime ta = env_.sim->now();
      co_await env_.batch->aprun_launch();
      rep.aprun = env_.sim->now() - ta;
      if (fenced_) {  // evicted while launching: the grant is already gone
        rep.ok = false;
        co_return rep;
      }
      const std::size_t existing = replicas_.size();
      for (net::NodeId n : add) add_replica(n);
      co_await metadata_exchange(add.size(), existing, rep);
      co_await migrate_state(add.size(), /*to_replicas=*/true, rep);
      co_await endpoint_update(rep);
      break;
    }
    case sp::ComputeModel::kParallel: {
      // An MPI-style instance cannot grow in place: pause the upstream
      // writers, tear the instance down, and relaunch at the larger width
      // (Section III-D's discussion of aprun and MPI).
      const SimTime tp = env_.sim->now();
      co_await input_->pause();
      rep.pause_wait = env_.sim->now() - tp;
      co_await stop_replicas(0, replicas_.size());
      if (fenced_) {  // fence() already tore the instance down
        input_->resume();
        rep.ok = false;
        co_return rep;
      }
      for (auto& r : replicas_) env_.bus->close(r->ep);
      replicas_.clear();
      std::vector<net::NodeId> all = node_list_;
      node_list_.clear();
      all.insert(all.end(), add.begin(), add.end());
      const SimTime ta = env_.sim->now();
      co_await env_.batch->aprun_launch();
      rep.aprun = env_.sim->now() - ta;
      if (fenced_) {  // evicted mid-relaunch: do not resurrect the cohort
        input_->resume();
        rep.ok = false;
        co_return rep;
      }
      for (net::NodeId n : all) add_replica(n);
      co_await metadata_exchange(replicas_.size(), 0, rep);
      co_await endpoint_update(rep);
      input_->resume();
      break;
    }
    case sp::ComputeModel::kSerial:
      rep.ok = false;  // a serial component cannot use more nodes
      break;
  }
  IOC_CHECK(node_list_.size() == replicas_.size())
      << "replica/node ledger out of sync after increase of " << name();
  rep.total = env_.sim->now() - t0;
  co_return rep;
}

des::Task<DonePayload> Container::do_decrease(std::uint32_t count) {
  DonePayload done;
  ProtocolReport& rep = done.report;
  rep.action = "decrease";
  rep.container = name();
  rep.delta = -static_cast<int>(count);
  const SimTime t0 = env_.sim->now();
  count = std::min<std::uint32_t>(count, width());
  if (count == 0) {
    rep.ok = false;
    co_return done;
  }
  // Ask the upstream DataTap writers to pause so no timestep is lost while
  // the container shrinks — the dominant decrease cost (Fig. 5). The pause
  // accounting includes draining the victims' in-progress work, since a
  // replica cannot be removed mid-step.
  const SimTime tp = env_.sim->now();
  co_await input_->pause();
  if (fenced_) {  // evicted while paused: nothing left to shrink
    input_->resume();
    rep.ok = false;
    co_return done;
  }

  const std::size_t keep = replicas_.size() - count;
  if (spec_.model == sp::ComputeModel::kParallel) {
    co_await stop_replicas(0, replicas_.size());
    rep.pause_wait = env_.sim->now() - tp;
    if (fenced_) {  // fence() already tore the instance down
      input_->resume();
      rep.ok = false;
      co_return done;
    }
    for (auto& r : replicas_) env_.bus->close(r->ep);
    replicas_.clear();
    std::vector<net::NodeId> all = node_list_;
    node_list_.clear();
    done.freed_nodes.assign(all.begin() + static_cast<std::ptrdiff_t>(keep),
                            all.end());
    all.resize(keep);
    if (keep > 0) {
      const SimTime ta = env_.sim->now();
      co_await env_.batch->aprun_launch();
      rep.aprun = env_.sim->now() - ta;
      if (fenced_) {  // evicted mid-relaunch: do not resurrect the cohort
        input_->resume();
        rep.ok = false;
        co_return done;
      }
      for (net::NodeId n : all) add_replica(n);
      co_await metadata_exchange(replicas_.size(), 0, rep);
    }
  } else {
    co_await stop_replicas(keep, replicas_.size());
    rep.pause_wait = env_.sim->now() - tp;
    co_await migrate_state(count, /*to_replicas=*/false, rep);
    if (fenced_) {  // evicted mid-shrink: the ledger was repaired wholesale
      input_->resume();
      rep.ok = false;
      co_return done;
    }
    for (std::size_t i = keep; i < replicas_.size(); ++i) {
      done.freed_nodes.push_back(replicas_[i]->node);
      env_.bus->close(replicas_[i]->ep);
    }
    replicas_.resize(keep);
    node_list_.resize(keep);
  }
  co_await endpoint_update(rep);
  if (state_ == State::kOnline && !replicas_.empty()) input_->resume();
  IOC_CHECK(node_list_.size() == replicas_.size())
      << "replica/node ledger out of sync after decrease of " << name();
  IOC_CHECK(done.freed_nodes.size() == count)
      << "decrease of " << name() << " freed " << done.freed_nodes.size()
      << " nodes, expected " << count;
  rep.total = env_.sim->now() - t0;
  co_return done;
}

des::Task<DonePayload> Container::do_offline() {
  state_ = State::kOffline;  // silences metric emission immediately
  is_sink_ = false;
  DonePayload done = co_await do_decrease(width());
  done.report.action = "offline";
  IOC_CHECK(replicas_.empty())
      << "container " << name() << " still holds replicas after offline";
  output_->close();
  done_.set();
  IOC_INFO << "container " << name() << " taken offline";
  co_return done;
}

des::Task<void> Container::do_switch_to_disk(const SwitchToDiskPayload& p) {
  disk_mode_ = true;
  provenance_ = p.provenance;
  pending_ = p.pending;
  is_sink_ = true;
  output_->close();  // downstream is gone; end its readers cleanly
  IOC_INFO << "container " << name()
           << " switched output to disk; provenance=" << p.provenance
           << " pending=" << p.pending;
  co_return;
}

des::Task<ProtocolReport> Container::do_activate(
    std::vector<net::NodeId> nodes) {
  ProtocolReport rep;
  rep.action = "activate";
  rep.container = name();
  rep.delta = static_cast<int>(nodes.size());
  const SimTime t0 = env_.sim->now();
  if (state_ == State::kOnline || nodes.empty()) {
    rep.ok = false;
    co_return rep;
  }
  state_ = State::kOnline;
  fenced_ = false;  // a fenced container may be resurrected via activate
  const SimTime ta = env_.sim->now();
  co_await env_.batch->aprun_launch();
  rep.aprun = env_.sim->now() - ta;
  if (fenced_) {  // fenced again while launching
    rep.ok = false;
    co_return rep;
  }
  for (net::NodeId n : nodes) add_replica(n);
  co_await metadata_exchange(replicas_.size(), 0, rep);
  co_await endpoint_update(rep);
  rep.total = env_.sim->now() - t0;
  co_return rep;
}

des::Process Container::manager_loop() {
  ReplyCache replies;
  while (true) {
    // Re-resolve every iteration: an injected node crash (or a fence)
    // destroys the endpoint while this loop is suspended in a handler.
    ev::Endpoint* ep = env_.bus->find(mgr_ep_);
    if (ep == nullptr) break;
    auto msg = co_await ep->mailbox().get();
    if (!msg.has_value()) break;

    if (const ev::Message* cached = replies.find(*msg)) {
      ev::Message again = *cached;
      co_await env_.bus->post(mgr_ep_, msg->from, std::move(again));
      continue;
    }

    ev::Message reply;
    reply.type_id = kMidDone;
    reply.token = msg->token;

    // NOTE: tasks are materialized into named locals before co_await; GCC 12
    // miscompiles non-trivial temporaries inside co_await full-expressions
    // (double destruction of the coroutine argument copies).
    if (msg->type_id == kMidIncrease) {
      const auto* p = msg->as<IncreasePayload>();
      std::vector<net::NodeId> nodes;
      if (p != nullptr) nodes = p->nodes;
      auto task = do_increase(std::move(nodes));
      DonePayload done;
      done.report = co_await task;
      reply.payload = std::move(done);
    } else if (msg->type_id == kMidDecrease) {
      const auto* p = msg->as<DecreasePayload>();
      auto task = do_decrease(p != nullptr ? p->count : 0);
      reply.payload = co_await task;
    } else if (msg->type_id == kMidOffline) {
      auto task = do_offline();
      reply.payload = co_await task;
    } else if (msg->type_id == kMidQueryNeeds) {
      NeedsPayload needs;
      needs.extra_nodes = nodes_needed(last_items_);
      needs.predicted_latency = env_.cost->step_seconds(
          spec_.kind, spec_.model, last_items_, width() + needs.extra_nodes,
          spec_.threads_per_node);
      reply.type_id = kMidNeeds;
      reply.payload = needs;
    } else if (msg->type_id == kMidSwitchToDisk) {
      const auto* p = msg->as<SwitchToDiskPayload>();
      SwitchToDiskPayload payload;
      if (p != nullptr) payload = *p;
      auto task = do_switch_to_disk(payload);
      co_await task;
    } else if (msg->type_id == kMidActivate) {
      const auto* p = msg->as<IncreasePayload>();
      std::vector<net::NodeId> nodes;
      if (p != nullptr) nodes = p->nodes;
      auto task = do_activate(std::move(nodes));
      DonePayload done;
      done.report = co_await task;
      reply.payload = std::move(done);
    } else if (msg->type_id == kMidEnableHashes) {
      const auto* p = msg->as<EnableHashesPayload>();
      hashing_enabled_ = p == nullptr || p->enabled;
      IOC_INFO << "container " << name() << ": soft-error hashes "
               << (hashing_enabled_ ? "enabled" : "disabled");
    } else if (msg->type_id == kMidEndpointUpdate ||
               msg->type_id == kMidReplicaConfig ||
               msg->type_id == kMidReplicaHello) {
      continue;  // informational traffic from neighbours
    } else {
      IOC_WARN << "container " << name() << ": unknown control message "
               << msg->type();
      continue;
    }
    replies.record(*msg, reply);
    co_await env_.bus->post(mgr_ep_, msg->from, std::move(reply));
  }
}

}  // namespace ioc::core
