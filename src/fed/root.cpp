#include "fed/root.h"

#include <algorithm>
#include <utility>

#include "txn/d2t_model.h"
#include "util/check.h"
#include "util/log.h"

namespace ioc::fed {

// Per-member token phases within a transaction's block (kTokensPerTxn wide).
// Donor and recipient rounds use disjoint tokens so a delayed duplicate of
// one member's reply can never complete the other member's round.
namespace {
constexpr std::uint64_t kDonorBase = 0;
constexpr std::uint64_t kRecipientBase = 3;
constexpr std::uint64_t kPhaseBegin = 0;
constexpr std::uint64_t kPhaseVote = 1;
constexpr std::uint64_t kPhaseDecide = 2;

bool is_round_error(const ev::Message& r) {
  return r.type_id == ev::kMidErrTimeout ||
         r.type_id == ev::kMidErrUnreachable ||
         r.type_id == ev::kMidErrClosed;
}
}  // namespace

Root::Root(ev::Bus& bus, net::NodeId node, Options opt)
    : bus_(&bus),
      node_(node),
      opt_(opt),
      ring_(opt.ring_vnodes),
      trace_(bus.sim()) {
  ctl_ep_ = bus_->open(node_, "fed.root.ctl").id();
  trade_ep_ = bus_->open(node_, "fed.root.trade").id();
}

Root::~Root() { shutdown(); }

void Root::add_shard(Shard* s) {
  shards_.push_back(s);
  ring_.add(s->manager_id());
  s->set_root(ctl_ep_);
  health_[s->manager_name()].last_hb = bus_->sim().now();
}

void Root::start() {
  procs_.push_back(spawn(bus_->sim(), service_loop()));
  procs_.push_back(spawn(bus_->sim(), sweep_loop()));
  procs_.push_back(spawn(bus_->sim(), trade_loop()));
}

void Root::shutdown() {
  stopped_ = true;
  if (ctl_ep_ != ev::kInvalidEndpoint) bus_->close(ctl_ep_);
  if (trade_ep_ != ev::kInvalidEndpoint) bus_->close(trade_ep_);
  ctl_ep_ = ev::kInvalidEndpoint;
  trade_ep_ = ev::kInvalidEndpoint;
}

Shard* Root::find_shard(const std::string& id) const {
  for (Shard* s : shards_) {
    if (s->manager_id() == id) return s;
  }
  return nullptr;
}

des::Process Root::service_loop() {
  while (true) {
    ev::Endpoint* self = bus_->find(ctl_ep_);
    if (self == nullptr) break;
    auto msg = co_await self->mailbox().get();
    if (!msg.has_value()) break;
    if (msg->type_id == core::kMidHeartbeat) {
      if (const auto* hb = msg->as<HeartbeatWire>()) {
        ShardHealth& h = health_[hb->shard];
        h.last_hb = bus_->sim().now();
        h.spares = hb->spares;
      }
    } else if (msg->type_id == kMidTradeReq) {
      if (const auto* req = msg->as<TradeRequestWire>()) {
        // Latest ask wins; the trade loop drains one request at a time.
        pending_req_[req->recipient] = req->count;
      }
    }
  }
}

des::Process Root::sweep_loop() {
  auto& sim = bus_->sim();
  while (!stopped_) {
    co_await des::delay(sim, opt_.sweep_interval);
    if (stopped_) break;
    for (Shard* s : shards_) {
      if (s->fenced()) continue;
      const des::SimTime silent =
          sim.now() - health_[s->manager_name()].last_hb;
      if (silent > opt_.heartbeat_timeout) failover(s);
    }
  }
}

void Root::failover(Shard* s) {
  const std::string dead = s->manager_id();
  // Pick the heir before removing the dead shard — successor() needs its
  // ring position to know where its arc drained to.
  const std::string heir_id = ring_.successor(dead);
  ring_.remove(dead);
  s->fence();
  heir_[dead] = heir_id;
  ++stats_.failovers;
  trace_.marker(dead, core::kMarkFailover);
  IOC_WARN << "root fencing shard " << dead << " (heartbeat timeout); heir "
           << (heir_id.empty() ? "<none>" : heir_id);

  for (FedPipeline* p : s->release_pipelines()) {
    // Ledger repair across the shard boundary: sync the dead shard's ledger
    // with the pipeline's ground truth (a resize the pipeline applied but
    // whose DONE died with the shard), then move exactly that node set to
    // the new owner's pool. No awaits from here through adopt(), so the
    // handover — reconcile, detach, attach, owner re-point — is atomic in
    // simulation time.
    s->pool().reconcile(p->name(), p->nodes());
    auto nodes = s->pool().detach_all(p->name());
    const std::string target_id = ring_.owner(p->name());
    Shard* target = target_id.empty() ? nullptr : find_shard(target_id);
    if (target == nullptr || target->fenced()) {
      // No shard left to own it: fence the pipeline, strand its nodes as
      // spares of the dead pool — conserved, unusable, and loudly logged.
      IOC_WARN << "no live shard for pipeline " << p->name()
               << "; fencing it";
      p->fence();
      s->pool().attach("", nodes);
      continue;
    }
    target->pool().attach(p->name(), nodes);
    target->adopt(p);
    ++stats_.pipelines_reassigned;
    trace_.marker(p->name(), core::kMarkReassign,
                  static_cast<int>(nodes.size()));
  }

  // Leftover spares drain to the heir (escrowed nodes stay put: the trade
  // recovery pass owns them and routes repairs through live_heir()).
  auto spares = s->pool().detach_spares(s->pool().total());
  if (!spares.empty()) {
    Shard* h = live_heir(dead);
    if (h != nullptr) {
      h->pool().attach("", spares);
    } else {
      s->pool().attach("", spares);  // whole fleet dead; conserved
    }
  }
}

Shard* Root::live_heir(const std::string& dead_id) {
  std::string cur = dead_id;
  // The heir chain is acyclic among fenced shards (each link was recorded
  // when its head was fenced, pointing at a then-unfenced shard), but cap
  // the walk anyway.
  for (std::size_t i = 0; i <= heir_.size(); ++i) {
    auto it = heir_.find(cur);
    if (it == heir_.end() || it->second.empty()) return nullptr;
    Shard* h = find_shard(it->second);
    if (h == nullptr) return nullptr;
    if (!h->fenced()) return h;
    cur = it->second;
  }
  return nullptr;
}

des::Process Root::trade_loop() {
  auto& sim = bus_->sim();
  while (!stopped_) {
    co_await des::delay(sim, opt_.trade_interval);
    if (stopped_) break;
    if (bus_->find(trade_ep_) == nullptr) break;
    // One trade at a time, strictly serialized: transaction ids (and with
    // them the D2T tokens) are monotone, which is what keeps the members'
    // O(1) at-most-once guards sound.
    std::string recip_id;
    std::uint32_t count = 0;
    for (auto& [r, c] : pending_req_) {
      Shard* rs = find_shard(r);
      if (c == 0 || rs == nullptr || rs->failed()) continue;
      recip_id = r;
      count = c;
      break;
    }
    if (recip_id.empty()) continue;
    pending_req_[recip_id] = 0;
    Shard* recipient = find_shard(recip_id);
    Shard* donor = nullptr;
    std::uint32_t best = 0;
    for (Shard* s : shards_) {
      if (s->failed() || s->manager_id() == recip_id) continue;
      const std::uint32_t sp = health_[s->manager_name()].spares;
      if (sp > best) {
        best = sp;
        donor = s;
      }
    }
    if (donor == nullptr || best == 0) {
      ++stats_.trades_denied;
      continue;
    }
    co_await run_trade(donor, recipient, std::min(count, best));
  }
}

des::Task<void> Root::run_trade(Shard* donor, Shard* recipient,
                                std::uint32_t count) {
  const std::uint64_t txn = ++txn_counter_;
  const std::string tid = "trade#" + std::to_string(txn);
  trace_.marker(tid, core::kMarkTradeBegin, static_cast<int>(count));

  const core::RoundHooks hooks{tid, &trace_, opt_.trace};
  auto round = [&](ev::MessageId type, std::uint64_t phase, Shard* member,
                   const TradeWire& w) -> des::Task<ev::Message> {
    ev::Message m;
    m.type_id = type;
    m.token = txn::d2t_token(txn, phase);
    m.payload = w;
    return core::run_control_round(*bus_, trade_ep_,
                                   member->trade_endpoint(), std::move(m),
                                   opt_.round, hooks);
  };

  TradeWire wire{txn, donor->manager_id(), recipient->manager_id(), count,
                 {}};
  bool fenced_round = false;
  bool donor_reachable = true;
  bool recipient_reachable = true;

  // Round 1: begin.
  ev::Message bd = co_await round(txn::kMidBegin, kDonorBase + kPhaseBegin,
                                  donor, wire);
  if (is_round_error(bd)) {
    fenced_round = true;
    donor_reachable = false;
  }
  ev::Message br = co_await round(txn::kMidBegin,
                                  kRecipientBase + kPhaseBegin, recipient,
                                  wire);
  if (is_round_error(br)) {
    fenced_round = true;
    recipient_reachable = false;
  }

  // Round 2: vote. Skipped entirely when begin already lost a member — the
  // transaction can only abort, and skipping keeps an unreachable member
  // from eating another retry ladder.
  bool donor_yes = false;
  bool recipient_yes = false;
  std::vector<net::NodeId> nodes;
  if (donor_reachable && recipient_reachable) {
    ev::Message vd = co_await round(txn::kMidVote, kDonorBase + kPhaseVote,
                                    donor, wire);
    if (vd.type_id == txn::kMidVoteYes) {
      donor_yes = true;
      if (const auto* tw = vd.as<TradeWire>()) nodes = tw->nodes;
    } else if (is_round_error(vd)) {
      fenced_round = true;
      donor_reachable = false;
    }
    ev::Message vr = co_await round(txn::kMidVote,
                                    kRecipientBase + kPhaseVote, recipient,
                                    wire);
    if (vr.type_id == txn::kMidVoteYes) {
      recipient_yes = true;
    } else if (is_round_error(vr)) {
      fenced_round = true;
      recipient_reachable = false;
    }
  }
  const bool commit = donor_yes && recipient_yes && !nodes.empty();

  // Round 3: decide, to the members still answering. Members that dropped
  // out are settled by the recovery pass below.
  TradeWire decided = wire;
  decided.nodes = nodes;
  decided.count = static_cast<std::uint32_t>(nodes.size());
  const ev::MessageId decision = commit ? txn::kMidCommit : txn::kMidAbort;
  if (donor_reachable) {
    ev::Message dd = co_await round(decision, kDonorBase + kPhaseDecide,
                                    donor, decided);
    if (is_round_error(dd)) fenced_round = true;
  }
  if (recipient_reachable) {
    ev::Message dr = co_await round(decision, kRecipientBase + kPhaseDecide,
                                    recipient, decided);
    if (is_round_error(dr)) fenced_round = true;
  }

  // Recovery settle, unconditionally and synchronously: members that
  // applied the decision live are no-ops (idempotent guards); members that
  // missed it — crashed, fenced, or past their retries — get their ledger
  // side repaired here. After this block the trade's escrow is gone:
  // dropped on the donor (commit), back in a live pool (abort), and the
  // traded nodes attached exactly once.
  const bool leak = opt_.mutate_leak_escrow && fenced_round;
  if (!leak) {
    settle_member(donor, txn, commit, /*as_donor=*/true, nodes);
  }
  settle_member(recipient, txn, commit, /*as_donor=*/false, nodes);
  if (!leak) {
    IOC_CHECK(!donor->has_escrow(txn) && !recipient->has_escrow(txn))
        << "trade " << txn << " settled but escrow survived";
    const char* terminal = fenced_round ? core::kMarkTradeFence
                          : commit      ? core::kMarkTradeCommit
                                        : core::kMarkTradeAbort;
    trace_.marker(tid, terminal, commit ? static_cast<int>(nodes.size()) : 0);
  }
  if (fenced_round) {
    ++stats_.trades_fenced;
  } else if (commit) {
    ++stats_.trades_committed;
  } else {
    ++stats_.trades_aborted;
  }
  if (trace::active(opt_.trace)) {
    opt_.trace->span("trade", "fed", tid, txn, bus_->sim().now(),
                     bus_->sim().now(),
                     {{"nodes", static_cast<double>(nodes.size())},
                      {"commit", commit ? 1.0 : 0.0}});
  }
}

void Root::settle_member(Shard* s, std::uint64_t txn, bool commit,
                         bool as_donor,
                         const std::vector<net::NodeId>& nodes) {
  if (!s->fenced()) {
    // Live or crashed-but-unswept: the shard's own (idempotent) settle. A
    // crashed shard's pool is still the right ledger — the coming failover
    // sweeps whatever we attach here over to the survivors.
    s->apply_decision(txn, commit, as_donor, nodes);
    return;
  }
  // Fenced member: its pool is frozen history. Repair into a live pool.
  if (as_donor) {
    auto esc = s->take_escrow(txn);
    if (!commit && !esc.empty()) {
      Shard* h = live_heir(s->manager_id());
      core::ResourcePool& pool = h != nullptr ? h->pool() : s->pool();
      pool.attach("", esc);
    }
    // On commit the escrow is simply dropped: the recipient-side settle
    // attaches the same nodes.
  } else if (commit) {
    Shard* h = live_heir(s->manager_id());
    core::ResourcePool& pool = h != nullptr ? h->pool() : s->pool();
    pool.attach("", nodes);
  }
  s->mark_settled(txn);
}

}  // namespace ioc::fed
