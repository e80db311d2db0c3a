#include "fed/shard.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/log.h"

namespace ioc::fed {

Shard::Shard(ev::Bus& bus, std::string id, net::NodeId node,
             const std::vector<net::NodeId>& staging, Options opt)
    : bus_(&bus),
      id_(std::move(id)),
      node_(node),
      pool_(staging),
      opt_(opt),
      trace_(bus.sim()) {
  id_name_ = util::intern(id_);
  ctl_ep_ = bus_->open(node_, "fed.shard." + id_ + ".ctl").id();
  trade_ep_ = bus_->open(node_, "fed.shard." + id_ + ".trade").id();
}

Shard::~Shard() {
  if (ctl_ep_ != ev::kInvalidEndpoint) bus_->close(ctl_ep_);
  if (trade_ep_ != ev::kInvalidEndpoint) bus_->close(trade_ep_);
}

void Shard::start() {
  procs_.push_back(spawn(bus_->sim(), policy_loop()));
  procs_.push_back(spawn(bus_->sim(), heartbeat_loop()));
  procs_.push_back(spawn(bus_->sim(), participant_loop()));
}

void Shard::add_pipeline(FedPipeline* p) {
  pipelines_.push_back(p);
  p->set_owner(ctl_ep_);
  trace_.track(p->name(), core::CmState::kIdle);
}

void Shard::adopt(FedPipeline* p) {
  pipelines_.push_back(p);
  p->set_owner(ctl_ep_);
  // The root attached the dead shard's ledger entries for this pipeline to
  // our pool before calling adopt; re-reconcile against the pipeline's own
  // node list so ledger and ground truth agree from the first policy tick.
  pool_.reconcile(p->name(), p->nodes());
  trace_.track(p->name(), p->fenced() ? core::CmState::kOffline
                                      : core::CmState::kIdle);
}

std::vector<FedPipeline*> Shard::release_pipelines() {
  return std::exchange(pipelines_, {});
}

void Shard::fence() {
  if (fenced_) return;
  fenced_ = true;
  if (ctl_ep_ != ev::kInvalidEndpoint) bus_->close(ctl_ep_);
  if (trade_ep_ != ev::kInvalidEndpoint) bus_->close(trade_ep_);
  ctl_ep_ = ev::kInvalidEndpoint;
  trade_ep_ = ev::kInvalidEndpoint;
}

std::size_t Shard::escrowed() const {
  std::size_t n = 0;
  for (const auto& [txn, nodes] : escrow_) n += nodes.size();
  return n;
}

std::vector<net::NodeId> Shard::take_escrow(std::uint64_t txn) {
  auto it = escrow_.find(txn);
  if (it == escrow_.end()) return {};
  auto nodes = std::move(it->second);
  escrow_.erase(it);
  return nodes;
}

void Shard::apply_decision(std::uint64_t txn, bool commit, bool as_donor,
                           const std::vector<net::NodeId>& nodes) {
  // The root serializes trades and settles each one (live or via recovery)
  // before starting the next, so any transaction at or below the recorded
  // decision is already settled; applying a late duplicate would attach
  // nodes a second time.
  if (txn <= txn::d2t_txn_of(guard_.decided_token)) return;
  if (as_donor) {
    auto esc = take_escrow(txn);
    if (!esc.empty()) {
      if (commit) {
        stats_.nodes_donated += esc.size();  // the recipient attaches them
      } else {
        pool_.attach("", esc);
      }
    }
  } else if (commit) {
    pool_.attach("", nodes);
    stats_.nodes_received += nodes.size();
  }
  guard_.record_decision(txn::d2t_token(txn, 2));
  IOC_CHECK(pool_.conserved()) << "pool corrupted settling trade " << txn
                               << " at shard " << id_;
}

void Shard::mark_settled(std::uint64_t txn) {
  guard_.record_decision(txn::d2t_token(txn, 2));
}

std::size_t Shard::unmet_demand() const {
  std::size_t unmet = 0;
  for (const FedPipeline* p : pipelines_) {
    if (p->fenced()) continue;
    if (p->target() > p->width()) unmet += p->target() - p->width();
  }
  return unmet;
}

des::Process Shard::policy_loop() {
  auto& sim = bus_->sim();
  while (!fenced_ && !crashed_) {
    co_await des::delay(sim, opt_.policy_interval);
    if (fenced_ || crashed_) break;
    if (bus_->find(ctl_ep_) == nullptr) {
      crashed_ = true;
      break;
    }
    // Index loop: adopt() may append while we are suspended in a round.
    for (std::size_t i = 0; i < pipelines_.size(); ++i) {
      FedPipeline* p = pipelines_[i];
      if (p->fenced()) continue;
      const std::size_t w = p->width();
      const std::size_t t = p->target();
      if (t > w) {
        co_await resize(p, static_cast<int>(t - w));
      } else if (t < w) {
        co_await resize(p, -static_cast<int>(w - t));
      }
      if (fenced_ || crashed_) co_return;
    }
    // Demand the local pool cannot cover: ask the root to broker a trade.
    const std::size_t unmet = unmet_demand();
    if (unmet > 0 && pool_.spare_count() == 0 &&
        root_ep_ != ev::kInvalidEndpoint) {
      ev::Message m;
      m.type_id = kMidTradeReq;
      m.payload =
          TradeRequestWire{id_, static_cast<std::uint32_t>(unmet)};
      ++stats_.trade_requests;
      co_await bus_->post(ctl_ep_, root_ep_, std::move(m));
    }
  }
}

des::Process Shard::heartbeat_loop() {
  auto& sim = bus_->sim();
  while (!fenced_ && !crashed_) {
    co_await des::delay(sim, opt_.heartbeat_interval);
    if (fenced_ || crashed_) break;
    if (bus_->find(ctl_ep_) == nullptr) {
      crashed_ = true;
      break;
    }
    if (root_ep_ == ev::kInvalidEndpoint) continue;
    ev::Message m;
    m.type_id = core::kMidHeartbeat;
    m.size_bytes = 64;
    HeartbeatWire hb;
    hb.shard = id_name_;
    hb.spares = static_cast<std::uint32_t>(pool_.spare_count());
    m.payload = hb;
    co_await bus_->post(ctl_ep_, root_ep_, std::move(m),
                        ev::TrafficClass::kMonitoring);
  }
}

des::Task<void> Shard::resize(FedPipeline* p, int delta) {
  ev::Message m;
  std::vector<net::NodeId> granted;
  if (delta > 0) {
    granted = pool_.grant(p->name(), static_cast<std::size_t>(delta));
    if (granted.empty()) co_return;  // dry pool; the trade path covers it
    m.type_id = core::kMidIncrease;
    m.payload = core::IncreasePayload{granted};
  } else {
    m.type_id = core::kMidDecrease;
    m.payload = core::DecreasePayload{static_cast<std::uint32_t>(-delta)};
  }
  m.token = bus_->fresh_token();
  trace_.control(p->name(), m.type(), /*to_cm=*/true, 0);
  const core::RoundHooks hooks{p->name(), &trace_, opt_.trace};
  ev::Message reply = co_await core::run_control_round(
      *bus_, ctl_ep_, p->endpoint(), std::move(m), opt_.round, hooks);
  if (fenced_) co_return;  // the root fenced us mid-round: hands off
  if (reply.type_id == ev::kMidErrClosed) {
    // Our own endpoint died under the round (crash injection): stop without
    // fencing a healthy pipeline for our failure.
    crashed_ = true;
    co_return;
  }
  if (reply.type_id == ev::kMidErrTimeout ||
      reply.type_id == ev::kMidErrUnreachable) {
    escalate_fence_pipeline(p);
    co_return;
  }
  int applied = 0;
  const auto* done = reply.as<core::DonePayload>();
  if (done != nullptr) applied = done->report.delta;
  trace_.control(p->name(), reply.type(), /*to_cm=*/false, applied);
  if (done != nullptr) {
    if (!done->report.ok) {
      if (!granted.empty()) pool_.reclaim(p->name(), granted);
    } else if (!done->freed_nodes.empty()) {
      pool_.reclaim(p->name(), done->freed_nodes);
    }
  }
  ++stats_.resizes;
  IOC_CHECK(pool_.conserved())
      << "pool corrupted resizing " << p->name() << " at shard " << id_;
}

void Shard::escalate_fence_pipeline(FedPipeline* p) {
  const std::string name = p->name();
  IOC_WARN << "shard " << id_ << " escalating: fencing pipeline " << name;
  p->fence();
  const auto freed = pool_.reclaim_all(name);
  // Pool-view delta, as in the GM's fence path: an in-flight grant may not
  // have reached the trace ledger, so the lint replay settles a fenced
  // pipeline's width to zero regardless.
  trace_.escalate(name, -static_cast<int>(freed.size()));
  ++stats_.escalations;
  if (trace::active(opt_.trace)) {
    opt_.trace->span("escalate", "fed", name, 0, bus_->sim().now(),
                     bus_->sim().now(),
                     {{"freed", static_cast<double>(freed.size())}});
  }
  IOC_CHECK(pool_.conserved())
      << "pool corrupted fencing " << name << " at shard " << id_;
}

des::Process Shard::participant_loop() {
  while (true) {
    ev::Endpoint* self = bus_->find(trade_ep_);
    if (self == nullptr) break;
    auto msg = co_await self->mailbox().get();
    if (!msg.has_value()) break;
    if (fenced_) continue;

    if (msg->type_id == txn::kMidBegin) {
      // Begin changes no state; a retried begin just elicits another ack.
      ev::Message reply;
      reply.type_id = txn::kMidBegun;
      reply.token = msg->token;
      co_await bus_->post(trade_ep_, msg->from, std::move(reply));
    } else if (msg->type_id == txn::kMidVote) {
      const auto* wire = msg->as<TradeWire>();
      if (wire == nullptr) continue;
      const auto va = guard_.classify_vote(msg->token);
      ev::Message reply;
      reply.token = msg->token;
      if (va == txn::D2tMemberGuard::VoteAction::kStaleNo) {
        // Vote request for a trade that already decided: voting yes now
        // could escrow nodes nobody will ever settle.
        reply.type_id = txn::kMidVoteNo;
      } else if (va == txn::D2tMemberGuard::VoteAction::kReplay) {
        // Retried/duplicated vote: replay the recorded answer — crucially
        // including the escrowed node list, so the root can never see two
        // different escrows for one transaction.
        reply = last_vote_reply_;
      } else {
        bool yes = false;
        if (wire->donor == id_) {
          // Donor prepare = escrow: the nodes leave our pool entirely until
          // the decision lands, so a crash between vote and decide can
          // never double-count them.
          auto esc = pool_.detach_spares(wire->count);
          if (!esc.empty()) {
            TradeWire out = *wire;
            out.count = static_cast<std::uint32_t>(esc.size());
            out.nodes = esc;
            escrow_[wire->txn] = std::move(esc);
            reply.type_id = txn::kMidVoteYes;
            reply.payload = std::move(out);
            yes = true;
          } else {
            reply.type_id = txn::kMidVoteNo;
          }
        } else {
          // Recipient prepare reserves nothing: attaching nodes always
          // succeeds, so the recipient can always vote yes.
          reply.type_id = txn::kMidVoteYes;
          yes = true;
        }
        guard_.record_vote(msg->token, yes);
        last_vote_reply_ = reply;
      }
      co_await bus_->post(trade_ep_, msg->from, std::move(reply));
    } else if (txn::d2t_is_decision(msg->type_id)) {
      const auto* wire = msg->as<TradeWire>();
      if (wire != nullptr) {
        apply_decision(wire->txn, msg->type_id == txn::kMidCommit,
                       wire->donor == id_, wire->nodes);
      }
      ev::Message reply;
      reply.type_id = txn::kMidFinal;
      reply.token = msg->token;
      co_await bus_->post(trade_ep_, msg->from, std::move(reply));
    }
  }
}

}  // namespace ioc::fed
