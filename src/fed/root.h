// The thin root coordinator of a federated fleet. Deliberately minimal: it
// holds no resource ledger and drives no pipeline — its only jobs are
//
//  * liveness: shards heartbeat to it; a shard silent past the timeout is
//    fenced (STONITH: its endpoints close, it may never act again) and its
//    pipelines fail over to the consistent-hash survivors, ledgers repaired
//    via ResourcePool::reconcile across the shard boundary;
//  * brokering cross-shard trades: a shard whose pool ran dry posts a
//    TRADE_REQ; the root picks the donor with the most reported spares and
//    drives a D2T-style begin/vote/decide exchange against both shards. The
//    root settles every trade in-process immediately after its rounds
//    (idempotently — members that already applied the decision are no-ops),
//    so an in-flight trade either completes or is fenced and reclaimed:
//    escrow can never leak past the trade's terminal marker.
//
// Every trade is bracketed in the root's control trace by TRADE_BEGIN and
// exactly one of TRADE_COMMIT / TRADE_ABORT / TRADE_FENCE (lint rule
// IOC106); failovers land as FAILOVER/REASSIGN markers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/rounds.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus.h"
#include "fed/hash.h"
#include "fed/shard.h"
#include "trace/sink.h"

namespace ioc::fed {

class Root {
 public:
  struct Options {
    des::SimTime sweep_interval = 20 * des::kMillisecond;
    /// A shard silent for this long is fenced and failed over.
    des::SimTime heartbeat_timeout = 100 * des::kMillisecond;
    des::SimTime trade_interval = 10 * des::kMillisecond;
    /// Retry ladder for root -> shard trade rounds.
    core::RoundOptions round{10 * des::kMillisecond, 3,
                             5 * des::kMillisecond, 40 * des::kMillisecond};
    std::size_t ring_vnodes = 64;
    trace::TraceSink* trace = nullptr;
    /// Fault-seeding knob for the IOC106 end-to-end test: a fenced trade
    /// skips the donor-side recovery settle AND its terminal marker — the
    /// exact escrow-leak bug the lint rule exists to catch. Never set in
    /// production paths.
    bool mutate_leak_escrow = false;
  };

  struct Stats {
    std::uint64_t failovers = 0;
    std::uint64_t pipelines_reassigned = 0;
    std::uint64_t trades_committed = 0;
    std::uint64_t trades_aborted = 0;
    std::uint64_t trades_fenced = 0;
    std::uint64_t trades_denied = 0;
  };

  Root(ev::Bus& bus, net::NodeId node, Options opt);
  ~Root();

  /// Register a shard (before start). Adds it to the consistent-hash ring
  /// and points it at the root's control endpoint.
  void add_shard(Shard* s);
  /// The shard that should own `pipeline` under the current (live) ring.
  const std::string& owner_of(const std::string& pipeline) const {
    return ring_.owner(pipeline);
  }
  const HashRing& ring() const { return ring_; }

  void start();
  /// Stop loops and close endpoints (fleet shutdown; not a failure).
  void shutdown();

  ev::EndpointId ctl_endpoint() const { return ctl_ep_; }

  /// Fence `s` and fail its pipelines over to the surviving shards. Called
  /// by the heartbeat sweep; exposed for tests that drive failover
  /// directly. Synchronous — the ledger handover is atomic in sim time.
  void failover(Shard* s);

  const Stats& stats() const { return stats_; }
  const std::vector<core::ControlTraceEvent>& control_trace() const {
    return trace_.events();
  }

 private:
  des::Process service_loop();
  des::Process sweep_loop();
  des::Process trade_loop();
  des::Task<void> run_trade(Shard* donor, Shard* recipient,
                            std::uint32_t count);
  /// Apply the decision of `txn` on `s`'s behalf whatever its state: live
  /// (or crashed-but-unswept) members settle through their own
  /// apply_decision; fenced members get their ledger side repaired from
  /// outside, into a pool that will survive.
  void settle_member(Shard* s, std::uint64_t txn, bool commit, bool as_donor,
                     const std::vector<net::NodeId>& nodes);
  /// The live pool that inherits a fenced shard's repairs: follow the heir
  /// chain recorded at failover to the first unfenced shard.
  Shard* live_heir(const std::string& dead_id);
  Shard* find_shard(const std::string& id) const;

  ev::Bus* bus_;
  net::NodeId node_;
  Options opt_;
  ev::EndpointId ctl_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId trade_ep_ = ev::kInvalidEndpoint;
  std::vector<Shard*> shards_;
  HashRing ring_;
  /// Everything the root tracks per shard heartbeat, in one record so the
  /// receive path pays one map lookup per beat, not two. Keyed by
  /// interned shard id: indexing must not build a temporary std::string.
  struct ShardHealth {
    des::SimTime last_hb = 0;
    std::uint32_t spares = 0;   // last reported
  };
  std::map<util::NameId, ShardHealth> health_;
  std::map<std::string, std::uint32_t> pending_req_;  // recipient -> count
  std::map<std::string, std::string> heir_;           // dead -> heir id
  std::uint64_t txn_counter_ = 0;
  bool stopped_ = false;
  Stats stats_;
  core::ControlTrace trace_;  ///< trade and failover markers only
  std::vector<des::Process> procs_;
};

}  // namespace ioc::fed
