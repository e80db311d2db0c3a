// One GM shard of a federated fleet: owns the consistent-hash slice of
// pipelines assigned to it and a private ResourcePool carved from the job's
// staging allocation, drives the Fig. 3 resize protocol against each
// pipeline with the shared retry ladder (core/rounds.h), and participates
// in the root's cross-shard D2T resource trades as donor or recipient.
//
// Failure roles:
//  * as a coordinator, a shard that loses its own endpoints mid-round stops
//    (crashed_) without fencing healthy pipelines — the root's heartbeat
//    sweep fences the shard and fails its pipelines over to survivors;
//  * as a trade participant, escrow is explicit: a donor's VOTE_YES detaches
//    the traded nodes from its pool into escrow_ keyed by transaction, and
//    only a decision (live delivery or the root's recovery pass) moves them
//    onward — to the recipient's pool on commit, back to the donor's on
//    abort. The fleet-level conservation invariant is therefore
//    sum(pool.total()) + sum(escrowed()) == constant at quiesce.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/resources.h"
#include "core/rounds.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus.h"
#include "fed/pipeline.h"
#include "fed/wire.h"
#include "trace/sink.h"
#include "txn/d2t_model.h"

namespace ioc::fed {

class Shard {
 public:
  struct Options {
    des::SimTime policy_interval = 20 * des::kMillisecond;
    des::SimTime heartbeat_interval = 25 * des::kMillisecond;
    /// Retry ladder for shard -> pipeline resize rounds.
    core::RoundOptions round{10 * des::kMillisecond, 3,
                             5 * des::kMillisecond, 40 * des::kMillisecond};
    trace::TraceSink* trace = nullptr;
  };

  struct Stats {
    std::uint64_t resizes = 0;          ///< completed resize rounds
    std::uint64_t escalations = 0;      ///< pipelines fenced by this shard
    std::uint64_t trade_requests = 0;   ///< TRADE_REQs sent to the root
    std::uint64_t nodes_donated = 0;    ///< nodes committed away in trades
    std::uint64_t nodes_received = 0;   ///< nodes gained from trades
  };

  Shard(ev::Bus& bus, std::string id, net::NodeId node,
        const std::vector<net::NodeId>& staging, Options opt);
  ~Shard();

  /// Spawn the policy / heartbeat / trade-participant loops. Call after
  /// set_root and initial pipeline placement.
  void start();

  /// Stable identity in the fleet; consistent hashing keys on it.
  const std::string& manager_id() const { return id_; }
  /// Interned form of manager_id(), cached at construction. The root's
  /// sweep and trade loops key their heartbeat/spares maps by this id every
  /// tick; re-interning the string there showed up in the fleet bench.
  util::NameId manager_name() const { return id_name_; }
  core::ResourcePool& pool() { return pool_; }
  /// True once the shard crashed or was fenced by the root.
  bool failed() const { return fenced_ || crashed_; }
  /// Every control message this shard exchanged, in order; feed it to
  /// lint::check_trace to audit a run offline.
  const std::vector<core::ControlTraceEvent>& control_trace() const {
    return trace_.events();
  }

  net::NodeId node() const { return node_; }
  ev::EndpointId ctl_endpoint() const { return ctl_ep_; }
  ev::EndpointId trade_endpoint() const { return trade_ep_; }
  void set_root(ev::EndpointId root) { root_ep_ = root; }

  /// Initial placement: take ownership of `p` (no ledger movement — the
  /// pipeline starts at width 0 and converges through the protocol).
  void add_pipeline(FedPipeline* p);
  /// Failover handover: take ownership of a pipeline whose ledger nodes the
  /// root already attached to this shard's pool. Re-reconciles against the
  /// pipeline's ground truth; synchronous (no awaits), so the owner switch
  /// and the ledger snapshot are atomic in simulation time.
  void adopt(FedPipeline* p);
  const std::vector<FedPipeline*>& pipelines() const { return pipelines_; }
  /// Failover: the root takes the dead shard's pipeline list (the shard is
  /// fenced and must never touch them again).
  std::vector<FedPipeline*> release_pipelines();

  /// Root STONITH: stop all loops, close endpoints, keep state readable
  /// (pool, escrow, guard) for the root's ledger repair and trade recovery.
  void fence();
  bool fenced() const { return fenced_; }
  bool crashed() const { return crashed_; }

  // --- trade-participant state, exposed for the root's recovery pass -------
  /// Nodes currently held in escrow across all open trades.
  std::size_t escrowed() const;
  bool has_escrow(std::uint64_t txn) const { return escrow_.count(txn) > 0; }
  /// Remove and return the escrow of `txn` (empty if none).
  std::vector<net::NodeId> take_escrow(std::uint64_t txn);
  /// Apply a trade decision exactly once (duplicates and already-settled
  /// transactions are no-ops): donor commit drops the escrow (the recipient
  /// attaches it), donor abort re-attaches it as spares, recipient commit
  /// attaches `nodes`. Used by the live decision delivery and by the root's
  /// recovery pass alike.
  void apply_decision(std::uint64_t txn, bool commit, bool as_donor,
                      const std::vector<net::NodeId>& nodes);
  /// Record a transaction as settled without touching the pool — the root's
  /// recovery pass repaired the ledgers itself (dead member), and any late
  /// decision delivery must be recognized as a duplicate.
  void mark_settled(std::uint64_t txn);

  const Stats& stats() const { return stats_; }
  /// Unmet demand across live pipelines (nodes wanted but not yet granted).
  std::size_t unmet_demand() const;

 private:
  des::Process policy_loop();
  des::Process heartbeat_loop();
  des::Process participant_loop();
  des::Task<void> resize(FedPipeline* p, int delta);
  void escalate_fence_pipeline(FedPipeline* p);

  ev::Bus* bus_;
  std::string id_;
  util::NameId id_name_ = util::kEmptyName;  ///< interned id_, for heartbeats
  net::NodeId node_;
  core::ResourcePool pool_;
  Options opt_;
  ev::EndpointId ctl_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId trade_ep_ = ev::kInvalidEndpoint;
  ev::EndpointId root_ep_ = ev::kInvalidEndpoint;
  std::vector<FedPipeline*> pipelines_;
  core::ControlTrace trace_;
  bool fenced_ = false;
  bool crashed_ = false;
  txn::D2tMemberGuard guard_;
  ev::Message last_vote_reply_;  // replayed on retried vote requests
  std::map<std::uint64_t, std::vector<net::NodeId>> escrow_;  // txn -> nodes
  Stats stats_;
  std::vector<des::Process> procs_;
};

}  // namespace ioc::fed
