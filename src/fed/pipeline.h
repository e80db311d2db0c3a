// A fleet-scale pipeline endpoint: the container-manager face of one
// analytics pipeline, reduced to what the federation control plane needs.
// Where core::Container models a full container (components, DataTap
// streams, metadata exchange), FedPipeline models only the Fig. 3 resize
// conversation — apply an INCREASE/DECREASE after a fixed delay, reply
// DONE — so a fleet of thousands of pipelines stays cheap enough to
// chaos-soak.
//
// Robustness pieces:
//  * the same bounded token -> reply cache as the real CM
//    (core::ReplyCache): a retried or duplicated round request replays the
//    recorded answer instead of resizing twice (at-most-once);
//  * an owner filter: only the shard currently owning this pipeline may
//    drive it. Failover re-points the owner atomically (in sim time) with
//    the ledger reconcile, so a resize a dead shard launched before it was
//    fenced either lands before the handover (and reconcile sees it) or is
//    dropped here — it can never mutate width after the new owner took a
//    ground-truth snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rounds.h"
#include "des/process.h"
#include "des/time.h"
#include "ev/bus.h"
#include "net/cluster.h"

namespace ioc::fed {

class FedPipeline {
 public:
  struct Options {
    /// Virtual cost of applying a resize (launching/retiring components).
    des::SimTime apply_delay = 2 * des::kMillisecond;
  };

  FedPipeline(ev::Bus& bus, net::NodeId node, std::string name,
              Options opt);
  ~FedPipeline();

  const std::string& name() const { return name_; }
  ev::EndpointId endpoint() const { return ep_; }
  std::size_t width() const { return nodes_.size(); }
  /// Ground truth for ResourcePool::reconcile after a failover.
  const std::vector<net::NodeId>& nodes() const { return nodes_; }
  bool fenced() const { return fenced_; }
  /// Optional observer bumped exactly once when the pipeline transitions to
  /// fenced. The fleet workload keeps its demand-cap sum incremental and
  /// uses this tick to know when a full rebuild is due — without it, every
  /// raise attempt rescans all pipelines, which dominates wall time at
  /// thousands of pipelines.
  void set_fence_tick(std::uint64_t* tick) { fence_tick_ = tick; }

  /// Only control requests from this endpoint are honored. Set at placement
  /// and on every failover handover (Shard::adopt).
  void set_owner(ev::EndpointId ep) { owner_ep_ = ep; }
  ev::EndpointId owner() const { return owner_ep_; }

  /// Workload demand. Restamps the resize clock when it changes the gap
  /// between demand and width; the clock stops (and a latency sample is
  /// recorded) when width converges to the target.
  void set_target(std::size_t n);
  std::size_t target() const { return target_; }

  /// STONITH from the control plane: stop answering, drop all nodes. The
  /// owning shard reclaims the ledger side.
  void fence();

  /// Demand-to-convergence latencies (virtual time), one sample per
  /// converged demand change — the resize-SLA distribution the fleet bench
  /// reports as p99.
  const std::vector<des::SimTime>& resize_latencies() const {
    return resize_latencies_;
  }
  std::uint64_t resizes_applied() const { return resizes_applied_; }
  std::uint64_t stale_owner_drops() const { return stale_owner_drops_; }
  /// Round replies held for at-most-once replay (at most
  /// core::ReplyCache::kCapacity).
  std::size_t cached_replies() const { return replies_.size(); }

 private:
  des::Process service_loop();
  void note_converged();

  ev::Bus* bus_;
  std::string name_;
  ev::EndpointId ep_ = ev::kInvalidEndpoint;
  ev::EndpointId owner_ep_ = ev::kInvalidEndpoint;
  Options opt_;
  std::vector<net::NodeId> nodes_;
  std::size_t target_ = 0;
  bool fenced_ = false;
  std::uint64_t* fence_tick_ = nullptr;
  des::SimTime demand_since_ = -1;  // -1: no unmet demand outstanding
  std::vector<des::SimTime> resize_latencies_;
  std::uint64_t resizes_applied_ = 0;
  std::uint64_t stale_owner_drops_ = 0;
  core::ReplyCache replies_;
  des::Process proc_;
};

}  // namespace ioc::fed
