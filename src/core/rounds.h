// Control rounds, both ends: the retry ladder and ControlTrace every
// coordinator (the single GM, a federation shard, the federation root)
// drives and records with, and the ReplyCache every container manager
// (core::Container, fed::FedPipeline) answers through.
//
// The ladder: one token for the whole round (the receiver's ReplyCache
// recognizes a resend and replays its answer), TIMEOUT/RETRY markers and
// spans as the ladder climbs, capped exponential backoff between attempts,
// and a terminal error the caller escalates on.
//
// The driver never escalates itself: fencing a container, a pipeline, or a
// trade means different repairs (pool reclaim, failover, escrow recovery),
// so the caller keeps that rung. Return values:
//   * a real reply            — the round completed;
//   * ev::kErrClosed          — the caller's own endpoint died mid-round
//                               (the coordinator crashed, not the peer);
//   * ev::kErrTimeout /
//     ev::kErrUnreachable     — retries exhausted or the peer's endpoint is
//                               gone; the caller escalates/fences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "core/protocol_fsm.h"
#include "des/process.h"
#include "des/simulator.h"
#include "des/time.h"
#include "ev/bus_if.h"
#include "trace/sink.h"

namespace ioc::core {

/// The coordinator's control trace: every control message and robustness
/// marker in order, plus one Fig. 3 ProtocolFsm per tracked CM, advanced
/// alongside so debug builds (IOC_CHECK) catch an illegal sequence the
/// moment it happens. lint::check_trace replays the events offline.
class ControlTrace {
 public:
  /// Events are stamped with `sim`'s virtual clock.
  explicit ControlTrace(const des::Simulator& sim) : sim_(&sim) {}

  /// Start tracking `container`'s FSM; a tracked container keeps its state.
  void track(const std::string& container, CmState initial);
  /// A request (to_cm) or its terminating reply; advances the container's
  /// FSM when it is tracked.
  void control(const std::string& container, std::string_view type,
               bool to_cm, int delta);
  /// A robustness marker (protocol.h kMark*); never touches the FSM.
  void marker(const std::string& container, const char* marker,
              int delta = 0);
  /// An ESCALATE marker carrying the pool-view delta, and the FSM forced
  /// offline: fencing ends whatever conversation was in flight.
  void escalate(const std::string& container, int delta);

  /// Current FSM state of `container` (kIdle when untracked).
  CmState state(const std::string& container) const;
  const std::vector<ControlTraceEvent>& events() const { return events_; }

 private:
  const des::Simulator* sim_;
  std::vector<ControlTraceEvent> events_;
  std::map<std::string, ProtocolFsm> fsm_;
};

/// The CM's token -> reply cache for the mutating rounds (INCREASE /
/// DECREASE / OFFLINE / ACTIVATE carrying a token): a resend or duplicate
/// of a round already served replays the recorded reply, so a mutation
/// never executes twice when only its DONE was lost. Bounded to the newest
/// kCapacity replies, evicted oldest first; slots are added only as replies
/// arrive, since a fleet holds one cache per pipeline.
class ReplyCache {
 public:
  static constexpr std::size_t kCapacity = 64;

  /// The recorded reply to `request`, or nullptr.
  const ev::Message* find(const ev::Message& request) const;
  /// Remember `reply` as the answer to `request` (non-mutating requests
  /// are not kept).
  void record(const ev::Message& request, const ev::Message& reply);
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::uint64_t, ev::Message>> entries_;
  std::size_t oldest_ = 0;  ///< the slot the next record overwrites once full
};

struct RoundOptions {
  /// Deadline for one attempt. 0 waits forever (no ladder: the first reply,
  /// whenever it comes, ends the round).
  des::SimTime timeout = 0;
  /// Resend attempts after the first send.
  int retries = 3;
  des::SimTime backoff = 500 * des::kMillisecond;
  des::SimTime backoff_cap = 4 * des::kSecond;
};

/// Caller-side observers: kMarkTimeout / kMarkRetry markers for `peer` go
/// to the caller's `control` trace in ladder order; spans go to `trace`
/// labeled with `peer`.
struct RoundHooks {
  std::string peer;
  ControlTrace* control = nullptr;
  trace::TraceSink* trace = nullptr;
};

/// Drive one control round from `from` to `to`. `m.token` must already be
/// assigned (one token for the whole round, retries included).
des::Task<ev::Message> run_control_round(ev::BusIf& bus, ev::EndpointId from,
                                         ev::EndpointId to, ev::Message m,
                                         const RoundOptions& opt,
                                         const RoundHooks& hooks);

}  // namespace ioc::core
