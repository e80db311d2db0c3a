#include "core/rounds.h"

#include <utility>

#include "util/check.h"
#include "util/log.h"

namespace ioc::core {

void ControlTrace::track(const std::string& container, CmState initial) {
  fsm_.emplace(container, ProtocolFsm(initial));
}

void ControlTrace::control(const std::string& container,
                           std::string_view type, bool to_cm, int delta) {
  events_.push_back({sim_->now(), container, std::string(type), to_cm, delta});
  auto it = fsm_.find(container);
  if (it == fsm_.end()) return;
  const bool legal = it->second.advance(events_.back().type);
  IOC_CHECK(legal) << "protocol violation: " << type << " for container "
                   << container << " in state "
                   << cm_state_name(it->second.state());
  (void)legal;
}

void ControlTrace::marker(const std::string& container, const char* marker,
                          int delta) {
  events_.push_back({sim_->now(), container, marker, /*to_cm=*/true, delta});
}

void ControlTrace::escalate(const std::string& container, int delta) {
  marker(container, kMarkEscalate, delta);
  auto it = fsm_.find(container);
  if (it != fsm_.end()) it->second.reset(CmState::kOffline);
}

CmState ControlTrace::state(const std::string& container) const {
  auto it = fsm_.find(container);
  return it == fsm_.end() ? CmState::kIdle : it->second.state();
}

namespace {

bool mutating_round(const ev::Message& m) {
  return m.token != 0 &&
         (m.type_id == kMidIncrease || m.type_id == kMidDecrease ||
          m.type_id == kMidOffline || m.type_id == kMidActivate);
}

}  // namespace

const ev::Message* ReplyCache::find(const ev::Message& request) const {
  if (!mutating_round(request)) return nullptr;
  for (const auto& [token, reply] : entries_) {
    if (token == request.token) return &reply;
  }
  return nullptr;
}

void ReplyCache::record(const ev::Message& request, const ev::Message& reply) {
  if (!mutating_round(request)) return;
  if (entries_.size() < kCapacity) {
    entries_.emplace_back(request.token, reply);
  } else {
    entries_[oldest_] = {request.token, reply};
    oldest_ = (oldest_ + 1) % kCapacity;
  }
}

des::Task<ev::Message> run_control_round(ev::BusIf& bus, ev::EndpointId from,
                                         ev::EndpointId to, ev::Message m,
                                         const RoundOptions& opt,
                                         const RoundHooks& hooks) {
  const std::string_view type = m.type();
  const std::uint64_t token = m.token;
  auto& sim = bus.sim();
  ev::Message reply;
  for (int attempt = 0;; ++attempt) {
    if (bus.find(from) == nullptr) {
      // The coordinator itself died under this round (simulated crash).
      // Stop quietly; fencing a healthy peer for our own failure would
      // throw away its nodes for nothing.
      reply = ev::Message{};
      reply.type_id = ev::kMidErrClosed;
      reply.token = token;
      co_return reply;
    }
    ev::Message send = m;  // keep the original for a possible resend
    reply = co_await bus.request(from, to, std::move(send),
                                 ev::TrafficClass::kControl, opt.timeout);
    if (reply.type_id == ev::kMidErrClosed) co_return reply;
    const bool timeout = reply.type_id == ev::kMidErrTimeout;
    const bool unreachable = reply.type_id == ev::kMidErrUnreachable;
    if (!timeout && !unreachable) co_return reply;  // a real reply
    if (hooks.control != nullptr) {
      hooks.control->marker(hooks.peer, kMarkTimeout);
    }
    if (trace::active(hooks.trace)) {
      hooks.trace->span("timeout", "control", hooks.peer, token, sim.now(),
                        sim.now());
    }
    // A vanished endpoint never comes back (crash destroys endpoints;
    // restart does not resurrect them), so retrying only burns the clock.
    if (unreachable || attempt >= opt.retries) co_return reply;
    des::SimTime backoff = opt.backoff << attempt;
    if (backoff > opt.backoff_cap) backoff = opt.backoff_cap;
    if (hooks.control != nullptr) {
      hooks.control->marker(hooks.peer, kMarkRetry);
    }
    if (trace::active(hooks.trace)) {
      hooks.trace->span("retry", "control", hooks.peer, token, sim.now(),
                        sim.now());
    }
    IOC_WARN << hooks.peer << ": " << type << " round timed out; retry "
             << attempt + 1 << "/" << opt.retries;
    co_await des::delay(sim, backoff);
  }
}

}  // namespace ioc::core
