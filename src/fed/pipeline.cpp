#include "fed/pipeline.h"

#include <algorithm>

#include "core/protocol.h"
#include "util/log.h"

namespace ioc::fed {

FedPipeline::FedPipeline(ev::Bus& bus, net::NodeId node, std::string name,
                         Options opt)
    : bus_(&bus), name_(std::move(name)), opt_(opt) {
  ep_ = bus_->open(node, "fed.pipe." + name_).id();
  proc_ = spawn(bus_->sim(), service_loop());
}

FedPipeline::~FedPipeline() {
  if (ep_ != ev::kInvalidEndpoint) bus_->close(ep_);
  // The fleet owns the simulator drain; here we only make sure the mailbox
  // is closed so the service loop can observe end-of-stream.
}

void FedPipeline::set_target(std::size_t n) {
  if (fenced_) return;
  target_ = n;
  if (target_ == width()) {
    demand_since_ = -1;  // demand met before any resize was needed
  } else {
    // Restamp: the SLA clock measures the latest demand change, so a demand
    // revised mid-flight is judged from the revision, not the original ask.
    demand_since_ = bus_->sim().now();
  }
}

void FedPipeline::note_converged() {
  if (demand_since_ >= 0 && width() == target_) {
    resize_latencies_.push_back(bus_->sim().now() - demand_since_);
    demand_since_ = -1;
  }
}

void FedPipeline::fence() {
  if (fenced_) return;
  fenced_ = true;
  if (fence_tick_ != nullptr) ++*fence_tick_;
  demand_since_ = -1;
  nodes_.clear();
  if (ep_ != ev::kInvalidEndpoint) {
    bus_->close(ep_);
    ep_ = ev::kInvalidEndpoint;
  }
}

des::Process FedPipeline::service_loop() {
  auto& sim = bus_->sim();
  while (true) {
    // Re-resolve every iteration: fence() (or a node crash) may close the
    // endpoint while we were suspended below.
    ev::Endpoint* self = bus_->find(ep_);
    if (self == nullptr) break;
    auto msg = co_await self->mailbox().get();
    if (!msg.has_value()) break;
    if (fenced_) continue;
    if (msg->from != owner_ep_) {
      // A resize from a manager that no longer owns this pipeline (it was
      // fenced and the pipeline failed over). Dropping it — not rejecting it
      // with a reply — matches a real CM that tore down the dead GM's
      // session: the stale coordinator gets silence, never a state change.
      ++stale_owner_drops_;
      IOC_WARN << "pipeline " << name_ << ": dropping stale " << msg->type()
               << " from non-owner endpoint " << msg->from;
      continue;
    }
    if (const ev::Message* cached = replies_.find(*msg)) {
      // Retry/duplicate of a round already applied: replay the recorded
      // reply (the at-most-once half of the Fig. 3 robustness story).
      ev::Message copy = *cached;
      co_await bus_->post(ep_, msg->from, std::move(copy));
      continue;
    }

    const bool grow = msg->type_id == core::kMidIncrease;
    if (!grow && msg->type_id != core::kMidDecrease) {
      continue;  // not part of the resize conversation
    }
    co_await des::delay(sim, opt_.apply_delay);
    if (fenced_ || bus_->find(ep_) == nullptr) break;  // fenced mid-apply
    core::DonePayload done;
    if (grow) {
      if (const auto* pay = msg->as<core::IncreasePayload>()) {
        nodes_.insert(nodes_.end(), pay->nodes.begin(), pay->nodes.end());
        done.report.delta = static_cast<int>(pay->nodes.size());
      }
    } else {
      const auto* pay = msg->as<core::DecreasePayload>();
      const std::size_t k = std::min<std::size_t>(
          pay != nullptr ? pay->count : 0, nodes_.size());
      done.freed_nodes.assign(nodes_.end() - static_cast<long>(k),
                              nodes_.end());
      nodes_.resize(nodes_.size() - k);
      done.report.delta = -static_cast<int>(k);
    }
    ++resizes_applied_;
    done.report.action = grow ? "increase" : "decrease";
    done.report.container = name_;
    done.report.total = opt_.apply_delay;
    done.report.ok = true;
    ev::Message reply;
    reply.type_id = core::kMidDone;
    reply.token = msg->token;
    reply.payload = std::move(done);
    note_converged();
    replies_.record(*msg, reply);
    co_await bus_->post(ep_, msg->from, std::move(reply));
  }
}

}  // namespace ioc::fed
