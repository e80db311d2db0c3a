// staged_campaign: the Fig. 9/10 managed pipeline,
// PipelineSpec::lammps_smartpointer(1024, 24), on the DES bus. One op is a
// whole campaign: construct, run(), destroy, with a fresh seed per op. The
// kernels are cost models here, so core (Container/GM policy), des, ev, dt,
// sio and net do the work; it is the only workload where core::Container
// runs over the DES bus.
//
// From outside, run() is one call: des/ev/dt inside it are reported as
// counts (events, ledger messages and bytes, steps emitted), not spans.
#include <memory>
#include <vector>

#include "checks.h"
#include "core/runtime.h"
#include "ev/bus_if.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ioc;

/// Timesteps per campaign: long enough that one op lasts tens of ms and
/// spans several of the host's short fast and slow spells (see fleet_soak).
constexpr std::uint64_t kSteps = 12000;
constexpr int kSetups = 3;
constexpr int kWarmupOps = 5;
constexpr ev::TrafficClass kClasses[] = {
    ev::TrafficClass::kControl, ev::TrafficClass::kMetadata,
    ev::TrafficClass::kMonitoring, ev::TrafficClass::kData};

struct Campaign {
  bool ok = false;
  std::uint64_t steps = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  ///< during run()
  std::size_t actions = 0;
  double e2e_last_s = 0;
  ev::TrafficStats traffic[4];
};

Campaign run_campaign(std::uint64_t seed, Tracer& tracer) {
  Campaign c;
  auto spec = core::PipelineSpec::lammps_smartpointer(1024, 24);
  spec.steps = kSteps;
  core::StagedPipeline::Options opt;
  opt.seed = seed;
  opt.horizon = static_cast<des::SimTime>(kSteps) * 60 * des::kSecond;
  std::unique_ptr<core::StagedPipeline> p;
  {
    auto s = tracer.span("core.build_ms", "core");
    p = std::make_unique<core::StagedPipeline>(std::move(spec), opt);
  }
  {
    auto s = tracer.span("core.run_ms", "core");
    const std::uint64_t a0 = allocs();
    p->run();
    c.allocs = allocs() - a0;
  }
  std::vector<Action> actions;
  for (const auto& e : p->events()) actions.push_back({e.action, e.container});
  c.ok = check_campaign(p->all_done(), actions);
  c.actions = actions.size();
  c.steps = p->steps_emitted();
  c.events = p->sim().events_processed();
  const auto e2e = p->hub().history_for("pipeline", mon::MetricKind::kEndToEnd);
  if (!e2e.empty()) c.e2e_last_s = e2e.back().value;
  for (std::size_t k = 0; k < 4; ++k) c.traffic[k] = p->bus().stats(kClasses[k]);
  {
    auto s = tracer.span("core.teardown_ms", "core");
    p.reset();
  }
  return c;
}

}  // namespace

RunResult staged_campaign(const Args& args, Report& report) {
  Tracer tracer(args.trace, "staged_campaign");
  MemoryRef ref;
  std::vector<double> setups;
  std::uint64_t op_seed = 0;
  for (int i = 0; i < kSetups; ++i) {
    SetupClock clock(&ref);
    for (int w = 0; w < kWarmupOps; ++w) {
      if (!run_campaign(mix_seed(args.seed, op_seed++), tracer).ok) {
        report.note("staged_campaign: warm-up campaign failed its check");
        return {};
      }
      clock.step();
    }
    setups.push_back(clock.seconds());
  }

  Ops ops(args.seconds, &ref);
  std::vector<Campaign> camps;
  ops.begin();
  for (std::uint64_t i = 0; i == 0 || !ops.time_up(); ++i) {
    tracer.set_active(i % 2 == 0);
    tracer.set_step(i);
    const auto t0 = Clock::now();
    Campaign c = run_campaign(mix_seed(args.seed, op_seed++), tracer);
    ops.add(ms_since(t0), static_cast<double>(c.steps), c.ok);
    camps.push_back(c);
    ops.mark();
  }
  ops.finish();
  const Campaign& first = camps.front();
  report.note("staged_campaign: %zu campaigns of %llu timesteps; first: %zu "
              "management actions, %llu DES events, last e2e %.3f s",
              camps.size(), static_cast<unsigned long long>(kSteps),
              first.actions, static_cast<unsigned long long>(first.events),
              first.e2e_last_s);

  if (!args.trace) {
    report.end_to_end(ops, median(setups), "simulated timesteps");
    return {ops.attempted(), ops.failed()};
  }

  // Traced ops are the even ones.
  double events = 0, alloc_count = 0, traced_ms = 0, traced_events = 0;
  ev::TrafficStats traffic[4];
  for (std::size_t i = 0; i < camps.size(); ++i) {
    events += static_cast<double>(camps[i].events);
    alloc_count += static_cast<double>(camps[i].allocs);
    for (std::size_t k = 0; k < 4; ++k) {
      traffic[k].messages += camps[i].traffic[k].messages;
      traffic[k].bytes += camps[i].traffic[k].bytes;
    }
    if (i % 2 == 0) {
      traced_ms += ops.wall_ms()[i];
      traced_events += static_cast<double>(camps[i].events);
    }
  }
  const double n = static_cast<double>(camps.size());
  double run_ms = 0;
  for (double d : tracer.durations("core.run_ms")) run_ms += d;
  report.add("core.build_ms", tracer.median_ms("core.build_ms"), "ms");
  report.add("core.run_ms", tracer.median_ms("core.run_ms"), "ms");
  report.add("core.teardown_ms", tracer.median_ms("core.teardown_ms"), "ms");
  report.add("des.events_per_op", static_cast<double>(first.events), "count");
  report.add("des.ns_per_event",
             traced_events > 0 ? run_ms * 1e6 / traced_events : 0, "ns");
  double msgs = 0, bytes = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::string cls = ev::traffic_class_name(kClasses[k]);
    const double m = static_cast<double>(traffic[k].messages) / n;
    const double b = static_cast<double>(traffic[k].bytes) / n;
    report.add("ev." + cls + ".msgs_per_op", m, "count");
    report.add("ev." + cls + ".bytes_per_op", b, "B");
    msgs += m;
    bytes += b;
  }
  report.add("ev.msgs_per_op", msgs, "count");
  report.add("ev.bytes_per_op", bytes, "B");
  report.add("core.allocs_per_event", events > 0 ? alloc_count / events : 0,
             "ratio");
  report.add("core.mgmt_actions", static_cast<double>(first.actions), "count");
  report.add("core.sim_e2e_s_last", first.e2e_last_s, "s");
  report.add("dt.steps_emitted", static_cast<double>(first.steps), "count");
  report_trace_common(report, tracer,
                      ops.op_rate([](std::size_t i) { return i % 2 == 0; }),
                      ops.op_rate([](std::size_t i) { return i % 2 == 1; }),
                      traced_ms, drift_pct(ops.ms()), ops);
  if (!tracer.write(args.trace_out)) {
    report.note("staged_campaign: cannot write %s", args.trace_out.c_str());
  }
  return {ops.attempted(), ops.failed()};
}

}  // namespace perfbench
