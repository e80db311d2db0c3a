// fleet_soak: fed::Fleet at 16 shards x 2048 pipelines, driven by
// start_soak(), equal sim-time advance_to() slices, then snapshot(), with
// seeded control-class drop/dup faults at a low rate. The des queue, the ev
// bus, the fed shard scans, txn D2T retries and fault do the work; there are
// no sockets and no kernels.
//
// The soak is one simulation whose length is fixed by --seconds (not by the
// wall clock), so every count it reports repeats exactly for a seed, and
// growth over a long soak shows in the first-vs-last-quarter drift instead
// of being reset by a rebuild.
#include <algorithm>
#include <memory>
#include <vector>

#include "checks.h"
#include "des/time.h"
#include "fed/fleet.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ioc;

/// One op: a slice of this much simulated time (hundreds of thousands of
/// events, tens of ms). Shorter slices fall wholly into one of the host's
/// fast or slow spells, which makes the median op time jump between two
/// levels from run to run.
constexpr des::SimTime kSlice = 6 * des::kSecond;
constexpr des::SimTime kWarmup = 2 * kSlice;
/// Slices per requested wall second, sized so a slice-loop of --seconds
/// seconds roughly fills the budget on a 4-core x86 host.
constexpr int kSlicesPerSecond = 14;
constexpr des::SimTime kSettle = 3 * des::kSecond;
constexpr int kSetups = 3;

fed::Fleet::Options fleet_options(std::uint64_t seed, des::SimTime horizon) {
  fed::Fleet::Options opt;
  opt.shards = 16;
  opt.pipelines = 2048;
  opt.staging_per_shard = 8;
  opt.horizon = horizon;
  opt.settle = kSettle;
  opt.demand_interval = 1 * des::kMillisecond;
  opt.demand_events = static_cast<std::size_t>(horizon / opt.demand_interval);
  opt.shard.heartbeat_interval = 1 * des::kMillisecond;
  opt.seed = seed;
  opt.faults_enabled = true;
  opt.faults.seed = seed;
  opt.faults.control.drop_rate = 0.001;
  opt.faults.control.duplicate_rate = 0.001;
  return opt;
}

/// Staging nodes in shard pools plus escrow.
std::size_t counted_nodes(fed::Fleet& f) {
  std::size_t n = f.open_escrow();
  for (std::size_t i = 0; i < f.shard_count(); ++i) {
    n += f.shard(i).pool().total();
  }
  return n;
}

std::uint64_t bus_messages(fed::Fleet& f) {
  std::uint64_t n = 0;
  for (auto c : {ev::TrafficClass::kControl, ev::TrafficClass::kMetadata,
                 ev::TrafficClass::kMonitoring, ev::TrafficClass::kData}) {
    n += f.bus().stats(c).messages;
  }
  return n;
}

}  // namespace

RunResult fleet_soak(const Args& args, Report& report) {
  Tracer tracer(args.trace, "fleet_soak");
  const int slices = std::max(4, args.seconds * kSlicesPerSecond);
  const des::SimTime horizon = kWarmup + slices * kSlice;

  MemoryRef ref;
  std::vector<double> setups, build_ms;
  std::unique_ptr<fed::Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    SetupClock clock(&ref);
    const auto t0 = Clock::now();
    fleet = std::make_unique<fed::Fleet>(fleet_options(args.seed, horizon));
    build_ms.push_back(ms_since(t0));
    clock.step();
    fleet->start_soak();
    // Warm-up: whole slices, each a set-up step.
    for (des::SimTime t = kSlice; t <= kWarmup; t += kSlice) {
      fleet->advance_to(t);
      clock.step();
    }
    setups.push_back(clock.seconds());
  }

  Ops ops(args.seconds, &ref);
  ops.plan(static_cast<std::size_t>(slices));
  double traced_ms = 0, traced_events = 0, events = 0;
  std::uint64_t alloc_count = 0, msgs = 0;
  ops.begin();
  for (int s = 1; s <= slices; ++s) {
    tracer.set_active(s % 2 == 0);
    tracer.set_step(static_cast<std::uint64_t>(s));
    const std::uint64_t e0 = fleet->sim().events_processed();
    const std::uint64_t m0 = bus_messages(*fleet);
    const std::uint64_t a0 = allocs();
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("fed.slice_ms", "fed");
      fleet->advance_to(kWarmup + s * kSlice);
    }
    const double ms = ms_since(t0);
    alloc_count += allocs() - a0;
    const double de =
        static_cast<double>(fleet->sim().events_processed() - e0);
    msgs += bus_messages(*fleet) - m0;
    events += de;
    if (tracer.active()) {
      traced_ms += ms;
      traced_events += de;
    }
    ops.add(ms, de, check_fleet(counted_nodes(*fleet), fleet->initial_nodes(),
                                fleet->open_escrow(), /*quiesced=*/false));
    ops.mark();
  }
  ops.finish();

  // Quiesce (untimed) and check the final snapshot.
  fleet->advance_to(horizon + kSettle);
  const fed::Fleet::Result r = fleet->snapshot();
  const bool final_ok =
      r.conserved && check_fleet(counted_nodes(*fleet), fleet->initial_nodes(),
                                 r.open_escrow, /*quiesced=*/true);
  const fault::Injector::Stats fs = fleet->injector()->stats();
  report.note("fleet_soak: 16x2048, %d slices of %.1f sim-s, %llu events; "
              "%llu resizes, %llu trades, %llu drops, %llu dups; final "
              "snapshot %s",
              slices, des::to_seconds(kSlice),
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.resizes),
              static_cast<unsigned long long>(r.trades_committed),
              static_cast<unsigned long long>(fs.dropped),
              static_cast<unsigned long long>(fs.duplicated),
              final_ok ? "conserved, no open escrow" : "FAILED");
  const RunResult result{ops.attempted(), ops.failed() + (final_ok ? 0 : 1)};

  if (!args.trace) {
    report.end_to_end(ops, median(setups), "DES events");
    return result;
  }

  std::vector<double> lat_ms;
  for (des::SimTime t : r.resize_latencies) {
    lat_ms.push_back(static_cast<double>(t) / des::kMillisecond);
  }
  report.add("fed.build_ms", median(build_ms), "ms");
  report.add("fed.slice_ms", tracer.median_ms("fed.slice_ms"), "ms");
  report.add("des.ns_per_event",
             traced_events > 0 ? traced_ms * 1e6 / traced_events : 0, "ns");
  report.add("fed.allocs_per_event",
             events > 0 ? static_cast<double>(alloc_count) / events : 0,
             "ratio");
  report.add("ev.msgs_per_event",
             events > 0 ? static_cast<double>(msgs) / events : 0, "ratio");
  report.add("fed.resizes", static_cast<double>(r.resizes), "count");
  report.add("fed.trades_committed", static_cast<double>(r.trades_committed),
             "count");
  report.add("fed.trades_aborted", static_cast<double>(r.trades_aborted),
             "count");
  report.add("txn.trades_denied", static_cast<double>(r.trades_denied),
             "count");
  report.add("fault.drops", static_cast<double>(fs.dropped), "count");
  report.add("fault.dups", static_cast<double>(fs.duplicated), "count");
  report.add("fed.converged_ratio",
             r.live_pipelines > 0
                 ? static_cast<double>(r.converged_pipelines) /
                       static_cast<double>(r.live_pipelines)
                 : 0,
             "ratio");
  report.add("fed.sim_resize_ms_p99", percentile(lat_ms, 99), "ms");
  report_trace_common(
      report, tracer,
      ops.op_rate([](std::size_t i) { return (i + 1) % 2 == 0; }),
      ops.op_rate([](std::size_t i) { return (i + 1) % 2 == 1; }), traced_ms,
      drift_pct(ops.ms()), ops);
  if (!tracer.write(args.trace_out)) {
    report.note("fleet_soak: cannot write %s", args.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
