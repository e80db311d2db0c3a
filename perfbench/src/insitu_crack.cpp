// insitu_crack: the paper's LAMMPS -> SmartPointer substrate on the real
// kernels. A notched, strained LJ crystal runs MdSim::run(k) per output
// epoch, then Helper -> Bonds -> CSym, until CSym confirms the break. From
// then on Bonds retires from the pipeline and CNA (on the crack region),
// fragment analysis and an sio write run instead. md/sp/par do nearly all
// the work; the control plane is idle. The two regimes are two kernel mixes:
// the post-break epochs are the tail.
//
// One pass is the whole trajectory from the same restored checkpoint, so
// every pass repeats the same epochs; set-up runs the reference pass whose
// break epoch and CNA label counts every timed epoch is checked against.
#include <memory>
#include <vector>

#include "checks.h"
#include "des/simulator.h"
#include "md/lattice.h"
#include "md/sim.h"
#include "sio/method.h"
#include "sio/writer.h"
#include "sp/bonds.h"
#include "sp/cna.h"
#include "sp/csym.h"
#include "sp/fragments.h"
#include "sp/helper.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ioc;

/// Kernel threads for md and sp. At this size 2 threads ran 20.6 epochs/s
/// against 20.1 for 1 (the kernels' grain limit parallelizes little of the
/// epoch), while every parallel region's wake-up exposed the epoch to the
/// other vCPU's stalls: p95/p50 was 1.30 with 2 threads, 1.16 with 1.
constexpr unsigned kThreads = 1;
/// The thread count par.kernel_speedup compares against 1.
constexpr unsigned kSpeedupThreads = 2;
constexpr int kStepsPerEpoch = 10;
constexpr int kMaxPreBreakEpochs = 60;
constexpr int kPostBreakEpochs = 8;
constexpr int kSetups = 3;
constexpr std::size_t kRanks = 8;  // emulated simulation ranks feeding Helper

md::MdConfig md_config() {
  md::MdConfig cfg;
  cfg.target_temperature = 0.02;
  cfg.thermostat_every = 25;
  cfg.strain_rate = 0.3;  // uniaxial loading along x
  cfg.threads = kThreads;
  return cfg;
}

/// The analytics stages, configured once.
struct Stages {
  sp::AggregationTree helper{2};
  sp::BondAnalysis bonds{{1.3, kThreads, nullptr}};
  sp::CentralSymmetry csym{{12, 1.6, kThreads, nullptr}};
  sp::BreakDetector detector{3.0, 0.03};
  sp::CommonNeighborAnalysis cna{{0.854 * md::kLjFccLatticeConstant,
                                  kThreads, nullptr}};
};

/// Modeled storage for the annotated post-break output, fresh per pass.
struct Storage {
  des::Simulator clock;
  sio::Filesystem fs{clock};
  sio::Group group{"crack.annotated"};
  std::unique_ptr<sio::Writer> writer;
  Storage() {
    group.define_var({"atoms", sio::DataType::kDouble, {0}});
    group.define_var({"labels", sio::DataType::kByte, {0}});
    writer = std::make_unique<sio::Writer>(
        clock, group, std::make_shared<sio::PosixMethod>(fs));
  }
  bool write(std::uint64_t step, std::size_t atoms, std::size_t labels) {
    struct Runner {
      static des::Process run(des::Task<bool> t, bool* ok) {
        *ok = co_await std::move(t);
      }
    };
    writer->open(step);
    writer->write("atoms", atoms * 3);
    writer->write("labels", labels);
    writer->attribute(sio::kAttrProvenance, "helper,bonds,csym,cna");
    bool ok = false;
    spawn(clock, Runner::run(writer->close(), &ok));
    clock.run();
    return ok;
  }
};

/// The prepared experiment: the checkpointed initial state, the reference
/// bond graph, and the reference outcome of every epoch.
struct Prepared {
  std::vector<char> checkpoint;
  std::size_t atoms = 0;
  sp::Adjacency reference_bonds;
  std::vector<EpochOutcome> reference;
  int break_epoch = 0;  // 1-based
};

class Pass {
 public:
  Pass(const Prepared& prep, Stages& stages, Tracer& tracer)
      : prep_(prep),
        st_(stages),
        tr_(tracer),
        sim_(md::MdSim::restore(prep.checkpoint, md_config())) {}

  /// One output epoch. `post_break`: the CNA regime.
  EpochOutcome epoch(int index, bool post_break) {
    EpochOutcome out;
    {
      auto s = tr_.span("md.step_ms", "md");
      sim_.run(kStepsPerEpoch);
    }
    md::AtomData frame;
    {
      auto s = tr_.span("sp.helper_ms", "sp");
      frame = st_.helper.aggregate(
          sp::AggregationTree::scatter(sim_.atoms(), kRanks));
    }
    if (!post_break) {
      auto s = tr_.span("sp.bonds_ms", "sp");
      const sp::Adjacency current = st_.bonds.compute(frame);
      out.broken_bonds =
          sp::BondAnalysis::broken_bonds(prep_.reference_bonds, current)
              .size();
    }
    std::vector<double> csp;
    {
      auto s = tr_.span("sp.csym_ms", "sp");
      csp = st_.csym.compute(frame);
      out.breaking = !post_break && st_.detector.detect(csp);
    }
    if (!post_break && !out.breaking) return out;
    // The break epoch and every epoch after it: CNA labels the crack region,
    // fragments are tracked, the annotated frame is written.
    const std::vector<std::uint32_t> region = st_.detector.region(csp);
    {
      auto s = tr_.span("sp.cna_ms", "sp");
      const sp::CnaResult labels = st_.cna.classify_subset(frame, region);
      for (std::uint32_t idx : region) {
        ++out.cna[static_cast<std::size_t>(labels.labels[idx])];
      }
    }
    {
      // Bonds has retired from the pipeline; fragment analysis builds the
      // bond graph it decomposes itself.
      auto s = tr_.span("sp.fragments_ms", "sp");
      const sp::Adjacency graph = st_.bonds.compute(frame);
      out.fragments = sp::find_fragments(frame, graph, kThreads).count();
    }
    {
      auto s = tr_.span("sio.write_ms", "sio");
      if (!storage_.write(static_cast<std::uint64_t>(index), frame.size(),
                          region.size())) {
        out.fragments = 0;  // a failed write fails the epoch's check
      }
    }
    return out;
  }

  const md::MdSim& sim() const { return sim_; }

 private:
  const Prepared& prep_;
  Stages& st_;
  Tracer& tr_;
  md::MdSim sim_;
  Storage storage_;
};

/// Build the crystal and run the reference pass (it doubles as warm-up).
bool prepare(std::uint64_t seed, Stages& stages, Tracer& tracer,
             Prepared* prep, SetupClock* clock) {
  md::MdSim sim(md::make_fcc(10, 8, 4, md::kLjFccLatticeConstant),
                md_config(), seed);
  const double hx = sim.atoms().box.hi.x;
  sim.carve_notch(0.0, 0.35 * hx, 1.0);
  sim.initialize_velocities();
  prep->checkpoint = sim.checkpoint();
  prep->atoms = sim.atoms().size();
  prep->reference_bonds = stages.bonds.compute(sim.atoms());
  prep->reference.clear();

  Pass pass(*prep, stages, tracer);
  for (int e = 1; e <= kMaxPreBreakEpochs; ++e) {
    prep->reference.push_back(pass.epoch(e, false));
    clock->step();
    if (prep->reference.back().breaking) {
      prep->break_epoch = e;
      break;
    }
  }
  if (prep->break_epoch == 0) return false;
  for (int e = 1; e <= kPostBreakEpochs; ++e) {
    prep->reference.push_back(pass.epoch(prep->break_epoch + e, true));
    clock->step();
  }
  return true;
}

}  // namespace

RunResult insitu_crack(const Args& args, Report& report) {
  Stages stages;
  Tracer tracer(args.trace, "insitu_crack");
  Prepared prep;
  KernelRef ref;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    SetupClock clock(&ref);
    if (!prepare(args.seed, stages, tracer, &prep, &clock)) {
      report.note("insitu_crack: no break within %d epochs",
                  kMaxPreBreakEpochs);
      return {};
    }
    setups.push_back(clock.seconds());
  }
  report.note("insitu_crack: %zu atoms, %d kernel threads, %d MD steps per "
              "epoch, break at epoch %d, %d CNA-regime epochs per pass",
              prep.atoms, kThreads, kStepsPerEpoch, prep.break_epoch,
              kPostBreakEpochs);

  // Timed: whole passes until the budget is spent; traced runs trace every
  // other pass.
  Ops ops(args.seconds, &ref);
  std::vector<bool> op_traced;
  std::uint64_t md_steps = 0, builds = 0;
  ops.begin();
  for (std::uint64_t p = 0; p == 0 || !ops.time_up(); ++p) {
    tracer.set_active(p % 2 == 0);
    Pass pass(prep, stages, tracer);
    const std::uint64_t builds0 = pass.sim().cell_builds();
    for (std::size_t e = 0; e < prep.reference.size(); ++e) {
      const int index = static_cast<int>(e) + 1;
      tracer.set_step(static_cast<std::uint64_t>(index));
      const auto t0 = Clock::now();
      const EpochOutcome got = pass.epoch(index, index > prep.break_epoch);
      const double ms = ms_since(t0);
      ops.add(ms, 1.0, check_epoch(prep.reference[e], got));
      op_traced.push_back(tracer.active());
      ops.mark();
    }
    md_steps += prep.reference.size() * kStepsPerEpoch;
    builds += pass.sim().cell_builds() - builds0;
  }
  ops.finish();
  std::vector<double> pass_ms;  // host-normalized epoch time of each pass
  for (std::size_t i = 0; i < ops.ms().size(); ++i) {
    if (i % prep.reference.size() == 0) pass_ms.push_back(0);
    pass_ms.back() += ops.ms()[i];
  }
  report.note("insitu_crack: %zu passes of %zu epochs", pass_ms.size(),
              prep.reference.size());

  if (!args.trace) {
    report.end_to_end(ops, median(setups), "output epochs");
    return {ops.attempted(), ops.failed()};
  }

  // par.kernel_speedup: Bonds+CSym on one frame, threads=1 vs
  // kSpeedupThreads.
  md::MdSim frame_sim = md::MdSim::restore(prep.checkpoint, md_config());
  const md::AtomData& frame = frame_sim.atoms();
  auto kernel_ms = [&frame](unsigned threads) {
    sp::BondAnalysis bonds({1.3, threads, nullptr});
    sp::CentralSymmetry csym({12, 1.6, threads, nullptr});
    std::vector<double> t;
    for (int r = 0; r < 15; ++r) {
      const auto t0 = Clock::now();
      const auto adj = bonds.compute(frame);
      const auto csp = csym.compute(frame);
      t.push_back(ms_since(t0));
      if (adj.bond_count() == 0 || csp.empty()) return 0.0;
    }
    return median(t);
  };
  const double serial_ms = kernel_ms(1);
  const double parallel_ms = kernel_ms(kSpeedupThreads);

  const double step_ms = tracer.median_ms("md.step_ms") / kStepsPerEpoch;
  report.add("md.step_ms", step_ms, "ms");
  report.add("md.ns_per_atom_step",
             step_ms * 1e6 / static_cast<double>(prep.atoms), "ns");
  report.add("md.cell_builds_per_step",
             static_cast<double>(builds) / static_cast<double>(md_steps),
             "ratio");
  for (const char* name : {"sp.helper_ms", "sp.bonds_ms", "sp.csym_ms",
                           "sp.cna_ms", "sp.fragments_ms", "sio.write_ms"}) {
    report.add(name, tracer.median_ms(name), "ms");
  }
  report.add("par.kernel_speedup",
             parallel_ms > 0 ? serial_ms / parallel_ms : 0, "x");
  report.add("sp.branch_epoch", prep.break_epoch, "count");
  double traced_ms = 0;
  for (std::size_t i = 0; i < op_traced.size(); ++i) {
    if (op_traced[i]) traced_ms += ops.wall_ms()[i];
  }
  report_trace_common(
      report, tracer, ops.op_rate([&](std::size_t i) { return op_traced[i]; }),
      ops.op_rate([&](std::size_t i) { return !op_traced[i]; }), traced_ms,
      drift_pct(pass_ms), ops);
  report.note("par.kernel_speedup: Bonds+CSym %.3f ms at 1 thread, %.3f ms "
              "at %u",
              serial_ms, parallel_ms, kSpeedupThreads);
  if (!tracer.write(args.trace_out)) {
    report.note("insitu_crack: cannot write %s", args.trace_out.c_str());
  }
  return {ops.attempted(), ops.failed()};
}

}  // namespace perfbench
