// google-benchmark microbenchmarks of the real SmartPointer analytics
// kernels and the mini-LAMMPS force loop — the compute costs the DES cost
// model abstracts (see sp/costmodel.h for the calibration). Each threaded
// kernel runs a (size x threads) grid; threads == 1 takes the exact pre-
// parallel serial path so the baseline column is the historical cost.
//
// Besides the console table, the binary writes a machine-readable baseline
// (default BENCH_kernels.json, override with IOC_BENCH_JSON): one ledger row
// (tools/bench_ledger.h) of ns/atom per kernel x size x thread count, the
// artifact docs/PERFORMANCE.md reads and tools/bench_check gates in CI.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_ledger.h"
#include "md/force_lj.h"
#include "md/lattice.h"
#include "sp/bonds.h"
#include "sp/cna.h"
#include "sp/csym.h"
#include "sp/helper.h"

namespace {

using namespace ioc;

md::AtomData crystal(std::int64_t cells) {
  return md::make_fcc(static_cast<std::size_t>(cells),
                      static_cast<std::size_t>(cells),
                      static_cast<std::size_t>(cells),
                      md::kLjFccLatticeConstant);
}

void set_kernel_counters(benchmark::State& state, std::size_t atoms,
                         unsigned threads) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(atoms));
  state.counters["atoms"] = static_cast<double>(atoms);
  state.counters["threads"] = static_cast<double>(threads);
}

void run_lj_force(benchmark::State& state, md::AtomData atoms,
                  unsigned threads) {
  md::LjForce lj;
  md::CellList cells(atoms.box, lj.params().cutoff * lj.params().sigma);
  for (auto _ : state) {
    if (threads <= 1) {
      benchmark::DoNotOptimize(lj.compute(atoms));  // historical serial path
    } else {
      benchmark::DoNotOptimize(lj.compute(atoms, cells, threads));
    }
  }
  set_kernel_counters(state, atoms.size(), threads);
}

void BM_LjForce(benchmark::State& state) {
  run_lj_force(state, crystal(state.range(0)),
               static_cast<unsigned>(state.range(1)));
}
BENCHMARK(BM_LjForce)->ArgsProduct({{4, 8}, {1, 2, 4, 8}});

/// The perfbench insitu_crack crystal: a 10x8x4 slab whose 6.2 sigma z
/// extent holds only 2 cutoff bins, so the force runs the pair-list regime.
void BM_LjForceSlab(benchmark::State& state) {
  run_lj_force(state, md::make_fcc(10, 8, 4, md::kLjFccLatticeConstant),
               static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_LjForceSlab)->Arg(1)->Arg(2);

void BM_Bonds(benchmark::State& state) {
  auto atoms = crystal(state.range(0));
  sp::BondsConfig cfg;
  cfg.threads = static_cast<unsigned>(state.range(1));
  sp::BondAnalysis bonds(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bonds.compute(atoms));
  }
  set_kernel_counters(state, atoms.size(), cfg.threads);
}
BENCHMARK(BM_Bonds)->ArgsProduct({{4, 8}, {1, 2, 4, 8}});

void BM_BondsNaive(benchmark::State& state) {
  auto atoms = crystal(state.range(0));
  sp::BondAnalysis bonds;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bonds.compute_naive(atoms));
  }
  set_kernel_counters(state, atoms.size(), 1);
}
BENCHMARK(BM_BondsNaive)->Arg(4)->Arg(6);

void BM_Csym(benchmark::State& state) {
  auto atoms = crystal(state.range(0));
  sp::CsymConfig cfg;
  cfg.threads = static_cast<unsigned>(state.range(1));
  sp::CentralSymmetry csym(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csym.compute(atoms));
  }
  set_kernel_counters(state, atoms.size(), cfg.threads);
}
BENCHMARK(BM_Csym)->ArgsProduct({{4, 8}, {1, 2, 4, 8}});

void BM_Cna(benchmark::State& state) {
  auto atoms = crystal(state.range(0));
  sp::CnaConfig cfg;
  cfg.cutoff = 0.854 * md::kLjFccLatticeConstant;
  cfg.threads = static_cast<unsigned>(state.range(1));
  sp::CommonNeighborAnalysis cna(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cna.classify(atoms));
  }
  set_kernel_counters(state, atoms.size(), cfg.threads);
}
BENCHMARK(BM_Cna)->ArgsProduct({{4, 8}, {1, 2, 4, 8}});

void BM_HelperAggregate(benchmark::State& state) {
  auto atoms = crystal(8);
  auto chunks = sp::AggregationTree::scatter(
      atoms, static_cast<std::size_t>(state.range(0)));
  sp::AggregationTree tree(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.aggregate(chunks));
  }
}
BENCHMARK(BM_HelperAggregate)->Arg(4)->Arg(16)->Arg(64);

// ---------------------------------------------------------------------------
// BENCH_kernels.json emission

/// Console output as usual, plus one ledger row per run that carries the
/// atoms/threads counters (the kernel benchmarks; helper-tree runs are
/// console-only — their cost is per chunk, not per atom).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& r : reports) {
      if (r.error_occurred) continue;
      const auto atoms = r.counters.find("atoms");
      const auto threads = r.counters.find("threads");
      if (atoms == r.counters.end() || threads == r.counters.end() ||
          atoms->second.value <= 0) {
        continue;
      }
      bench::LedgerRow row;
      // The force loop is the simulation's (md); the rest are analytics (sp).
      row.layer =
          r.run_name.function_name.rfind("BM_LjForce", 0) == 0 ? "md" : "sp";
      row.name = r.benchmark_name();
      row.metric = "ns_per_atom";
      // GetAdjustedRealTime is in the benchmark's time unit (default ns).
      row.value = r.GetAdjustedRealTime() / atoms->second.value;
      row.unit = "ns";
      row.extra = {{"atoms", atoms->second.value},
                   {"threads", threads->second.value},
                   {"iterations", static_cast<double>(r.iterations)}};
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<bench::LedgerRow>& rows() const { return rows_; }

 private:
  std::vector<bench::LedgerRow> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* out = std::getenv("IOC_BENCH_JSON");
  const bool ok = ioc::bench::write_ledger(
      out != nullptr ? out : "BENCH_kernels.json", reporter.rows(),
      "kernel_microbench");
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
