// Event-queue microbenchmark: the des::LadderQueue that now backs
// Simulator, head-to-head against the std::priority_queue binary heap it
// replaced. The workload is the classic "hold" model (steady state: one pop,
// one push at a random future offset, at a fixed pending-event count) plus
// an equal-timestamp burst (every event at one timestamp, ordered by seq —
// the FIFO tie-break the control plane relies on). Entries carry the same
// (t, seq) key as Simulator::Entry with a small payload; both queues see the
// identical deterministic event stream.
//
// Besides the console table, the binary writes BENCH_des.json (override with
// IOC_BENCH_DES_JSON): one ledger row (tools/bench_ledger.h) of ns/op per
// implementation x workload x pending count, gated by tools/bench_check.
// The committed repo-root BENCH_des.json is the baseline
// docs/PERFORMANCE.md quotes.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <queue>
#include <string>
#include <vector>

#include "bench_ledger.h"
#include "des/ladder_queue.h"
#include "des/time.h"
#include "util/rng.h"

namespace {

using namespace ioc;

struct Ev {
  des::SimTime t = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload = 0;
};

/// The pre-ladder event queue: std::priority_queue with the exact (t, seq)
/// comparator Simulator used to carry.
class HeapQueue {
 public:
  void push(Ev e) { q_.push(e); }
  Ev pop() {
    Ev e = q_.top();
    q_.pop();
    return e;
  }
  bool empty() const { return q_.empty(); }

 private:
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> q_;
};

using Ladder = des::LadderQueue<Ev>;

/// Hold model: prefill `pending` events, then alternate pop / push-at-
/// now+offset so the population is constant. Offsets are exponential-ish
/// (mostly short, occasionally long) to spread events unevenly, the regime
/// where bucket structures earn their keep.
template <class Q>
void BM_Hold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  Q q;
  util::Rng rng(20260808);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(Ev{static_cast<des::SimTime>(rng.below(1000000)), seq++, i});
  }
  des::SimTime now = 0;
  for (auto _ : state) {
    Ev e = q.pop();
    now = e.t;
    const auto offset =
        1 + static_cast<des::SimTime>(rng.below(1u << rng.below(20)));
    q.push(Ev{now + offset, seq++, e.payload});
    benchmark::DoNotOptimize(e.payload);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_Hold<HeapQueue>)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(300000);
BENCHMARK(BM_Hold<Ladder>)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(300000);

/// Equal-timestamp burst: push `pending` events at one timestamp, pop them
/// all back (they must come out in seq order), repeat at the next timestamp.
/// Exercises the FIFO tie-break path — schedule_now storms in the fleet.
template <class Q>
void BM_EqualBurst(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  Q q;
  std::uint64_t seq = 0;
  des::SimTime now = 0;
  for (auto _ : state) {
    ++now;
    for (std::size_t i = 0; i < pending; ++i) q.push(Ev{now, seq++, i});
    std::uint64_t check = 0;
    for (std::size_t i = 0; i < pending; ++i) check ^= q.pop().seq;
    benchmark::DoNotOptimize(check);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pending));
  state.counters["pending"] = static_cast<double>(pending);
}
BENCHMARK(BM_EqualBurst<HeapQueue>)->Arg(1000)->Arg(100000);
BENCHMARK(BM_EqualBurst<Ladder>)->Arg(1000)->Arg(100000);

// ---------------------------------------------------------------------------
// BENCH_des.json emission

/// Console output as usual, plus one ledger row per run.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& r : reports) {
      if (r.error_occurred) continue;
      const auto pending = r.counters.find("pending");
      if (pending == r.counters.end() || pending->second.value <= 0) continue;
      // Per queue operation: the burst workload counts every pop via
      // items_processed; the hold workload is one hold (pop+push) per
      // iteration.
      const bool burst =
          r.run_name.function_name.find("EqualBurst") != std::string::npos;
      const double ops =
          burst ? static_cast<double>(r.iterations) * pending->second.value
                : static_cast<double>(r.iterations);
      bench::LedgerRow row;
      row.layer = "des";
      row.name = r.benchmark_name();
      row.metric = "ns_per_op";
      row.value = r.GetAdjustedRealTime() *
                  static_cast<double>(r.iterations) / ops;
      row.unit = "ns";
      row.extra = {{"pending", pending->second.value},
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
  const char* out = std::getenv("IOC_BENCH_DES_JSON");
  const bool ok = ioc::bench::write_ledger(
      out != nullptr ? out : "BENCH_des.json", reporter.rows(),
      "des_queue_bench");
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
