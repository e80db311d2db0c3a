// Shared machinery of the benchmark binary: per-op timing, the end-to-end
// metric definitions every workload reports, the benchmark's own wall-clock
// spans (the traced run), and the one-line JSON result.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/sink.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Global operator-new calls in this process. alloc_hook.cpp (linked into
/// the benchmark binary only) increments it; elsewhere it stays 0.
extern std::atomic<std::uint64_t> g_allocs;
inline std::uint64_t allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

/// Resident set size now / at its peak, in MB (10^6 bytes).
double rss_mb();
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace JSON (empty: nowhere).
  std::string trace_out;
};

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

/// The highest percentile of a fixed ladder that still has at least ten
/// samples beyond it (choosing-metrics: "the highest percentile that has at
/// least ten samples beyond it").
struct Tail {
  double pct = 50;
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(const std::vector<double>& v);

// --- host-speed reference ------------------------------------------------------

/// A fixed reference kernel that shares no code with the program. On a
/// shared host the workloads run at two speeds about 1.65x apart, in spells
/// of a few ops to minutes (see README.md, "Host speed and the reference
/// kernel"). The benchmark runs a reference after each op and scales the
/// op's wall time by nominal_ms() / (the reference's time nearby): an op
/// then reads what it would take on a host where the reference takes
/// nominal_ms(). Each workload uses the kind whose time follows its own.
class HostRef {
 public:
  HostRef() = default;
  HostRef(const HostRef&) = delete;
  HostRef& operator=(const HostRef&) = delete;
  virtual ~HostRef() = default;
  /// Run the reference twice and time the second pass (the first refills
  /// the caches the op just used); its wall time in ms.
  double run_ms();
  /// About the reference's time on the quiet 4-vCPU x86 host the bounds
  /// were set on; any fixed value works, as both sides of a comparison use
  /// it.
  virtual double nominal_ms() const = 0;

 protected:
  std::uint64_t next();
  virtual void pass() = 0;

 private:
  std::uint64_t rng_ = 0x243f6a8885a308d3ull;
};

/// Memory-walking reference (staged_campaign, fleet_soak): churn of an
/// ordered map and of a binary heap, both of constant size and in memory
/// of their own (never the heap the program allocates from, so the
/// program's allocations cannot move the reference's layout).
class MemoryRef final : public HostRef {
 public:
  MemoryRef();
  double nominal_ms() const override { return 1.5; }

 private:
  void pass() override;

  /// Fixed-size slots with a free list: the map's node storage.
  struct Arena {
    std::vector<std::max_align_t> mem;
    std::size_t used = 0;
    void* free = nullptr;
    void* get(std::size_t bytes);
    void put(void* p);
  };
  template <typename T>
  struct ArenaAlloc {
    using value_type = T;
    Arena* arena;
    explicit ArenaAlloc(Arena* a) : arena(a) {}
    template <typename U>
    ArenaAlloc(const ArenaAlloc<U>& o) : arena(o.arena) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(arena->get(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t) { arena->put(p); }
    bool operator==(const ArenaAlloc& o) const { return arena == o.arena; }
  };
  using Node = std::pair<const std::uint64_t, std::uint64_t>;
  using Map =
      std::map<std::uint64_t, std::uint64_t, std::less<>, ArenaAlloc<Node>>;

  Arena arena_;
  Map map_{ArenaAlloc<Node>(&arena_)};
  std::vector<std::uint64_t> heap_;
};

/// Numeric reference (insitu_crack): all-pairs Lennard-Jones forces on 512
/// particles in a periodic box, built with the kernel libraries' flags
/// (ref_kernel.cpp) so it vectorizes as they do.
class KernelRef final : public HostRef {
 public:
  KernelRef();
  double nominal_ms() const override { return 1.0; }

 private:
  void pass() override;

  std::vector<double> x_, y_, z_, f_;
  double box_ = 0;
  double energy_ = 0;
};

/// Loopback reference (live_control): 300 round trips of a 64-byte message
/// over a loopback TCP connection of its own, each a write, a poll and a
/// read, the system calls a served request is made of. Throws
/// std::runtime_error if the connection cannot be made or breaks.
class LoopbackRef final : public HostRef {
 public:
  LoopbackRef();
  ~LoopbackRef() override;
  double nominal_ms() const override { return 1.3; }

 private:
  void pass() override;

  int tx_ = -1;
  int rx_ = -1;
};

/// Host-normalized set-up time: the set-up's steps, each scaled by a
/// reference run right after it (the reference's own time is left out).
/// Without a reference it is plain wall time.
class SetupClock {
 public:
  explicit SetupClock(HostRef* ref) : ref_(ref), t0_(Clock::now()) {}
  /// Close a step of the set-up.
  void step();
  double seconds() const { return s_; }

 private:
  HostRef* ref_;
  Clock::time_point t0_;
  double s_ = 0;
};

// --- ops -----------------------------------------------------------------------

/// Every timed op of one run, in order, in segments: a segment is the wall
/// time between two reference runs (mark()), one op for most workloads.
/// Op times and the rate are host-normalized with the smoothed reference
/// time of their segment; the wall times are kept beside them. Without a
/// reference the two are the same.
class Ops {
 public:
  /// `seconds`: the measurement budget time_up() reports against.
  Ops(double seconds, HostRef* ref) : seconds_(seconds), ref_(ref) {}

  /// Start the measurement clock (after set-up).
  void begin();
  bool time_up() const { return elapsed_s() >= seconds_; }
  double elapsed_s() const;

  /// Record one op that took `ms` of wall time and completed `work` work
  /// units.
  void add(double ms, double work, bool ok);
  /// Close the current segment: run the host reference once.
  void mark();
  /// When set, the first-quarter RSS sample is taken after this many ops
  /// instead of after a quarter of the time budget (fixed-work runs).
  void plan(std::size_t total_ops) { planned_ = total_ops; }

  std::uint64_t attempted() const { return wall_ms_.size(); }
  std::uint64_t failed() const { return failed_; }
  /// Host-normalized op times (valid after finish()).
  const std::vector<double>& ms() const { return ms_; }
  const std::vector<double>& wall_ms() const { return wall_ms_; }

  /// Work units per host-normalized second of the segments, the time
  /// between ops included.
  double rate() const;
  /// The same over wall time.
  double wall_rate() const;
  bool normalized() const { return ref_ != nullptr; }
  /// Median reference time of the run over its nominal time (1: the quiet
  /// host).
  double host_factor() const;
  /// Σwork / Σ(normalized op seconds) over the ops whose index satisfies
  /// `pick`.
  template <typename Pick>
  double op_rate(Pick pick) const {
    double w = 0, s = 0;
    for (std::size_t i = 0; i < ms_.size(); ++i) {
      if (!pick(i)) continue;
      w += work_[i];
      s += ms_[i] / 1000.0;
    }
    return s > 0 ? w / s : 0;
  }
  /// RSS sampled at the end of the first quarter and at the end of the run.
  double rss_q1_mb() const { return rss_q1_; }
  double rss_end_mb() const { return rss_end_; }
  /// Close the last segment and normalize.
  void finish();

 private:
  double seconds_;
  HostRef* ref_;
  Clock::time_point t0_{};
  Clock::time_point seg_t0_{};
  std::vector<double> wall_ms_;
  std::vector<double> ms_;
  std::vector<double> end_s_;
  std::vector<double> work_;
  std::vector<std::size_t> seg_of_;  ///< each op's segment
  std::vector<double> seg_wall_s_;
  std::vector<double> seg_ref_ms_;
  std::uint64_t failed_ = 0;
  std::size_t planned_ = 0;
  double rss_q1_ = -1;
  double rss_end_ = 0;
  double rate_ = 0;
  double wall_rate_ = 0;
};

/// Percent change of the median over the last quarter of `units` against
/// the first quarter (the stationarity check); 0 with fewer than 4 units.
double drift_pct(const std::vector<double>& units);

// --- spans -------------------------------------------------------------------

/// The benchmark's own spans around its calls into each module. Span names
/// are the per-layer metric names; the category is the module. Spans are
/// kept in a trace::TraceSink (in memory) and written out once as Chrome
/// trace JSON, which `ioc_trace summarize` reads. Disabled (the untraced
/// run, or an untraced op of the traced run) a span costs one branch.
class Tracer {
 public:
  Tracer(bool enabled, std::string workload);
  bool enabled() const { return enabled_; }
  /// Record spans for the ops that follow (the traced run alternates).
  void set_active(bool on) { active_ = enabled_ && on; }
  bool active() const { return active_; }

  class Span {
   public:
    Span(Tracer* t, const char* name, const char* layer);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
    const char* name_;
    const char* layer_;
    Clock::time_point start_;
  };
  Span span(const char* name, const char* layer) {
    return Span(active_ ? this : nullptr, name, layer);
  }
  /// Record a span with explicit bounds, as an outermost span (requests
  /// overlapping on several connections cannot nest as scoped spans).
  void record(const char* name, const char* layer, Clock::time_point start,
              Clock::time_point end) {
    if (enabled_) store(name, layer, start, end, true);
  }
  /// Current op index, stamped into each span's `step`.
  void set_step(std::uint64_t s) { step_ = s; }

  /// Durations (ms) of every recorded span with this name.
  const std::vector<double>& durations(std::string_view name) const;
  double median_ms(std::string_view name) const {
    return median(durations(name));
  }
  /// Time covered by outermost spans (depth 1), in ms.
  double top_level_ms() const { return top_ms_; }
  /// Write the retained spans as Chrome trace JSON. Returns false on I/O
  /// failure.
  bool write(const std::string& path) const;
  std::uint64_t recorded() const { return sink_.recorded(); }
  std::uint64_t dropped() const { return sink_.dropped(); }

 private:
  void store(const char* name, const char* layer, Clock::time_point start,
             Clock::time_point end, bool top);

  bool enabled_;
  bool active_ = false;
  std::string workload_;
  ioc::trace::TraceSink sink_;
  Clock::time_point origin_;
  std::uint64_t step_ = 0;
  int depth_ = 0;
  double top_ms_ = 0;
  std::map<std::string, std::vector<double>, std::less<>> dur_;
};

// --- report --------------------------------------------------------------------

/// Collects the metrics of one run and prints the result line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A human-readable line on stdout (never the last line).
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Print the five end-to-end metrics shared by every workload.
  void end_to_end(const Ops& ops, double setup_s, const char* rate_unit);
  /// The final JSON line: exactly correct / attempted / failed / metrics.
  void print_result(std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct M {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<M> metrics_;
};

/// Metrics every traced run reports: the tracing overhead (traced vs
/// untraced op rate, in percent), the share of traced op wall time covered
/// by layer spans, and the stationarity check (`drift`: op-time drift
/// between the first and last quarter of the run; RSS growth between the
/// same points).
void report_trace_common(Report& report, const Tracer& tracer,
                         double traced_rate, double untraced_rate,
                         double traced_op_ms, double drift, const Ops& ops);

/// Derive a per-op seed from the run seed (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i);

}  // namespace perfbench
