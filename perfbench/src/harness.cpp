#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <new>
#include <stdexcept>

namespace perfbench {

std::atomic<std::uint64_t> g_allocs{0};

double rss_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec, so under a larger parent (run.py's
  // Python) it reads the parent's size.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) * 1024.0 / 1e6;  // KiB -> MB
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

Tail tail_of(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail t;
  t.samples = v.size();
  for (double p : kLadder) {
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(v.size()) * (100.0 - p) / 100.0 +
                   1e-9));
    if (beyond >= 10 || p == 50.0) {
      t.pct = p;
      t.beyond = beyond;
      t.value = percentile(v, p);
      return t;
    }
  }
  return t;
}

// --- HostRef -------------------------------------------------------------------

namespace {
constexpr std::size_t kRefMapSize = 1 << 14;
constexpr std::uint64_t kRefKeys = 1 << 20;
constexpr std::size_t kRefMapOps = 1500;
constexpr std::size_t kRefHeap = 1 << 15;
constexpr std::size_t kRefHeapOps = 15000;
/// Bytes per arena slot: room for any std::map node of Map.
constexpr std::size_t kRefSlot = 64;
}  // namespace

void* MemoryRef::Arena::get(std::size_t bytes) {
  if (bytes > kRefSlot) throw std::bad_alloc();
  if (free != nullptr) {
    void* p = free;
    free = *static_cast<void**>(p);
    return p;
  }
  const std::size_t words = kRefSlot / sizeof(std::max_align_t);
  if (used + words > mem.size()) throw std::bad_alloc();
  void* p = &mem[used];
  used += words;
  return p;
}

void MemoryRef::Arena::put(void* p) {
  *static_cast<void**>(p) = free;
  free = p;
}

std::uint64_t HostRef::next() {
  rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
  return rng_ >> 29;
}

double HostRef::run_ms() {
  pass();
  const auto t0 = Clock::now();
  pass();
  return ms_since(t0);
}

MemoryRef::MemoryRef() {
  arena_.mem.resize((kRefMapSize + 1) * kRefSlot / sizeof(std::max_align_t));
  while (map_.size() < kRefMapSize) map_.emplace(next() % kRefKeys, 0);
  for (std::size_t i = 0; i < kRefHeap; ++i) heap_.push_back(next());
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  run_ms();  // settle the map and heap into their steady-state layout
}

void MemoryRef::pass() {
  // Constant size: each op removes the key at or after a random point and
  // inserts a new one.
  for (std::size_t i = 0; i < kRefMapOps; ++i) {
    auto it = map_.lower_bound(next() % kRefKeys);
    map_.erase(it == map_.end() ? map_.begin() : it);
    while (!map_.emplace(next() % kRefKeys, i).second) {
    }
  }
  for (std::size_t i = 0; i < kRefHeapOps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.back() = heap_.front() + next() % 1024;
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
}

LoopbackRef::LoopbackRef() {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  const bool listening = listener >= 0 && ::bind(listener, sa, len) == 0 &&
                         ::listen(listener, 1) == 0 &&
                         ::getsockname(listener, sa, &len) == 0;
  if (listening) {
    tx_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tx_ >= 0 && ::connect(tx_, sa, len) == 0) {
      rx_ = ::accept(listener, nullptr, nullptr);
    }
  }
  if (listener >= 0) ::close(listener);
  if (rx_ < 0) {
    if (tx_ >= 0) ::close(tx_);
    throw std::runtime_error("LoopbackRef: cannot open a loopback connection");
  }
  const int one = 1;
  ::setsockopt(tx_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::setsockopt(rx_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  run_ms();
}

LoopbackRef::~LoopbackRef() {
  ::close(tx_);
  ::close(rx_);
}

void LoopbackRef::pass() {
  char buf[64] = {};
  for (int i = 0; i < 300; ++i) {
    pollfd p{rx_, POLLIN, 0};
    if (::write(tx_, buf, sizeof buf) != sizeof buf ||
        ::poll(&p, 1, 1000) != 1 || ::read(rx_, buf, sizeof buf) != sizeof buf) {
      throw std::runtime_error("LoopbackRef: round trip failed");
    }
  }
}

void SetupClock::step() {
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0_).count();
  s_ += ref_ == nullptr ? wall_s : wall_s * ref_->nominal_ms() / ref_->run_ms();
  t0_ = Clock::now();
}

// --- Ops -----------------------------------------------------------------------

namespace {

/// Reference runs either side of a segment in its smoothing window: a run
/// taken during a brief preemption moves no segment's scale on its own.
constexpr std::size_t kRefWindow = 2;

/// The nominal reference time over the median one in segment k's window.
double segment_scale(const HostRef& ref, const std::vector<double>& ref_ms,
                     std::size_t k) {
  const std::size_t lo = k > kRefWindow ? k - kRefWindow : 0;
  const std::size_t hi = std::min(ref_ms.size(), k + kRefWindow + 1);
  const double m = median(std::vector<double>(ref_ms.begin() + lo,
                                              ref_ms.begin() + hi));
  return m > 0 ? ref.nominal_ms() / m : 1;
}

}  // namespace

void Ops::begin() { t0_ = seg_t0_ = Clock::now(); }

double Ops::elapsed_s() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

void Ops::add(double ms, double work, bool ok) {
  wall_ms_.push_back(ms);
  end_s_.push_back(elapsed_s());
  work_.push_back(work);
  seg_of_.push_back(seg_wall_s_.size());
  if (!ok) ++failed_;
  const bool quarter = planned_ > 0 ? wall_ms_.size() == (planned_ + 3) / 4
                                    : end_s_.back() >= seconds_ / 4;
  if (rss_q1_ < 0 && quarter) rss_q1_ = rss_mb();
}

void Ops::mark() {
  seg_wall_s_.push_back(
      std::chrono::duration<double>(Clock::now() - seg_t0_).count());
  if (ref_ != nullptr) seg_ref_ms_.push_back(ref_->run_ms());
  seg_t0_ = Clock::now();
}

void Ops::finish() {
  rss_end_ = rss_mb();
  if (rss_q1_ < 0) rss_q1_ = rss_end_;
  if (!seg_of_.empty() && seg_of_.back() == seg_wall_s_.size()) mark();
  std::vector<double> scale(seg_wall_s_.size());
  double w = 0, s = 0, wall_s = 0;
  for (std::size_t k = 0; k < scale.size(); ++k) {
    scale[k] = ref_ == nullptr ? 1 : segment_scale(*ref_, seg_ref_ms_, k);
    s += seg_wall_s_[k] * scale[k];
    wall_s += seg_wall_s_[k];
  }
  ms_.clear();
  for (std::size_t i = 0; i < wall_ms_.size(); ++i) {
    ms_.push_back(wall_ms_[i] * scale[seg_of_[i]]);
    w += work_[i];
  }
  rate_ = s > 0 ? w / s : 0;
  wall_rate_ = wall_s > 0 ? w / wall_s : 0;
}

double Ops::rate() const { return rate_; }
double Ops::wall_rate() const { return wall_rate_; }

double Ops::host_factor() const {
  return ref_ == nullptr ? 1 : median(seg_ref_ms_) / ref_->nominal_ms();
}

double drift_pct(const std::vector<double>& units) {
  const std::size_t q = units.size() / 4;
  if (q == 0) return 0;
  const std::vector<double> first(units.begin(), units.begin() + q);
  const std::vector<double> last(units.end() - q, units.end());
  const double a = median(first);
  return a > 0 ? (median(last) / a - 1.0) * 100.0 : 0;
}

// --- Tracer --------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled),
      workload_(std::move(workload)),
      // Sized for the spans of one run; past it the oldest age out (the
      // aggregates below keep every duration regardless).
      sink_(enabled ? 1u << 18 : 1),
      origin_(Clock::now()) {}

Tracer::Span::Span(Tracer* t, const char* name, const char* layer)
    : t_(t), name_(name), layer_(layer) {
  if (t_ == nullptr) return;
  ++t_->depth_;
  start_ = Clock::now();
}

Tracer::Span::~Span() {
  if (t_ == nullptr) return;
  const bool top = --t_->depth_ == 0;
  t_->store(name_, layer_, start_, Clock::now(), top);
}

void Tracer::store(const char* name, const char* layer,
                   Clock::time_point start, Clock::time_point end, bool top) {
  auto ns = [this](Clock::time_point p) {
    return static_cast<ioc::des::SimTime>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(p - origin_)
            .count());
  };
  // Source = span name, so `ioc_trace summarize` rolls up one row per
  // layer metric; the detail names the workload.
  sink_.span(name, layer, name, step_, ns(start), ns(end), {}, workload_);
  const double ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  auto it = dur_.find(std::string_view(name));
  if (it == dur_.end()) it = dur_.emplace(name, std::vector<double>{}).first;
  it->second.push_back(ms);
  if (top) top_ms_ += ms;
}

const std::vector<double>& Tracer::durations(std::string_view name) const {
  static const std::vector<double> kNone;
  auto it = dur_.find(name);
  return it == dur_.end() ? kNone : it->second;
}

bool Tracer::write(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = ioc::trace::to_chrome_json(sink_);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

// --- Report --------------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::fputc('\n', stdout);
}

void Report::end_to_end(const Ops& ops, double setup_s,
                        const char* rate_unit) {
  const Tail tail = tail_of(ops.ms());
  add("setup_s", setup_s, "s");
  add("peak_rss_mb", peak_rss_mb(), "MB");
  add("rate_per_s", ops.rate(), "1/s");
  add("op_ms_p50", median(ops.ms()), "ms");
  add("op_ms_tail", tail.value, "ms");
  note("rate_per_s counts %s", rate_unit);
  if (ops.normalized()) {
    note("times are host-normalized (reference at %.2fx its nominal time); "
         "wall clock: rate_per_s %.6g, op_ms_p50 %.6g, op_ms_tail %.6g",
         ops.host_factor(), ops.wall_rate(), median(ops.wall_ms()),
         tail_of(ops.wall_ms()).value);
  } else {
    note("times are wall clock");
  }
  note("op_ms_tail is p%g of %zu ops (%zu beyond it)", tail.pct, tail.samples,
       tail.beyond);
}

void Report::print_result(std::uint64_t attempted,
                          std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += failed == 0 && attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const M& m = metrics_[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

void report_trace_common(Report& report, const Tracer& tracer,
                         double traced_rate, double untraced_rate,
                         double traced_op_ms, double drift, const Ops& ops) {
  report.add("trace.overhead_pct",
             untraced_rate > 0
                 ? (untraced_rate - traced_rate) / untraced_rate * 100.0
                 : 0,
             "%");
  report.add("bench.attributed_frac",
             traced_op_ms > 0 ? tracer.top_level_ms() / traced_op_ms : 0,
             "ratio");
  report.add("bench.drift_pct", drift, "%");
  report.add("bench.rss_growth_mb", ops.rss_end_mb() - ops.rss_q1_mb(), "MB");
  report.note("stationarity: op time %+.2f%% last vs first quarter; RSS "
              "%.1f -> %.1f MB",
              drift, ops.rss_q1_mb(), ops.rss_end_mb());
  report.note("trace: %llu spans recorded, %llu aged out of the ring",
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
