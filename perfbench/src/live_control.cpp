// live_control: a self-hosted svc::ServiceHost on one thread, driven by one
// client thread in a closed loop over 4 keep-alive connections. Each
// connection owns one pipeline (created over HTTP during set-up) and cycles
//
//   resize +1, resize -1, resize +1, GET /metrics,
//   resize -1, resize +1, resize -1, GET /metrics
//
// so resizes and scrapes run 3:1 and every cycle leaves widths and the
// spare pool where they were. svc (reactor, HTTP, frame codec, SocketBus)
// and the core GM round do the work. A request's next one is sent only
// after its response is parsed; an op is one request.
//
// The number of cycles is fixed by --seconds: every run serves the same
// requests, so the state the host accumulates per round (and with it peak
// RSS and op times) does not depend on how fast the host ran. The load runs
// in phases of kPhaseCycles cycles per connection, with the loopback
// reference run between phases (see README.md, "Host speed and the
// reference kernel").
//
// From outside, a request is one span; the reactor, HTTP parse, frame codec
// and GM round inside it are reported through counts the host exposes
// (host-thread CPU, SocketBus frames, the round's simulated time).
#include <poll.h>
#include <pthread.h>
#include <time.h>

#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "svc/host.h"
#include "svc/socket.h"
#include "svc/socket_bus.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace ioc;

constexpr std::size_t kConnections = 4;
constexpr int kCycle = 8;
/// Timed cycles per connection per requested second, sized so the run
/// roughly fills the budget on a 4-vCPU x86 host (about 1000 requests/s).
constexpr int kCyclesPerSecond = 32;
constexpr int kPhaseCycles = 2;
constexpr int kWarmupPhases = 10;
constexpr int kSetups = 3;
constexpr const char* kContainer = "bonds";
/// core.round_sim_ms: the first +1 rounds of each connection's timed phase
/// (each pipeline sees the same request sequence in every run, so the
/// sample repeats exactly; a time-limited count would not).
constexpr int kRoundSample = 16;

enum class Kind { kGrow, kShrink, kScrape };
constexpr Kind kPlan[kCycle] = {Kind::kGrow,   Kind::kShrink, Kind::kGrow,
                                Kind::kScrape, Kind::kShrink, Kind::kGrow,
                                Kind::kShrink, Kind::kScrape};

/// Runs the host's poll/pump loop on its own thread and can park it at a
/// loop boundary, so the client thread may read pipeline state safely.
class HostThread {
 public:
  HostThread() : host_(std::make_unique<svc::ServiceHost>()) {
    thread_ = std::thread([this] { loop(); });
  }
  ~HostThread() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
      pause_ = false;
    }
    cv_.notify_all();
    host_->stop();  // wakes the reactor
    thread_.join();
  }
  HostThread(const HostThread&) = delete;
  HostThread& operator=(const HostThread&) = delete;

  svc::ServiceHost& host() { return *host_; }
  void pause() {
    std::unique_lock<std::mutex> lk(mu_);
    pause_ = true;
    host_->stop();
    cv_.wait(lk, [this] { return parked_; });
  }
  void resume() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      pause_ = false;
    }
    cv_.notify_all();
  }
  /// CPU seconds the host thread has consumed.
  double cpu_s() {
    clockid_t cid{};
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &cid) != 0 ||
        clock_gettime(cid, &ts) != 0) {
      return 0;
    }
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

 private:
  void loop() {
    for (;;) {
      host_->poll_once(50);
      std::unique_lock<std::mutex> lk(mu_);
      if (quit_) return;
      if (pause_) {
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lk, [this] { return !pause_ || quit_; });
        parked_ = false;
        if (quit_) return;
      }
    }
  }

  std::unique_ptr<svc::ServiceHost> host_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool pause_ = false;
  bool parked_ = false;
  bool quit_ = false;
  std::thread thread_;  // last: starts after the state above exists
};

struct Response {
  int status = 0;
  std::string body;
};

/// Bytes of one complete response at the front of `buf` (0: incomplete),
/// with its status and body.
std::size_t parse_response(const std::string& buf, Response* out) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  std::size_t body = 0;
  const std::size_t cl = buf.find("Content-Length:");
  if (cl != std::string::npos && cl < head_end) {
    body = static_cast<std::size_t>(
        std::strtoull(buf.c_str() + cl + 15, nullptr, 10));
  }
  const std::size_t total = head_end + 4 + body;
  if (buf.size() < total) return 0;
  out->status = buf.size() > 12 ? std::atoi(buf.c_str() + 9) : 0;
  out->body.assign(buf, head_end + 4, body);
  return total;
}

std::string http_request(const char* method, const std::string& target,
                         const std::string& body) {
  std::string r = std::string(method) + " " + target +
                  " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    r += "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n";
  }
  return r + "\r\n" + body;
}

struct Client {
  std::unique_ptr<svc::Conn> io;
  std::uint64_t pipeline = 0;
  int pos = 0;            ///< position in kPlan of the request in flight
  bool waiting = false;
  int left = 0;           ///< requests still to complete
  std::uint64_t cycles = 0;  ///< cycles completed on this connection
  int rounds_sampled = 0;
  Clock::time_point sent_at{};
  bool traced = false;
};

/// Per-request outcome the run aggregates.
struct Done {
  Kind kind;
  double ms;
  bool ok;
  bool traced;
  std::size_t bytes;
  double round_sim_ms;  ///< grow/shrink: the response's total_s
};

class LoadLoop {
 public:
  explicit LoadLoop(std::uint16_t port) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = svc::connect_loopback(port);
      if (fd < 0) return;
      clients_.push_back(Client{std::make_unique<svc::Conn>(fd)});
    }
  }
  bool connected() const { return clients_.size() == kConnections; }
  std::vector<Client>& clients() { return clients_; }

  /// One blocking exchange on connection `i` (set-up traffic).
  bool exchange(std::size_t i, const std::string& req, Response* out) {
    Client& c = clients_[i];
    c.io->queue_write(req);
    for (;;) {
      if (!wait_io()) return false;
      const std::size_t n = parse_response(c.io->rbuf(), out);
      if (n > 0) {
        c.io->consume(n);
        return true;
      }
    }
  }

  /// Send the next request of `c`'s cycle.
  void send(Client& c, bool traced) {
    const Kind k = kPlan[c.pos];
    const std::string base = "/v1/pipelines/" + std::to_string(c.pipeline);
    std::string req;
    if (k == Kind::kScrape) {
      req = http_request("GET", "/metrics", "");
    } else {
      req = http_request("POST", base + "/resize",
                         std::string("{\"container\":\"") + kContainer +
                             "\",\"delta\":" +
                             (k == Kind::kGrow ? "1" : "-1") + "}");
    }
    c.waiting = true;
    c.traced = traced;
    c.sent_at = Clock::now();
    c.io->queue_write(req);
  }

  /// Every connection runs `cycles` whole cycles. `traced(c)`
  /// decides whether the request about to be sent on `c` is traced;
  /// `on_done` gets every response. False if a connection failed or stalled.
  template <typename Traced, typename OnDone>
  bool run_cycles(int cycles, Traced traced, OnDone on_done) {
    std::size_t active = clients_.size();
    for (Client& c : clients_) {
      c.left = cycles * kCycle;
      send(c, traced(c));
    }
    while (active > 0) {
      const bool ok = step([&](Client& c, const Done& d, Clock::time_point t0,
                               Clock::time_point t1) {
        on_done(c, d, t0, t1);
        if (--c.left > 0) {
          send(c, traced(c));
        } else {
          --active;
        }
      });
      if (!ok) return false;
    }
    return true;
  }

 private:
  /// Poll all connections once and hand each completed response to
  /// `on_done`. Returns false if a connection failed or stalled.
  template <typename OnDone>
  bool step(OnDone on_done) {
    if (!wait_io()) return false;
    for (Client& c : clients_) {
      Response r;
      const std::size_t n = c.waiting ? parse_response(c.io->rbuf(), &r) : 0;
      if (n == 0) continue;
      const auto now = Clock::now();
      c.io->consume(n);
      c.waiting = false;
      const Kind k = kPlan[c.pos];
      Done d{k,
             std::chrono::duration<double, std::milli>(now - c.sent_at)
                 .count(),
             check_response(r.status, r.body, k != Kind::kScrape),
             c.traced,
             r.body.size(),
             0};
      if (k != Kind::kScrape) {
        const std::size_t at = r.body.find("\"total_s\":");
        if (at != std::string::npos) {
          d.round_sim_ms = std::strtod(r.body.c_str() + at + 10, nullptr) *
                           1000.0;
        }
      }
      c.pos = (c.pos + 1) % kCycle;
      if (c.pos == 0) ++c.cycles;
      on_done(c, d, c.sent_at, now);
    }
    return true;
  }

  /// Wait for socket readiness and move bytes. False on a dead connection,
  /// or when nothing at all has moved for kStall (the run must end in
  /// bounded time even if the host wedges).
  bool wait_io() {
    pollfd fds[kConnections];
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      fds[i] = {clients_[i].io->fd(),
                static_cast<short>(POLLIN |
                                   (clients_[i].io->want_write() ? POLLOUT
                                                                 : 0)),
                0};
    }
    const int ready = ::poll(fds, clients_.size(), 1000);
    if (ready < 0) return false;
    if (ready == 0) return Clock::now() - last_io_ < kStall;
    last_io_ = Clock::now();
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLIN) != 0 && !clients_[i].io->read_some()) {
        return false;
      }
      if (!clients_[i].io->flush()) return false;
    }
    return true;
  }

  static constexpr std::chrono::seconds kStall{30};
  std::vector<Client> clients_;
  Clock::time_point last_io_ = Clock::now();
};

/// Widths and spare pool of every pipeline (host thread parked).
std::vector<PoolState> pool_state(svc::ServiceHost& host) {
  std::vector<PoolState> out;
  for (const auto& [id, e] : host.entries()) {
    PoolState s;
    for (const auto& cs : e.pipeline->spec().containers) {
      const core::Container* c = e.pipeline->container(cs.name);
      s.widths.push_back(c != nullptr && c->online() ? c->width() : 0);
    }
    s.spares = e.pipeline->pool().spare_count();
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t frames_sent(svc::ServiceHost& host) {
  std::uint64_t n = 0;
  for (const auto& [id, e] : host.entries()) {
    if (auto* b = dynamic_cast<svc::SocketBus*>(&e.pipeline->bus())) {
      n += b->frames_sent();
    }
  }
  return n;
}

/// Host + connections + pipelines, warmed up.
struct Rig {
  std::unique_ptr<HostThread> host;
  std::unique_ptr<LoadLoop> load;
};

bool set_up(Rig* rig, Report& report, SetupClock* clock) {
  rig->host = std::make_unique<HostThread>();
  rig->load = std::make_unique<LoadLoop>(rig->host->host().http_port());
  if (!rig->load->connected()) {
    report.note("live_control: connect failed");
    return false;
  }
  for (std::size_t i = 0; i < kConnections; ++i) {
    const std::string body =
        "{\"preset\":\"lammps_smartpointer\",\"sim_nodes\":1024,"
        "\"staging_nodes\":28,\"steps\":2,\"name\":\"live-" +
        std::to_string(i) + "\"}";
    Response r;
    if (!rig->load->exchange(i, http_request("POST", "/v1/pipelines", body),
                             &r) ||
        r.status != 201) {
      report.note("live_control: pipeline create failed (%d)", r.status);
      return false;
    }
    const std::size_t at = r.body.find("\"id\":");
    rig->load->clients()[i].pipeline =
        at == std::string::npos
            ? 0
            : std::strtoull(r.body.c_str() + at + 5, nullptr, 10);
  }
  clock->step();
  // Warm-up: the timed phases' traffic, checked but not timed as ops.
  bool ok = true;
  for (int i = 0; i < kWarmupPhases && ok; ++i) {
    ok = rig->load->run_cycles(
             kPhaseCycles, [](const Client&) { return false; },
             [&ok](Client&, const Done& d, Clock::time_point,
                   Clock::time_point) { ok = ok && d.ok; }) &&
         ok;
    clock->step();
  }
  if (!ok) report.note("live_control: warm-up request failed its check");
  return ok;
}

}  // namespace

RunResult live_control(const Args& args, Report& report) {
  Tracer tracer(args.trace, "live_control");
  LoopbackRef ref;
  std::vector<double> setups;
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    rig = Rig{};  // tear the previous one down first (untimed)
    SetupClock clock(&ref);
    if (!set_up(&rig, report, &clock)) return {};
    setups.push_back(clock.seconds());
  }
  rig.host->pause();
  const std::vector<PoolState> before = pool_state(rig.host->host());
  const std::uint64_t frames0 = frames_sent(rig.host->host());
  rig.host->resume();

  const int phases = args.seconds * kCyclesPerSecond / kPhaseCycles;
  Ops ops(args.seconds, &ref);
  ops.plan(static_cast<std::size_t>(phases) * kPhaseCycles * kCycle *
           kConnections);
  std::vector<Done> done;
  std::vector<double> round_sample;
  // Traced runs trace every other cycle of each connection, so traced and
  // untraced requests have the same resize/scrape mix.
  auto traced = [&tracer](const Client& c) {
    return tracer.enabled() && c.cycles % 2 == 0;
  };
  const double cpu0 = rig.host->cpu_s();
  ops.begin();
  bool io_ok = true;
  for (int ph = 0; ph < phases && io_ok; ++ph) {
    io_ok = rig.load->run_cycles(
        kPhaseCycles, traced,
        [&](Client& c, const Done& d, Clock::time_point t0,
            Clock::time_point t1) {
          if (d.traced) {
            tracer.record(d.kind == Kind::kScrape ? "svc.scrape_ms"
                                                  : "svc.resize_ms",
                          "svc", t0, t1);
          }
          ops.add(d.ms, 1.0, d.ok);
          done.push_back(d);
          if (d.kind == Kind::kGrow && c.rounds_sampled < kRoundSample) {
            ++c.rounds_sampled;
            round_sample.push_back(d.round_sim_ms);
          }
        });
    ops.mark();
  }
  const double host_cpu_s = rig.host->cpu_s() - cpu0;
  ops.finish();

  rig.host->pause();
  const std::vector<PoolState> after = pool_state(rig.host->host());
  const std::uint64_t frames = frames_sent(rig.host->host()) - frames0;
  rig.host->resume();
  const bool restored = io_ok && check_restored(before, after);
  rig = Rig{};

  std::size_t resizes = 0;
  std::vector<double> resize_ms, scrape_ms, scrape_bytes;
  std::vector<bool> op_traced;
  for (const Done& d : done) {
    op_traced.push_back(d.traced);
    if (d.kind == Kind::kScrape) {
      scrape_bytes.push_back(static_cast<double>(d.bytes));
      if (d.traced) scrape_ms.push_back(d.ms);
      continue;
    }
    ++resizes;
    if (d.traced) resize_ms.push_back(d.ms);
  }
  report.note("live_control: %zu connections, %llu requests (%zu resizes); "
              "widths and spare pool %s",
              kConnections, static_cast<unsigned long long>(ops.attempted()),
              resizes, restored ? "restored" : "NOT restored");
  const RunResult result{ops.attempted(), ops.failed() + (restored ? 0 : 1)};

  if (!args.trace) {
    report.end_to_end(ops, median(setups), "HTTP requests");
    return result;
  }
  double traced_ms = 0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    if (op_traced[i]) traced_ms += done[i].ms;
  }
  const double n = static_cast<double>(ops.attempted());
  report.add("svc.resize_ms_p50", percentile(resize_ms, 50), "ms");
  report.add("svc.resize_ms_p99", percentile(resize_ms, 99), "ms");
  report.add("svc.scrape_ms_p50", percentile(scrape_ms, 50), "ms");
  report.add("svc.scrape_ms_p99", percentile(scrape_ms, 99), "ms");
  report.add("svc.scrape_bytes", median(scrape_bytes), "B");
  report.add("svc.host_cpu_us_per_req", n > 0 ? host_cpu_s * 1e6 / n : 0,
             "us");
  report.add("ev.frames_per_resize",
             resizes > 0 ? static_cast<double>(frames) /
                               static_cast<double>(resizes)
                         : 0,
             "ratio");
  report.add("core.round_sim_ms", median(round_sample), "ms");
  report_trace_common(
      report, tracer,
      ops.op_rate([&](std::size_t i) { return op_traced[i]; }),
      ops.op_rate([&](std::size_t i) { return !op_traced[i]; }), traced_ms,
      drift_pct(ops.ms()), ops);
  if (!tracer.write(args.trace_out)) {
    report.note("live_control: cannot write %s", args.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
