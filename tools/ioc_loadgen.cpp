// ioc_loadgen: HTTP load generator for the live service plane (src/svc).
//
// Opens N concurrent keep-alive connections against a ServiceHost control
// API and drives R total GET requests across them (alternating the pipeline
// listing and the Prometheus endpoint), measuring per-request wall-clock
// latency from write to fully parsed response. Emits BENCH_svc.json (the
// ledger format of bench_ledger.h: p99_ms and requests_per_sec rows) for
// bench_check:
//
//   ioc_loadgen --self-host --connections 256 --requests 4096 --out BENCH_svc.json
//
// --self-host runs a ServiceHost (with a live SocketBus pipeline) on a
// background thread and aims the load at it; --port aims at an already
// running host instead. A response that never arrives counts in `dropped`,
// and any drop (or short run) makes the exit status 1: a drop is a
// correctness failure, not a slow run.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_ledger.h"
#include "svc/host.h"
#include "svc/reactor.h"
#include "svc/socket.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Bytes of one complete HTTP/1.1 response at the front of `buf`, or 0 if
/// more data is needed. Content-Length framing only (what HttpServer emits).
std::size_t response_size(const std::string& buf) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return 0;
  std::size_t body = 0;
  const std::size_t cl = buf.find("Content-Length:");
  if (cl != std::string::npos && cl < head_end) {
    body = static_cast<std::size_t>(
        std::strtoull(buf.c_str() + cl + 15, nullptr, 10));
  }
  const std::size_t total = head_end + 4 + body;
  return buf.size() >= total ? total : 0;
}

/// One blocking request/response exchange (setup traffic, not measured).
bool blocking_request(std::uint16_t port, const std::string& request,
                      std::string* response) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  response->clear();
  char chunk[4096];
  while (response_size(*response) == 0) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response->append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response_size(*response) != 0;
}

struct ClientConn {
  std::unique_ptr<ioc::svc::Conn> io;
  Clock::time_point sent_at;
  bool waiting = false;
};

struct LoadStats {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::vector<double> latencies_ms;
};

const char* kTargets[] = {"/v1/pipelines", "/metrics"};

std::string request_for(std::uint64_t n) {
  return std::string("GET ") + kTargets[n % 2] +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t connections = 256;
  std::uint64_t requests = 4096;
  std::uint16_t port = 0;
  bool self_host = false;
  std::string out = "BENCH_svc.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--connections") {
      connections = static_cast<std::size_t>(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--requests") {
      requests = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--port") {
      port = static_cast<std::uint16_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--self-host") {
      self_host = true;
    } else if (arg == "--out") {
      out = next();
    } else {
      std::fprintf(stderr,
                   "usage: ioc_loadgen [--self-host | --port P] "
                   "[--connections N] [--requests R] [--out FILE]\n");
      return 2;
    }
  }
  if (connections == 0 || requests == 0) {
    std::fprintf(stderr, "ioc_loadgen: need connections > 0, requests > 0\n");
    return 2;
  }

  std::unique_ptr<ioc::svc::ServiceHost> host;
  std::thread host_thread;
  if (self_host) {
    host = std::make_unique<ioc::svc::ServiceHost>();
    port = host->http_port();
    host_thread = std::thread([&host] { host->run(); });
  }
  if (port == 0) {
    std::fprintf(stderr, "ioc_loadgen: need --self-host or --port\n");
    return 2;
  }

  // Seed the host with one live pipeline so the listing endpoint has real
  // content to serialize (and, self-hosted, a SocketBus campaign has run).
  {
    const std::string body =
        "{\"preset\":\"lammps_smartpointer\",\"sim_nodes\":64,"
        "\"staging_nodes\":13,\"steps\":4,\"name\":\"loadgen\"}";
    const std::string req =
        "POST /v1/pipelines HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    std::string resp;
    if (!blocking_request(port, req, &resp) ||
        resp.compare(0, 12, "HTTP/1.1 201") != 0) {
      std::fprintf(stderr, "ioc_loadgen: pipeline setup POST failed\n");
      if (host) {
        host->stop();
        host_thread.join();
      }
      return 1;
    }
  }

  ioc::svc::Reactor reactor;
  std::vector<ClientConn> conns(connections);
  LoadStats stats;
  stats.latencies_ms.reserve(requests);
  std::uint64_t next_request = 0;

  auto send_next = [&](std::size_t idx) {
    ClientConn& c = conns[idx];
    if (stats.sent >= requests || c.waiting || c.io == nullptr) return;
    ++stats.sent;
    c.waiting = true;
    c.sent_at = Clock::now();
    c.io->queue_write(request_for(next_request++));
    reactor.mod(c.io->fd(),
                c.io->want_write() ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  };

  auto on_event = [&](std::size_t idx) {
    ClientConn& c = conns[idx];
    if (c.io == nullptr) return;
    const bool alive = c.io->read_some();
    if (!c.io->flush()) {
      reactor.del(c.io->fd());
      c.io.reset();
      return;
    }
    for (;;) {
      const std::size_t total = response_size(c.io->rbuf());
      if (total == 0) break;
      c.io->consume(total);
      if (c.waiting) {
        c.waiting = false;
        ++stats.completed;
        stats.latencies_ms.push_back(ms_between(c.sent_at, Clock::now()));
      }
      send_next(idx);
    }
    if (!alive) {
      reactor.del(c.io->fd());
      c.io.reset();
      return;
    }
    reactor.mod(c.io->fd(),
                c.io->want_write() ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
  };

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < connections; ++i) {
    const int fd = ioc::svc::connect_loopback(port);
    if (fd < 0) {
      std::fprintf(stderr, "ioc_loadgen: connect %zu failed\n", i);
      continue;
    }
    conns[i].io = std::make_unique<ioc::svc::Conn>(fd);
    reactor.add(fd, EPOLLIN | EPOLLOUT,
                [&, i](std::uint32_t) { on_event(i); });
    send_next(i);
  }

  // 60s is a generous ceiling for loopback traffic; anything still
  // outstanding at that point is genuinely dropped and fails the gate.
  const auto deadline = t0 + std::chrono::seconds(60);
  while (stats.completed < stats.sent && Clock::now() < deadline) {
    reactor.poll(100);
    for (std::size_t i = 0; i < connections; ++i) send_next(i);
    bool any = false;
    for (const auto& c : conns) {
      if (c.io != nullptr) any = true;
    }
    if (!any) break;
  }
  const auto t1 = Clock::now();

  for (auto& c : conns) {
    if (c.io != nullptr) reactor.del(c.io->fd());
    c.io.reset();
  }
  if (host) {
    host->stop();
    host_thread.join();
  }

  const std::uint64_t dropped = stats.sent - stats.completed;
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  auto pct = [&](double p) {
    if (stats.latencies_ms.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(stats.latencies_ms.size() - 1));
    return stats.latencies_ms[idx];
  };
  const double wall_s =
      std::chrono::duration<double>(t1 - t0).count();
  const double rps =
      wall_s > 0 ? static_cast<double>(stats.completed) / wall_s : 0.0;

  const double p50 = pct(0.50);
  const double p99 = pct(0.99);
  std::printf(
      "ioc_loadgen: %zu connections, %llu/%llu completed, %llu dropped\n"
      "  %.0f req/s, p50 %.3f ms, p99 %.3f ms\n",
      connections, static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.sent),
      static_cast<unsigned long long>(dropped), rps, p50, p99);

  // The connection count is part of the row name, so a committed baseline
  // pins the concurrency it was recorded at (a smaller fresh run loses the
  // row instead of silently comparing against it).
  const std::string name = "svc_http/" + std::to_string(connections) + "conn";
  const std::vector<ioc::bench::LedgerRow> rows = {
      {"svc", name, "p99_ms", p99, "ms", /*higher_is_better=*/false,
       /*sim_clock=*/false,
       {{"p50_ms", p50},
        {"connections", static_cast<double>(connections)},
        {"requests", static_cast<double>(stats.completed)},
        {"dropped", static_cast<double>(dropped)}}},
      {"svc", name, "requests_per_sec", rps, "1/s", /*higher_is_better=*/true,
       /*sim_clock=*/false, {}},
  };
  if (!ioc::bench::write_ledger(out, rows, "ioc_loadgen")) return 1;

  return dropped == 0 && stats.completed == requests ? 0 : 1;
}
