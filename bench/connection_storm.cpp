// connection_storm: the acceptance bench for the sharded epoll I/O plane
// (docs/SERVICE.md "I/O plane", docs/PERF.md).  Proves the server holds
// tens of thousands of mostly-idle connections while serving a hot
// cache-hit workload without regressing small-fleet latency.
//
//   latency — on a fresh, otherwise idle server, 64 closed-loop
//             connections time every request -> p50/p99 microseconds
//             (best of two reps; run first so the storm's aftermath
//             cannot pollute the small-fleet numbers).
//   storm   — open N connections (--connections, default 40000; raises
//             RLIMIT_NOFILE and rotates client source addresses across
//             127.0.0.1-4 to dodge the ~28k ephemeral-port ceiling per
//             source ip), verify each answers a ping, and HOLD them open.
//   hot     — W workers churn cache-hit bursts (fresh connection, one
//             pipelined burst, disconnect — the shape netemu_query
//             produces) for a fixed wall-clock box (--hot-seconds) while
//             the storm stays parked.  qps counts only requests that were
//             answered inside the box.
//
// Gates (full mode only; --smoke records numbers without gating):
//   * every storm connection is sustained
//   * the hot phase is failure-free
//   * hot qps >= kHotQpsFloor under the storm
//   * p99 at 64 connections <= kP99CeilingUs
//
// The two numeric gates are absolute and hold only on the host they were
// measured on (see the constants).
//
// Writes BENCH_service.json (schema netemu-bench-service/2, with a host
// block) so every change has a tracked serving-plane baseline next to
// BENCH_sim.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

using Clock = std::chrono::steady_clock;

// Absolute full-mode gates.  They replace the relative gates "hot qps >= 3x
// the thread-per-connection plane" and "p99 <= 1.10x that plane's", taken
// in their strictest form over six full-mode `--mode both` runs of the last
// build that still had that plane, on a 4-core "Intel(R) Xeon(R)
// Processor" VM (Linux 6.18, g++ 12.2, Release, storm fd-capped at 9744
// connections): 3x the highest blocking hot qps seen (18262.39 req/s) and
// 1.10x the lowest blocking p99 seen (732.4 us).  They mean something only
// on that host; see docs/PERF.md for the runs.  The epoll plane's own p99
// was above that ceiling in every run on that host, before and after the
// deletion, so full mode fails its p99 check there until the reactor's
// small-fleet tail is fixed (docs/PERF.md, "Status on the floor host").
constexpr double kHotQpsFloor = 54787.0;
constexpr double kP99CeilingUs = 805.7;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Minimal raw connection: the storm holds tens of thousands of these, so
/// they must cost two buffers, not a Client with its retry machinery.
class RawConn {
 public:
  /// Connect to 127.0.0.1:port.  `src_slot` rotates the client source
  /// address across 127.0.0.1-4: each source ip has its own ~28k ephemeral
  /// port space, so a 40k-connection storm to one destination needs more
  /// than one.  Loopback owns all of 127/8, no configuration required.
  bool connect_to(std::uint16_t port, std::uint32_t src_slot = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in src{};
    src.sin_family = AF_INET;
    src.sin_addr.s_addr = htonl(0x7F000001u + (src_slot % 4u));
    src.sin_port = 0;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&src), sizeof(src)) < 0) {
      close();
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // RST on close instead of TIME_WAIT: the bench opens tens of thousands
    // of loopback connections and would exhaust the ephemeral port range
    // long before the 60 s TIME_WAIT timers expire.  Every response is
    // fully read before close, so no data is lost to the reset.
    const linger rst{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
    return true;
  }

  ~RawConn() { close(); }
  RawConn() = default;
  RawConn(RawConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  RawConn& operator=(RawConn&&) = delete;
  RawConn(const RawConn&) = delete;

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Send `payload` (pre-framed request lines) in one burst and read until
  /// `expect_lines` responses arrived.  The pipelined shape is the point:
  /// the reactor answers a whole burst with one coalesced flush.  False on
  /// any transport failure (including the server refusing the connection).
  bool burst(const std::string& payload, std::size_t expect_lines,
             std::string* responses) {
    std::size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = ::send(fd_, payload.data() + off,
                               payload.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    responses->clear();
    std::size_t lines = 0;
    char chunk[65536];
    while (lines < expect_lines) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      for (ssize_t i = 0; i < n; ++i) {
        if (chunk[i] == '\n') ++lines;
      }
      responses->append(chunk, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Single request/response round trip (a burst of one).
  bool roundtrip(const std::string& line, std::string* response = nullptr) {
    std::string buffer;
    if (!burst(line + "\n", 1, &buffer)) return false;
    if (response) *response = buffer.substr(0, buffer.find('\n'));
    return true;
  }

 private:
  int fd_ = -1;
};

/// Raise RLIMIT_NOFILE toward `need` (server + client fds live in this one
/// process, so a storm of N costs ~2N).  Raises the hard limit too when the
/// process is privileged (the kernel allows up to fs/nr_open); otherwise
/// settles for the hard cap.  Returns the usable soft limit.
rlim_t raise_nofile(rlim_t need) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur >= need) return rl.rlim_cur;
  rlimit want = rl;
  want.rlim_cur = need;
  want.rlim_max = std::max(rl.rlim_max, need);
  if (::setrlimit(RLIMIT_NOFILE, &want) != 0) {
    want.rlim_max = rl.rlim_max;
    want.rlim_cur = std::min(need, rl.rlim_max);
    ::setrlimit(RLIMIT_NOFILE, &want);
  }
  ::getrlimit(RLIMIT_NOFILE, &rl);
  return rl.rlim_cur;
}

std::vector<std::string> warm_workload() {
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) {
    Json q = Json::object();
    q["op"] = "estimate";
    q["family"] = "Butterfly";
    q["n"] = 64 + i;
    lines.push_back(q.dump());
  }
  return lines;
}

struct StormResult {
  std::size_t storm_target = 0;
  std::size_t storm_open = 0;   ///< connections that answered a ping
  double storm_s = 0.0;         ///< open+verify wall time
  double hot_qps = 0.0;         ///< successfully answered requests / wall
  std::uint64_t hot_ok = 0;
  std::uint64_t hot_failures = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

StormResult run_storm(std::size_t storm_conns, double hot_seconds,
                      std::size_t hot_workers, std::size_t latency_conns,
                      std::uint64_t latency_requests) {
  StormResult result;
  result.storm_target = storm_conns;

  // A cheap echo compute: the bench measures the serving stack, not the
  // planner; real query math would drown the I/O plane in compute noise.
  QueryExecutor::Options exec_options;
  exec_options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(exec_options));

  Server::Options server_options;
  server_options.port = 0;
  Server server(executor, server_options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "connection_storm: " << error << "\n";
    return result;
  }

  // Warm the cache so everything after is pure cache hits (served inline
  // on the reactor by the fast path).
  const std::vector<std::string> workload = warm_workload();
  {
    Client warm;
    std::string response;
    if (warm.connect(server.port())) {
      for (const auto& line : workload) warm.request_raw(line, response);
    }
  }

  // --- latency: closed-loop probes on the fresh, idle server.  Runs
  // before the storm so the small-fleet percentiles measure the server,
  // not the storm's aftermath.  Best of two reps: a single percentile
  // sample on a shared box gates on noise. ---
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<std::thread> threads;
    std::vector<std::vector<double>> latencies(latency_conns);
    for (std::size_t c = 0; c < latency_conns; ++c) {
      threads.emplace_back([&, c] {
        Client client;
        if (!client.connect(server.port())) return;
        latencies[c].reserve(latency_requests);
        std::string response;
        for (std::uint64_t i = 0; i < latency_requests; ++i) {
          const std::string& line = workload[(c + i) % workload.size()];
          const auto t0 = Clock::now();
          if (!client.request_raw(line, response)) return;
          latencies[c].push_back(seconds_since(t0) * 1e6);
        }
      });
    }
    for (auto& t : threads) t.join();
    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    if (all.empty()) continue;
    const double p99 = scope::exact_quantile(all, 0.99);
    if (result.p99_us == 0.0 || p99 < result.p99_us) {
      result.p50_us = scope::exact_quantile(all, 0.50);
      result.p99_us = p99;
    }
  }

  // --- storm: open and verify N connections, then hold them. ---
  std::vector<RawConn> parked;
  parked.reserve(storm_conns);
  const auto storm_start = Clock::now();
  const std::string ping = R"({"op":"ping"})";
  for (std::size_t i = 0; i < storm_conns; ++i) {
    RawConn conn;
    if (!conn.connect_to(server.port(), static_cast<std::uint32_t>(i)))
      continue;
    std::string response;
    // The ping proves the server actually serves this connection, not just
    // that the kernel accepted it into the listen backlog.
    if (!conn.roundtrip(ping, &response)) continue;
    if (response.find("\"pong\":true") == std::string::npos) continue;
    parked.push_back(std::move(conn));
  }
  result.storm_open = parked.size();
  result.storm_s = seconds_since(storm_start);

  // --- hot: churning cache-hit bursts while the storm stays parked. ---
  {
    // The active-traffic shape the repo's own clients produce: a fresh
    // connection, one pipelined burst of requests, disconnect (netemu_query
    // opens a connection per CLI invocation).  Each arrival costs the
    // reactor an O(1) shard registration, reclaimed on close, while the
    // storm holds its fds open.
    constexpr std::size_t kBurst = 4;
    // A fixed wall-clock box, two reps, best kept: sustained goodput over
    // a box is what a collapse shows up in, and a single timing on a
    // shared machine is too noisy to gate on (same best-of discipline as
    // micro_sim).
    for (int rep = 0; rep < 2; ++rep) {
      std::vector<std::thread> threads;
      std::vector<std::uint64_t> failures(hot_workers, 0);
      std::vector<std::uint64_t> answered(hot_workers, 0);
      const auto hot_start = Clock::now();
      const auto deadline =
          hot_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(hot_seconds));
      const auto worker = [&](std::size_t w) {
        std::string payload;
        for (std::size_t i = 0; i < kBurst; ++i) {
          payload += workload[(w + i) % workload.size()];
          payload += '\n';
        }
        std::string responses;
        while (Clock::now() < deadline) {
          RawConn conn;
          if (conn.connect_to(server.port()) &&
              conn.burst(payload, kBurst, &responses) &&
              responses.find("\"ok\":false") == std::string::npos) {
            answered[w] += kBurst;
          } else {
            failures[w] += kBurst;
          }
        }
      };
      for (std::size_t w = 0; w < hot_workers; ++w) {
        threads.emplace_back(worker, w);
      }
      for (auto& t : threads) t.join();
      const double hot_s = seconds_since(hot_start);
      std::uint64_t total_failed = 0, total_answered = 0;
      for (std::size_t w = 0; w < hot_workers; ++w) {
        total_failed += failures[w];
        total_answered += answered[w];
      }
      result.hot_failures += total_failed;
      result.hot_ok += total_answered;
      // Only answered requests count, over the whole box: a server refusing
      // connections must not convert fast failures into apparent
      // throughput.
      const double qps = hot_s > 0.0
                             ? static_cast<double>(total_answered) / hot_s
                             : 0.0;
      result.hot_qps = std::max(result.hot_qps, qps);
    }
  }

  parked.clear();
  server.stop();
  return result;
}

Json storm_json(const StormResult& r) {
  Json doc = Json::object();
  doc["storm_target"] = static_cast<double>(r.storm_target);
  doc["storm_open"] = static_cast<double>(r.storm_open);
  doc["storm_s"] = r.storm_s;
  doc["hot_qps"] = r.hot_qps;
  doc["hot_ok"] = static_cast<double>(r.hot_ok);
  doc["hot_failures"] = static_cast<double>(r.hot_failures);
  doc["p50_us"] = r.p50_us;
  doc["p99_us"] = r.p99_us;
  return doc;
}

/// The host a record was measured on: an absolute gate means something only
/// next to the machine and build it was set on.
Json host_json() {
  Json host = Json::object();
  host["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  host["cpu_model"] = cpu_model;
  host["compiler"] = NETEMU_COMPILER;
  host["build_type"] = NETEMU_BUILD_TYPE;
  return host;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"connections", "hot-seconds", "out", "smoke", "workers"});
  const bool smoke = cli.has("smoke");

  // The full-mode default of 40000 needs more than one source ip's
  // ephemeral ports (see RawConn::connect_to); file descriptors are the
  // server's only real limit.
  auto storm_conns = static_cast<std::size_t>(
      cli.get_int("connections", smoke ? 256 : 40000));
  const double hot_seconds = static_cast<double>(
      cli.get_int("hot-seconds", smoke ? 1 : 5));
  const auto hot_workers =
      static_cast<std::size_t>(cli.get_int("workers", 8));
  const std::size_t latency_conns = 64;
  const auto latency_requests =
      static_cast<std::uint64_t>(smoke ? 20 : 100);

  // Two fds per storm connection (client + server side share the process).
  const std::size_t requested_conns = storm_conns;
  const rlim_t limit =
      raise_nofile(static_cast<rlim_t>(2 * storm_conns + 512));
  bool fd_capped = false;
  if (limit < static_cast<rlim_t>(2 * storm_conns + 512)) {
    const auto fit = static_cast<std::size_t>((limit - 512) / 2);
    std::cerr << "connection_storm: RLIMIT_NOFILE " << limit << " caps the "
              << "storm at " << fit << " connections (wanted " << storm_conns
              << ")\n";
    storm_conns = fit;
    fd_capped = true;
  }

  Json doc = Json::object();
  doc["schema"] = "netemu-bench-service/2";
  doc["host"] = host_json();
  doc["smoke"] = smoke;
  doc["connections"] = static_cast<double>(storm_conns);
  // Honest scaling report: when the fd limit shrank the storm, say so in
  // the result document — a reader comparing runs must not mistake a capped
  // 12k-connection storm for the requested 40k one.
  doc["fd_capped"] = fd_capped;
  if (fd_capped) {
    doc["connections_requested"] = static_cast<double>(requested_conns);
    doc["rlimit_nofile"] = static_cast<double>(limit);
  }
  doc["hot_seconds"] = hot_seconds;
  doc["hot_qps_floor"] = kHotQpsFloor;
  doc["p99_ceiling_us"] = kP99CeilingUs;

  const StormResult r = run_storm(storm_conns, hot_seconds, hot_workers,
                                  latency_conns, latency_requests);
  doc["epoll"] = storm_json(r);

  Table t({"storm open", "storm s", "hot qps", "fail", "p50 us", "p99 us"});
  t.add_row({Table::integer(static_cast<std::int64_t>(r.storm_open)) + "/" +
                 Table::integer(static_cast<std::int64_t>(r.storm_target)),
             Table::num(r.storm_s, 2), Table::num(r.hot_qps, 0),
             Table::integer(static_cast<std::int64_t>(r.hot_failures)),
             Table::num(r.p50_us, 1), Table::num(r.p99_us, 1)});
  t.print(std::cout);

  const std::string out_path = cli.get("out", "BENCH_service.json");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "connection_storm: cannot write " << out_path << "\n";
    return 2;
  }
  out << doc.dump() << "\n";
  std::cerr << "connection_storm: wrote " << out_path << "\n";

  bench::Verdict verdict;
  verdict.check(r.storm_open == storm_conns,
                "sustained every storm connection");
  verdict.check(r.hot_failures == 0, "hot phase fully ok");
  if (!smoke) {
    // The headline gates (docs/PERF.md).  Smoke mode records numbers but
    // does not gate: CI smoke boxes are not the host the floors were set
    // on.
    verdict.check(r.hot_qps >= kHotQpsFloor,
                  "hot qps under storm >= floor");
    verdict.check(r.p99_us <= kP99CeilingUs,
                  "p99 at 64 connections <= ceiling");
  }
  return verdict.exit_code();
}
