// drain_soak: graceful-drain acceptance for the service lifecycle
// (docs/LIFECYCLE.md).  For each seed it starts THREE real netemu_serve
// backends, fronts them with a FleetRouter, and drives a stream of
// uniquely-addressed queries while a deterministic schedule SIGTERMs
// backends mid-flight — the graceful sibling of fleet_soak's kill -9.
//
// A SIGTERM'd backend must DRAIN, not die: stop accepting, finish or cancel
// in-flight work within its --drain-ms budget, snapshot its cache, and
// exit 0.  Invariants checked per seed (exit nonzero on any failure):
//   * zero lost queries: traffic aimed at a draining backend fails over
//     (the draining executor sheds new flights with an overloaded error);
//   * zero wrong answers: every response echoes the size it asked about;
//   * every drain is CLEAN: exit status 0 — not 128+SIGTERM, not SIGKILL
//     after an overrun grace period;
//   * every drain is FAST: SIGTERM-to-exit under 2 seconds.
//
// Reproduce one seed exactly:  drain_soak --seeds 1 --first-seed <s>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/faultline/process.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

constexpr std::size_t kBackends = 3;

struct BackendProc {
  std::unique_ptr<ManagedProcess> proc;
  std::uint16_t port = 0;  // pinned after the first (ephemeral) bind
  std::string cache_file;
  bool draining = false;         // SIGTERM sent, exit not yet observed
  bool down = false;             // exited; awaiting restart_at
  std::uint64_t restart_at = 0;  // request index to restart at (when down)
  std::chrono::steady_clock::time_point term_sent;
};

struct SeedResult {
  std::uint64_t seed = 0;
  std::uint64_t requests = 0;
  std::uint64_t unanswered = 0;  ///< lost queries (must be 0)
  std::uint64_t mismatches = 0;  ///< wrong answers (must be 0)
  int terms = 0;                 ///< SIGTERMs delivered
  int clean_exits = 0;           ///< ... that exited with status 0
  double worst_drain_ms = 0.0;   ///< slowest SIGTERM-to-exit
  std::string error;             ///< harness-level failure
  double secs = 0.0;
};

bool start_backend(BackendProc& b, const std::string& serve_bin,
                   std::string* error) {
  b.proc = std::make_unique<ManagedProcess>();
  bench::ServeSpawn spawn;
  spawn.port = b.port;  // 0 on first start
  spawn.cache_file = b.cache_file;
  spawn.extra_args = {"--drain-ms", "1000"};
  if (!bench::spawn_serve(*b.proc, serve_bin, spawn, &b.port, error)) {
    return false;
  }
  b.draining = false;
  b.down = false;
  return true;
}

Json query_for(double n) {
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = n;
  return q;
}

SeedResult run_seed(std::uint64_t seed, std::uint64_t total_requests,
                    int terms, const std::string& serve_bin) {
  SeedResult out;
  out.seed = seed;
  out.requests = total_requests;
  const auto start = std::chrono::steady_clock::now();

  std::vector<BackendProc> backends(kBackends);
  for (std::size_t i = 0; i < kBackends; ++i) {
    backends[i].cache_file = "/tmp/netemu_drain_soak_" + std::to_string(seed) +
                             "_" + std::to_string(i) + ".json";
    std::remove(backends[i].cache_file.c_str());
    std::remove((backends[i].cache_file + ".wal").c_str());
    if (!start_backend(backends[i], serve_bin, &out.error)) return out;
  }

  FleetRouter::Options options;
  for (auto& b : backends) options.backends.push_back({b.port, ""});
  options.health.failure_threshold = 2;
  options.health.open_cooldown_ms = 200;
  options.probe_interval_ms = 50;
  options.client.max_attempts = 2;
  options.client.base_backoff_ms = 1;
  options.client.max_backoff_ms = 20;
  options.client.attempt_timeout_ms = 5000;
  FleetRouter router(options);

  // Reuse the kill scheduler: same spacing rules, SIGTERM instead.
  const std::vector<ProcessFault> schedule =
      process_fault_schedule(seed, kBackends, total_requests, terms);
  std::size_t next_fault = 0;

  // Observe a draining backend's exit: assert clean + fast, mark it down.
  const auto reap_drains = [&] {
    for (auto& b : backends) {
      if (!b.draining || b.proc->running()) continue;
      b.draining = false;
      b.down = true;
      ++out.terms;
      if (b.proc->exit_status() == 0) ++out.clean_exits;
      const double drain_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - b.term_sent)
              .count();
      out.worst_drain_ms = std::max(out.worst_drain_ms, drain_ms);
    }
  };

  for (std::uint64_t i = 0; i < total_requests; ++i) {
    reap_drains();
    for (std::size_t b = 0; b < kBackends; ++b) {
      if (backends[b].down && backends[b].restart_at <= i) {
        if (!start_backend(backends[b], serve_bin, &out.error)) return out;
      }
    }
    while (next_fault < schedule.size() &&
           schedule[next_fault].at_request <= i) {
      const ProcessFault& f = schedule[next_fault++];
      BackendProc& victim = backends[f.backend];
      if (!victim.draining && !victim.down) {
        ::kill(victim.proc->pid(), SIGTERM);  // graceful: drain, then exit 0
        victim.draining = true;
        victim.term_sent = std::chrono::steady_clock::now();
        victim.restart_at = f.at_request + f.down_for_requests;
      }
    }

    const double n = 4096 + static_cast<double>(seed) * 1e6 +
                     static_cast<double>(i);
    const FleetRouter::Result r = router.request(query_for(n));
    if (!r.ok || !r.doc["ok"].as_bool()) {
      ++out.unanswered;
    } else if (r.doc["result"]["n"].as_number() != n) {
      ++out.mismatches;
    }
  }

  // Let stragglers finish draining (well past the 2s bound under test).
  for (auto& b : backends) {
    if (!b.draining) continue;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (b.proc->running() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  reap_drains();

  router.stop();
  for (auto& b : backends) {
    b.proc->terminate(2000);
    std::remove(b.cache_file.c_str());
    std::remove((b.cache_file + ".wal").c_str());
  }
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"first-seed", "requests", "seeds", "serve-bin", "terms"});
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 3));
  const auto first_seed =
      static_cast<std::uint64_t>(cli.get_int("first-seed", 1));
  const auto requests =
      static_cast<std::uint64_t>(cli.get_int("requests", 160));
  const int terms = static_cast<int>(cli.get_int("terms", 2));
  const std::string serve_bin =
      cli.get("serve-bin", bench::default_serve_bin(cli.program()));

  bench::print_header("drain soak: 3 backends, SIGTERM rolling restarts");
  std::cout << "backend: " << serve_bin << "\n"
            << requests << " requests/seed, " << terms
            << " SIGTERM/restart faults, seeds " << first_seed << ".."
            << (first_seed + seeds - 1) << "\n\n";

  bench::Verdict verdict;
  Table t({"seed", "req", "lost", "wrong", "terms", "clean", "worst_drain_ms",
           "secs"});
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const SeedResult r = run_seed(first_seed + s, requests, terms, serve_bin);
    t.add_row({Table::integer(std::int64_t(r.seed)),
               Table::integer(std::int64_t(r.requests)),
               Table::integer(std::int64_t(r.unanswered)),
               Table::integer(std::int64_t(r.mismatches)),
               Table::integer(std::int64_t(r.terms)),
               Table::integer(std::int64_t(r.clean_exits)),
               Table::num(r.worst_drain_ms, 1),
               Table::num(r.secs, 2)});

    const std::string tag = "seed " + std::to_string(r.seed);
    verdict.check(r.error.empty(), tag + ": harness ran (" +
                                       (r.error.empty() ? "ok" : r.error) +
                                       ")");
    if (!r.error.empty()) continue;
    verdict.check(r.unanswered == 0, tag + ": zero lost queries");
    verdict.check(r.mismatches == 0, tag + ": zero wrong answers");
    verdict.check(r.terms > 0, tag + ": schedule SIGTERM'd a backend");
    verdict.check(r.clean_exits == r.terms,
                  tag + ": every drained backend exited 0");
    verdict.check(r.worst_drain_ms < 2000.0,
                  tag + ": every drain finished under 2s (worst " +
                      std::to_string(r.worst_drain_ms) + " ms)");
  }
  t.print(std::cout);

  std::cout << "\n"
            << (verdict.failures() == 0
                    ? "SOAK PASS: graceful drain under rolling SIGTERM"
                    : "SOAK FAIL")
            << "\n";
  return verdict.exit_code();
}
