// fleet_soak: the fleet acceptance gauntlet.  For each seed it starts THREE
// real netemu_serve backend processes (journaling caches, ephemeral ports),
// fronts them with a FleetRouter, and drives a stream of uniquely-addressed
// queries while a deterministic schedule hard-kills (SIGKILL) and restarts
// backends mid-flight.
//
// Invariants checked per seed (exit nonzero on any failure):
//   * zero lost queries: every request gets an answer — a down backend's
//     traffic fails over to the next rendezvous choice;
//   * zero wrong answers: every response echoes the unique size it asked
//     about (no cross-wiring through failover or connection pools);
//   * crash recovery is WARM: each backend is seeded with a "warm" query
//     before the faults start; after a kill -9 + restart, re-asking that
//     backend its warm query directly must be a cache hit (cache_hit=true —
//     served from the WAL-replayed cache, not recomputed);
//   * the breaker actually worked: every kill shows up as an ejection.
//
// Reproduce one seed exactly:  fleet_soak --seeds 1 --first-seed <s>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "netemu/faultline/process.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/service/client.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

constexpr std::size_t kBackends = 3;

struct BackendProc {
  std::unique_ptr<ManagedProcess> proc;
  std::uint16_t port = 0;       // pinned after the first (ephemeral) bind
  std::string cache_file;
  std::uint64_t restart_at = 0; // request index to restart at (when down)
  bool down = false;
  int kills = 0;
};

struct SeedResult {
  std::uint64_t seed = 0;
  std::uint64_t requests = 0;
  std::uint64_t unanswered = 0;   ///< lost queries (must be 0)
  std::uint64_t mismatches = 0;   ///< wrong answers (must be 0)
  std::uint64_t failovers = 0;
  std::uint64_t ejections = 0;
  int kills = 0;
  int warm_checks = 0;        ///< post-restart WAL-recovery probes made
  int warm_failures = 0;      ///< ... that missed the cache (must be 0)
  std::string error;          ///< harness-level failure (spawn, parse, ...)
  double secs = 0.0;
};

/// Start (or restart) a backend and block until it prints its listen line.
/// First start passes --port 0; restarts pin the original port.
bool start_backend(BackendProc& b, const std::string& serve_bin,
                   std::string* error) {
  b.proc = std::make_unique<ManagedProcess>();
  bench::ServeSpawn spawn;
  spawn.port = b.port;  // 0 on first start
  spawn.cache_file = b.cache_file;
  if (!bench::spawn_serve(*b.proc, serve_bin, spawn, &b.port, error)) {
    return false;
  }
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
                    int kills, const std::string& serve_bin, bool hedge) {
  SeedResult out;
  out.seed = seed;
  out.requests = total_requests;
  const auto start = std::chrono::steady_clock::now();

  std::vector<BackendProc> backends(kBackends);
  for (std::size_t i = 0; i < kBackends; ++i) {
    backends[i].cache_file = "/tmp/netemu_fleet_soak_" + std::to_string(seed) +
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
  options.hedge = hedge;
  FleetRouter router(options);

  // Warm phase: find one query owned by each backend (by rendezvous rank)
  // and ask that backend directly, so its cache — and, because journaling
  // is on by default, its WAL — holds the result before any kill.
  std::vector<Json> warm_query(kBackends);
  std::vector<bool> warmed(kBackends, false);
  std::size_t found = 0;
  for (double probe = 0; found < kBackends && probe < 1000; ++probe) {
    const double n = 8192 + static_cast<double>(seed) * 1e7 + probe;
    const Json q = query_for(n);
    const std::size_t owner = router.rank_for(q)[0];
    if (warmed[owner]) continue;
    Client direct;
    std::string cerror;
    if (!direct.connect(backends[owner].port, &cerror)) {
      out.error = "warm connect: " + cerror;
      return out;
    }
    const auto doc = direct.request(q, &cerror);
    if (!doc || !(*doc)["ok"].as_bool()) {
      out.error = "warm query failed: " + cerror;
      return out;
    }
    warm_query[owner] = q;
    warmed[owner] = true;
    ++found;
  }

  // After a kill -9 + restart, the backend's FIRST repeat of its warm query
  // must come from the WAL-recovered cache: cache_hit=true, no recompute.
  const auto check_warm_recovery = [&](std::size_t i) {
    ++out.warm_checks;
    Client direct;
    std::string cerror;
    std::optional<Json> doc;
    if (direct.connect(backends[i].port, &cerror)) {
      doc = direct.request(warm_query[i], &cerror);
    }
    if (!doc || !(*doc)["ok"].as_bool() || !(*doc)["cache_hit"].as_bool()) {
      ++out.warm_failures;
      std::cerr << "seed " << seed << ": backend " << i
                << " NOT warm after restart: "
                << (doc ? (*doc).dump() : cerror) << "\n";
    }
  };

  const std::vector<ProcessFault> schedule =
      process_fault_schedule(seed, kBackends, total_requests, kills);
  std::size_t next_fault = 0;

  for (std::uint64_t i = 0; i < total_requests; ++i) {
    // Restarts due at this point in the stream.
    for (std::size_t b = 0; b < kBackends; ++b) {
      if (backends[b].down && backends[b].restart_at <= i) {
        if (!start_backend(backends[b], serve_bin, &out.error)) return out;
        check_warm_recovery(b);
      }
    }
    // Kills scheduled just before this request.
    while (next_fault < schedule.size() &&
           schedule[next_fault].at_request <= i) {
      const ProcessFault& f = schedule[next_fault++];
      BackendProc& victim = backends[f.backend];
      if (!victim.down) {
        victim.proc->kill_hard();  // SIGKILL: no shutdown save, WAL only
        victim.down = true;
        victim.restart_at = f.at_request + f.down_for_requests;
        ++victim.kills;
        ++out.kills;
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

  // Restart anything still down so every kill gets its recovery check.
  for (std::size_t b = 0; b < kBackends; ++b) {
    if (backends[b].down) {
      if (!start_backend(backends[b], serve_bin, &out.error)) return out;
      check_warm_recovery(b);
    }
  }

  const FleetRouter::Stats stats = router.stats();
  out.failovers = stats.failovers;
  for (const auto& b : stats.backends) out.ejections += b.ejections;
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
                {"first-seed", "hedge", "kills", "requests", "seeds",
                 "serve-bin"});
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 3));
  const auto first_seed =
      static_cast<std::uint64_t>(cli.get_int("first-seed", 1));
  const auto requests =
      static_cast<std::uint64_t>(cli.get_int("requests", 160));
  const int kills = static_cast<int>(cli.get_int("kills", 2));
  const bool hedge = cli.has("hedge");
  const std::string serve_bin =
      cli.get("serve-bin", bench::default_serve_bin(cli.program()));

  bench::print_header("fleet soak: 3 backends, kill -9 mid-flight");
  std::cout << "backend: " << serve_bin << "\n"
            << requests << " requests/seed, " << kills
            << " kill/restart faults, hedge " << (hedge ? "on" : "off")
            << ", seeds " << first_seed << ".." << (first_seed + seeds - 1)
            << "\n\n";

  bench::Verdict verdict;
  Table t({"seed", "req", "lost", "wrong", "failovers", "ejections", "kills",
           "warm_ok", "secs"});
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const SeedResult r =
        run_seed(first_seed + s, requests, kills, serve_bin, hedge);
    t.add_row({Table::integer(std::int64_t(r.seed)),
               Table::integer(std::int64_t(r.requests)),
               Table::integer(std::int64_t(r.unanswered)),
               Table::integer(std::int64_t(r.mismatches)),
               Table::integer(std::int64_t(r.failovers)),
               Table::integer(std::int64_t(r.ejections)),
               Table::integer(std::int64_t(r.kills)),
               Table::integer(std::int64_t(r.warm_checks - r.warm_failures)),
               Table::num(r.secs, 2)});

    const std::string tag = "seed " + std::to_string(r.seed);
    verdict.check(r.error.empty(), tag + ": harness ran (" +
                                       (r.error.empty() ? "ok" : r.error) +
                                       ")");
    if (!r.error.empty()) continue;
    verdict.check(r.unanswered == 0, tag + ": zero lost queries");
    verdict.check(r.mismatches == 0, tag + ": zero wrong answers");
    verdict.check(r.kills > 0, tag + ": schedule killed a backend");
    verdict.check(r.warm_checks >= r.kills,
                  tag + ": every kill got a recovery check");
    verdict.check(r.warm_failures == 0,
                  tag + ": restarted backends WAL-warm (cache_hit on first "
                        "repeat)");
    verdict.check(r.ejections > 0, tag + ": breaker ejected the dead backend");
  }
  t.print(std::cout);

  std::cout << "\n"
            << (verdict.failures() == 0 ? "SOAK PASS: fleet survived kill -9"
                                        : "SOAK FAIL")
            << "\n";
  return verdict.exit_code();
}
