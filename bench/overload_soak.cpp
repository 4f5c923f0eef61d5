// overload_soak: overload-guard acceptance (docs/GUARD.md).  For each seed
// it starts ONE real netemu_serve backend with the fair-share cap on and a
// deliberately small admission budget, then storms it with a heterogeneous
// client mix (netemu/faultline/client_mix.hpp) at several times its
// capacity:
//
//   * well-behaved clients — closed loop, think time between requests,
//     honour retry_after_ms backoff hints;
//   * greedy clients — many connections per identity, zero think time,
//     ignore every backoff hint;
//   * a malformed client — interleaves protocol garbage with real queries;
//   * a deadline client — paced like a well-behaved one, but each query is
//     a 9-trial estimate with a deadline_ms shorter than its compute time,
//     so the backend answers it with a degraded (partial) result.  The
//     deadline starts at 3x the query's compute time on the idle backend
//     and adapts: x0.7 after a full answer, x1.5 after a deadline error (cut
//     before trial 0 finished), so it settles where the storm's queueing
//     and the build's speed (Release or sanitizers) yield partials.  Its
//     longest run of consecutive sheds is printed per seed ("dl shed run"):
//     an abandoned query returns its charge at its deadline, so a run of
//     deadline errors must not turn into a run of sheds.
//
// Every query is an `estimate` with a globally unique seed, so every ok
// response can be checked for correctness (the result echoes the seed) and
// for duplication (a unique query must never come back cache_hit:true).
//
// Invariants checked per seed (exit nonzero on any failure):
//   * fairness: well-behaved clients collectively keep >= 70% of their
//     per-identity fair share of served queries, greedy spam notwithstanding;
//   * bounded tail: well-behaved p99 latency stays under --p99-gate-ms;
//   * zero wrong answers, zero duplicate (cache-contaminated) results;
//   * degraded honesty: degraded (deadline-bounded partial) responses are
//     never served from cache — re-requesting a formerly degraded query
//     yields a fresh full answer — and at least one is rechecked;
//   * the backend survives the malformed client (still answers ping);
//   * a mid-storm SIGTERM drains CLEANLY: exit status 0, under 5 seconds,
//     while the storm is still firing.
//
// Reproduce one seed exactly:  overload_soak --seeds 1 --first-seed <s>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/faultline/client_mix.hpp"
#include "netemu/faultline/process.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

constexpr double kN = 64;       // estimate graph size (mesh2, 8x8)
constexpr double kTrials = 8;   // per-query trials
constexpr double kDeadlineTrials = 9;  // the deadline client's queries

struct ThreadResult {
  std::size_t sent = 0;
  std::size_t ok = 0;         ///< ok responses (degraded included)
  std::size_t degraded = 0;   ///< ... of ok: deadline-bounded partials
  std::size_t shed = 0;       ///< overloaded errors
  std::size_t other_error = 0;
  std::size_t transport = 0;
  std::size_t wrong = 0;      ///< echo mismatch (must stay 0)
  std::size_t duplicate = 0;  ///< unique query answered cache_hit (must be 0)
  std::size_t longest_shed_run = 0;  ///< most consecutive sheds
  std::vector<double> latency_ms;
  std::vector<Json> degraded_queries;  ///< for the never-cached recheck
};

struct SeedResult {
  std::uint64_t seed = 0;
  std::size_t well_ok = 0, greedy_ok = 0;
  std::size_t sheds = 0, degraded = 0, wrong = 0, duplicates = 0;
  std::size_t transport = 0;
  std::size_t deadline_shed_run = 0;  ///< deadline client's longest run
  double well_share = 0.0;     ///< well_ok / fair expectation
  double well_p99_ms = 0.0;
  std::size_t rechecked = 0;   ///< formerly degraded queries re-requested
  std::size_t recheck_violations = 0;  ///< ... served degraded-from-cache
  bool ping_ok = false;        ///< backend alive after the storm
  bool drain_clean = false;    ///< mid-storm SIGTERM exited 0
  double drain_ms = 0.0;
  std::string error;
  double secs = 0.0;
};

bool start_backend(ManagedProcess& proc, const std::string& serve_bin,
                   std::uint16_t* port, std::string* error) {
  // Small compute pool + small cost budget (--queue): the storm must
  // actually overload it.  client_share 0.2 caps any one identity at 20% of
  // the budget so two greedy identities cannot monopolize admission.
  bench::ServeSpawn spawn;
  spawn.queue = 12;
  spawn.extra_args = {
      "--guard-share", "0.2",
      "--drain-ms", "2000",
  };
  return bench::spawn_serve(proc, serve_bin, spawn, port, error);
}

Json query_for(const std::string& client, double unique_seed,
               double trials = kTrials) {
  Json q = Json::object();
  q["op"] = "estimate";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = kN;
  q["trials"] = trials;
  q["seed"] = unique_seed;
  q["client"] = client;
  return q;
}

/// One storm thread: a closed loop on one connection until `stop`.
/// `seed_base` spaces the unique-seed counters so no two threads (across
/// phases and seeds) ever collide.  A nonzero `deadline_ms` makes every
/// query a kDeadlineTrials estimate bounded by an adapting deadline that
/// starts there.
void storm_thread(const ClientProfile& profile, double seed_base,
                  double deadline_ms, std::uint16_t port,
                  const std::atomic<bool>& stop, ThreadResult& out) {
  const bool deadline_bound = deadline_ms > 0;
  const double trials = deadline_bound ? kDeadlineTrials : kTrials;
  Prng prng(profile.seed);
  Client client;
  std::string error;
  if (!client.connect(port, &error)) {
    ++out.transport;
    return;
  }
  std::string response_line;
  double next_seed = seed_base;
  std::size_t shed_run = 0;  // consecutive sheds since the last other answer
  using Clock = std::chrono::steady_clock;
  while (!stop.load(std::memory_order_relaxed)) {
    std::string line;
    double unique_seed = 0.0;
    const bool garbage =
        profile.kind == ClientKind::kMalformed && prng.below(4) != 0;
    if (garbage) {
      line = malformed_request_line(prng);
    } else {
      unique_seed = next_seed++;
      Json q = query_for(profile.name, unique_seed, trials);
      if (deadline_bound) q["deadline_ms"] = std::round(deadline_ms);
      line = q.dump();
    }
    ++out.sent;
    const auto t0 = Clock::now();
    if (!client.request_raw(line, response_line)) {
      ++out.transport;
      // Reconnect once; a drained/stopped backend leaves this failing and
      // the loop spins until the harness raises `stop`.
      if (!client.connect(port, &error)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      continue;
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const Json response = Json::parse(response_line);
    if (garbage) {
      // Whatever the garbage was, the server must answer a line; counting
      // it as other_error is enough — the gates only require survival.
      if (!response.is_object() || !response["ok"].as_bool()) {
        ++out.other_error;
      } else {
        ++out.ok;
      }
      continue;
    }
    const bool shed =
        response.is_object() && !response["ok"].as_bool() &&
        response["overloaded"].as_bool();
    shed_run = shed ? shed_run + 1 : 0;
    out.longest_shed_run = std::max(out.longest_shed_run, shed_run);
    if (response.is_object() && response["ok"].as_bool()) {
      ++out.ok;
      out.latency_ms.push_back(ms);
      const Json& result = response["result"];
      if (result["seed"].as_number() != unique_seed ||
          result["machine"]["n"].as_number() != kN) {
        ++out.wrong;
      }
      if (response["cache_hit"].as_bool()) ++out.duplicate;
      if (deadline_bound && !response["degraded"].as_bool()) {
        deadline_ms *= 0.7;  // finished in time: cut it shorter
      }
      if (response["degraded"].as_bool()) {
        ++out.degraded;
        if (out.degraded_queries.size() < 16) {
          out.degraded_queries.push_back(
              query_for("recheck", unique_seed, trials));
        }
      }
    } else if (shed) {
      ++out.shed;
      if (profile.honor_retry_after) {
        const auto hint = response["retry_after_ms"].as_uint();
        if (hint > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::min<std::uint64_t>(hint, 100)));
        }
      }
    } else {
      ++out.other_error;
      if (deadline_bound) deadline_ms *= 1.5;  // cut before trial 0 ended
    }
    if (profile.think_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(profile.think_ms));
    }
  }
}

/// Launch the mix (greedy identities get `greedy_threads` connections each)
/// and then the deadline client, whose deadline starts at `deadline_ms`,
/// and run them for `storm_ms`.  `phase` spaces the seed counters.  The
/// deadline client's result comes last.
std::vector<ThreadResult> run_storm(const std::vector<ClientProfile>& mix,
                                    const ClientProfile& deadline_client,
                                    double deadline_ms,
                                    std::size_t greedy_threads,
                                    std::uint16_t port, std::uint64_t storm_ms,
                                    double phase_base,
                                    const std::atomic<bool>* external_stop,
                                    std::atomic<bool>& stop) {
  std::vector<const ClientProfile*> slots;
  for (const auto& p : mix) {
    const std::size_t threads =
        p.kind == ClientKind::kGreedy ? greedy_threads : 1;
    for (std::size_t t = 0; t < threads; ++t) slots.push_back(&p);
  }
  slots.push_back(&deadline_client);
  std::vector<ThreadResult> results(slots.size());
  std::vector<std::thread> threads;
  threads.reserve(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    // 1e7 seeds per thread-slot, 1e9 per phase: collision-free and exact
    // in a double.
    const double seed_base =
        phase_base + static_cast<double>(s) * 1e7 + 1.0;
    const double deadline = slots[s] == &deadline_client ? deadline_ms : 0;
    threads.emplace_back([&, s, seed_base, deadline] {
      storm_thread(*slots[s], seed_base, deadline, port, stop, results[s]);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(storm_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (external_stop && external_stop->load()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  return results;
}

SeedResult run_seed(std::uint64_t seed, std::uint64_t storm_ms,
                    std::size_t greedy_threads,
                    const std::string& serve_bin) {
  SeedResult out;
  out.seed = seed;
  const auto start = std::chrono::steady_clock::now();

  ManagedProcess backend;
  std::uint16_t port = 0;
  if (!start_backend(backend, serve_bin, &port, &out.error)) return out;

  ClientMixSpec spec;
  spec.seed = seed;
  spec.well_behaved = 4;
  spec.greedy = 2;
  spec.malformed = 1;
  spec.think_ms = 2;
  const std::vector<ClientProfile> mix = make_client_mix(spec);
  // Paced like the first well-behaved client, under its own identity.
  ClientProfile deadline_client = mix.front();
  deadline_client.name = "deadline-0";
  deadline_client.seed = ~deadline_client.seed;

  const double seed_phase = static_cast<double>(seed) * 1e10;
  // The deadline client's first deadline: 3x one of its queries' compute
  // time on the idle backend, so it starts long and comes down.  A
  // deadline too short to finish trial 0 costs more than one too long: it
  // answers nothing at all.
  double deadline_ms = 0.0;
  {
    Client probe;
    std::string error;
    std::string response_line;
    const Json q = query_for("probe", seed_phase + 9e9, kDeadlineTrials);
    if (probe.connect(port, &error) &&
        probe.request_raw(q.dump(), response_line)) {
      deadline_ms =
          3 * Json::parse(response_line)["micros"].as_number() / 1e3;
    }
  }
  if (!(deadline_ms > 0.0)) {
    out.error = "deadline probe failed";
    return out;
  }

  // ---- Phase A: the measured storm. --------------------------------------
  std::atomic<bool> stop_a{false};
  std::vector<ThreadResult> storm =
      run_storm(mix, deadline_client, deadline_ms, greedy_threads, port,
                storm_ms, seed_phase, nullptr, stop_a);

  out.deadline_shed_run = storm.back().longest_shed_run;
  std::vector<double> well_latency;
  std::vector<Json> degraded_queries;
  for (const ThreadResult& r : storm) {
    out.sheds += r.shed;
    out.degraded += r.degraded;
    out.wrong += r.wrong;
    out.duplicates += r.duplicate;
    out.transport += r.transport;
    degraded_queries.insert(degraded_queries.end(),
                            r.degraded_queries.begin(),
                            r.degraded_queries.end());
  }
  std::size_t slot = 0;
  for (const auto& p : mix) {
    const std::size_t threads =
        p.kind == ClientKind::kGreedy ? greedy_threads : 1;
    for (std::size_t t = 0; t < threads; ++t, ++slot) {
      const ThreadResult& r = storm[slot];
      if (p.kind == ClientKind::kWellBehaved) {
        out.well_ok += r.ok;
        well_latency.insert(well_latency.end(), r.latency_ms.begin(),
                            r.latency_ms.end());
      } else if (p.kind == ClientKind::kGreedy) {
        out.greedy_ok += r.ok;
      }
    }
  }
  // Fairness: the guard's DRR treats identities equally, so the
  // well-behaved identities' fair share of everything actually served is
  // well / (well + greedy).
  const double fair_fraction =
      static_cast<double>(spec.well_behaved) /
      static_cast<double>(spec.well_behaved + spec.greedy);
  const double total_query_ok =
      static_cast<double>(out.well_ok + out.greedy_ok);
  out.well_share =
      total_query_ok > 0.0
          ? static_cast<double>(out.well_ok) / (total_query_ok * fair_fraction)
          : 0.0;
  if (!well_latency.empty()) {
    out.well_p99_ms = scope::exact_quantile(std::move(well_latency), 0.99);
  }

  // ---- Phase B: quiet rechecks on the live backend. ----------------------
  {
    Client client;
    std::string error;
    if (client.connect(port, &error)) {
      Json ping = Json::object();
      ping["op"] = "ping";
      std::string response_line;
      if (client.request_raw(ping.dump(), response_line)) {
        out.ping_ok = Json::parse(response_line)["ok"].as_bool();
      }
      // Degraded honesty: a degraded partial must not have been cached, so
      // re-requesting it on an idle server yields a fresh FULL answer.
      const std::size_t recheck =
          std::min<std::size_t>(degraded_queries.size(), 5);
      for (std::size_t i = 0; i < recheck; ++i) {
        if (!client.request_raw(degraded_queries[i].dump(), response_line)) {
          break;
        }
        const Json response = Json::parse(response_line);
        if (!response["ok"].as_bool()) continue;  // shed: inconclusive, skip
        ++out.rechecked;
        if (response["cache_hit"].as_bool() &&
            response["degraded"].as_bool()) {
          ++out.recheck_violations;
        }
      }
    } else {
      out.error = "post-storm connect failed: " + error;
    }
  }

  // ---- Phase C: SIGTERM mid-storm; the drain must be clean. --------------
  std::atomic<bool> stop_c{false};
  std::atomic<bool> backend_gone{false};
  std::thread terminator([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const auto term_sent = std::chrono::steady_clock::now();
    ::kill(backend.pid(), SIGTERM);
    const auto deadline = term_sent + std::chrono::seconds(5);
    while (backend.running() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    out.drain_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - term_sent)
                       .count();
    out.drain_clean = !backend.running() && backend.exit_status() == 0;
    backend_gone.store(true);
  });
  run_storm(mix, deadline_client, deadline_ms, greedy_threads, port,
            /*storm_ms=*/6000, seed_phase + 5e9, &backend_gone, stop_c);
  terminator.join();

  backend.terminate(2000);
  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"first-seed", "greedy-threads", "p99-gate-ms", "seeds",
                 "serve-bin", "storm-ms"});
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 3));
  const auto first_seed =
      static_cast<std::uint64_t>(cli.get_int("first-seed", 1));
  const auto storm_ms =
      static_cast<std::uint64_t>(cli.get_int("storm-ms", 2500));
  const auto greedy_threads =
      static_cast<std::size_t>(cli.get_int("greedy-threads", 6));
  const double p99_gate_ms = cli.get_double("p99-gate-ms", 2000.0);
  const std::string serve_bin =
      cli.get("serve-bin", bench::default_serve_bin(cli.program()));

  bench::print_header(
      "overload soak: guarded backend vs well-behaved + greedy + malformed");
  std::cout << "backend: " << serve_bin << "\n"
            << "storm " << storm_ms << " ms/seed, 4 well-behaved + 2 greedy ("
            << greedy_threads << " conns each) + 1 malformed, seeds "
            << first_seed << ".." << (first_seed + seeds - 1) << "\n\n";

  bench::Verdict verdict;
  Table t({"seed", "well ok", "greedy ok", "share", "p99 ms", "shed",
           "degraded", "dl shed run", "rechecked", "wrong", "dup",
           "drain ms", "secs"});
  for (std::uint64_t s = 0; s < seeds; ++s) {
    const SeedResult r =
        run_seed(first_seed + s, storm_ms, greedy_threads, serve_bin);
    t.add_row({Table::integer(std::int64_t(r.seed)),
               Table::integer(std::int64_t(r.well_ok)),
               Table::integer(std::int64_t(r.greedy_ok)),
               Table::num(r.well_share, 2), Table::num(r.well_p99_ms, 1),
               Table::integer(std::int64_t(r.sheds)),
               Table::integer(std::int64_t(r.degraded)),
               Table::integer(std::int64_t(r.deadline_shed_run)),
               Table::integer(std::int64_t(r.rechecked)),
               Table::integer(std::int64_t(r.wrong)),
               Table::integer(std::int64_t(r.duplicates)),
               Table::num(r.drain_ms, 1), Table::num(r.secs, 2)});

    const std::string tag = "seed " + std::to_string(r.seed);
    verdict.check(r.error.empty(), tag + ": harness ran (" +
                                       (r.error.empty() ? "ok" : r.error) +
                                       ")");
    if (!r.error.empty()) continue;
    verdict.check(r.well_ok > 0, tag + ": well-behaved clients made progress");
    verdict.check(r.well_share >= 0.70,
                  tag + ": well-behaved goodput >= 70% of fair share (got " +
                      std::to_string(r.well_share) + ")");
    verdict.check(r.well_p99_ms <= p99_gate_ms,
                  tag + ": well-behaved p99 bounded (" +
                      std::to_string(r.well_p99_ms) + " ms <= " +
                      std::to_string(p99_gate_ms) + " ms)");
    verdict.check(r.wrong == 0, tag + ": zero wrong answers");
    verdict.check(r.duplicates == 0, tag + ": zero duplicate results");
    verdict.check(r.rechecked >= 1,
                  tag + ": degraded responses rechecked (" +
                      std::to_string(r.rechecked) + ")");
    verdict.check(r.recheck_violations == 0,
                  tag + ": degraded responses never served from cache (" +
                      std::to_string(r.rechecked) + " rechecked)");
    verdict.check(r.ping_ok,
                  tag + ": backend survived the malformed client");
    verdict.check(r.drain_clean,
                  tag + ": mid-storm SIGTERM drained cleanly (exit 0, " +
                      std::to_string(r.drain_ms) + " ms)");
  }
  t.print(std::cout);

  std::cout << "\n"
            << (verdict.failures() == 0
                    ? "SOAK PASS: guarded overload held fairness, "
                      "correctness, and clean drain"
                    : "SOAK FAIL")
            << "\n";
  return verdict.exit_code();
}
