// chaos_soak: the faultline acceptance gauntlet.  For each seed it builds a
// deterministic fault plan (connection drops, partial reads/writes, slow
// I/O, disk-write failures, torn cache files, worker stalls), routes the
// whole service stack — server sockets, client sockets, executor workers,
// cache persistence — through one injector, and hammers the daemon with
// concurrent retrying clients issuing uniquely-addressed queries.
//
// Invariants checked per seed (exit nonzero on any failure):
//   * no lost, duplicated, or cross-wired responses: every request's result
//     must echo the unique size it asked about;
//   * no deadlocks: the soak finishes (every flight either completes or is
//     abandoned at its last waiter's deadline);
//   * no cache corruption: after the daemon (and its possibly torn final
//     save) shuts down, a fresh ResultCache loads the file without crashing
//     and every recovered entry is intact JSON.
//
// Reproduce one seed exactly:  chaos_soak --seeds 1 --first-seed <s>
// or override the plan wholesale:  chaos_soak --plan 'seed=7,drop=0.1,...'

#include <atomic>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/faultline/fault_plan.hpp"
#include "netemu/faultline/injector.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

struct SeedResult {
  std::uint64_t seed = 0;
  std::string spec;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;    ///< requests with no ok response
  std::uint64_t mismatches = 0;  ///< responses echoing the wrong query
  std::uint64_t retries = 0;     ///< client transport retries + backoffs
  FaultInjector::Counts faults;
  std::size_t cache_reloaded = 0;  ///< entries recovered after shutdown
  std::uint64_t cache_corrupt = 0;
  bool cache_load_crashed = false;  // reserved: a crash aborts the binary
  double secs = 0.0;
};

SeedResult run_seed(const FaultPlan& plan, std::size_t clients,
                    std::uint64_t requests_per_client,
                    const std::string& cache_path) {
  SeedResult out;
  out.seed = plan.seed;
  out.spec = plan.spec();
  out.requests = clients * requests_per_client;
  std::remove(cache_path.c_str());

  FaultInjector injector(plan);
  const auto start = std::chrono::steady_clock::now();
  {
    QueryExecutor::Options exec_options;
    exec_options.threads = 4;
    exec_options.guard.cost_budget = 64;
    exec_options.cache_file = cache_path;
    exec_options.faults = &injector;
    QueryExecutor executor(std::move(exec_options));

    Server::Options server_options;
    server_options.port = 0;
    server_options.faults = &injector;
    Server server(executor, server_options);
    std::string error;
    if (!server.start(&error)) {
      std::cerr << "chaos_soak: " << error << "\n";
      out.failures = out.requests;
      return out;
    }

    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> retries{0};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client::RetryPolicy policy;
        policy.max_attempts = 12;
        policy.base_backoff_ms = 1;
        policy.max_backoff_ms = 50;
        policy.attempt_timeout_ms = 5000;
        policy.jitter_seed = plan.seed * 1000 + c + 1;
        Client client(policy);
        client.set_fault_injector(&injector);
        if (!client.connect(server.port())) {
          failures.fetch_add(requests_per_client);
          return;
        }
        for (std::uint64_t i = 0; i < requests_per_client; ++i) {
          // Unique size => unique content address => the response's result
          // must echo it.  A wrong echo is a lost/duplicated/cross-wired
          // response; periodic cache saves shake the persistence path.
          const double n =
              4096 + static_cast<double>(plan.seed) * 1000000 +
              static_cast<double>(c) * 10000 + static_cast<double>(i);
          Json q = Json::object();
          q["op"] = "bandwidth";
          q["family"] = "Mesh";
          q["k"] = 2;
          q["n"] = n;
          const auto doc = client.request(q);
          if (!doc || !(*doc)["ok"].as_bool()) {
            failures.fetch_add(1);
          } else if ((*doc)["result"]["n"].as_number() != n) {
            mismatches.fetch_add(1);
          }
          if (i % 16 == 15) executor.save_cache();  // may fail/tear: fine
        }
        retries.fetch_add(client.retries());
      });
    }
    for (auto& t : threads) t.join();
    out.failures = failures.load();
    out.mismatches = mismatches.load();
    out.retries = retries.load();
    server.stop();
  }  // executor destructor: final (possibly torn) cache save

  out.secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  out.faults = injector.counts();

  // Crash-recovery check: the loader must survive whatever the faults left
  // on disk and every recovered entry must still be intact JSON.
  ResultCache reloaded(1 << 16, cache_path);
  if (reloaded.load()) {
    out.cache_reloaded = reloaded.size();
    out.cache_corrupt = reloaded.corrupt_entries();
  }
  std::remove(cache_path.c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"cache-file", "clients", "first-seed", "plan", "requests",
                 "seeds"});
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 10));
  const auto first_seed =
      static_cast<std::uint64_t>(cli.get_int("first-seed", 1));
  const auto clients = static_cast<std::size_t>(cli.get_int("clients", 4));
  const auto requests =
      static_cast<std::uint64_t>(cli.get_int("requests", 48));
  const std::string cache_path =
      cli.get("cache-file", "/tmp/netemu_chaos_soak_cache.json");
  const std::string plan_override = cli.get("plan");

  bench::print_header("chaos soak: service stack under injected faults");
  std::cout << clients << " clients x " << requests
            << " requests per seed; plans derived from seeds "
            << first_seed << ".." << (first_seed + seeds - 1) << "\n\n";

  bench::Verdict verdict;
  Table t({"seed", "req", "fail", "mismatch", "retries", "faults", "drops",
           "torn", "stalls", "reloaded", "quarantined", "secs"});
  for (std::uint64_t s = 0; s < seeds; ++s) {
    FaultPlan plan;
    if (!plan_override.empty()) {
      std::string error;
      const auto parsed = FaultPlan::parse(plan_override, &error);
      if (!parsed) {
        std::cerr << "chaos_soak: bad --plan: " << error << "\n";
        return 1;
      }
      plan = *parsed;
      plan.seed = first_seed + s;
    } else {
      plan = FaultPlan::for_seed(first_seed + s);
    }

    const SeedResult r = run_seed(plan, clients, requests, cache_path);
    t.add_row({Table::integer(std::int64_t(r.seed)),
               Table::integer(std::int64_t(r.requests)),
               Table::integer(std::int64_t(r.failures)),
               Table::integer(std::int64_t(r.mismatches)),
               Table::integer(std::int64_t(r.retries)),
               Table::integer(std::int64_t(r.faults.total())),
               Table::integer(std::int64_t(r.faults.drops)),
               Table::integer(std::int64_t(r.faults.torn_writes)),
               Table::integer(std::int64_t(r.faults.stalls)),
               Table::integer(std::int64_t(r.cache_reloaded)),
               Table::integer(std::int64_t(r.cache_corrupt)),
               Table::num(r.secs, 2)});

    const std::string tag = "seed " + std::to_string(r.seed) + " (" +
                            r.spec + ")";
    verdict.check(r.failures == 0, tag + ": no lost responses");
    verdict.check(r.mismatches == 0, tag + ": no duplicated or cross-wired "
                                           "responses");
    verdict.check(r.faults.total() > 0, tag + ": plan injected faults");
  }
  t.print(std::cout);

  std::cout << "\n" << (verdict.failures() == 0
                            ? "SOAK PASS: all seeds survived"
                            : "SOAK FAIL")
            << "\n";
  return verdict.exit_code();
}
