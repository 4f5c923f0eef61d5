// service_throughput: hammer the planner daemon through its real localhost
// socket with a mixed query workload and report requests/sec and cache hit
// rate.  Three phases:
//
//   cold  — every distinct query once (fills the cache; measures compute)
//   hot   — C client connections replay the same queries for R total
//           requests (fully cached; measures the serving stack itself)
//   mixed — hot replay with a twist: every 8th request is a fresh
//           cache-missing bandwidth query (steady-state daemon traffic)
//
// Shape checks (exit nonzero on failure): every response ok, the hot phase
// is 100% cache hits, and hot throughput >= 10k req/s.

#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::string> build_workload() {
  std::vector<std::string> lines;
  // Theory queries across the whole family registry.
  for (Family f : all_families()) {
    Json q = Json::object();
    q["op"] = "bandwidth";
    q["family"] = family_name(f);
    q["n"] = 4096;
    if (family_is_dimensional(f)) q["k"] = 2;
    lines.push_back(q.dump());
  }
  // Tables 1-3 style solver queries.
  const char* pairs[][2] = {{"DeBruijn", "mesh2"},   {"Butterfly", "mesh1"},
                            {"Hypercube", "mesh3"},  {"Tree", "LinearArray"},
                            {"ShuffleExchange", "pyramid2"}};
  for (const auto& pair : pairs) {
    Json q = Json::object();
    q["op"] = "max_host";
    q["guest"] = pair[0];
    q["host"] = pair[1];
    q["n"] = 1048576;
    lines.push_back(q.dump());
    Json b = Json::object();
    b["op"] = "bounds";
    b["guest"] = pair[0];
    b["host"] = pair[1];
    b["n"] = 1048576;
    lines.push_back(b.dump());
  }
  // Simulation queries (small instances: the cold phase runs them once).
  const char* sim_families[] = {"Butterfly", "Hypercube", "mesh2", "Tree"};
  for (const char* f : sim_families) {
    Json q = Json::object();
    q["op"] = "estimate";
    q["family"] = f;
    q["n"] = 64;
    q["seed"] = 42;
    q["trials"] = 1;
    lines.push_back(q.dump());
  }
  return lines;
}

struct PhaseResult {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  double secs = 0.0;
  double rps() const { return secs > 0 ? double(requests) / secs : 0.0; }
};

/// Replay `lines` round-robin across `clients` connections for `total`
/// requests.  fresh_every > 0 inserts a unique uncached query every N-th
/// request (the "mixed" phase).
PhaseResult run_phase(std::uint16_t port, const std::vector<std::string>& lines,
                      std::size_t clients, std::uint64_t total,
                      std::uint64_t fresh_every) {
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> failures(clients, 0);
  const auto start = Clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(port)) {
        failures[c] = total;  // count the whole share as failed
        return;
      }
      std::string response;
      const std::uint64_t share = total / clients + (c < total % clients);
      for (std::uint64_t i = 0; i < share; ++i) {
        if (fresh_every > 0 && i % fresh_every == fresh_every - 1) {
          // A unique size makes a unique content address: guaranteed miss.
          Json q = Json::object();
          q["op"] = "bandwidth";
          q["family"] = "Mesh";
          q["k"] = 2;
          q["n"] = 100000 + static_cast<double>(c) * total + i;
          if (!client.request_raw(q.dump(), response)) ++failures[c];
          continue;
        }
        const std::string& line = lines[(c + i) % lines.size()];
        if (!client.request_raw(line, response)) {
          ++failures[c];
          continue;
        }
        // Cheap shape check without a full parse.
        if (response.find("\"ok\":true") == std::string::npos) ++failures[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  r.secs = seconds_since(start);
  r.requests = total;
  for (const auto f : failures) r.failures += f;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"clients", "port", "requests", "threads"});
  const auto clients = static_cast<std::size_t>(cli.get_int("clients", 4));
  const auto total = static_cast<std::uint64_t>(cli.get_int("requests", 40000));

  QueryExecutor::Options exec_options;
  exec_options.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  exec_options.guard.cost_budget = 1024;
  QueryExecutor executor(exec_options);

  Server::Options server_options;
  server_options.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  Server server(executor, server_options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "service_throughput: " << error << "\n";
    return 1;
  }

  const std::vector<std::string> workload = build_workload();
  std::cout << "daemon on 127.0.0.1:" << server.port() << ", "
            << workload.size() << " distinct queries, " << clients
            << " client connections\n\n";

  const PhaseResult cold =
      run_phase(server.port(), workload, 1, workload.size(), 0);
  const QueryExecutor::Stats after_cold = executor.stats();

  const PhaseResult hot = run_phase(server.port(), workload, clients, total, 0);
  const QueryExecutor::Stats after_hot = executor.stats();
  const std::uint64_t hot_hits = after_hot.cache_hits - after_cold.cache_hits;

  const PhaseResult mixed =
      run_phase(server.port(), workload, clients, total / 2, 8);
  const QueryExecutor::Stats after_mixed = executor.stats();
  const std::uint64_t mixed_hits =
      after_mixed.cache_hits - after_hot.cache_hits;

  server.stop();

  Table t({"phase", "requests", "seconds", "req/s", "hit rate", "failures"});
  const auto hit_rate = [](std::uint64_t hits, std::uint64_t requests) {
    return requests == 0
               ? std::string("-")
               : Table::num(100.0 * double(hits) / double(requests), 1) + "%";
  };
  t.add_row({"cold", Table::integer(std::int64_t(cold.requests)),
             Table::num(cold.secs, 3), Table::num(cold.rps(), 0),
             hit_rate(after_cold.cache_hits, cold.requests),
             Table::integer(std::int64_t(cold.failures))});
  t.add_row({"hot", Table::integer(std::int64_t(hot.requests)),
             Table::num(hot.secs, 3), Table::num(hot.rps(), 0),
             hit_rate(hot_hits, hot.requests),
             Table::integer(std::int64_t(hot.failures))});
  t.add_row({"mixed", Table::integer(std::int64_t(mixed.requests)),
             Table::num(mixed.secs, 3), Table::num(mixed.rps(), 0),
             hit_rate(mixed_hits, mixed.requests),
             Table::integer(std::int64_t(mixed.failures))});
  t.print(std::cout);

  std::cout << "\nexecutor: " << after_mixed.computed << " computed, "
            << after_mixed.cache_hits << " cache hits, "
            << after_mixed.dedup_joins << " dedup joins, "
            << after_mixed.rejected << " rejected\n";

  bench::Verdict verdict;
  verdict.check(cold.failures + hot.failures + mixed.failures == 0,
                "no request failed");
  verdict.check(hot_hits == hot.requests, "hot phase fully cached");
  verdict.check(hot.rps() >= 10000.0, "hot phase >= 10k req/s");
  return verdict.exit_code();
}
