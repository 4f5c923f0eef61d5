// google-benchmark microbenchmarks of the simulator kernels themselves:
// BFS, router path generation, packet-simulation ticks, KL bisection,
// Fiedler iteration.  These time the *infrastructure*, not the paper's
// claims; they exist so performance regressions in the kernels are visible.
//
// Regression-harness mode (docs/PERF.md): `micro_sim --baseline [--out
// BENCH_sim.json] [--reps N] [--smoke] [--threads 1,2,8]` times run_batch
// on fixed topology × arbitration cases, checks that identical seeds give
// identical results at every requested thread count, and writes a
// machine-readable BENCH_sim.json so every PR has a tracked perf
// trajectory.  Exits nonzero on a determinism violation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "netemu/cut/bisection.hpp"
#include "netemu/cut/spectral.hpp"
#include "netemu/graph/algorithms.hpp"
#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/json.hpp"

namespace {

using namespace netemu;

void BM_BfsDistances(benchmark::State& state) {
  const Machine m = make_mesh({static_cast<std::uint32_t>(state.range(0)),
                               static_cast<std::uint32_t>(state.range(0))});
  Vertex src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(m.graph, src));
    src = (src + 7) % m.graph.num_vertices();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.graph.num_vertices()));
}
BENCHMARK(BM_BfsDistances)->Arg(16)->Arg(32)->Arg(64);

void BM_RouterPath(benchmark::State& state) {
  Prng rng(1);
  const Machine m = make_debruijn(static_cast<unsigned>(state.range(0)));
  const auto router = make_default_router(m);
  const std::size_t n = m.graph.num_vertices();
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    const Vertex v = static_cast<Vertex>(rng.below(n));
    benchmark::DoNotOptimize(router->route(u, v, rng));
  }
}
BENCHMARK(BM_RouterPath)->Arg(8)->Arg(12);

void BM_BfsRouterCachedPath(benchmark::State& state) {
  Prng rng(2);
  const Machine m = make_ccc(static_cast<unsigned>(state.range(0)));
  BfsRouter router(m);
  const std::size_t n = m.graph.num_vertices();
  // Warm one destination so steady-state path walks are measured.
  router.route(0, static_cast<Vertex>(n - 1), rng);
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    benchmark::DoNotOptimize(router.route(u, static_cast<Vertex>(n - 1), rng));
  }
}
BENCHMARK(BM_BfsRouterCachedPath)->Arg(6)->Arg(8);

// Per-message route cost on estimate_cold's three machines (arg 0 =
// mesh32x32, 1 = butterfly6, 2 = tree9), routed the way measure_throughput
// routes a batch: symmetric messages into one reused path buffer.
void BM_RouteAppend(benchmark::State& state) {
  static constexpr struct {
    Family family;
    std::size_t n;
    unsigned k;
  } kMachines[] = {{Family::kMesh, 1024, 2},
                   {Family::kButterfly, 448, 1},
                   {Family::kTree, 1023, 1}};
  const auto& shape = kMachines[state.range(0)];
  Prng rng(4);
  const Machine m = make_machine(shape.family, shape.n, shape.k, rng);
  std::vector<Vertex> procs(m.num_processors());
  for (std::size_t i = 0; i < procs.size(); ++i) procs[i] = m.processor(i);
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  const auto router = make_default_router(m);
  const std::vector<Message> msgs = traffic.batch(4096, rng);
  std::vector<Vertex> path;
  for (auto _ : state) {
    for (const Message& msg : msgs) {
      router->route_append(msg.src, msg.dst, rng, path);
      benchmark::DoNotOptimize(path.data());
    }
  }
  state.SetLabel(m.name);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(msgs.size()));
}
BENCHMARK(BM_RouteAppend)->DenseRange(0, 2);

void BM_PacketBatch(benchmark::State& state) {
  Prng rng(3);
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const Machine m = make_mesh({side, side});
  const std::size_t n = m.graph.num_vertices();
  std::vector<Vertex> procs(n);
  for (std::size_t i = 0; i < n; ++i) procs[i] = static_cast<Vertex>(i);
  const auto traffic = TrafficDistribution::symmetric(procs);
  const auto router = make_default_router(m);
  std::vector<std::vector<Vertex>> paths;
  for (const Message& msg : traffic.batch(8 * n, rng)) {
    paths.push_back(router->route(msg.src, msg.dst, rng));
  }
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_batch(batch, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_PacketBatch)->Arg(8)->Arg(16)->Arg(32);

void BM_KlBisection(benchmark::State& state) {
  Prng rng(4);
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const Machine m = make_mesh({side, side});
  for (auto _ : state) {
    benchmark::DoNotOptimize(kl_bisection(m.graph, rng, 4));
  }
}
BENCHMARK(BM_KlBisection)->Arg(8)->Arg(16);

void BM_Fiedler(benchmark::State& state) {
  Prng rng(5);
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const Machine m = make_mesh({side, side});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiedler_value(m.graph, rng, 500));
  }
}
BENCHMARK(BM_Fiedler)->Arg(8)->Arg(16);

void BM_ThroughputMeasurement(benchmark::State& state) {
  Prng rng(6);
  const Machine m = make_mesh({16, 16});
  std::vector<Vertex> procs(256);
  for (std::size_t i = 0; i < 256; ++i) procs[i] = static_cast<Vertex>(i);
  const auto traffic = TrafficDistribution::symmetric(procs);
  const auto router = make_default_router(m);
  ThroughputOptions opt;
  opt.trials = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_throughput(m, *router, traffic, rng, opt));
  }
}
BENCHMARK(BM_ThroughputMeasurement);

// ---------------------------------------------------------------------------
// Regression-harness ("--baseline") mode.
// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::vector<std::vector<Vertex>> baseline_paths(const Machine& m,
                                                std::size_t count,
                                                std::uint64_t seed) {
  Prng rng(seed);
  BfsRouter router(m, /*spread=*/true);
  const std::size_t n = m.graph.num_vertices();
  std::vector<std::vector<Vertex>> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex src = static_cast<Vertex>(rng.below(n));
    const Vertex dst = static_cast<Vertex>(rng.below(n));
    paths.push_back(router.route(src, dst, rng));
  }
  return paths;
}

/// Time run_batch on one topology × arbitration case.
Json run_case(const char* topo_name, const Machine& machine, Arbitration arb,
              int reps) {
  const std::size_t n = machine.graph.num_vertices();
  const auto paths = baseline_paths(machine, 8 * n, 999);
  const PacketSimulator sim(machine, arb);
  const auto batch = sim.prepare(paths);

  std::vector<double> wall_ms;
  wall_ms.reserve(static_cast<std::size_t>(reps));
  BatchStats stats;
  double total_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    Prng rng(777);  // per-rep reset: every rep simulates identical work
    const auto t0 = SteadyClock::now();
    stats = sim.run_batch(batch, rng);
    const double s = seconds_since(t0);
    wall_ms.push_back(s * 1e3);
    total_s += s;
  }

  const double ticks = static_cast<double>(stats.makespan);
  const double reps_d = static_cast<double>(reps);
  Json c = Json::object();
  c["topology"] = topo_name;
  c["arbitration"] = arbitration_name(arb);
  c["vertices"] = n;
  c["messages"] = paths.size();
  c["makespan"] = stats.makespan;
  c["rate"] = stats.rate();
  c["wall_ms_p50"] = scope::exact_quantile(wall_ms, 0.50);
  c["wall_ms_p95"] = scope::exact_quantile(wall_ms, 0.95);
  c["ticks_per_sec"] = ticks * reps_d / total_s;
  // The headline work metric: simulated message-ticks per wall second.
  c["msg_ticks_per_sec"] =
      ticks * static_cast<double>(paths.size()) * reps_d / total_s;
  return c;
}

struct TrialRun {
  std::vector<double> rates;
  BatchStats last;
  double wall_s = 0.0;
};

TrialRun run_estimate(const Machine& machine, unsigned trials,
                      std::size_t threads) {
  ThreadPool pool(threads);
  BfsRouter router(machine, /*spread=*/true);
  std::vector<Vertex> procs(machine.graph.num_vertices());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<Vertex>(i);
  }
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  ThroughputOptions opt;
  opt.trials = trials;
  opt.pool = &pool;
  Prng rng(4242);
  const auto t0 = SteadyClock::now();
  const ThroughputResult r =
      measure_throughput(machine, router, traffic, rng, opt);
  TrialRun out;
  out.wall_s = seconds_since(t0);
  out.rates = r.trial_rates;
  out.last = r.last;
  return out;
}

int run_baseline(const std::string& out_path, int reps, bool smoke,
                 const std::vector<std::size_t>& thread_counts) {
  Json doc = Json::object();
  doc["schema"] = "netemu-bench-sim/1";
  doc["smoke"] = smoke;

  struct Topo {
    const char* name;
    Machine machine;
  };
  std::vector<Topo> topos;
  if (smoke) {
    topos.push_back({"mesh16x16", make_mesh({16, 16})});
    topos.push_back({"butterfly4", make_butterfly(4)});
    topos.push_back({"tree7", make_tree(7)});
  } else {
    topos.push_back({"mesh32x32", make_mesh({32, 32})});
    topos.push_back({"butterfly6", make_butterfly(6)});
    topos.push_back({"tree9", make_tree(9)});
  }

  Json cases = Json::array();
  const Arbitration arbs[] = {Arbitration::kFarthestFirst, Arbitration::kFifo,
                              Arbitration::kRandom};
  for (const Topo& t : topos) {
    for (const Arbitration a : arbs) {
      cases.items().push_back(run_case(t.name, t.machine, a, reps));
      std::fprintf(stderr, "baseline: %s/%s done\n", t.name,
                   arbitration_name(a));
    }
  }
  doc["run_batch"] = std::move(cases);

  // Determinism: a multi-trial estimate must be bit-identical at every
  // thread count (the acceptance gate CI enforces).
  const Machine& det_machine = topos.front().machine;
  const unsigned det_trials = 8;
  bool deterministic = true;
  Json det = Json::object();
  Json det_threads = Json::array();
  TrialRun reference;
  Json scaling = Json::object();
  std::vector<double> best_wall(thread_counts.size(), 0.0);
  // Timing discipline for a shared/CI box: run a few reps of every thread
  // count, interleaved (so slowly-drifting background load penalizes all
  // counts alike instead of whichever ran last), and keep each count's
  // fastest wall — a single timing is too noisy to gate a speedup ratio on.
  const int scale_reps = smoke ? 2 : 3;
  for (int rep = 0; rep < scale_reps; ++rep) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const std::size_t threads = thread_counts[i];
      TrialRun run = run_estimate(det_machine, det_trials, threads);
      if (rep == 0 || run.wall_s < best_wall[i]) best_wall[i] = run.wall_s;
      if (rep > 0) continue;
      det_threads.items().emplace_back(threads);
      if (i == 0) {
        reference = std::move(run);
        continue;
      }
      if (run.rates != reference.rates || !(run.last == reference.last)) {
        deterministic = false;
        std::fprintf(
            stderr, "DETERMINISM VIOLATION: %zu threads disagrees with %zu\n",
            threads, thread_counts[0]);
      }
    }
  }
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "wall_s_threads_%zu", thread_counts[i]);
    scaling[key] = best_wall[i];
  }
  // Parallel efficiency relative to the first (serial) thread count.  The
  // CI bench-smoke job gates speedup_threads_8 >= 1.0: more worker threads
  // must never make an estimate slower (on a 1-core box the pool degrades
  // to the serial loop, so the ratio sits at ~1.0 there too).
  for (std::size_t i = 1; i < thread_counts.size(); ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "speedup_threads_%zu", thread_counts[i]);
    scaling[key] = best_wall[i] > 0.0 ? best_wall[0] / best_wall[i] : 0.0;
  }
  det["ok"] = deterministic;
  det["threads"] = std::move(det_threads);
  det["trials"] = det_trials;
  Json ref_rates = Json::array();
  for (const double r : reference.rates) ref_rates.items().emplace_back(r);
  det["trial_rates"] = std::move(ref_rates);
  doc["determinism"] = std::move(det);
  doc["estimate_scaling"] = std::move(scaling);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.dump() << "\n";
  std::fprintf(stderr, "baseline: wrote %s (determinism %s)\n",
               out_path.c_str(), deterministic ? "ok" : "VIOLATED");
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool baseline = false;
  std::string out_path = "BENCH_sim.json";
  int reps = 15;
  bool smoke = false;
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      baseline = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      thread_counts.clear();
      const char* p = argv[++i];
      while (*p) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p) break;
        if (v > 0) thread_counts.push_back(static_cast<std::size_t>(v));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }
  if (baseline) {
    if (reps < 3) reps = 3;
    if (thread_counts.empty()) thread_counts = {1, 2, 8};
    return run_baseline(out_path, reps, smoke, thread_counts);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
