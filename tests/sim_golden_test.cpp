// Golden-value regression tests for the packet simulator.
//
// Every rewrite of PacketSimulator::run_batch is required to be
// bit-identical to the original per-tick-allocation implementation: same
// paths + same seed must give the same BatchStats.  The values below were
// captured from that first simulator (mesh 8x8, 3-dim butterfly, 5-level
// tree; all three arbitration policies; with and without a per-node
// forward cap) and pin that contract down.
//
// Also covered here: prepare()-vs-append() equivalence (the route-reuse
// path of batch doubling), thread-count invariance of the parallel trial
// loop in measure_throughput, and pooled-vs-serial parity of both of its
// calibration endings (overlapped final step and standalone final step),
// cancellation included.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "netemu/graph/algorithms.hpp"
#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/router.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/prng.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {
namespace {

// Exactly the path-generation scheme the goldens were captured with: a
// spreading BFS router over a dedicated Prng, 4n random (src, dst) pairs.
std::vector<std::vector<Vertex>> golden_paths(const Machine& m,
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

struct GoldenRow {
  const char* topology;
  Arbitration arbitration;
  bool capped;  // forward_cap = 1 on every node
  std::uint64_t makespan;
  std::uint64_t delivered;
  std::uint64_t total_hops;
  std::uint64_t static_congestion;
  double avg_latency;
};

// Captured from the pre-rewrite simulator at commit 42ecf76 (paths: scheme
// above with seed 12345; simulation rng seed 777 per run).
const GoldenRow kGolden[] = {
    {"mesh8x8", Arbitration::kFarthestFirst, false, 17, 256, 1342, 17,
     8.97265625},
    {"mesh8x8", Arbitration::kFifo, false, 22, 256, 1342, 17, 8.33984375},
    {"mesh8x8", Arbitration::kRandom, false, 21, 256, 1342, 17, 8.14453125},
    {"mesh8x8", Arbitration::kFarthestFirst, true, 50, 256, 1342, 17,
     25.02734375},
    {"mesh8x8", Arbitration::kFifo, true, 54, 256, 1342, 17, 19.5546875},
    {"mesh8x8", Arbitration::kRandom, true, 57, 256, 1342, 17, 19.21484375},
    {"butterfly3", Arbitration::kFarthestFirst, false, 16, 128, 436, 16,
     5.9453125},
    {"butterfly3", Arbitration::kFifo, false, 18, 128, 436, 16, 5.5703125},
    {"butterfly3", Arbitration::kRandom, false, 17, 128, 436, 16, 5.5859375},
    {"butterfly3", Arbitration::kFarthestFirst, true, 29, 128, 436, 16,
     15.578125},
    {"butterfly3", Arbitration::kFifo, true, 31, 128, 436, 16, 11.78125},
    {"butterfly3", Arbitration::kRandom, true, 29, 128, 436, 16, 11.671875},
    {"tree5", Arbitration::kFarthestFirst, false, 62, 252, 1618, 61,
     31.769841269841269},
    {"tree5", Arbitration::kFifo, false, 66, 252, 1618, 61,
     26.734126984126984},
    {"tree5", Arbitration::kRandom, false, 66, 252, 1618, 61,
     26.793650793650794},
    {"tree5", Arbitration::kFarthestFirst, true, 156, 252, 1618, 61,
     86.678571428571431},
    {"tree5", Arbitration::kFifo, true, 159, 252, 1618, 61,
     66.523809523809518},
    {"tree5", Arbitration::kRandom, true, 160, 252, 1618, 61,
     66.376984126984127},
};

Machine golden_machine(const std::string& name) {
  if (name == "mesh8x8") return make_mesh({8, 8});
  if (name == "butterfly3") return make_butterfly(3);
  return make_tree(5);
}

TEST(SimGolden, BatchStatsMatchPreRewriteSimulator) {
  // Build each topology's paths once; the goldens reuse them across the
  // capped/uncapped and arbitration variants (exactly as captured).
  std::string built_for;
  std::vector<std::vector<Vertex>> paths;
  for (const GoldenRow& row : kGolden) {
    Machine m = golden_machine(row.topology);
    const std::size_t n = m.graph.num_vertices();
    if (built_for != row.topology) {
      paths = golden_paths(m, 4 * n, 12345);
      built_for = row.topology;
    }
    if (row.capped) m.forward_cap.assign(n, 1);

    PacketSimulator sim(m, row.arbitration);
    Prng rng(777);
    const BatchStats s = sim.run_batch(paths, rng);
    SCOPED_TRACE(std::string(row.topology) + "/" +
                 arbitration_name(row.arbitration) +
                 (row.capped ? "/capped" : "/uncapped"));
    EXPECT_EQ(s.makespan, row.makespan);
    EXPECT_EQ(s.delivered, row.delivered);
    EXPECT_EQ(s.total_hops, row.total_hops);
    EXPECT_EQ(s.static_congestion, row.static_congestion);
    EXPECT_DOUBLE_EQ(s.avg_latency, row.avg_latency);
  }
}

TEST(SimGolden, PrepareAndAppendAgree) {
  const Machine m = make_mesh({8, 8});
  const auto paths = golden_paths(m, 4 * m.graph.num_vertices(), 12345);
  PacketSimulator sim(m);

  const auto prepared = sim.prepare(paths);

  // Append path-by-path (the batch-doubling top-up route) and via a split
  // prefix + suffix; both must match prepare() on every observable.
  PacketSimulator::PreparedBatch grown;
  grown = sim.prepare({});
  for (const auto& p : paths) sim.append(grown, p);
  EXPECT_EQ(grown.size(), prepared.size());
  EXPECT_EQ(grown.total_hops(), prepared.total_hops());
  EXPECT_EQ(grown.static_congestion(), prepared.static_congestion());

  auto half = sim.prepare(std::vector<std::vector<Vertex>>(
      paths.begin(), paths.begin() + static_cast<long>(paths.size() / 2)));
  for (std::size_t i = paths.size() / 2; i < paths.size(); ++i) {
    sim.append(half, paths[i]);
  }
  EXPECT_EQ(half.size(), prepared.size());
  EXPECT_EQ(half.static_congestion(), prepared.static_congestion());

  Prng rng_a(777), rng_b(777), rng_c(777);
  const BatchStats a = sim.run_batch(prepared, rng_a);
  const BatchStats b = sim.run_batch(grown, rng_b);
  const BatchStats c = sim.run_batch(half, rng_c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(SimGolden, RunBatchIsSeedDeterministic) {
  // Same prepared batch + same seed => identical stats, including the
  // random arbitration policy (whose keys come from the passed rng).
  const Machine m = make_butterfly(3);
  const auto paths = golden_paths(m, 4 * m.graph.num_vertices(), 4242);
  for (const Arbitration a :
       {Arbitration::kFarthestFirst, Arbitration::kFifo,
        Arbitration::kRandom}) {
    PacketSimulator sim(m, a);
    const auto batch = sim.prepare(paths);
    Prng r1(9), r2(9);
    EXPECT_EQ(sim.run_batch(batch, r1), sim.run_batch(batch, r2));
  }
}

// --------------------------------------------------------------------------
// Thread-count invariance of the parallel trial loop.

ThroughputResult measure_with_threads(const Machine& m, std::size_t threads,
                                      unsigned trials) {
  ThreadPool pool(threads);
  BfsRouter router(m, /*spread=*/true);
  std::vector<Vertex> procs(m.graph.num_vertices());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<Vertex>(i);
  }
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  ThroughputOptions opt;
  opt.trials = trials;
  opt.pool = &pool;
  Prng rng(31337);
  return measure_throughput(m, router, traffic, rng, opt);
}

TEST(SimGolden, ThroughputIsThreadCountInvariant) {
  const Machine m = make_mesh({8, 8});
  const ThroughputResult serial = [&] {
    BfsRouter router(m, /*spread=*/true);
    std::vector<Vertex> procs(m.graph.num_vertices());
    for (std::size_t i = 0; i < procs.size(); ++i) {
      procs[i] = static_cast<Vertex>(i);
    }
    const auto traffic = TrafficDistribution::symmetric(std::move(procs));
    ThroughputOptions opt;
    opt.trials = 6;
    opt.pool = nullptr;  // strictly serial reference order
    Prng rng(31337);
    return measure_throughput(m, router, traffic, rng, opt);
  }();
  ASSERT_EQ(serial.trial_rates.size(), 6u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const ThroughputResult r = measure_with_threads(m, threads, 6);
    EXPECT_EQ(r.trial_rates, serial.trial_rates);
    EXPECT_EQ(r.rate, serial.rate);
    EXPECT_EQ(r.rate_min, serial.rate_min);
    EXPECT_EQ(r.rate_max, serial.rate_max);
    EXPECT_EQ(r.messages, serial.messages);
    EXPECT_EQ(r.last, serial.last);
    EXPECT_EQ(r.total_ticks, serial.total_ticks);
  }
}

// --------------------------------------------------------------------------
// Overlapped final calibration step: with a pool, trial 0's last run_batch
// runs beside trials 1..T-1 once the congestion floor proves that step
// final; otherwise it runs alone first.  Either way the pooled result must
// equal the serial one bit for bit, simulated volume included.

TrafficDistribution all_processors(const Machine& m) {
  std::vector<Vertex> procs(m.num_processors());
  for (std::size_t i = 0; i < procs.size(); ++i) procs[i] = m.processor(i);
  return TrafficDistribution::symmetric(std::move(procs));
}

/// The path measure_throughput's calibration ladder takes, replayed here
/// in the plain serial order of throughput.hpp's contract (route, maybe
/// simulate, double, all on trial 0's one stream): how many sizing steps
/// were simulated and then grown by a top-up routed meanwhile, and whether
/// the last step was proven final before being simulated (a pooled run then
/// overlaps it with the other trials) or ended by the makespan rule (its
/// overlapped top-up is dropped).  The replay also reports the calibrated m
/// and trial 0's final stats, which measure_throughput must reproduce.
struct LadderShape {
  unsigned merged_top_ups = 0;
  bool final_by_floor = false;
  std::size_t messages = 0;
  BatchStats trial0;
};

LadderShape ladder_shape(const Machine& m, Router& router,
                         const TrafficDistribution& traffic,
                         std::uint64_t seed, const ThroughputOptions& opt) {
  Prng rng(seed);
  const std::uint64_t base = rng();
  Prng diam_rng = Prng::stream(base, 0);
  const std::uint64_t target = std::max<std::uint64_t>(
      opt.min_makespan, 4 * diameter_double_sweep(m.graph, diam_rng));
  std::size_t msgs = std::clamp<std::size_t>(
      opt.messages_per_processor * traffic.num_processors(), 512,
      opt.max_messages);
  const PacketSimulator sim(m, opt.arbitration);
  Prng trial_rng = Prng::stream(base, 1);
  PacketSimulator::PreparedBatch batch;
  std::vector<Vertex> path;
  std::size_t routed = 0;
  LadderShape shape;
  for (;;) {
    for (const Message& msg : traffic.batch(msgs - routed, trial_rng)) {
      router.route_append(msg.src, msg.dst, trial_rng, path);
      sim.append(batch, path);
    }
    routed = msgs;
    shape.messages = msgs;
    if (msgs >= opt.max_messages || sim.makespan_floor(batch) >= target) {
      shape.final_by_floor = true;
      shape.trial0 = sim.run_batch(batch, trial_rng);
      return shape;
    }
    shape.trial0 = sim.run_batch(batch, trial_rng);
    if (shape.trial0.makespan >= target) return shape;
    ++shape.merged_top_ups;
    msgs = std::min(opt.max_messages, msgs * 2);
  }
}

struct CountedRun {
  ThroughputResult result;
  std::uint64_t messages = 0;  // simulated_messages_total() delta
  std::uint64_t ticks = 0;     // simulated_ticks_total() delta
  std::uint64_t batches = 0;   // simulated_batches_total() delta
};

CountedRun counted_run(const Machine& m, Router& router,
                       const TrafficDistribution& traffic, std::uint64_t seed,
                       const ThroughputOptions& opt) {
  const std::uint64_t messages = simulated_messages_total();
  const std::uint64_t ticks = simulated_ticks_total();
  const std::uint64_t batches = simulated_batches_total();
  Prng rng(seed);
  CountedRun run;
  run.result = measure_throughput(m, router, traffic, rng, opt);
  run.messages = simulated_messages_total() - messages;
  run.ticks = simulated_ticks_total() - ticks;
  run.batches = simulated_batches_total() - batches;
  return run;
}

void expect_identical(const ThroughputResult& a, const ThroughputResult& b) {
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.rate_min, b.rate_min);
  EXPECT_EQ(a.rate_max, b.rate_max);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.last, b.last);
  EXPECT_EQ(a.trial_rates, b.trial_rates);
  EXPECT_EQ(a.total_ticks, b.total_ticks);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.trials_completed, b.trials_completed);
  EXPECT_EQ(a.trial_lo, b.trial_lo);
}

/// measure_throughput with a 4-thread pool against the serial path.
/// Returns the shape of the calibration ladder both ran.
LadderShape expect_pooled_matches_serial(const Machine& m,
                                         ThroughputOptions opt,
                                         std::uint64_t seed) {
  ThreadPool pool(4);
  const auto router = make_default_router(m);
  const auto traffic = all_processors(m);
  opt.pool = nullptr;
  const CountedRun serial = counted_run(m, *router, traffic, seed, opt);
  opt.pool = &pool;
  const CountedRun pooled = counted_run(m, *router, traffic, seed, opt);
  expect_identical(pooled.result, serial.result);
  EXPECT_EQ(pooled.messages, serial.messages);
  EXPECT_EQ(pooled.ticks, serial.ticks);
  EXPECT_EQ(pooled.batches, serial.batches);
  EXPECT_FALSE(serial.result.degraded);
  // Both match the plain serial replay, so a pipelined ladder that routed a
  // top-up from the wrong rng state fails here on random arbitration even
  // though pooled and serial runs would still agree with each other.
  const LadderShape shape = ladder_shape(m, *router, traffic, seed, opt);
  EXPECT_EQ(serial.result.messages, shape.messages);
  if (opt.trial_lo == 0) {
    EXPECT_EQ(serial.result.trial_rates.front(), shape.trial0.rate());
  }
  return shape;
}

TEST(SimGolden, OverlappedFinalStepMatchesSerialOnEveryArbitration) {
  for (const char* topology : {"mesh8x8", "butterfly3", "tree5"}) {
    for (const Arbitration a : {Arbitration::kFarthestFirst,
                                Arbitration::kFifo, Arbitration::kRandom}) {
      SCOPED_TRACE(std::string(topology) + "/" + arbitration_name(a));
      ThroughputOptions opt;
      opt.trials = 6;
      opt.arbitration = a;
      const LadderShape shape =
          expect_pooled_matches_serial(golden_machine(topology), opt, 4242);
      EXPECT_TRUE(shape.final_by_floor)
          << "the floor no longer proves the final step: this case stopped "
             "covering the overlapped path";
      EXPECT_GE(shape.merged_top_ups, 1u)
          << "no pipelined ladder step: this case stopped covering them";
    }
  }
}

TEST(SimGolden, StandaloneFinalStepMatchesSerialOnANodeCappedBus) {
  // Every message crosses the hub, which forwards one per tick: the
  // makespan reaches the target while the per-spoke channel floor stays far
  // below it, so the last step cannot be proven early and runs alone.
  ThroughputOptions opt;
  opt.trials = 6;
  EXPECT_FALSE(expect_pooled_matches_serial(make_global_bus(16), opt, 77)
                   .final_by_floor);
}

TEST(SimGolden, PipelinedLadderDropsTheTopUpOfAStepEndedByMakespan) {
  // The hub forwards one message per tick, so the bus's makespan grows with
  // m while its per-spoke floor stays far below the raised target: the
  // ladder simulates and tops up at m = 512, then its m = 1024 step ends by
  // the makespan rule, and the top-up routed beside that step is dropped.  On
  // every arbitration the pooled run must still equal the serial one, rng
  // position included (random arbitration draws from the ladder's rng).
  for (const Arbitration a : {Arbitration::kFarthestFirst, Arbitration::kFifo,
                              Arbitration::kRandom}) {
    SCOPED_TRACE(arbitration_name(a));
    ThroughputOptions opt;
    opt.trials = 2;
    opt.arbitration = a;
    opt.min_makespan = 800;
    const LadderShape shape =
        expect_pooled_matches_serial(make_global_bus(16), opt, 77);
    EXPECT_FALSE(shape.final_by_floor);
    EXPECT_EQ(shape.merged_top_ups, 1u);
  }
}

TEST(SimGolden, RangedShardMatchesSerial) {
  // A shard with trial_lo > 0 still runs trial 0's calibration, final step
  // included, and discards it.
  ThroughputOptions opt;
  opt.trials = 8;
  opt.trial_lo = 3;
  opt.trial_hi = 7;
  EXPECT_TRUE(expect_pooled_matches_serial(make_mesh({8, 8}), opt, 4242)
                  .final_by_floor);
}

/// Forwards to `inner`.  Every route after the first `arm_after` waits for
/// `ready()` and then fires `source`.
class CancellingRouter : public Router {
 public:
  CancellingRouter(Router& inner, CancelSource& source, std::size_t arm_after,
                   std::function<bool()> ready)
      : inner_(inner),
        source_(source),
        arm_after_(arm_after),
        ready_(std::move(ready)) {}

  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override {
    if (calls_.fetch_add(1) >= arm_after_) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!ready_() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      source_.request_cancel();
    }
    inner_.route_append(src, dst, rng, out);
  }

  const char* name() const override { return "cancelling"; }

 private:
  Router& inner_;
  CancelSource& source_;
  const std::size_t arm_after_;
  const std::function<bool()> ready_;
  std::atomic<std::size_t> calls_{0};
};

TEST(SimGolden, CancelInTheFanOutLeavesTrialZeroOnlyPooledOrSerial) {
  const Machine m = make_mesh({8, 8});
  const auto inner = make_default_router(m);
  const auto traffic = all_processors(m);
  ThroughputOptions opt;
  opt.trials = 6;
  ASSERT_TRUE(ladder_shape(m, *inner, traffic, 4242, opt).final_by_floor);
  const CountedRun clean = counted_run(m, *inner, traffic, 4242, opt);
  // Calibration routes exactly m messages (top-ups sum to m) and runs one
  // batch per sizing step; each fan-out trial routes m and runs one batch.
  const std::size_t calibration_routes = clean.result.messages;
  const std::uint64_t calibration_batches = clean.batches - (opt.trials - 1);

  ThreadPool pool(4);
  std::vector<ThroughputResult> results;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pooled");
    CancelSource source;
    const std::uint64_t batches_before = simulated_batches_total();
    // A cancel that lands before trial 0's final run_batch has returned is
    // a cancellation inside trial 0's step (it raises; see the next test).
    // Holding fan-out routes until trial 0 has landed pins the fan-out case
    // on both paths alike.
    CancellingRouter router(*inner, source, calibration_routes, [&] {
      return simulated_batches_total() - batches_before >=
             calibration_batches;
    });
    opt.pool = p;
    opt.cancel = source.token();
    Prng rng(4242);
    results.push_back(measure_throughput(m, router, traffic, rng, opt));
    const ThroughputResult& r = results.back();
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.trials_completed, 1u);
    EXPECT_EQ(r.trial_rates,
              std::vector<double>{clean.result.trial_rates.front()});
    EXPECT_EQ(r.messages, clean.result.messages);
  }
  expect_identical(results[1], results[0]);
}

TEST(SimGolden, CancelInsideTrialZeroStepRaisesPooledOrSerial) {
  const Machine m = make_mesh({8, 8});
  const auto inner = make_default_router(m);
  const auto traffic = all_processors(m);
  ThroughputOptions opt;
  opt.trials = 6;
  ASSERT_TRUE(ladder_shape(m, *inner, traffic, 4242, opt).final_by_floor);
  Prng probe(4242);
  const std::size_t calibration_routes =
      measure_throughput(m, *inner, traffic, probe, opt).messages;

  ThreadPool pool(4);
  // Firing on the first route stops the ladder mid-routing; firing on the
  // last calibration route lets routing finish, so the cancel is first seen
  // by trial 0's final run_batch — the one that runs beside the fan-out.
  for (const std::size_t arm_after : {std::size_t{0}, calibration_routes - 1}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(std::to_string(arm_after) +
                   (p == nullptr ? " serial" : " pooled"));
      CancelSource source;
      CancellingRouter router(*inner, source, arm_after, [] { return true; });
      opt.pool = p;
      opt.cancel = source.token();
      Prng rng(4242);
      EXPECT_THROW(measure_throughput(m, router, traffic, rng, opt),
                   CancelledError);
    }
  }
}

// --------------------------------------------------------------------------
// Cooperative cancellation: a token must never perturb the simulation it
// does not stop, and must stop one promptly when it fires.

TEST(SimGolden, NeverFiringCancelTokenIsBitIdentical) {
  // An armed-but-never-firing token takes the real amortized-check branch
  // on every quantum boundary; the stats must still match the goldens
  // exactly — cancellation checks may not draw randomness or reorder work.
  CancelSource source;
  source.set_deadline_after_ms(3'600'000);
  const CancelToken token = source.token();

  std::string built_for;
  std::vector<std::vector<Vertex>> paths;
  for (const GoldenRow& row : kGolden) {
    Machine m = golden_machine(row.topology);
    const std::size_t n = m.graph.num_vertices();
    if (built_for != row.topology) {
      paths = golden_paths(m, 4 * n, 12345);
      built_for = row.topology;
    }
    if (row.capped) m.forward_cap.assign(n, 1);

    PacketSimulator sim(m, row.arbitration);
    Prng rng(777);
    const BatchStats s = sim.run_batch(paths, rng, token);
    SCOPED_TRACE(std::string(row.topology) + "/" +
                 arbitration_name(row.arbitration) +
                 (row.capped ? "/capped" : "/uncapped"));
    EXPECT_EQ(s.makespan, row.makespan);
    EXPECT_EQ(s.delivered, row.delivered);
    EXPECT_EQ(s.total_hops, row.total_hops);
    EXPECT_EQ(s.static_congestion, row.static_congestion);
    EXPECT_DOUBLE_EQ(s.avg_latency, row.avg_latency);
  }
}

TEST(SimGolden, ThroughputWithNeverFiringTokenIsBitIdentical) {
  const Machine m = make_mesh({8, 8});
  const ThroughputResult plain = measure_with_threads(m, 4, 6);

  CancelSource source;
  source.set_deadline_after_ms(3'600'000);
  ThreadPool pool(4);
  BfsRouter router(m, /*spread=*/true);
  router.set_cancel_token(source.token());
  std::vector<Vertex> procs(m.graph.num_vertices());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<Vertex>(i);
  }
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  ThroughputOptions opt;
  opt.trials = 6;
  opt.pool = &pool;
  opt.cancel = source.token();
  Prng rng(31337);
  const ThroughputResult r = measure_throughput(m, router, traffic, rng, opt);

  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.trials_completed, 6u);
  EXPECT_EQ(r.trial_rates, plain.trial_rates);
  EXPECT_EQ(r.rate, plain.rate);
  EXPECT_EQ(r.last, plain.last);
  EXPECT_EQ(r.total_ticks, plain.total_ticks);
}

TEST(SimGolden, PreCancelledBatchNeverStartsSimulating) {
  const Machine m = make_mesh({4, 4});
  const auto paths = golden_paths(m, 32, 7);
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);
  CancelSource source;
  source.request_cancel();
  Prng rng(1);
  const std::uint64_t before = simulated_ticks_total();
  EXPECT_THROW(sim.run_batch(batch, rng, source.token()), CancelledError);
  EXPECT_EQ(simulated_ticks_total(), before);  // zero ticks simulated
}

TEST(SimGolden, CancelStopsALongRunningBatchEarly) {
  // A capped tree serializes all cross-root traffic through one edge, so a
  // big batch runs for tens of thousands of ticks — long enough that the
  // cancel below always lands while the simulation is still going.
  Machine m = make_tree(5);
  const std::size_t n = m.graph.num_vertices();
  m.forward_cap.assign(n, 1);
  const auto paths = golden_paths(m, 300 * n, 12345);
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);

  // The bound is in ticks, not wall time: one check quantum takes
  // milliseconds in a release build and seconds under a sanitizer or
  // coverage instrumentation.  A cancelled run records the ticks it
  // simulated, and its own pace converts the wall time between the request
  // and the stop into ticks.
  using Clock = std::chrono::steady_clock;
  CancelSource source;
  std::atomic<bool> threw{false};
  std::atomic<Clock::rep> started{0};
  const std::uint64_t ticks_before = simulated_ticks_total();
  std::thread runner([&] {
    Prng rng(777);
    started = Clock::now().time_since_epoch().count();
    try {
      sim.run_batch(batch, rng, source.token());
    } catch (const CancelledError&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Clock::time_point requested = Clock::now();
  source.request_cancel();
  runner.join();
  const Clock::time_point stopped = Clock::now();
  const std::uint64_t ticks = simulated_ticks_total() - ticks_before;

  EXPECT_TRUE(threw.load());
  // It stopped at a check, long before the batch could have finished.
  EXPECT_EQ(ticks % kCancelCheckTicks, 0u);
  EXPECT_LT(ticks, sim.makespan_floor(batch));
  // Ticks run after the request, at the run's average pace: within one
  // check quantum, with 2x slack for the pace varying along the run.
  const Clock::time_point start{Clock::duration{started.load()}};
  const double run_s =
      std::chrono::duration<double>(stopped - std::min(start, requested))
          .count();
  const double after_s =
      std::chrono::duration<double>(stopped - requested).count();
  const double ticks_after =
      run_s > 0.0 ? static_cast<double>(ticks) * after_s / run_s : 0.0;
  EXPECT_LE(ticks_after, 2.0 * kCancelCheckTicks)
      << ticks << " ticks in " << run_s << " s, " << after_s
      << " s of them after the request";
}

TEST(SimGolden, RunBatchDrawsExactlyItsDocumentedRngValues) {
  // The rng contract in packet_sim.hpp: kRandom draws one key per message
  // (zero-hop messages included) before the first tick, so even a run that
  // is cancelled before it starts has drawn them; the other policies never
  // draw.  measure_throughput's pipelined ladder skips exactly these draws.
  const Machine m = make_mesh({8, 8});
  auto paths = golden_paths(m, 4 * m.graph.num_vertices(), 4242);
  paths.push_back({5});  // a zero-hop message
  CancelSource cancelled;
  cancelled.request_cancel();
  for (const Arbitration a : {Arbitration::kFarthestFirst, Arbitration::kFifo,
                              Arbitration::kRandom}) {
    SCOPED_TRACE(arbitration_name(a));
    const PacketSimulator sim(m, a);
    const auto batch = sim.prepare(paths);
    const std::uint64_t draws = a == Arbitration::kRandom ? batch.size() : 0;
    EXPECT_EQ(sim.rng_draws(batch), draws);
    Prng expected(99);
    expected.discard(draws);

    Prng rng(99);
    sim.run_batch(batch, rng);
    EXPECT_TRUE(rng == expected);

    Prng pre(99);
    EXPECT_THROW(sim.run_batch(batch, pre, cancelled.token()), CancelledError);
    EXPECT_TRUE(pre == expected);
  }
}

TEST(SimGolden, SimulatedTicksCounterAdvances) {
  const Machine m = make_mesh({4, 4});
  const auto paths = golden_paths(m, 32, 7);
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);
  const std::uint64_t before = simulated_ticks_total();
  Prng rng(1);
  const BatchStats s = sim.run_batch(batch, rng);
  EXPECT_GE(simulated_ticks_total() - before, s.makespan);
}

}  // namespace
}  // namespace netemu
