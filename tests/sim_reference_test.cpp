// Differential tests: PacketSimulator::run_batch against the naive reference
// simulator in reference_sim.hpp, bit for bit, on seeded random inputs.
//
// The shapes cover every part of the one tick loop: single-wire pops,
// multi-wire pops, the per-node round and the re-push of node losers.
// Random multigraphs mix unit and multi-wire edges, with node caps on some
// seeds.  Stars with hot leaves and complete binary trees with leaf-to-leaf
// traffic build deep queues (at the hub and the apex), so per-channel heaps
// outgrow their first blocks and the heap arena compacts; each draws unit
// wires or multiplicities 1..3, and node caps on some seeds, so deep queues
// also meet multi-wire pops and capped nodes.  A long line runs past several
// cancellation polls with a token that never fires.  Every case runs under
// all three arbitrations, with zero-hop messages mixed in, and checks that
// both simulators drew the same rng values.  A fixed seed list runs under
// tier1 (and so under the sanitizer job); SimReferenceSoak sweeps many more
// seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "netemu/graph/multigraph.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/topology/machine.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/prng.hpp"
#include "reference_sim.hpp"

namespace netemu {
namespace {

struct Case {
  std::string shape;
  Machine machine;
  std::vector<std::vector<Vertex>> paths;
};

struct WeightedEdge {
  Vertex u, v;
  std::uint32_t mult;
};

Machine machine_of(std::size_t n, const std::vector<WeightedEdge>& edges) {
  MultigraphBuilder b(n);
  for (const WeightedEdge& e : edges) b.add_edge(e.u, e.v, e.mult);
  Machine machine;
  machine.graph = std::move(b).build();
  return machine;
}

/// Wires for one edge: 1 when `unit`, else drawn from 1..3.
std::uint32_t wires(bool unit, Prng& rng) {
  return unit ? 1 : 1 + static_cast<std::uint32_t>(rng.below(3));
}

/// Node caps drawn per node from {1, 2, unlimited}.
void cap_nodes(Machine& machine, Prng& rng) {
  const std::uint32_t caps[] = {1, 2, kUnlimitedForward};
  machine.forward_cap.resize(machine.num_vertices());
  for (auto& cap : machine.forward_cap) cap = caps[rng.below(3)];
}

/// A random walk of `hops` steps from `start`; 0 steps is a zero-hop path.
std::vector<Vertex> walk(const Multigraph& g, Vertex start, std::size_t hops,
                         Prng& rng) {
  std::vector<Vertex> path{start};
  for (std::size_t h = 0; h < hops; ++h) {
    const auto arcs = g.neighbors(path.back());
    path.push_back(arcs[rng.below(arcs.size())].to);
  }
  return path;
}

/// A small connected graph: a random spanning tree plus random extra
/// edges, multiplicities 1..3 (or all 1 when `unit`); random-walk paths.
Case random_graph(Prng& rng, bool unit) {
  const std::size_t n = 2 + rng.below(9);
  std::vector<WeightedEdge> edges;
  std::set<std::pair<Vertex, Vertex>> seen;
  const auto add = [&](Vertex u, Vertex v) {
    if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
      return;
    }
    edges.push_back({u, v, wires(unit, rng)});
  };
  for (Vertex v = 1; v < n; ++v) add(static_cast<Vertex>(rng.below(v)), v);
  for (std::size_t e = rng.below(2 * n); e > 0; --e) {
    add(static_cast<Vertex>(rng.below(n)), static_cast<Vertex>(rng.below(n)));
  }
  Case c{unit ? "unit-graph" : "multigraph", machine_of(n, edges), {}};
  const std::size_t m = 1 + rng.below(80);
  for (std::size_t i = 0; i < m; ++i) {
    if (rng.below(16) == 0) {
      c.paths.push_back({});  // an empty path is a zero-hop message too
    } else {
      const auto start = static_cast<Vertex>(rng.below(n));
      c.paths.push_back(walk(c.machine.graph, start, rng.below(9), rng));
    }
  }
  if (rng.below(3) == 0) cap_nodes(c.machine, rng);
  return c;
}

/// Hub 0 and its leaves; most messages go to a few hot leaves, so the
/// hub-to-hot-leaf queues grow to hundreds.  Unit wires on half the seeds,
/// multiplicities 1..3 on the rest; node caps on a third (a capped hub
/// deepens every queue).
Case star(Prng& rng) {
  const std::size_t leaves = 3 + rng.below(30);
  const bool unit = rng.below(2) == 0;
  std::vector<WeightedEdge> edges;
  for (Vertex v = 1; v <= leaves; ++v) {
    edges.push_back({0, v, wires(unit, rng)});
  }
  Case c{"star", machine_of(leaves + 1, edges), {}};
  const std::size_t hot = 1 + rng.below(3);
  const std::size_t m = 50 + rng.below(600);
  for (std::size_t i = 0; i < m; ++i) {
    const auto dst = static_cast<Vertex>(
        1 + (rng.below(4) > 0 ? rng.below(hot) : rng.below(leaves)));
    const auto src = static_cast<Vertex>(rng.below(leaves + 1));
    if (src == dst) {
      c.paths.push_back({src});
    } else if (src == 0) {
      c.paths.push_back({0, dst});
    } else {
      c.paths.push_back({src, 0, dst});
    }
  }
  if (rng.below(3) == 0) cap_nodes(c.machine, rng);
  return c;
}

/// A complete binary tree (heap numbering) with leaf-to-leaf messages, which
/// pile up at the apex.  Wires and node caps as for star.
Case binary_tree(Prng& rng) {
  const std::size_t depth = 2 + rng.below(4);
  const std::size_t n = (std::size_t{2} << depth) - 1;
  const bool unit = rng.below(2) == 0;
  std::vector<WeightedEdge> edges;
  for (Vertex v = 1; v < n; ++v) {
    edges.push_back({(v - 1) / 2, v, wires(unit, rng)});
  }
  Case c{"binary-tree", machine_of(n, edges), {}};
  const std::size_t first_leaf = n / 2;
  const std::size_t m = 100 + rng.below(800);
  for (std::size_t i = 0; i < m; ++i) {
    Vertex a = static_cast<Vertex>(first_leaf + rng.below(n - first_leaf));
    Vertex b = static_cast<Vertex>(first_leaf + rng.below(n - first_leaf));
    std::vector<Vertex> up{a};  // a == b: a zero-hop message
    std::vector<Vertex> down;
    while (a != b) {  // same depth: climb both sides to the common ancestor
      down.push_back(b);
      a = (a - 1) / 2;
      b = (b - 1) / 2;
      up.push_back(a);
    }
    up.insert(up.end(), down.rbegin(), down.rend());
    c.paths.push_back(up);
  }
  if (rng.below(3) == 0) cap_nodes(c.machine, rng);
  return c;
}

Case random_case(std::uint64_t seed) {
  Prng rng(seed);
  switch (seed % 4) {
    case 0: return random_graph(rng, /*unit=*/false);
    case 1: return random_graph(rng, /*unit=*/true);
    case 2: return star(rng);
    default: return binary_tree(rng);
  }
}

void expect_matches_reference(const Case& c, std::uint64_t seed,
                              const CancelToken& cancel = {}) {
  for (const Arbitration a : {Arbitration::kFarthestFirst, Arbitration::kFifo,
                              Arbitration::kRandom}) {
    SCOPED_TRACE(c.shape + " seed " + std::to_string(seed) + " " +
                 arbitration_name(a));
    const PacketSimulator sim(c.machine, a);
    Prng fast_rng(seed ^ 0x5eedu);
    Prng ref_rng(seed ^ 0x5eedu);
    const BatchStats fast =
        sim.run_batch(sim.prepare(c.paths), fast_rng, cancel);
    const BatchStats ref =
        reference::run_batch(c.machine, a, c.paths, ref_rng);
    EXPECT_EQ(fast.makespan, ref.makespan);
    EXPECT_EQ(fast.delivered, ref.delivered);
    EXPECT_EQ(fast.total_hops, ref.total_hops);
    EXPECT_EQ(fast.static_congestion, ref.static_congestion);
    EXPECT_EQ(fast.avg_latency, ref.avg_latency);  // exact, not DOUBLE_EQ
    EXPECT_TRUE(fast_rng == ref_rng) << "the two drew different rng values";
  }
}

TEST(SimReference, MatchesRunBatchOnSeededRandomMachines) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    expect_matches_reference(random_case(seed), seed);
    if (HasFailure()) return;  // one failing seed is enough to report
  }
}

TEST(SimReference, NeverFiringTokenAcrossManyCancelChecks) {
  // A line long enough that the run polls its token several times.
  const std::size_t n = 3 * kCancelCheckTicks;
  std::vector<WeightedEdge> edges;
  for (Vertex v = 1; v < n; ++v) edges.push_back({v - 1, v, 1});
  Case c{"line", machine_of(n, edges), {}};
  Prng rng(17);
  for (int i = 0; i < 6; ++i) {
    std::vector<Vertex> path;
    const auto from = static_cast<Vertex>(rng.below(64));
    for (Vertex v = from; v < n; ++v) path.push_back(v);
    c.paths.push_back(std::move(path));
  }
  c.paths.push_back({3});
  CancelSource never;
  never.set_deadline_after_ms(3'600'000);
  expect_matches_reference(c, 17, never.token());
  cap_nodes(c.machine, rng);
  expect_matches_reference(c, 18, never.token());
}

TEST(SimReferenceSoak, LongRandomSweep) {
  for (std::uint64_t seed = 1000; seed < 5000; ++seed) {
    expect_matches_reference(random_case(seed), seed);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace netemu
