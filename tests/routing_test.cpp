// Tests for the routing subsystem: per-family routers, path validity,
// the packet simulator's contention accounting, and the throughput meter.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "netemu/graph/algorithms.hpp"
#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/butterfly_router.hpp"
#include "netemu/routing/dimension_order.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/routing/tree_router.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/topology/generators.hpp"

namespace netemu {
namespace {

std::vector<Vertex> iota_procs(std::size_t n) {
  std::vector<Vertex> p(n);
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

double measure_rate(const Machine& m, Prng& rng,
                    const ThroughputOptions& opt) {
  const auto traffic =
      TrafficDistribution::symmetric(iota_procs(m.graph.num_vertices()));
  const auto router = make_default_router(m);
  return measure_throughput(m, *router, traffic, rng, opt).rate;
}

// --------------------------------------------------------------------------
// Router validity across all families (parameterized sweep).

struct RouterCase {
  Family family;
  unsigned k;
};

class RouterValidity : public ::testing::TestWithParam<RouterCase> {};

TEST_P(RouterValidity, AllPairsPathsAreValidAndShortEnough) {
  Prng rng(99);
  const Machine m = make_machine(GetParam().family, 80, GetParam().k, rng);
  const auto router = make_default_router(m);
  const std::size_t n = m.graph.num_vertices();

  for (Vertex u = 0; u < n; ++u) {
    const auto dist = bfs_distances(m.graph, u);
    for (Vertex v = 0; v < n; ++v) {
      const auto path = router->route(u, v, rng);
      ASSERT_TRUE(path_is_valid(m.graph, path, u, v))
          << m.name << " " << u << "->" << v;
      // Specialized routers may be non-minimal but never more than the
      // graph's diameter + lg n slack on these small instances — except the
      // hierarchy router, which deliberately trades dilation Θ(n^{1/k}) for
      // base-mesh congestion.
      const bool hierarchical = m.family == Family::kPyramid ||
                                m.family == Family::kMultigrid;
      std::size_t limit = static_cast<std::size_t>(2 * dist[v] + 8);
      if (hierarchical) {
        limit = static_cast<std::size_t>(3 * m.dims * m.shape[0] + 16);
      } else if (m.family == Family::kShuffleExchange) {
        // The bit-serial walk always takes ~2d hops regardless of distance.
        limit = std::max(limit, static_cast<std::size_t>(2 * m.shape[0] + 2));
      } else if (m.family == Family::kXTree) {
        // The ring-spreading schedule deliberately takes lateral walks of
        // up to 2^depth hops to spread congestion across the level rings.
        limit = m.graph.num_vertices();
      }
      EXPECT_LE(path.size() - 1, limit) << m.name << " " << u << "->" << v;
    }
  }
}

std::vector<RouterCase> router_cases() {
  std::vector<RouterCase> cases;
  for (Family f : all_families()) {
    const unsigned kmax = family_is_dimensional(f) ? 2 : 1;
    for (unsigned k = 1; k <= kmax; ++k) cases.push_back({f, k});
  }
  return cases;
}

std::string router_case_name(const ::testing::TestParamInfo<RouterCase>& i) {
  return std::string(family_name(i.param.family)) + "_k" +
         std::to_string(i.param.k);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, RouterValidity,
                         ::testing::ValuesIn(router_cases()),
                         router_case_name);

// --------------------------------------------------------------------------
// Specific router properties.

TEST(BfsRouter, ProducesShortestPaths) {
  Prng rng(1);
  const Machine m = make_machine(Family::kCCC, 64, 1, rng);
  BfsRouter router(m);
  for (Vertex u = 0; u < m.graph.num_vertices(); u += 3) {
    const auto dist = bfs_distances(m.graph, u);
    for (Vertex v = 0; v < m.graph.num_vertices(); v += 5) {
      const auto path = router.route(u, v, rng);
      EXPECT_EQ(path.size() - 1, dist[v]);
    }
  }
}

TEST(BfsRouter, SpreadRandomizesAmongShortestPaths) {
  Prng rng(2);
  const Machine m = make_mesh({5, 5});
  BfsRouter router(m, /*spread=*/true);
  // Corner to corner: many shortest paths; expect at least 3 distinct.
  std::set<std::vector<Vertex>> distinct;
  for (int i = 0; i < 50; ++i) distinct.insert(router.route(0, 24, rng));
  EXPECT_GE(distinct.size(), 3u);
  for (const auto& p : distinct) EXPECT_EQ(p.size() - 1, 8u);
}

TEST(BfsRouter, DeterministicModeIsStable) {
  Prng rng(3);
  const Machine m = make_mesh({4, 4});
  BfsRouter router(m, /*spread=*/false);
  const auto p1 = router.route(0, 15, rng);
  const auto p2 = router.route(0, 15, rng);
  EXPECT_EQ(p1, p2);
}

TEST(DimensionOrder, MinimalOnMesh) {
  Prng rng(4);
  const Machine m = make_mesh({6, 6});
  DimensionOrderRouter router(m);
  for (Vertex u = 0; u < 36; u += 5) {
    const auto dist = bfs_distances(m.graph, u);
    for (Vertex v = 0; v < 36; v += 7) {
      const auto path = router.route(u, v, rng);
      EXPECT_EQ(path.size() - 1, dist[v]);
    }
  }
}

TEST(DimensionOrder, TorusTakesShorterWay) {
  Prng rng(5);
  const Machine m = make_torus({8});
  DimensionOrderRouter router(m);
  const auto path = router.route(0, 6, rng);  // 0 -> 7 -> 6 around the wrap
  EXPECT_EQ(path.size() - 1, 2u);
}

TEST(DimensionOrder, XGridUsesDiagonals) {
  Prng rng(6);
  const Machine m = make_x_grid({5, 5});
  DimensionOrderRouter router(m);
  // (0,0) -> (4,4): 4 diagonal steps.
  const auto path = router.route(0, 24, rng);
  EXPECT_EQ(path.size() - 1, 4u);
  EXPECT_TRUE(path_is_valid(m.graph, path, 0, 24));
}

TEST(BitFix, MinimalOnHypercube) {
  Prng rng(7);
  const Machine m = make_hypercube(5);
  BitFixRouter router(m);
  for (Vertex u = 0; u < 32; u += 3) {
    for (Vertex v = 0; v < 32; v += 5) {
      const auto path = router.route(u, v, rng);
      EXPECT_EQ(path.size() - 1, std::popcount(u ^ v));
      EXPECT_TRUE(path_is_valid(m.graph, path, u, v));
    }
  }
}

TEST(DeBruijnShift, AtMostDHops) {
  Prng rng(8);
  const Machine m = make_debruijn(5);
  DeBruijnShiftRouter router(m);
  for (Vertex u = 0; u < 32; ++u) {
    for (Vertex v = 0; v < 32; ++v) {
      const auto path = router.route(u, v, rng);
      EXPECT_LE(path.size() - 1, 5u);
      EXPECT_TRUE(path_is_valid(m.graph, path, u, v));
    }
  }
}

TEST(TreeRouter, LcaPathsAreMinimal) {
  Prng rng(9);
  const Machine m = make_tree(4);
  TreeRouter router(m);
  for (Vertex u = 0; u < 31; u += 2) {
    const auto dist = bfs_distances(m.graph, u);
    for (Vertex v = 0; v < 31; v += 3) {
      const auto path = router.route(u, v, rng);
      EXPECT_EQ(path.size() - 1, dist[v]);
    }
  }
}

TEST(HierarchyRouter, BaseCellsUseDimensionOrder) {
  Prng rng(30);
  const Machine m = make_pyramid(2, 8);
  const auto router = make_default_router(m);
  // Base (0,0) -> base (7,7): pure base-mesh walk, 14 hops.
  const auto path = router->route(0, 63, rng);
  EXPECT_EQ(path.size() - 1, 14u);
  EXPECT_TRUE(path_is_valid(m.graph, path, 0, 63));
}

TEST(HierarchyRouter, CoarseNodesDescendCrossAscend) {
  Prng rng(31);
  for (const Machine& m : {make_pyramid(2, 8), make_multigrid(2, 8)}) {
    const auto router = make_default_router(m);
    const auto n = static_cast<Vertex>(m.graph.num_vertices());
    // Apex to apex-adjacent and coarse-to-coarse paths are valid walks.
    for (Vertex u = 64; u < n; u += 5) {
      for (Vertex v = 0; v < n; v += 7) {
        const auto path = router->route(u, v, rng);
        EXPECT_TRUE(path_is_valid(m.graph, path, u, v))
            << m.name << " " << u << "->" << v;
      }
    }
  }
}

TEST(HierarchyRouter, PyramidThroughputScalesLikeMesh) {
  Prng rng(32);
  ThroughputOptions opt;
  opt.trials = 2;
  const Machine small = make_pyramid(2, 16);   // 341 vertices
  const Machine large = make_pyramid(2, 32);   // 1365 vertices
  const double r_small = measure_rate(small, rng, opt);
  const double r_large = measure_rate(large, rng, opt);
  // Θ(sqrt(n)): quadrupling n should double the rate (within slack).
  EXPECT_GT(r_large / r_small, 1.4);
  EXPECT_LT(r_large / r_small, 3.0);
}

TEST(XTreeRouter, AllPairsValid) {
  Prng rng(40);
  const Machine m = make_x_tree(5);
  const auto router = make_default_router(m);
  for (Vertex u = 0; u < 63; ++u) {
    for (Vertex v = 0; v < 63; ++v) {
      const auto path = router->route(u, v, rng);
      ASSERT_TRUE(path_is_valid(m.graph, path, u, v)) << u << "->" << v;
    }
  }
}

TEST(XTreeRouter, SpreadsAcrossRings) {
  // Over many routings of the same far pair, several distinct crossing
  // depths must occur (the Θ(lg n) schedule's defining property).
  Prng rng(41);
  const Machine m = make_x_tree(5);
  const auto router = make_default_router(m);
  // Two deep leaves on opposite sides of the root.
  const Vertex u = 31, v = 62;
  std::set<Vertex> shallowest;  // minimum-depth vertex per path
  for (int i = 0; i < 60; ++i) {
    const auto path = router->route(u, v, rng);
    Vertex top = u;
    for (Vertex x : path) top = std::min(top, x);
    shallowest.insert(top);
  }
  EXPECT_GE(shallowest.size(), 3u);
}

TEST(XTreeRouter, ThroughputScalesWithLg) {
  Prng rng(42);
  ThroughputOptions opt;
  opt.trials = 2;
  const double r_small = measure_rate(make_x_tree(5), rng, opt);    // 63
  const double r_large = measure_rate(make_x_tree(9), rng, opt);    // 1023
  // Θ(lg n): 6 -> 10 levels should give ~1.7x.
  EXPECT_GT(r_large / r_small, 1.25);
  EXPECT_LT(r_large / r_small, 3.0);
}

TEST(ButterflyRouter, AllPairsValidAndLinearInD) {
  Prng rng(33);
  const Machine m = make_butterfly(4);  // 80 vertices
  const auto router = make_default_router(m);
  const std::size_t n = m.graph.num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      const auto path = router->route(u, v, rng);
      ASSERT_TRUE(path_is_valid(m.graph, path, u, v)) << u << "->" << v;
      EXPECT_LE(path.size() - 1, 4u * 4u);  // <= 4d hops
    }
  }
}

TEST(ButterflyRouter, SameRowStraightWalk) {
  Prng rng(34);
  const Machine m = make_butterfly(3);
  ButterflyRouter router(m);
  // (level 0, row 5) -> (level 3, row 5): straight edges only, 3 hops.
  const auto path = router.route(5, 3 * 8 + 5, rng);
  EXPECT_EQ(path.size() - 1, 3u);
}

TEST(ButterflyRouter, WorksOnMultibutterfly) {
  Prng rng(35);
  const Machine m = make_multibutterfly(4, rng, 1);
  const auto router = make_default_router(m);
  for (Vertex u = 0; u < m.graph.num_vertices(); u += 7) {
    for (Vertex v = 0; v < m.graph.num_vertices(); v += 5) {
      EXPECT_TRUE(path_is_valid(m.graph, router->route(u, v, rng), u, v));
    }
  }
}

TEST(ShuffleExchangeRouter, AllPairsValidAndShort) {
  Prng rng(36);
  const Machine m = make_shuffle_exchange(5);
  const auto router = make_default_router(m);
  for (Vertex u = 0; u < 32; ++u) {
    for (Vertex v = 0; v < 32; ++v) {
      const auto path = router->route(u, v, rng);
      ASSERT_TRUE(path_is_valid(m.graph, path, u, v)) << u << "->" << v;
      EXPECT_LE(path.size() - 1, 2u * 5u);
    }
  }
}

TEST(ValiantRouter, PathsValidThroughIntermediate) {
  Prng rng(37);
  const Machine m = make_mesh({6, 6});
  const auto valiant = make_valiant_router(m);
  for (int i = 0; i < 100; ++i) {
    const Vertex u = static_cast<Vertex>(rng.below(36));
    const Vertex v = static_cast<Vertex>(rng.below(36));
    EXPECT_TRUE(path_is_valid(m.graph, valiant->route(u, v, rng), u, v));
  }
}

TEST(ValiantRouter, SpreadsTransposeCongestion) {
  Prng rng(38);
  const Machine m = make_mesh({16, 16});
  std::vector<Vertex> procs(256);
  std::iota(procs.begin(), procs.end(), 0u);
  const auto transpose = TrafficDistribution::transpose(procs);
  const auto batch = transpose.batch(4096, rng);
  PacketSimulator sim(m);
  // Compare against a DETERMINISTIC base: randomized dimension-order
  // already spreads the transpose, so the classical Valiant win shows
  // against fixed shortest paths.
  BfsRouter direct(m, /*spread=*/false);
  ValiantRouter valiant(m, std::make_unique<BfsRouter>(m, false));
  auto congestion_of = [&](Router& r) {
    std::vector<std::vector<Vertex>> paths;
    for (const Message& msg : batch) {
      paths.push_back(r.route(msg.src, msg.dst, rng));
    }
    return sim.run_batch(paths, rng).static_congestion;
  };
  EXPECT_LT(congestion_of(valiant), congestion_of(direct));
}

TEST(BusRouter, ThroughHub) {
  Prng rng(10);
  const Machine m = make_global_bus(6);
  BusRouter router(m);
  const auto path = router.route(1, 4, rng);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 6u);  // hub
}

// --------------------------------------------------------------------------
// Router path golden.  Every router the factories hand out, on one small
// machine per family, routes 512 seeded (src, dst) pairs; the digest folds
// each path's vertices and the rng state after the call.  The digests were
// recorded on the two-method router interface (route() and route_append()
// both virtual) before route_append became the only routing primitive, so
// they pin "same vertices, same rng draws" across that refactor.  Each pair
// is also routed into a reused, dirty buffer, which may change neither.

struct PathGoldenRow {
  Family family;
  unsigned k;
  const char* router;  // "default", "bfs", "bfs-deterministic", "valiant"
  std::uint64_t digest;
};

const PathGoldenRow kPathGolden[] = {
    {Family::kLinearArray, 1, "default", 0x682d03791a5f3e18ULL},
    {Family::kLinearArray, 1, "bfs", 0xeafc5ebe39c24d1bULL},
    {Family::kLinearArray, 1, "bfs-deterministic", 0x682d03791a5f3e18ULL},
    {Family::kLinearArray, 1, "valiant", 0xe0b5d074b66f0495ULL},
    {Family::kRing, 1, "default", 0x4f32d89aa3c76977ULL},
    {Family::kRing, 1, "bfs", 0x070e6a38a18a77bbULL},
    {Family::kRing, 1, "bfs-deterministic", 0x288816f675bfd457ULL},
    {Family::kRing, 1, "valiant", 0x98f78a9f41a3919fULL},
    {Family::kGlobalBus, 1, "default", 0x004f3ed5a8fc1d19ULL},
    {Family::kGlobalBus, 1, "bfs", 0x1835356d8ae8869bULL},
    {Family::kGlobalBus, 1, "bfs-deterministic", 0x004f3ed5a8fc1d19ULL},
    {Family::kGlobalBus, 1, "valiant", 0x706c29243f3ce59cULL},
    {Family::kTree, 1, "default", 0xb9c585ac985f1f38ULL},
    {Family::kTree, 1, "bfs", 0x2077296083a1109bULL},
    {Family::kTree, 1, "bfs-deterministic", 0xb9c585ac985f1f38ULL},
    {Family::kTree, 1, "valiant", 0x2e613da73fec67ceULL},
    {Family::kFatTree, 1, "default", 0xb9c585ac985f1f38ULL},
    {Family::kFatTree, 1, "bfs", 0x2077296083a1109bULL},
    {Family::kFatTree, 1, "bfs-deterministic", 0xb9c585ac985f1f38ULL},
    {Family::kFatTree, 1, "valiant", 0x2e613da73fec67ceULL},
    {Family::kWeakPPN, 1, "default", 0xb9c585ac985f1f38ULL},
    {Family::kWeakPPN, 1, "bfs", 0x2077296083a1109bULL},
    {Family::kWeakPPN, 1, "bfs-deterministic", 0xb9c585ac985f1f38ULL},
    {Family::kWeakPPN, 1, "valiant", 0x2e613da73fec67ceULL},
    {Family::kXTree, 1, "default", 0xdde483f4893a793bULL},
    {Family::kXTree, 1, "bfs", 0xd24380947ba4e77aULL},
    {Family::kXTree, 1, "bfs-deterministic", 0x0ec958c114e593e6ULL},
    {Family::kXTree, 1, "valiant", 0x985ce60ca6afc51bULL},
    {Family::kMesh, 2, "default", 0x390f2b9340c07734ULL},
    {Family::kMesh, 2, "bfs", 0xbf3d3708d4f9ed98ULL},
    {Family::kMesh, 2, "bfs-deterministic", 0xd8e12357e7e74a8dULL},
    {Family::kMesh, 2, "valiant", 0x66da51efb06d592fULL},
    {Family::kMesh, 3, "default", 0x43023e038dbdd79cULL},
    {Family::kMesh, 3, "bfs", 0x7ba8819aac4ba1daULL},
    {Family::kMesh, 3, "bfs-deterministic", 0x06cf5bcef00dfaadULL},
    {Family::kMesh, 3, "valiant", 0x72017a772391a241ULL},
    {Family::kTorus, 2, "default", 0x2d9630d280f6e47fULL},
    {Family::kTorus, 2, "bfs", 0xcd50c9ee4071d33dULL},
    {Family::kTorus, 2, "bfs-deterministic", 0x4b458e5bc6ddd534ULL},
    {Family::kTorus, 2, "valiant", 0x52f5624d0ad77027ULL},
    {Family::kTorus, 3, "default", 0x479291549bfd1a0cULL},
    {Family::kTorus, 3, "bfs", 0xc41dbd2b27fee493ULL},
    {Family::kTorus, 3, "bfs-deterministic", 0x605cf4a0d8782644ULL},
    {Family::kTorus, 3, "valiant", 0x84be98ad85dc3060ULL},
    {Family::kXGrid, 2, "default", 0xcb8a93038dfce43cULL},
    {Family::kXGrid, 2, "bfs", 0x11c2a15063d1fd3eULL},
    {Family::kXGrid, 2, "bfs-deterministic", 0x07bfa401ad3e4bb6ULL},
    {Family::kXGrid, 2, "valiant", 0x1a6ed7e8339d77bdULL},
    {Family::kXGrid, 3, "default", 0xb921bf8cb824eba8ULL},
    {Family::kXGrid, 3, "bfs", 0xf8f398bc313761eeULL},
    {Family::kXGrid, 3, "bfs-deterministic", 0x650cf533d9ba29edULL},
    {Family::kXGrid, 3, "valiant", 0x32d1d0e728735537ULL},
    {Family::kMeshOfTrees, 2, "default", 0xfe3130ae5f955374ULL},
    {Family::kMeshOfTrees, 2, "bfs", 0xfe3130ae5f955374ULL},
    {Family::kMeshOfTrees, 2, "bfs-deterministic", 0x3532dd34aef55d13ULL},
    {Family::kMeshOfTrees, 2, "valiant", 0x1230a2ddc8a36dc2ULL},
    {Family::kMultigrid, 2, "default", 0xbae1a7cb97f20299ULL},
    {Family::kMultigrid, 2, "bfs", 0xebc0582080dfa2c9ULL},
    {Family::kMultigrid, 2, "bfs-deterministic", 0x48be9c71807a2affULL},
    {Family::kMultigrid, 2, "valiant", 0xc9b3bd6648d6b050ULL},
    {Family::kPyramid, 2, "default", 0xbae1a7cb97f20299ULL},
    {Family::kPyramid, 2, "bfs", 0x1ac67c0f84ff2ceaULL},
    {Family::kPyramid, 2, "bfs-deterministic", 0x0d50000fe7b87cb0ULL},
    {Family::kPyramid, 2, "valiant", 0xc9b3bd6648d6b050ULL},
    {Family::kButterfly, 1, "default", 0xb3e3ab9111c88c82ULL},
    {Family::kButterfly, 1, "bfs", 0x90b71c0fd8903952ULL},
    {Family::kButterfly, 1, "bfs-deterministic", 0x40d08ace2296fb95ULL},
    {Family::kButterfly, 1, "valiant", 0x270bb7db4c2dd17aULL},
    {Family::kWrappedButterfly, 1, "default", 0xd93a1422ef867965ULL},
    {Family::kWrappedButterfly, 1, "bfs", 0xd93a1422ef867965ULL},
    {Family::kWrappedButterfly, 1, "bfs-deterministic", 0x80a6ee22a5c0db7eULL},
    {Family::kWrappedButterfly, 1, "valiant", 0x1e7aaf40d466eeddULL},
    {Family::kDeBruijn, 1, "default", 0xdd29c7633a2c68a2ULL},
    {Family::kDeBruijn, 1, "bfs", 0xbf32c96df1d1d600ULL},
    {Family::kDeBruijn, 1, "bfs-deterministic", 0xed702b05778b3ee9ULL},
    {Family::kDeBruijn, 1, "valiant", 0x08d4cf7c0fc199c7ULL},
    {Family::kShuffleExchange, 1, "default", 0xd3b570cb2deaeeaeULL},
    {Family::kShuffleExchange, 1, "bfs", 0x8445248074a4ba18ULL},
    {Family::kShuffleExchange, 1, "bfs-deterministic", 0xddcad4b28c48bb78ULL},
    {Family::kShuffleExchange, 1, "valiant", 0xd0c64481d1e369b6ULL},
    {Family::kCCC, 1, "default", 0x2bc82fa3771799edULL},
    {Family::kCCC, 1, "bfs", 0x2bc82fa3771799edULL},
    {Family::kCCC, 1, "bfs-deterministic", 0xae6a2afc7636a72eULL},
    {Family::kCCC, 1, "valiant", 0xddb8f3865d8a2f2eULL},
    {Family::kHypercube, 1, "default", 0x94b3feb89b8d273fULL},
    {Family::kHypercube, 1, "bfs", 0xbcb2e8f81c9d6e11ULL},
    {Family::kHypercube, 1, "bfs-deterministic", 0x4b3e9225063c1042ULL},
    {Family::kHypercube, 1, "valiant", 0x014d4d6c7e28347cULL},
    {Family::kMultibutterfly, 1, "default", 0xb3e3ab9111c88c82ULL},
    {Family::kMultibutterfly, 1, "bfs", 0x130b551f6c1cf42dULL},
    {Family::kMultibutterfly, 1, "bfs-deterministic", 0x083aa909cf656d9fULL},
    {Family::kMultibutterfly, 1, "valiant", 0x270bb7db4c2dd17aULL},
    {Family::kExpander, 1, "default", 0x37e37c3092ac41faULL},
    {Family::kExpander, 1, "bfs", 0x37e37c3092ac41faULL},
    {Family::kExpander, 1, "bfs-deterministic", 0x74e4678cafd026cbULL},
    {Family::kExpander, 1, "valiant", 0x71414a67523ce1c9ULL},
};

std::unique_ptr<Router> golden_router(const Machine& m,
                                      const std::string& kind) {
  if (kind == "default") return make_default_router(m);
  if (kind == "bfs") return make_bfs_router(m);
  if (kind == "bfs-deterministic") {
    return std::make_unique<BfsRouter>(m, /*spread=*/false);
  }
  return make_valiant_router(m);
}

std::uint64_t fold(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 0x100000001b3ULL;  // FNV-1a step over 64-bit words
}

std::uint64_t path_digest(const Machine& m, Router& router) {
  Prng pairs(0xC0FFEE);
  Prng rng(0x5EED), dirty_rng(0x5EED);
  std::vector<Vertex> dirty{7, 7, 7};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::size_t n = m.graph.num_vertices();
  for (int i = 0; i < 512; ++i) {
    const auto src = static_cast<Vertex>(pairs.below(n));
    const auto dst = static_cast<Vertex>(pairs.below(n));
    const std::vector<Vertex> path = router.route(src, dst, rng);
    dirty.push_back(static_cast<Vertex>(i));  // stale tail from earlier calls
    router.route_append(src, dst, dirty_rng, dirty);
    EXPECT_TRUE(path_is_valid(m.graph, path, src, dst)) << src << "->" << dst;
    EXPECT_EQ(dirty, path) << src << "->" << dst;
    EXPECT_TRUE(dirty_rng == rng) << src << "->" << dst;
    h = fold(h, path.size());
    for (const Vertex v : path) h = fold(h, v);
    Prng probe = rng;
    h = fold(h, probe());
  }
  return h;
}

TEST(RouterPathGolden, EveryRouterKeepsItsPathsAndDraws) {
  std::set<Family> covered;
  for (const PathGoldenRow& row : kPathGolden) {
    SCOPED_TRACE(std::string(family_name(row.family)) + " k" +
                 std::to_string(row.k) + " " + row.router);
    Prng build(2024);
    const Machine m = make_machine(row.family, 64, row.k, build);
    const auto router = golden_router(m, row.router);
    EXPECT_EQ(path_digest(m, *router), row.digest);
    covered.insert(row.family);
  }
  EXPECT_EQ(covered.size(), all_families().size());
}

// --------------------------------------------------------------------------
// Packet simulator semantics.

TEST(PacketSim, SingleMessageTakesPathLengthTicks) {
  Prng rng(11);
  const Machine m = make_linear_array(10);
  PacketSimulator sim(m);
  const BatchStats s = sim.run_batch({{0, 1, 2, 3, 4}}, rng);
  EXPECT_EQ(s.makespan, 4u);
  EXPECT_EQ(s.delivered, 1u);
  EXPECT_EQ(s.total_hops, 4u);
}

TEST(PacketSim, ZeroHopDeliversInstantly) {
  Prng rng(12);
  const Machine m = make_linear_array(4);
  PacketSimulator sim(m);
  const BatchStats s = sim.run_batch({{2}}, rng);
  EXPECT_EQ(s.makespan, 0u);
  EXPECT_EQ(s.delivered, 1u);
}

TEST(PacketSim, ContentionSerializesSharedChannel) {
  Prng rng(13);
  const Machine m = make_linear_array(3);
  PacketSimulator sim(m);
  // Three messages all needing channel 0->1 then 1->2.
  const std::vector<std::vector<Vertex>> paths(3, {0, 1, 2});
  const BatchStats s = sim.run_batch(paths, rng);
  // Pipeline: last message starts hop 1 at tick 3, arrives tick 4.
  EXPECT_EQ(s.makespan, 4u);
  EXPECT_EQ(s.static_congestion, 3u);
}

TEST(PacketSim, EdgeMultiplicityIsParallelWires) {
  Prng rng(14);
  MultigraphBuilder b(2);
  b.add_edge(0, 1, 3);
  Machine m;
  m.graph = std::move(b).build();
  m.name = "triple-wire";
  PacketSimulator sim(m);
  const std::vector<std::vector<Vertex>> paths(3, {0, 1});
  EXPECT_EQ(sim.run_batch(paths, rng).makespan, 1u);
  const std::vector<std::vector<Vertex>> paths6(6, {0, 1});
  EXPECT_EQ(sim.run_batch(paths6, rng).makespan, 2u);
}

TEST(PacketSim, NodeCapacityThrottles) {
  Prng rng(15);
  // Star with center 0 and leaves 1..4; center cap 1 -> serialize.
  MultigraphBuilder b(5);
  for (Vertex v = 1; v < 5; ++v) b.add_edge(0, v);
  Machine m;
  m.graph = std::move(b).build();
  m.forward_cap = {1, kUnlimitedForward, kUnlimitedForward,
                   kUnlimitedForward, kUnlimitedForward};
  PacketSimulator sim(m);
  // Four messages 1->0->2 etc: each needs the center twice... route
  // leaf->center->other-leaf; the center forwards one per tick.
  const std::vector<std::vector<Vertex>> paths{
      {1, 0, 2}, {2, 0, 3}, {3, 0, 4}, {4, 0, 1}};
  const BatchStats s = sim.run_batch(paths, rng);
  // First hops (into the center) are on distinct channels from distinct
  // nodes: tick 1.  Second hops all leave the center, cap 1: ticks 2..5.
  EXPECT_EQ(s.makespan, 5u);
}

TEST(PacketSim, FarthestFirstBeatsOrReachesFifoOnMixedBatch) {
  Prng rng(16);
  const Machine m = make_linear_array(16);
  // One long message plus many short ones crossing its path.
  std::vector<std::vector<Vertex>> paths;
  {
    std::vector<Vertex> longpath(16);
    std::iota(longpath.begin(), longpath.end(), 0u);
    paths.push_back(longpath);
    for (Vertex v = 0; v + 1 < 16; ++v) {
      paths.push_back({v, v + 1});
    }
  }
  PacketSimulator far(m, Arbitration::kFarthestFirst);
  PacketSimulator fifo(m, Arbitration::kFifo);
  Prng r1(17), r2(17);
  const auto s_far = far.run_batch(paths, r1);
  const auto s_fifo = fifo.run_batch(paths, r2);
  EXPECT_LE(s_far.makespan, s_fifo.makespan + 1);
}

TEST(PacketSim, RejectsPathWithMissingEdge) {
  Prng rng(18);
  const Machine m = make_linear_array(4);
  PacketSimulator sim(m);
  std::vector<std::vector<Vertex>> bad{{0, 2}};
  EXPECT_THROW(sim.run_batch(bad, rng), std::runtime_error);
}

TEST(PacketSim, MakespanAtLeastCongestionAndDilation) {
  // The flux lower bound of Lemma 8: T >= static congestion; also T >=
  // longest path.
  Prng rng(19);
  const Machine m = make_mesh({4, 4});
  PacketSimulator sim(m);
  const auto router = make_default_router(m);
  std::vector<std::vector<Vertex>> paths;
  for (int i = 0; i < 100; ++i) {
    const Vertex u = static_cast<Vertex>(rng.below(16));
    Vertex v = static_cast<Vertex>(rng.below(16));
    if (u == v) v = (v + 1) % 16;
    paths.push_back(router->route(u, v, rng));
  }
  const BatchStats s = sim.run_batch(paths, rng);
  std::size_t dilation = 0;
  for (const auto& p : paths) dilation = std::max(dilation, p.size() - 1);
  EXPECT_GE(s.makespan, s.static_congestion);
  EXPECT_GE(s.makespan, dilation);
  // Farthest-first greedy stays within a modest factor of the C+D bound.
  EXPECT_LE(s.makespan, 3 * (s.static_congestion + dilation));
}

// Seeded random connected multigraph: a random spanning tree plus n/2 extra
// edges, each of 1..max_mult parallel wires.
Machine random_multigraph_machine(Prng& rng, std::uint32_t max_mult) {
  const std::size_t n = 4 + rng.below(13);
  MultigraphBuilder builder(n);
  const auto mult = [&] {
    return static_cast<std::uint32_t>(1 + rng.below(max_mult));
  };
  for (std::size_t v = 1; v < n; ++v) {
    builder.add_edge(static_cast<Vertex>(v),
                     static_cast<Vertex>(rng.below(v)), mult());
  }
  for (std::size_t e = 0; e < n / 2; ++e) {
    const auto u = static_cast<Vertex>(rng.below(n));
    const auto v = static_cast<Vertex>(rng.below(n));
    if (u != v) builder.add_edge(u, v, mult());
  }
  Machine m;
  m.graph = std::move(builder).build();
  m.name = "random";
  return m;
}

TEST(PacketSim, MakespanFloorNeverExceedsTheMakespan) {
  // makespan_floor is what lets measure_throughput declare a calibration
  // step final before simulating it, so it must be a true lower bound under
  // every arbitration, with multi-wire edges and with node caps.
  int unit_machines = 0, multi_wire_machines = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const std::uint32_t max_mult : {1u, 3u}) {
      for (const bool capped : {false, true}) {
        Prng rng(seed * 7919 + max_mult);
        Machine m = random_multigraph_machine(rng, max_mult);
        const std::size_t n = m.graph.num_vertices();
        if (capped) {
          m.forward_cap.resize(n);
          for (auto& cap : m.forward_cap) {
            cap = static_cast<std::uint32_t>(1 + rng.below(2));
          }
        }
        // The builder sums repeated pairs, so max_mult 1 can still yield a
        // multi-wire edge.
        bool all_unit = true;
        for (Vertex v = 0; v < n; ++v) {
          for (const Arc& arc : m.graph.neighbors(v)) {
            all_unit = all_unit && arc.mult == 1;
          }
        }
        ++(all_unit ? unit_machines : multi_wire_machines);
        const auto router = make_bfs_router(m);
        std::vector<std::vector<Vertex>> paths(2 * n + rng.below(6 * n));
        for (auto& p : paths) {
          p = router->route(static_cast<Vertex>(rng.below(n)),
                            static_cast<Vertex>(rng.below(n)), rng);
        }
        for (const Arbitration a : {Arbitration::kFarthestFirst,
                                    Arbitration::kFifo, Arbitration::kRandom}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " mult<=" +
                       std::to_string(max_mult) +
                       (capped ? " capped " : " uncapped ") +
                       arbitration_name(a));
          const PacketSimulator sim(m, a);
          const auto batch = sim.prepare(paths);
          Prng sim_rng(seed);
          const BatchStats s = sim.run_batch(batch, sim_rng);
          EXPECT_LE(sim.makespan_floor(batch), s.makespan);
          if (all_unit) {
            EXPECT_EQ(sim.makespan_floor(batch), s.static_congestion);
          }
        }
      }
    }
  }
  EXPECT_GT(unit_machines, 0);
  EXPECT_GT(multi_wire_machines, 0);
}

// --------------------------------------------------------------------------
// Throughput meter.

TEST(Throughput, BusRateIsOne) {
  Prng rng(20);
  const Machine m = make_global_bus(16);
  const auto traffic = TrafficDistribution::symmetric(m.processors);
  const auto router = make_default_router(m);
  const ThroughputResult r = measure_throughput(m, *router, traffic, rng);
  // Every message crosses the hub, hub forwards 1/tick: rate -> 1.
  EXPECT_NEAR(r.rate, 1.0, 0.15);
}

TEST(Throughput, LinearArrayRateIsConstant) {
  Prng rng(21);
  ThroughputOptions opt;
  opt.trials = 2;
  for (std::size_t n : {32, 128}) {
    const Machine m = make_linear_array(n);
    const auto traffic =
        TrafficDistribution::symmetric(iota_procs(n));
    const auto router = make_default_router(m);
    const double rate =
        measure_throughput(m, *router, traffic, rng, opt).rate;
    // Θ(1): between 1 and 8 regardless of n.
    EXPECT_GT(rate, 1.0) << n;
    EXPECT_LT(rate, 8.0) << n;
  }
}

TEST(Throughput, MeshBeatsLinearArray) {
  Prng rng(22);
  ThroughputOptions opt;
  opt.trials = 2;
  const Machine line = make_linear_array(256);
  const Machine mesh = make_mesh({16, 16});
  const auto t1 = TrafficDistribution::symmetric(iota_procs(256));
  const auto r1 = make_default_router(line);
  const auto r2 = make_default_router(mesh);
  const double rate_line = measure_throughput(line, *r1, t1, rng, opt).rate;
  const double rate_mesh = measure_throughput(mesh, *r2, t1, rng, opt).rate;
  EXPECT_GT(rate_mesh, 3.0 * rate_line);
}

}  // namespace
}  // namespace netemu
