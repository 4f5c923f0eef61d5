#pragma once
// A naive packet simulator, written straight from the model comment in
// netemu/routing/packet_sim.hpp, for differential tests of PacketSimulator.
//
// Every tick, each undelivered message requests the next wire of its path;
// each directed edge passes its multiplicity of lowest-key requesters; then
// each node forwards at most forward_cap of those winners, lowest keys
// first; the survivors advance.  A batch's makespan is the tick of its last
// delivery.  Arbitration orders, smallest key first:
//   farthest-first: more hops remaining, then smaller message index;
//   fifo:           smaller message index;
//   random:         smaller drawn key, then smaller message index, where the
//                   keys are one rng() draw per message, in index order
//                   (zero-hop messages included), before the first tick.
//
// Nothing here is shared with the simulator: no prepared batches, channel
// ids, packed keys, heaps or buckets.  Paths stay vertex lists and every
// tick sorts every waiting message, so it is slow and easy to check by eye.

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "netemu/routing/packet_sim.hpp"
#include "netemu/topology/machine.hpp"
#include "netemu/util/prng.hpp"

namespace netemu::reference {

inline BatchStats run_batch(const Machine& machine, Arbitration arbitration,
                            const std::vector<std::vector<Vertex>>& paths,
                            Prng& rng) {
  const std::size_t m = paths.size();
  BatchStats stats;
  stats.delivered = m;

  std::vector<std::size_t> hops(m, 0);
  std::map<std::pair<Vertex, Vertex>, std::uint64_t> load;
  for (std::size_t i = 0; i < m; ++i) {
    if (paths[i].size() > 1) hops[i] = paths[i].size() - 1;
    stats.total_hops += hops[i];
    for (std::size_t h = 0; h < hops[i]; ++h) {
      const std::uint64_t l = ++load[{paths[i][h], paths[i][h + 1]}];
      stats.static_congestion = std::max(stats.static_congestion, l);
    }
  }

  std::vector<std::uint32_t> key(m, 0);
  if (arbitration == Arbitration::kRandom) {
    for (auto& k : key) k = static_cast<std::uint32_t>(rng());
  }

  std::vector<std::size_t> at(m, 0);  // hops already taken
  const auto remaining = [&](std::size_t i) { return hops[i] - at[i]; };
  const auto first = [&](std::size_t a, std::size_t b) {
    switch (arbitration) {
      case Arbitration::kFarthestFirst:
        if (remaining(a) != remaining(b)) return remaining(a) > remaining(b);
        return a < b;
      case Arbitration::kFifo:
        return a < b;
      case Arbitration::kRandom:
        if (key[a] != key[b]) return key[a] < key[b];
        return a < b;
    }
    return a < b;
  };

  double latency_sum = 0.0;
  for (std::uint64_t tick = 1;; ++tick) {
    std::vector<std::size_t> waiting;
    for (std::size_t i = 0; i < m; ++i) {
      if (remaining(i) > 0) waiting.push_back(i);
    }
    if (waiting.empty()) break;
    std::sort(waiting.begin(), waiting.end(), first);

    // Wires: each directed edge passes up to its multiplicity.
    std::map<std::pair<Vertex, Vertex>, std::uint32_t> used;
    std::vector<std::size_t> edge_winners;
    for (const std::size_t i : waiting) {
      const Vertex u = paths[i][at[i]];
      const Vertex v = paths[i][at[i] + 1];
      if (used[{u, v}] < machine.graph.multiplicity(u, v)) {
        ++used[{u, v}];
        edge_winners.push_back(i);
      }
    }
    // Node caps: each node forwards up to forward_cap of its edge winners.
    std::map<Vertex, std::uint32_t> sent;
    std::vector<std::size_t> movers;
    for (const std::size_t i : edge_winners) {
      const Vertex u = paths[i][at[i]];
      if (!machine.forward_cap.empty() &&
          machine.forward_cap[u] != kUnlimitedForward &&
          sent[u] >= machine.forward_cap[u]) {
        continue;
      }
      ++sent[u];
      movers.push_back(i);
    }
    for (const std::size_t i : movers) {
      if (++at[i] == hops[i]) {
        latency_sum += static_cast<double>(tick);
        stats.makespan = tick;
      }
    }
  }
  stats.avg_latency = m == 0 ? 0.0 : latency_sum / static_cast<double>(m);
  return stats;
}

}  // namespace netemu::reference
