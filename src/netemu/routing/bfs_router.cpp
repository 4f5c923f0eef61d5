#include "netemu/routing/bfs_router.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace netemu {

namespace {
constexpr std::uint16_t kFar = std::numeric_limits<std::uint16_t>::max();
}

BfsRouter::BfsRouter(const Machine& machine, bool spread,
                     std::size_t cache_budget_bytes)
    : machine_(machine),
      spread_(spread),
      cache_budget_entries_(cache_budget_bytes / sizeof(std::uint16_t)) {}

std::uint64_t BfsRouter::cache_hits() const {
  std::lock_guard lock(mutex_);
  return hits_;
}

std::uint64_t BfsRouter::cache_misses() const {
  std::lock_guard lock(mutex_);
  return misses_;
}

std::uint64_t BfsRouter::cache_evictions() const {
  std::lock_guard lock(mutex_);
  return evictions_;
}

std::shared_ptr<const BfsRouter::Field> BfsRouter::distance_field(Vertex dst) {
  {
    std::lock_guard lock(mutex_);
    const auto it = fields_.find(dst);
    if (it != fields_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }

  // Compute outside the lock: a BFS over a large machine takes milliseconds,
  // and concurrent misses on the same destination just redo identical work.
  const Multigraph& g = machine_.graph;
  const std::size_t n = g.num_vertices();
  auto field = std::make_shared<Field>(n, kFar);
  Field& dist = *field;
  std::vector<Vertex> queue;
  queue.reserve(n);
  dist[dst] = 0;
  queue.push_back(dst);
  std::size_t head = 0;
  while (head < queue.size()) {
    // Field construction over a 2^24-vertex machine takes long enough to
    // matter for drain; poll the token at the standard amortized cadence.
    if ((head & (kCancelCheckTicks - 1)) == 0) cancel_.check();
    const Vertex u = queue[head++];
    const std::uint16_t du = dist[u];
    for (const Arc& a : g.neighbors(u)) {
      if (dist[a.to] == kFar) {
        dist[a.to] = static_cast<std::uint16_t>(du + 1);
        queue.push_back(a.to);
      }
    }
  }

  std::lock_guard lock(mutex_);
  const auto [it, inserted] = fields_.emplace(dst, field);
  if (!inserted) return it->second;  // another thread won the race
  eviction_order_.push_back(dst);
  cached_entries_ += n;
  // Evict oldest-first until back under budget; in-flight routes keep their
  // field alive through the shared_ptr they already hold.  Always keep the
  // entry just inserted.
  while (cached_entries_ > cache_budget_entries_ &&
         eviction_order_.size() > 1) {
    const Vertex victim = eviction_order_.front();
    eviction_order_.pop_front();
    const auto vit = fields_.find(victim);
    if (vit != fields_.end()) {
      cached_entries_ -= vit->second->size();
      fields_.erase(vit);
      ++evictions_;
    }
  }
  return field;
}

void BfsRouter::route_append(Vertex src, Vertex dst, Prng& rng,
                             std::vector<Vertex>& path) {
  path.clear();
  if (src == dst) {
    path.push_back(src);
    return;
  }
  const std::shared_ptr<const Field> field = distance_field(dst);
  const Field& dist = *field;
  if (dist[src] == kFar) {
    throw std::runtime_error("BfsRouter: destination unreachable");
  }
  path.reserve(dist[src] + 1u);
  path.push_back(src);
  Vertex cur = src;
  while (cur != dst) {
    const std::uint16_t want = static_cast<std::uint16_t>(dist[cur] - 1);
    Vertex next = kNoVertex;
    if (spread_) {
      // Reservoir-sample uniformly among descent neighbors.
      std::uint32_t seen = 0;
      for (const Arc& a : machine_.graph.neighbors(cur)) {
        if (dist[a.to] == want && rng.below(++seen) == 0) next = a.to;
      }
    } else {
      for (const Arc& a : machine_.graph.neighbors(cur)) {
        if (dist[a.to] == want && (next == kNoVertex || a.to < next)) {
          next = a.to;
        }
      }
    }
    assert(next != kNoVertex);
    path.push_back(next);
    cur = next;
  }
}

}  // namespace netemu
