#pragma once
// Generic random-shortest-path router.
//
// For each destination it lazily computes and memoizes the BFS tree rooted
// there, stored as the hop-distance field (uint16_t per vertex: 32 MB even
// at n = 2^24 / one dst).  A route is then a greedy descent: from the
// current vertex, step to a uniformly random neighbor at distance d-1.
// Uniform choice over the shortest-path DAG is what spreads congestion —
// the deterministic-parent alternative is an ablation knob.
//
// The memo is a bounded FIFO cache: when the byte budget is exceeded the
// oldest fields are evicted (not the whole map), and fields are handed out
// as shared_ptr so an eviction never invalidates a field another thread is
// still descending.  Routing is safe to call concurrently — the cache is
// mutex-guarded, and a cache hit costs one lock + one hash probe.  Cached
// or not, the walk draws the same rng sequence, so results depend only on
// (machine, src, dst, rng state), never on cache history or thread count.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "netemu/routing/router.hpp"

namespace netemu {

class BfsRouter final : public Router {
 public:
  /// spread=true picks a random predecessor in the shortest-path DAG;
  /// false always takes the lowest-numbered one (deterministic).
  explicit BfsRouter(const Machine& machine, bool spread = true,
                     std::size_t cache_budget_bytes = 256u << 20);

  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return spread_ ? "bfs-random" : "bfs"; }

  /// Token polled every kCancelCheckTicks vertex pops inside the
  /// distance-field BFS (the only unbounded prep work).  Set before routing
  /// starts; copying the token is cheap and routing reads it unsynchronized.
  void set_cancel_token(CancelToken cancel) override {
    cancel_ = std::move(cancel);
  }

  /// Cache observability (for tests and the perf harness).
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::uint64_t cache_evictions() const;

 private:
  using Field = std::vector<std::uint16_t>;

  std::shared_ptr<const Field> distance_field(Vertex dst);

  const Machine& machine_;
  bool spread_;
  std::size_t cache_budget_entries_;
  CancelToken cancel_;  // set once before concurrent routing begins

  mutable std::mutex mutex_;  // guards everything below
  std::size_t cached_entries_ = 0;
  std::unordered_map<Vertex, std::shared_ptr<const Field>> fields_;
  std::deque<Vertex> eviction_order_;  // FIFO of cached destinations
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace netemu
