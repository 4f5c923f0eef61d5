#include "netemu/routing/tree_router.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "netemu/util/math.hpp"

namespace netemu {

TreeRouter::TreeRouter(const Machine& machine) {
  assert(machine.family == Family::kTree ||
         machine.family == Family::kFatTree ||
         machine.family == Family::kWeakPPN);
  (void)machine;
}

void TreeRouter::route_append(Vertex src, Vertex dst, Prng& /*rng*/,
                              std::vector<Vertex>& out) {
  // Heap depth of vertex i is ilog2(i + 1).  The up-leg goes straight into
  // `out`; the down-leg (dst up to the LCA) is built in a fixed array, at
  // most one entry per depth, and appended reversed.
  std::array<Vertex, 8 * sizeof(Vertex) + 1> down;
  std::size_t nd = 0;
  out.clear();
  out.push_back(src);
  down[nd++] = dst;
  Vertex a = src, b = dst;
  while (ilog2(a + 1u) > ilog2(b + 1u)) {
    a = (a - 1) / 2;
    out.push_back(a);
  }
  while (ilog2(b + 1u) > ilog2(a + 1u)) {
    b = (b - 1) / 2;
    down[nd++] = b;
  }
  while (a != b) {
    a = (a - 1) / 2;
    out.push_back(a);
    b = (b - 1) / 2;
    down[nd++] = b;
  }
  out.pop_back();  // the LCA ends both legs
  while (nd > 0) out.push_back(down[--nd]);
}

LineRouter::LineRouter(const Machine& machine) {
  assert(machine.family == Family::kLinearArray);
  (void)machine;
}

void LineRouter::route_append(Vertex src, Vertex dst, Prng& /*rng*/,
                              std::vector<Vertex>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(src > dst ? src - dst : dst - src) +
              1);
  const int dir = dst >= src ? 1 : -1;
  for (Vertex v = src;; v = static_cast<Vertex>(static_cast<int>(v) + dir)) {
    out.push_back(v);
    if (v == dst) break;
  }
}

RingRouter::RingRouter(const Machine& machine)
    : n_(machine.graph.num_vertices()) {
  assert(machine.family == Family::kRing);
}

void RingRouter::route_append(Vertex src, Vertex dst, Prng& /*rng*/,
                              std::vector<Vertex>& out) {
  out.clear();
  out.push_back(src);
  if (src == dst) return;
  const std::size_t fwd = (dst + n_ - src) % n_;
  const int dir = 2 * fwd <= n_ ? 1 : -1;
  Vertex cur = src;
  while (cur != dst) {
    cur = static_cast<Vertex>((cur + n_ + static_cast<std::size_t>(dir)) % n_);
    out.push_back(cur);
  }
}

BusRouter::BusRouter(const Machine& machine)
    : hub_(static_cast<Vertex>(machine.graph.num_vertices() - 1)) {
  assert(machine.family == Family::kGlobalBus);
}

void BusRouter::route_append(Vertex src, Vertex dst, Prng& /*rng*/,
                             std::vector<Vertex>& out) {
  out.clear();
  out.push_back(src);
  if (src == dst) return;
  if (src != hub_ && dst != hub_) out.push_back(hub_);
  out.push_back(dst);
}

}  // namespace netemu
