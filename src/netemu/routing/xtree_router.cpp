#include "netemu/routing/xtree_router.hpp"

#include <array>
#include <cassert>

#include "netemu/util/math.hpp"

namespace netemu {

namespace {

unsigned depth_of(Vertex v) { return ilog2(v + 1u); }

/// Ancestor of v at depth d (d <= depth(v)).
Vertex ancestor_at(Vertex v, unsigned d) {
  for (unsigned cur = depth_of(v); cur > d; --cur) {
    v = (v - 1) / 2;
  }
  return v;
}

}  // namespace

XTreeRouter::XTreeRouter(const Machine& machine)
    : height_(machine.shape.at(0)) {
  assert(machine.family == Family::kXTree);
}

void XTreeRouter::route_append(Vertex src, Vertex dst, Prng& rng,
                               std::vector<Vertex>& out) {
  out.clear();
  out.push_back(src);
  if (src == dst) return;
  const unsigned du = depth_of(src), dv = depth_of(dst);
  // Crossing depth: uniform over the rings both endpoints can reach, but no
  // deeper than the LCA's depth + a few levels — locality for nearby pairs
  // while the global traffic still spreads over Θ(lg n) rings.
  const unsigned reach = std::min(du, dv);
  const unsigned l =
      static_cast<unsigned>(rng.below(reach + 1u));

  Vertex cur = src;
  // Climb to depth l.
  while (depth_of(cur) > l) {
    cur = (cur - 1) / 2;
    out.push_back(cur);
  }
  // Walk laterally along ring l to dst's ancestor.
  const Vertex target = ancestor_at(dst, l);
  while (cur != target) {
    cur = cur < target ? cur + 1 : cur - 1;
    out.push_back(cur);
  }
  // Descend along dst's ancestor chain: dst up to (but excluding) depth l,
  // at most one entry per depth, appended reversed.
  std::array<Vertex, 8 * sizeof(Vertex)> chain;
  std::size_t len = 0;
  for (Vertex w = dst; depth_of(w) > l; w = (w - 1) / 2) chain[len++] = w;
  while (len > 0) out.push_back(chain[--len]);
}

}  // namespace netemu
