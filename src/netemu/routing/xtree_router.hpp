#pragma once
// Router for the X-tree.
//
// Shortest paths on the X-tree climb toward the root and reuse the top few
// lateral edges, so the measured rate plateaus at Θ(1) even though the
// machine's bisection is Θ(lg n) (one lateral edge per level plus the
// root).  The bandwidth-achieving schedule spreads crossings over the level
// rings: pick a uniformly random crossing depth ℓ ≤ min(depth(u), depth(v)),
// climb from u to its depth-ℓ ancestor, walk laterally along ring ℓ, and
// descend to v.  Uniform ℓ is flux-matched: expected path length is
// Θ(n / lg n) against Θ(n) wires, giving rate Θ(lg n), and each ring's
// middle edge carries a 1/lg n share of the cross traffic.

#include "netemu/routing/router.hpp"

namespace netemu {

class XTreeRouter final : public Router {
 public:
  explicit XTreeRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "xtree-ring"; }

 private:
  unsigned height_;
};

}  // namespace netemu
