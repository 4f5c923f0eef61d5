#pragma once
// Router for the hierarchical mesh families (Pyramid, Multigrid).
//
// BFS-shortest paths on these machines funnel almost all symmetric traffic
// through the apex levels (diameter Θ(lg n)), whose aggregate capacity is
// constant — the measured rate then plateaus at Θ(1) even though the
// machines' bisection is Θ(n^{(k-1)/k}).  The bandwidth-achieving schedule
// instead crosses the BASE mesh: descend from the source to its base-level
// corner descendant, dimension-order across the base, ascend to the
// destination.  Dilation grows to Θ(n^{1/k}) but congestion drops to the
// mesh's, which is exactly the trade the Θ-form of Table 4 is about.

#include <array>

#include "netemu/routing/router.hpp"
#include "netemu/topology/detail/grid.hpp"

namespace netemu {

class HierarchyRouter final : public Router {
 public:
  explicit HierarchyRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "hierarchy-base"; }

 private:
  using Coord = std::array<std::uint32_t, detail::kMaxGridAxes>;
  /// Level of v, with its coordinates within that level's mesh in `coord`.
  std::uint32_t locate(Vertex v, Coord& coord) const;
  Vertex vertex_of(std::uint32_t level, const Coord& coord) const;

  unsigned k_;
  std::uint32_t base_side_;
  std::vector<std::uint64_t> level_offset_;  // per level, base = level 0
  std::vector<std::uint32_t> level_side_;
};

}  // namespace netemu
