#pragma once
// Algebraic routers for the coordinate families:
//  * DimensionOrderRouter — Mesh / Torus / XGrid.  Axes are corrected in a
//    random order per message (randomized dimension-order spreads congestion
//    while staying minimal); on the torus each axis takes the shorter way
//    around; on the X-grid two axes are corrected at once through a
//    diagonal whenever possible.
//  * BitFixRouter — Hypercube: differing bits fixed in random order.
//  * DeBruijnShiftRouter — de Bruijn: the classical d-step shift walk that
//    feeds the destination's bits in from the right.

#include "netemu/routing/router.hpp"

namespace netemu {

class DimensionOrderRouter final : public Router {
 public:
  explicit DimensionOrderRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "dimension-order"; }

 private:
  std::vector<std::uint32_t> sides_;
  std::vector<std::int64_t> stride_;  // index distance of one +1 axis step
  bool wrap_;      // torus: each axis takes the shorter way around
  bool diagonal_;  // X-grid: two axes per hop while two differ
};

class BitFixRouter final : public Router {
 public:
  explicit BitFixRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "bit-fix"; }

 private:
  unsigned d_;
};

class DeBruijnShiftRouter final : public Router {
 public:
  explicit DeBruijnShiftRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "debruijn-shift"; }

 private:
  unsigned d_;
};

}  // namespace netemu
