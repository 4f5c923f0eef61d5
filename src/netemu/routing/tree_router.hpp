#pragma once
// Closed-form routers for the trivially-routable families:
//  * TreeRouter — heap-indexed complete binary trees (Tree, WeakPPN):
//    climb to the LCA, descend.
//  * LineRouter — LinearArray: walk straight.
//  * RingRouter — Ring: the shorter way around.
//  * BusRouter — GlobalBus: processor → hub → processor.

#include "netemu/routing/router.hpp"

namespace netemu {

class TreeRouter final : public Router {
 public:
  explicit TreeRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "tree-lca"; }
};

class LineRouter final : public Router {
 public:
  explicit LineRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "line"; }
};

class RingRouter final : public Router {
 public:
  explicit RingRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "ring"; }

 private:
  std::size_t n_;
};

class BusRouter final : public Router {
 public:
  explicit BusRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "bus"; }

 private:
  Vertex hub_;
};

}  // namespace netemu
