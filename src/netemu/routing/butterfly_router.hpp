#pragma once
// Algebraic routers for the level-structured and shuffle families, plus the
// Valiant two-phase randomizer.
//
//  * ButterflyRouter — butterfly/multibutterfly: row bit i can only change
//    crossing the boundary between levels i and i+1, so the walk descends to
//    the lowest needed boundary, ascends fixing bits, then settles at the
//    destination level.  O(d) hops, no per-destination state.
//  * ShuffleExchangeRouter — the classical bit-serial walk: d rounds of
//    (optional exchange, then shuffle), <= 2d hops.
//  * ValiantRouter — route src -> W -> dst through a uniformly random
//    intermediate W using a base router: turns any permutation into two
//    random-destination phases (the classical fix for adversarial patterns
//    like transpose / bit-reversal on meshes).

#include <memory>

#include "netemu/routing/router.hpp"

namespace netemu {

class ButterflyRouter final : public Router {
 public:
  explicit ButterflyRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "butterfly-level"; }

 private:
  unsigned d_;
};

class ShuffleExchangeRouter final : public Router {
 public:
  explicit ShuffleExchangeRouter(const Machine& machine);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "shuffle-exchange"; }

 private:
  unsigned d_;
};

class ValiantRouter final : public Router {
 public:
  ValiantRouter(const Machine& machine, std::unique_ptr<Router> base);
  void route_append(Vertex src, Vertex dst, Prng& rng,
                    std::vector<Vertex>& out) override;
  const char* name() const override { return "valiant"; }

 private:
  const Machine& machine_;
  std::unique_ptr<Router> base_;
};

}  // namespace netemu
