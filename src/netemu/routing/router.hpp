#pragma once
// Router interface: a router turns (src, dst) into a concrete walk through
// the machine.  Specialized routers exist for the algebraically-routable
// families (dimension-order for grids, bit-fixing for hypercubes, shift
// routing for de Bruijn, level routing for butterflies, LCA for trees);
// BfsRouter covers everything else with random shortest paths.

#include <memory>
#include <vector>

#include "netemu/topology/machine.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

class Router {
 public:
  virtual ~Router() = default;

  /// The one routing primitive.  Replace the contents of `out` with the
  /// walk from src to dst, inclusive of both endpoints; consecutive entries
  /// must be adjacent in the machine's graph.  rng may be used for
  /// congestion-spreading tie-breaks.  The walk and the rng draws depend
  /// only on (src, dst, rng state), never on what `out` held before, so a
  /// hot loop (measure_throughput routes tens of thousands of messages per
  /// trial) reuses one buffer and routes with no per-message allocation.
  /// Concurrent calls on one router must be safe: every bundled router
  /// keeps no per-call state in the object (BfsRouter's distance-field
  /// cache is internally synchronized).
  virtual void route_append(Vertex src, Vertex dst, Prng& rng,
                            std::vector<Vertex>& out) = 0;

  /// Convenience wrapper: route_append into a fresh vector.
  std::vector<Vertex> route(Vertex src, Vertex dst, Prng& rng) {
    std::vector<Vertex> path;
    route_append(src, dst, rng, path);
    return path;
  }

  virtual const char* name() const = 0;

  /// Attach a cooperative cancellation token checked by expensive route
  /// *preparation* (BfsRouter's distance-field BFS).  Default: ignored —
  /// algebraic routers do O(path) work per route and are already bounded by
  /// the per-message checks in measure_throughput.  Set before handing the
  /// router to concurrent trials; never affects the routes produced.
  virtual void set_cancel_token(CancelToken /*cancel*/) {}
};

/// Family-dispatched router choice: algebraic router when one exists for
/// machine.family, BfsRouter otherwise.
std::unique_ptr<Router> make_default_router(const Machine& machine);

/// Always the generic BFS router (for ablations).
std::unique_ptr<Router> make_bfs_router(const Machine& machine);

/// Valiant two-phase randomization wrapped around the machine's default
/// router: src -> random intermediate -> dst.
std::unique_ptr<Router> make_valiant_router(const Machine& machine);

/// Validity check used by tests: path edges all exist, endpoints match.
bool path_is_valid(const Multigraph& g, const std::vector<Vertex>& path,
                   Vertex src, Vertex dst);

}  // namespace netemu
