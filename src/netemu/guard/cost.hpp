#pragma once
// Query cost model: the unit the guard's admission control counts in.
//
// The paper's thesis is that the binding resource is communication work,
// not request count — and the service's expensive queries are exactly the
// ones that simulate communication.  Counting queries treats a
// closed-form beta lookup and a 64-trial million-node packet simulation as
// equal; counting estimated sim-ticks makes one greedy client's huge
// estimate cost what it actually costs.
//
// One cost unit is calibrated to "about one closed-form lookup" of work.
// An estimate's dominant term is (nodes simulated) x (trials), so its cost
// is n * trials scaled down to units; everything closed-form is 1.

#include <cstdint>

#include "netemu/service/query.hpp"

namespace netemu::guard {

/// Cost units one simulated node-trial is worth: an estimate of
/// n * trials node-trials costs max(1, n * trials / kUnitNodeTrials).
inline constexpr double kUnitNodeTrials = 1024.0;

/// Estimated admission cost of a query, in units.  Closed-form kinds
/// (bandwidth, max_host, bounds) cost 1; estimate scales with the simulated
/// work.  Deterministic: the same query always costs the same, so admission
/// decisions are reproducible under a seeded load.
std::uint64_t query_cost(const Query& q);

}  // namespace netemu::guard
