#pragma once
// Operational bandwidth measurement: β(M, π) is the expected delivery rate
// of a large batch of π-distributed messages (the m → ∞ limit of m / T(m)).
//
// The meter grows the batch until the makespan dwarfs both the machine's
// diameter and a floor, so the startup/drain transient cannot bias the rate,
// then reports the median rate over independent trials.
//
// Determinism contract: measure_throughput draws exactly ONE value from the
// caller's rng; everything else derives from Prng::stream(base, i) —
// substream 0 feeds the diameter sweep, substream 1+t feeds trial t (batch
// sampling, routing, and arbitration randomness alike).  Trial 0 calibrates
// the batch size m by doubling, reusing already-routed paths and routing
// only the top-up; trial t >= 1 depends only on (base, t, m).
//
// Overlap rule: nothing is ever simulated ahead of the serial order.  A
// sizing step that is not provably last simulates while, with a pool, the
// next step's top-up is routed beside it; the top-up is kept only if the
// step's makespan falls short of the target, and a dropped top-up costs
// routing only.  The simulation runs on a copy of trial 0's rng and the
// routing continues from that rng advanced past the draws run_batch makes
// (PacketSimulator's rng contract), so every step sees the rng state the
// serial order gives it.  The last step is provably last before it is
// simulated when m hit max_messages or the routed batch's congestion floor
// (PacketSimulator::makespan_floor) already reaches the target makespan;
// then trial 0's final run_batch runs beside trials 1..T-1, all at that m,
// concurrently on options.pool when set.  Otherwise it ends the ladder
// alone.  No trial ever runs at a provisional m, and results are collected
// by trial index, so the outcome — rates, stats, total_ticks and the
// simulated-volume counters — is bit-identical at any thread count to the
// serial order "trial 0, trial 1, ..., trial T-1".
//
// Routers used with a concurrent pool must tolerate concurrent
// route_append() calls (see router.hpp); every bundled router does.

#include <cstddef>
#include <vector>

#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/router.hpp"
#include "netemu/traffic/distribution.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {

struct ThroughputOptions {
  std::size_t messages_per_processor = 8;  ///< initial batch sizing
  std::size_t max_messages = 1u << 17;     ///< hard cap on batch growth
  std::uint64_t min_makespan = 256;        ///< floor (also >= 4 * diameter)
  unsigned trials = 3;
  /// Run only trials [trial_lo, trial_hi) of the full sweep (trial_hi == 0
  /// means trials).  The calibration pass (trial 0) ALWAYS runs so every
  /// shard derives the same batch size m from the same substream; a shard
  /// with trial_lo > 0 simply discards trial 0's stats and ticks, so summing
  /// simulated ticks across disjoint shards reproduces the unsharded total.
  /// Concatenating shard trial_rates in trial-index order is bit-identical
  /// to the unsharded sweep (see docs/SCATTER.md).
  unsigned trial_lo = 0;
  unsigned trial_hi = 0;
  Arbitration arbitration = Arbitration::kFarthestFirst;
  /// Run trials 1..T-1, and each ladder step's top-up routing, concurrently
  /// on this pool (collaboratively: safe even when called from inside one of
  /// the pool's own tasks).  nullptr = serial.
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation (docs/LIFECYCLE.md).  Cancellation during the
  /// calibration sweep — trial 0's final run_batch included, even when it
  /// runs beside the other trials — raises CancelledError (no trial has
  /// landed yet); cancellation after trial 0 completed returns the completed
  /// trials as a degraded partial result instead of throwing.  A null token
  /// costs nothing and cannot fire.
  CancelToken cancel{};
};

struct ThroughputResult {
  double rate = 0.0;        ///< β̂: median delivery rate over trials
  double rate_min = 0.0;    ///< slowest trial (spread floor)
  double rate_max = 0.0;    ///< fastest trial (spread ceiling)
  std::size_t messages = 0; ///< batch size finally used
  BatchStats last;          ///< stats of the last trial (highest index)
  std::vector<double> trial_rates;  ///< rates of the COMPLETED trials only
  std::uint64_t total_ticks = 0;    ///< ticks simulated, calibration included
  /// True when cancellation interrupted the sweep mid-way: rate/min/max/last
  /// summarize only the trials_completed trials that finished.  False means
  /// every requested trial ran, even if the token fired afterwards.
  bool degraded = false;
  unsigned trials_completed = 0;    ///< trials that ran to completion
  /// The trial range this result covers: [trial_lo, trial_lo + trial_rates
  /// .size()).  A degraded ranged result is prefix-truncated to stay
  /// contiguous, so a merger can never double-count a trial.
  unsigned trial_lo = 0;
};

ThroughputResult measure_throughput(const Machine& machine, Router& router,
                                    const TrafficDistribution& traffic,
                                    Prng& rng,
                                    const ThroughputOptions& options = {});

}  // namespace netemu
