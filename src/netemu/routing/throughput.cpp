#include "netemu/routing/throughput.hpp"

#include <algorithm>

#include "netemu/graph/algorithms.hpp"
#include "netemu/util/stats.hpp"

namespace netemu {

namespace {

/// Hops per message to reserve for messages drawn like `sample`'s: its
/// average path length plus one (a small guess when it is empty).  A batch
/// that outgrows its buffers reallocates and copies them.
std::size_t hops_hint(const PacketSimulator::PreparedBatch& sample) {
  return sample.size() > 0
             ? static_cast<std::size_t>(sample.total_hops() / sample.size()) +
                   1
             : 8;
}

/// Route `messages` onto the end of `batch`, reusing one path buffer: the
/// routers write into it with no per-message allocation.  Polls `cancel`
/// between routes, as the simulator polls it between ticks.
void route_onto(PacketSimulator::PreparedBatch& batch,
                const std::vector<Message>& messages,
                const PacketSimulator& sim, Router& router, Prng& rng,
                const CancelToken& cancel) {
  std::vector<Vertex> path;
  for (const Message& msg : messages) {
    cancel.check();
    router.route_append(msg.src, msg.dst, rng, path);
    sim.append(batch, path);
  }
}

/// A new batch: `prefix` (the already-routed part) followed by `extra`
/// freshly sampled and routed messages, its buffers sized once for `hops`
/// hops per new message (batch-building is the allocation-heaviest part of
/// a trial).
PacketSimulator::PreparedBatch extend(
    const PacketSimulator::PreparedBatch& prefix, const PacketSimulator& sim,
    Router& router, const TrafficDistribution& traffic, std::size_t extra,
    std::size_t hops, Prng& rng, const CancelToken& cancel) {
  PacketSimulator::PreparedBatch batch =
      prefix.copy_with_room(extra, hops * extra);
  route_onto(batch, traffic.batch(extra, rng), sim, router, rng, cancel);
  return batch;
}

}  // namespace

ThroughputResult measure_throughput(const Machine& machine, Router& router,
                                    const TrafficDistribution& traffic,
                                    Prng& rng,
                                    const ThroughputOptions& options) {
  ThroughputResult result;
  const PacketSimulator sim(machine, options.arbitration);

  // One draw from the caller's stream seeds everything (see header).
  const std::uint64_t base = rng();
  Prng diam_rng = Prng::stream(base, 0);
  const std::uint64_t diameter_lb =
      diameter_double_sweep(machine.graph, diam_rng);
  const std::uint64_t target_makespan =
      std::max<std::uint64_t>(options.min_makespan, 4 * diameter_lb);

  std::size_t m = std::clamp<std::size_t>(
      options.messages_per_processor * traffic.num_processors(), 512,
      options.max_messages);

  const unsigned trials = std::max(1u, options.trials);
  // Shard window [lo, hi): the default (0, 0) covers the whole sweep.
  const unsigned lo = std::min(options.trial_lo, trials - 1);
  const unsigned hi =
      options.trial_hi == 0 ? trials
                            : std::clamp(options.trial_hi, lo + 1, trials);
  const bool ranged = lo > 0 || hi < trials;
  std::vector<BatchStats> stats(trials);
  // Set per trial after its run_batch returns.  for_n collects by index and
  // each trial writes only its own slot, so plain bytes are race-free.
  std::vector<char> completed(trials, 0);

  // Trial 0 calibrates the batch size: grow by doubling until the transient
  // is negligible, keeping the already-routed paths and routing only the
  // top-up messages each step.  Cancellation here propagates as
  // CancelledError: no trial has landed yet, so there is nothing partial to
  // return.  The calibration runs even for a shard that excludes trial 0 —
  // m must be derived from the same substream on every shard — but such a
  // shard discards trial 0's stats AND its ticks, leaving them to the shard
  // that owns trial 0 so shard ticks sum to the unsharded total.
  //
  // A step is provably the last one before it is simulated when m is capped
  // or the batch's congestion floor already reaches the target (makespan >=
  // floor).  That step's run_batch then becomes job 0 of the fan-out below.
  // Any other step simulates here, and with a pool a helper routes the next
  // step's top-up meanwhile (for_n job 0, the caller, simulates; job 1
  // routes).  The simulation runs on a copy of the ladder's rng, and the
  // ladder's own rng skips the values run_batch draws (PacketSimulator's
  // rng contract), so the top-up is sampled and routed from exactly the
  // state a serial run leaves.  The top-up is kept only if the step turns
  // out not to be the last; nothing is ever simulated ahead, so a dropped
  // top-up costs its sampling and routing only.
  std::uint64_t calibration_ticks = 0;
  Prng calib_rng = Prng::stream(base, 1);
  PacketSimulator::PreparedBatch calib_batch =
      extend({}, sim, router, traffic, m, hops_hint({}), calib_rng,
             options.cancel);
  bool final_step_pending = false;
  for (;;) {
    if (m >= options.max_messages ||
        sim.makespan_floor(calib_batch) >= target_makespan) {
      final_step_pending = true;
      break;
    }
    const std::size_t next_m = std::min(options.max_messages, m * 2);
    Prng sim_rng = calib_rng;
    calib_rng.discard(sim.rng_draws(calib_batch));
    PacketSimulator::PreparedBatch next;
    std::vector<Message> top_up;
    const auto sample_top_up = [&] {
      next = calib_batch.copy_with_room(
          next_m - m, hops_hint(calib_batch) * (next_m - m));
      top_up = traffic.batch(next_m - m, calib_rng);
    };
    const auto route_top_up = [&] {
      route_onto(next, top_up, sim, router, calib_rng, options.cancel);
    };
    const auto simulate = [&] {
      stats[0] = sim.run_batch(calib_batch, sim_rng, options.cancel);
    };
    if (options.pool != nullptr) {
      // The caller allocates the top-up's buffers and samples its messages,
      // then simulates as a serial run would; the helper only routes into
      // those buffers, so a pool thread that would otherwise sit idle
      // allocates nothing that outlives the step.
      sample_top_up();
      options.pool->for_n(2, [&](std::size_t j) {
        if (j == 0) {
          simulate();
        } else {
          route_top_up();
        }
      });
    } else {
      simulate();
    }
    if (stats[0].makespan >= target_makespan) break;
    calibration_ticks += stats[0].makespan;  // non-final sizing runs
    if (options.pool == nullptr) {
      sample_top_up();
      route_top_up();
    }
    calib_batch = std::move(next);
    m = next_m;
  }
  result.messages = m;
  // Every trial routes m messages drawn like the calibration batch's.
  const std::size_t trial_hops = hops_hint(calib_batch);

  // Trials in [max(lo, 1), hi) at the calibrated size, independently seeded
  // by index and collected by index — bit-identical at any thread count.  A
  // cancelled trial is swallowed here (never escapes for_n, which would
  // rethrow on the caller and drop sibling results): it just leaves its
  // completed flag unset and the sweep reports a degraded partial result.
  const auto run_trial = [&](std::size_t t) {
    try {
      Prng trial_rng = Prng::stream(base, 1 + t);
      const PacketSimulator::PreparedBatch batch =
          extend({}, sim, router, traffic, m, trial_hops, trial_rng,
                 options.cancel);
      stats[t] = sim.run_batch(batch, trial_rng, options.cancel);
      completed[t] = 1;
    } catch (const CancelledError&) {
    }
  };
  // Job j >= 1 is trial first_run + j - 1.  Job 0 finishes trial 0 and runs
  // on the caller (for_n's contract), beside the trials: a cancellation
  // there is still inside trial 0's step and escapes as CancelledError once
  // the concurrent trials return.  It releases the calibration batch before
  // the caller claims another job, so no more batches are live than threads.
  const unsigned first_run = std::max(lo, 1u);
  const auto job = [&](std::size_t j) {
    if (j > 0) return run_trial(first_run + j - 1);
    if (final_step_pending) {
      stats[0] = sim.run_batch(calib_batch, calib_rng, options.cancel);
    }
    calib_batch = {};
    if (lo == 0) completed[0] = 1;
  };
  const std::size_t jobs = 1 + (hi - first_run);
  if (options.pool != nullptr) {
    options.pool->for_n(jobs, job);
  } else {
    for (std::size_t j = 0; j < jobs; ++j) job(j);
  }

  // A ranged shard must stay contiguous so a merger can never double-count:
  // truncate at the first gap.  The unsharded path keeps its historical
  // behavior of skipping gaps (every completed trial still counts).
  if (ranged) {
    for (unsigned t = lo; t < hi; ++t) {
      if (!completed[t]) {
        std::fill(completed.begin() + t, completed.begin() + hi, char{0});
        break;
      }
    }
    if (!completed[lo]) throw CancelledError();
  }

  result.trial_lo = lo;
  result.trial_rates.reserve(hi - lo);
  result.total_ticks = lo == 0 ? calibration_ticks : 0;
  unsigned last_completed = lo;
  for (unsigned t = lo; t < hi; ++t) {
    if (!completed[t]) continue;
    result.trial_rates.push_back(stats[t].rate());
    result.total_ticks += stats[t].makespan;
    last_completed = t;
  }
  result.trials_completed = static_cast<unsigned>(result.trial_rates.size());
  result.degraded = result.trials_completed < hi - lo;
  result.rate = median(std::vector<double>(result.trial_rates));
  const auto [rate_lo, rate_hi] = std::minmax_element(
      result.trial_rates.begin(), result.trial_rates.end());
  result.rate_min = *rate_lo;
  result.rate_max = *rate_hi;
  result.last = stats[last_completed];
  return result;
}

}  // namespace netemu
