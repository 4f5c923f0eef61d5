#include "netemu/fleet/scatter.hpp"

#include <algorithm>
#include <chrono>

#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/stats.hpp"

namespace netemu {

namespace {

constexpr std::size_t kNoBackend = static_cast<std::size_t>(-1);

scope::Counter& subqueries_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_scatter_subqueries_total",
      "Trial-range sub-queries dispatched by the scatterer");
  return c;
}

scope::Counter& straggler_retries_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_scatter_straggler_retries_total",
      "Straggling sub-queries re-dispatched at another backend");
  return c;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One trial-range sub-query and the race that answers it.
struct Sub {
  Json doc;                 ///< the first attempt's document (owns its trace)
  unsigned lo = 0, hi = 0;  ///< requested trial range [lo, hi)
  std::size_t presumed = kNoBackend;   ///< rendezvous-first choice
  std::size_t runner_up = kNoBackend;  ///< ... and second (the retry's)
  bool retried = false;
  std::shared_ptr<HedgeRace> race;
};

// Landings of every sub-race of one scatter; the coordinator waits on `cv`.
// shared_ptr-owned because a losing twin can land after the merge.
struct Landings {
  std::mutex m;
  std::condition_variable cv;
  std::size_t answered = 0;
  double slowest_ms = 0.0;  ///< latency of the slowest answered sub-query
};

// One sub-query attempt through the router, graded for the race: an ok
// document answers; any other document ranks as a shed.
HedgeRace::Attempt sub_attempt(FleetRouter& router, Json doc,
                               std::optional<std::size_t> exclude) {
  return [&router, doc = std::move(doc), exclude] {
    FleetRouter::Result r = router.request(doc, exclude);
    HedgeOutcome o;
    o.error = r.ok ? r.doc["error"].as_string() : r.error;
    if (r.ok) {
      o.grade = r.doc["ok"].as_bool(false) ? HedgeGrade::kAnswer
                                           : HedgeGrade::kShed;
      o.doc = std::move(r.doc);
    }
    return o;
  };
}

}  // namespace

Scatterer::Scatterer(FleetRouter& router, Options options)
    : router_(router), options_(std::move(options)) {}

bool Scatterer::eligible(const Json& request) const {
  if (options_.min_trials == 0) return false;
  std::string error;
  const auto q = query_from_json(request, &error);
  if (!q || q->kind != QueryKind::kEstimate) return false;
  // An explicit trial range is already a shard — route it whole.
  if (q->trial_hi != 0) return false;
  if (q->trials < options_.min_trials) return false;
  const std::size_t ways =
      std::min<std::size_t>(std::min<std::size_t>(options_.max_ways, q->trials),
                            router_.available_backends());
  return ways >= 2;
}

std::string Scatterer::scatter_line(const Json& request) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  const auto q = query_from_json(request, &error);
  if (!q) {
    Json doc = Json::object();
    doc["ok"] = false;
    doc["error"] = "scatter: " + error;
    return doc.dump();
  }
  const unsigned trials = q->trials;
  const std::size_t ways = std::min<std::size_t>(
      std::min<std::size_t>(options_.max_ways, trials),
      std::max<std::size_t>(1, router_.available_backends()));
  const std::uint64_t tid = q->trace_id;
  scope::SpanTimer scatter_span(tid, "fleet.scatter");

  if (options_.phase_hook) options_.phase_hook("dispatch");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.scatters;
    stats_.subqueries += ways;
  }
  subqueries_counter().add(ways);
  const auto landings = std::make_shared<Landings>();
  std::vector<Sub> subs(ways);
  for (std::size_t i = 0; i < ways; ++i) {
    Sub& sub = subs[i];
    sub.lo = static_cast<unsigned>(i * trials / ways);
    sub.hi = static_cast<unsigned>((i + 1) * trials / ways);
    // Every sub-query gets its own trace id: the race keys its cancel verbs
    // on it, exactly like the router's hedge-loser cancel.
    const std::uint64_t trace = scope::mint_trace_id();
    JsonObject fields{{"trial_lo", sub.lo},
                      {"trial_hi", sub.hi},
                      {"trace", hex64(trace)}};
    if (options_.sub_deadline_ms > 0) {
      fields["deadline_ms"] = options_.sub_deadline_ms;
    }
    sub.doc = attempt_doc(request, std::move(fields));
    const std::vector<std::size_t> rank = router_.rank_for(sub.doc);
    if (!rank.empty()) sub.presumed = sub.runner_up = rank[0];
    if (rank.size() > 1) sub.runner_up = rank[1];
    sub.race = router_.make_race([landings, t0](bool won) {
      std::lock_guard<std::mutex> lock(landings->m);
      if (won) {
        ++landings->answered;
        landings->slowest_ms = std::max(landings->slowest_ms, ms_since(t0));
      }
      landings->cv.notify_all();
    });
    sub.race->launch(sub.presumed, trace,
                     sub_attempt(router_, sub.doc, std::nullopt));
  }

  // Gather: wait for every sub-race to settle (an answer, or every attempt
  // failed).  Once at least half have answered, sub-queries still
  // outstanding past the straggler deadline race a retry at a different
  // backend — first answer wins, the loser gets a cancel verb.
  std::uint64_t retries_fired = 0;
  std::unique_lock<std::mutex> gather(landings->m);
  while (true) {
    std::vector<Sub*> stragglers;
    bool settled = true;
    for (Sub& sub : subs) {
      if (sub.race->settled()) continue;
      settled = false;
      if (!sub.retried) stragglers.push_back(&sub);
    }
    if (settled) break;
    if (options_.straggler_factor <= 0 || stragglers.empty() ||
        landings->answered * 2 < ways) {
      landings->cv.wait(gather);
      continue;
    }
    const double wait_ms =
        std::max(static_cast<double>(options_.straggler_min_ms),
                 options_.straggler_factor * landings->slowest_ms);
    const auto straggler_deadline =
        t0 + std::chrono::microseconds(
                 static_cast<std::int64_t>(wait_ms * 1000.0));
    if (std::chrono::steady_clock::now() < straggler_deadline) {
      landings->cv.wait_until(gather, straggler_deadline);
      continue;
    }
    // A refused launch lands at once, and landing takes this lock.
    gather.unlock();
    for (Sub* sub : stragglers) {
      sub->retried = true;
      // The retry is the same range under its OWN trace id, steered away
      // from the backend presumed stuck.
      const std::uint64_t retry_trace = scope::mint_trace_id();
      straggler_retries_counter().inc();
      scope::FlightRecorder::global().record(
          scope::FlightRecorder::Kind::kHedge, retry_trace,
          "scatter straggler retry: trials [" + std::to_string(sub->lo) +
              "," + std::to_string(sub->hi) + ") re-dispatched away from " +
              (sub->presumed == kNoBackend
                   ? std::string("?")
                   : router_.options().backends[sub->presumed].id));
      sub->race->launch(
          sub->runner_up, retry_trace,
          sub_attempt(router_,
                      attempt_doc(sub->doc, {{"trace", hex64(retry_trace)}}),
                      sub->presumed));
    }
    retries_fired += stragglers.size();
    gather.lock();
  }
  gather.unlock();
  if (retries_fired > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.straggler_retries += retries_fired;
  }
  if (options_.phase_hook) options_.phase_hook("pre-merge");

  // Merge.  Sub results cover disjoint ascending ranges; a degraded shard
  // covers a contiguous prefix of its range (measure_throughput truncates),
  // so coverage is exactly [lo, lo + len(trial_rates)) per ok shard and no
  // trial can be counted twice.
  scope::SpanTimer merge_span(tid, "fleet.merge");
  std::vector<std::pair<unsigned, Json>> oks;  // (lo, result), lo ascending
  std::string last_error;
  bool all_cache_hit = true;
  for (Sub& sub : subs) {
    HedgeOutcome o = sub.race->take().outcome;
    if (o.grade == HedgeGrade::kAnswer) {
      all_cache_hit = all_cache_hit && o.doc["cache_hit"].as_bool(false);
      oks.emplace_back(sub.lo, o.doc["result"]);
    } else if (!o.error.empty()) {
      last_error = o.error;
    }
  }

  if (oks.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.failed;
    merge_span.set_note("failed");
    scatter_span.set_note("failed ways=" + std::to_string(ways));
    Json doc = Json::object();
    doc["ok"] = false;
    doc["error"] = "fleet: scatter failed: " +
                   (last_error.empty() ? "no sub-query answered"
                                       : last_error);
    doc["scattered"] = ways;
    if (tid != 0) doc["trace"] = hex64(tid);
    return doc.dump();
  }

  // Concatenate in trial-index order (oks inherit the subs' lo order) and
  // record the maximal contiguous covered runs.
  std::vector<double> rates;
  Json merged_rates = Json::array();
  Json ranges = Json::array();
  unsigned covered = 0;
  bool contiguous_from_zero = true;
  unsigned expect = 0;
  double ticks = 0.0;
  for (const auto& [lo, result] : oks) {
    const Json& sub_rates = result["trial_rates"];
    const unsigned len =
        static_cast<unsigned>(sub_rates.items().size());
    if (len == 0) continue;
    if (lo != expect) contiguous_from_zero = false;
    Json range = Json::array();
    range.items().emplace_back(lo);
    range.items().emplace_back(lo + len);
    ranges.items().push_back(std::move(range));
    for (const Json& rate : sub_rates.items()) {
      merged_rates.items().push_back(rate);
      rates.push_back(rate.as_number());
    }
    covered += len;
    expect = lo + len;
    ticks += result["simulated_ticks"].as_number(0.0);
  }
  const bool full = contiguous_from_zero && covered == trials;

  // Base document: the shard holding the highest completed trial — its
  // makespan/avg_latency/static_congestion describe the last trial, the
  // same slot the single-node sweep reports.
  Json merged = oks.back().second;
  merged.fields().erase("trial_lo");
  merged.fields().erase("trial_hi");
  merged.fields().erase("degraded");
  merged.fields().erase("trials_completed");
  merged["trials"] = trials;
  merged["trial_rates"] = std::move(merged_rates);
  // The same estimator measure_throughput uses (util median, not a
  // nearest-rank quantile): byte-identity with the unsharded sweep
  // requires the identical function over the identical doubles.
  merged["beta_hat"] = median(std::vector<double>(rates));
  const auto [rate_lo, rate_hi] =
      std::minmax_element(rates.begin(), rates.end());
  merged["beta_hat_min"] = *rate_lo;
  merged["beta_hat_max"] = *rate_hi;
  merged["simulated_ticks"] = ticks;
  if (!full) {
    merged["degraded"] = true;
    merged["trials_completed"] = covered;
    merged["trial_ranges"] = std::move(ranges);
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++(full ? stats_.merged_full : stats_.merged_degraded);
  }
  merge_span.set_note(full ? "full" : "degraded");
  scatter_span.set_note("ways=" + std::to_string(ways) + " retries=" +
                        std::to_string(retries_fired) +
                        (full ? "" : " degraded"));

  Json doc = Json::object();
  doc["ok"] = true;
  doc["cache_hit"] = all_cache_hit;
  doc["key"] = hex64(q->cache_key());
  doc["micros"] = ms_since(t0) * 1000.0;
  doc["scattered"] = ways;
  if (!full) doc["degraded"] = true;  // top-level mirror, as backends do
  if (tid != 0) doc["trace"] = hex64(tid);
  doc["result"] = std::move(merged);
  return doc.dump();
}

Scatterer::Stats Scatterer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace netemu
