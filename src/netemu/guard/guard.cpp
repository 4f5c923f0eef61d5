#include "netemu/guard/guard.hpp"

#include <algorithm>
#include <cmath>

namespace netemu::guard {

namespace {

// Tuning that no deployment has needed to change.  Bucket depth, in
// seconds of refill.
constexpr double kRateBurstSeconds = 2.0;
// AIMD controller: vote every interval on at least this many new samples;
// multiply the limit down on a miss, add a budget fraction back on a hit,
// and keep it between the floor and ceiling (both x cost_budget).
constexpr std::uint64_t kAdjustIntervalMs = 100;
constexpr std::uint64_t kAdjustMinSamples = 8;
constexpr double kDecreaseFactor = 0.7;
constexpr double kIncreaseFraction = 0.05;
constexpr double kLimitFloor = 0.125;
constexpr double kLimitCeiling = 2.0;
// Brownout: above this pressure an estimate keeps this fraction of its
// trials, and never fewer than the minimum.
constexpr double kBrownoutPressure = 0.75;
constexpr double kBrownoutKeep = 0.25;
constexpr unsigned kBrownoutMinTrials = 1;

scope::Counter& shed_rate_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_guard_rate_limited_total",
      "Queries shed because the client's token bucket was empty");
  return c;
}

scope::Counter& shed_share_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_guard_share_exceeded_total",
      "Queries shed because the client exceeded its fair-share cost cap");
  return c;
}

scope::Counter& brownout_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_guard_brownouts_total",
      "Estimate queries served with a reduced trial sweep under pressure");
  return c;
}

scope::Gauge& limit_gauge() {
  static scope::Gauge& g = scope::Registry::global().gauge(
      "netemu_guard_cost_limit",
      "AIMD-effective admission cost limit, in cost units");
  return g;
}

scope::Gauge& pressure_gauge() {
  static scope::Gauge& g = scope::Registry::global().gauge(
      "netemu_guard_pressure",
      "Pending admitted cost over the effective limit (>= 1 = gate closed)");
  return g;
}

}  // namespace

void DrainRate::note(double busy_ms, std::uint64_t cost,
                     std::size_t workers) {
  if (busy_ms < 0.0 || cost == 0) return;
  // One flight's wall time covers `cost` units, and `workers` flights drain
  // in parallel: the backlog retires one unit every busy/(cost*workers) ms.
  const double per_unit =
      busy_ms / (static_cast<double>(cost) *
                 static_cast<double>(std::max<std::size_t>(1, workers)));
  constexpr double kAlpha = 0.2;
  ms_per_unit_ = samples_ == 0
                     ? per_unit
                     : (1.0 - kAlpha) * ms_per_unit_ + kAlpha * per_unit;
  ++samples_;
}

std::uint64_t DrainRate::hint_ms(double backlog_units,
                                 std::uint64_t fallback_ms) const {
  if (samples_ == 0) return fallback_ms;
  const double raw = std::max(0.0, backlog_units) * ms_per_unit_;
  // Floor at a quarter of the configured constant: an almost-empty backlog
  // still deserves a nonzero pause, or retries arrive before the dequeue.
  const double lo = std::max(1.0, static_cast<double>(fallback_ms) / 4.0);
  return static_cast<std::uint64_t>(std::clamp(raw, lo, 10000.0));
}

Guard::Guard(Options options, const scope::Histogram* execute_hist)
    : options_(std::move(options)),
      execute_hist_(execute_hist),
      started_(std::chrono::steady_clock::now()) {
  // A zero budget would shed every flight behind an idle one; one unit is
  // the smallest gate that still serves.
  options_.cost_budget = std::max<std::uint64_t>(1, options_.cost_budget);
  options_.client_share = std::clamp(options_.client_share, 0.01, 1.0);
  burst_units_ = kRateBurstSeconds * options_.rate_units_per_s;
  limit_ = static_cast<double>(options_.cost_budget);
  limit_gauge().set(limit_);
}

std::uint64_t Guard::now_ms() const {
  if (options_.clock_ms) return options_.clock_ms();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

void Guard::refill_locked(ClientState& c, std::uint64_t now) const {
  if (options_.rate_units_per_s <= 0.0) return;
  const double elapsed_s =
      static_cast<double>(now - c.last_refill_ms) / 1000.0;
  c.tokens = std::min(burst_units_,
                      c.tokens + elapsed_s * options_.rate_units_per_s);
  c.last_refill_ms = now;
}

Guard::ClientState& Guard::client_state_locked(const std::string& client,
                                               std::uint64_t now) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (clients_.size() >= options_.max_clients) evict_idle_locked(now);
    ClientState fresh;
    fresh.tokens = burst_units_;  // strangers start with credit
    fresh.last_refill_ms = now;
    it = clients_.emplace(client, fresh).first;
  }
  it->second.last_seen_ms = now;
  return it->second;
}

void Guard::evict_idle_locked(std::uint64_t now) {
  // Bounded map: drop the least-recently-seen client with nothing in
  // flight.  A returning evictee re-enters with a full bucket — acceptable
  // for a stranger, and the map can never grow without bound.
  auto victim = clients_.end();
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (it->second.in_flight_cost > 0) continue;
    if (victim == clients_.end() ||
        it->second.last_seen_ms < victim->second.last_seen_ms) {
      victim = it;
    }
  }
  if (victim != clients_.end()) clients_.erase(victim);
  (void)now;
}

void Guard::maybe_adjust_locked(std::uint64_t now) {
  if (!runs_aimd()) return;
  if (now - last_adjust_ms_ < kAdjustIntervalMs) return;
  last_adjust_ms_ = now;

  const scope::Histogram::Snapshot cur = execute_hist_->snapshot();
  if (!have_snapshot_) {
    last_snapshot_ = cur;
    have_snapshot_ = true;
    return;
  }
  // Delta snapshot: only the requests observed since the last adjustment
  // vote, so the controller reacts to the current latency regime instead of
  // the lifetime average.
  scope::Histogram::Snapshot delta;
  delta.count = cur.count - last_snapshot_.count;
  delta.sum = cur.sum - last_snapshot_.sum;
  for (std::size_t b = 0; b < scope::Histogram::kBuckets; ++b) {
    delta.buckets[b] = cur.buckets[b] - last_snapshot_.buckets[b];
  }
  last_snapshot_ = cur;
  if (delta.count < kAdjustMinSamples) return;  // thin window

  const double p95_ms = delta.quantile(0.95) / 1000.0;  // hist is in us
  const auto budget = static_cast<double>(options_.cost_budget);
  if (p95_ms > options_.target_p95_ms) {
    limit_ = std::max(kLimitFloor * budget, limit_ * kDecreaseFactor);
    ++counters_.limit_decreases;
  } else {
    limit_ = std::min(kLimitCeiling * budget,
                      limit_ + kIncreaseFraction * budget);
    ++counters_.limit_increases;
  }
  limit_gauge().set(limit_);
}

Guard::Decision Guard::admit(const std::string& client, const Query& q,
                             std::uint64_t cost) {
  Decision d;
  std::lock_guard lock(mutex_);
  const std::uint64_t now = now_ms();
  ClientState& c = client_state_locked(client, now);
  refill_locked(c, now);

  // Rate limit first: it holds even on an idle executor (an idle server is
  // exactly when a greedy client could otherwise burn the whole budget).
  if (options_.rate_units_per_s > 0.0 && c.tokens < 1.0) {
    ++counters_.shed_rate;
    shed_rate_counter().inc();
    d.admit = false;
    d.reason = "client rate limited";
    // Hint: time until one unit of credit exists again.
    d.retry_after_ms = static_cast<std::uint64_t>(std::clamp(
        (1.0 - c.tokens) / options_.rate_units_per_s * 1000.0, 1.0,
        10000.0));
    return d;
  }

  // Cost backlog and fair share.  An empty executor admits anything (the
  // biggest legal estimate must stay servable when nothing competes), and a
  // client's first in-flight query is never share-blocked for the same
  // reason.
  if (pending_cost_ > 0 &&
      static_cast<double>(pending_cost_ + cost) > limit_) {
    ++counters_.shed_backlog;
    d.admit = false;
    d.reason = "cost budget full";
    return d;  // retry hint: executor's drain-rate estimate
  }
  const double share_cap = options_.client_share * limit_;
  if (c.in_flight_cost > 0 &&
      static_cast<double>(c.in_flight_cost + cost) > share_cap) {
    ++counters_.shed_share;
    shed_share_counter().inc();
    d.admit = false;
    d.reason = "client over fair share";
    return d;
  }

  // Admitted: charge the bucket (possibly into debt — the floor is -burst,
  // so a huge estimate is paid off by future refills instead of being
  // unservable) and the backlog.
  if (options_.rate_units_per_s > 0.0) {
    c.tokens = std::max(-burst_units_,
                        c.tokens - static_cast<double>(cost));
  }
  c.in_flight_cost += cost;
  pending_cost_ += cost;
  ++counters_.admitted;

  // Brownout: under sustained pressure, estimates keep answering — with a
  // reduced sweep, marked degraded, never cached — before anything sheds.
  const double pressure = static_cast<double>(pending_cost_) / limit_;
  // Trial-range shards are exempt: shrinking a shard's sweep would change
  // which trials it covers and corrupt the scatter merge — under pressure a
  // shard either runs whole or sheds (docs/SCATTER.md).
  if (options_.brownout && pressure > kBrownoutPressure &&
      q.kind == QueryKind::kEstimate && !q.has_trial_range() &&
      q.trials > kBrownoutMinTrials) {
    const auto kept = static_cast<unsigned>(
        std::ceil(static_cast<double>(q.trials) * kBrownoutKeep));
    d.trials = std::clamp(kept, kBrownoutMinTrials, q.trials - 1);
    d.brownout = true;
    ++counters_.brownouts;
    brownout_counter().inc();
  }
  pressure_gauge().set(static_cast<double>(pending_cost_) / limit_);
  return d;
}

void Guard::complete(const std::string& client, std::uint64_t cost) {
  std::lock_guard lock(mutex_);
  pending_cost_ -= std::min(pending_cost_, cost);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.in_flight_cost -=
        std::min(it->second.in_flight_cost, cost);
  }
  const std::uint64_t now = now_ms();
  maybe_adjust_locked(now);
  pressure_gauge().set(static_cast<double>(pending_cost_) / limit_);
}

void Guard::release(const std::string& client, std::uint64_t cost) {
  std::lock_guard lock(mutex_);
  pending_cost_ -= std::min(pending_cost_, cost);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.in_flight_cost -=
        std::min(it->second.in_flight_cost, cost);
  }
  pressure_gauge().set(static_cast<double>(pending_cost_) / limit_);
}

double Guard::pressure() const {
  std::lock_guard lock(mutex_);
  return limit_ > 0.0 ? static_cast<double>(pending_cost_) / limit_ : 0.0;
}

std::uint64_t Guard::pending_cost() const {
  std::lock_guard lock(mutex_);
  return pending_cost_;
}

std::uint64_t Guard::effective_limit() const {
  std::lock_guard lock(mutex_);
  return static_cast<std::uint64_t>(limit_);
}

std::size_t Guard::clients_tracked() const {
  std::lock_guard lock(mutex_);
  return clients_.size();
}

Guard::Counters Guard::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

Json Guard::to_json() const {
  std::lock_guard lock(mutex_);
  Json doc = Json::object();
  doc["cost_budget"] = options_.cost_budget;
  doc["limit"] = static_cast<std::uint64_t>(limit_);
  doc["pending_cost"] = pending_cost_;
  doc["pressure"] =
      limit_ > 0.0 ? static_cast<double>(pending_cost_) / limit_ : 0.0;
  doc["adaptive"] = runs_aimd();
  doc["clients"] = clients_.size();
  doc["admitted"] = counters_.admitted;
  doc["shed_backlog"] = counters_.shed_backlog;
  doc["shed_share"] = counters_.shed_share;
  doc["shed_rate"] = counters_.shed_rate;
  doc["brownouts"] = counters_.brownouts;
  doc["limit_increases"] = counters_.limit_increases;
  doc["limit_decreases"] = counters_.limit_decreases;
  return doc;
}

}  // namespace netemu::guard
