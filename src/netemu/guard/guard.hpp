#pragma once
// netemu::guard — overload protection for the query service.
//
// The guard is the executor's only admission gate.  Its backlog check
// always runs; the other three pieces are each selected by their own
// option value and are off by default, so a default guard sheds unit-cost
// queries exactly like a request counter would (docs/GUARD.md):
//
//  * cost-model admission: the executor admits estimated work units
//    (guard/cost.hpp), not query count, so one huge estimate and one
//    closed-form lookup stop being "equal" at the admission gate;
//  * per-client isolation: every query carries a client identity (the
//    "client" wire field, stamped per connection peer when absent); each
//    client gets a token bucket (average-rate cap with burst debt) and a
//    fair-share cap on in-flight cost, so a flood from one client sheds
//    that client, not everybody;
//  * adaptive concurrency: an AIMD controller resizes the effective cost
//    limit between a floor and a ceiling from the observed executor.execute
//    latency histogram (scope) — p95 above target multiplies the limit
//    down, p95 at/below target adds a fixed increment back;
//  * brownout: above a pressure threshold, estimate queries are served with
//    a reduced trial sweep, marked "degraded":true and never cached, before
//    the guard ever sheds them.
//
// The Guard itself is a decision box: the executor asks admit() before a
// flight is created, reports complete() when one finishes, and reads
// pressure()/to_json() for the health report.  It takes its own lock and
// may be called under the executor's.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "netemu/scope/metrics.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/json.hpp"

namespace netemu::guard {

/// Backlog drain-rate estimator: an EWMA of "milliseconds of wall time the
/// executor needs to retire one cost unit", fed by completed computes.
/// Turns the shed retry_after_ms hint from a constant into
/// backlog x drain-time, clamped.  Not internally synchronized — the owner
/// (the executor) calls it under its own mutex.
class DrainRate {
 public:
  /// Record one completed flight: `busy_ms` wall time for `cost` units,
  /// drained by `workers` parallel workers.
  void note(double busy_ms, std::uint64_t cost, std::size_t workers);

  /// Dynamic backoff hint for a backlog of `backlog_units`: how long until
  /// the backlog has drained at the observed rate, clamped to
  /// [fallback/4, 10000] ms.  Returns `fallback_ms` unchanged until the
  /// first sample exists — a fresh executor keeps its configured constant
  /// (tests pin it), only a warmed-up one earns a dynamic hint.
  std::uint64_t hint_ms(double backlog_units, std::uint64_t fallback_ms) const;

  bool has_samples() const { return samples_ > 0; }
  double ms_per_unit() const { return ms_per_unit_; }

 private:
  double ms_per_unit_ = 0.0;
  std::uint64_t samples_ = 0;
};

struct Options {
  /// Admission budget in cost units (guard/cost.hpp).  With unit costs and
  /// every mechanism below at its default, the backlog check sheds iff
  /// pending queries >= cost_budget.
  std::uint64_t cost_budget = 64;

  /// One client's in-flight cost may not exceed this fraction of the
  /// effective limit while other work is pending (fair-share isolation).
  /// 1.0 is never binding: the backlog check fires first.
  double client_share = 1.0;

  /// Per-client token bucket: average admission rate in units/second, with
  /// a burst depth of two seconds of refill.  0 disables rate limiting.  A
  /// query costing more than the remaining tokens is admitted into debt
  /// (the bucket floor is -burst), so a huge estimate is paid off over time
  /// instead of being unservable.
  double rate_units_per_s = 0.0;

  /// Bounded client map: least-recently-seen idle clients are evicted past
  /// this many (their bucket state resets — acceptable for strangers).
  std::size_t max_clients = 1024;

  /// AIMD adaptive concurrency: the effective limit follows this
  /// execute-latency target.  0 pins the limit to cost_budget.
  double target_p95_ms = 0.0;

  /// Brownout: under pressure, estimate queries run a reduced sweep
  /// instead of their full trials.
  bool brownout = false;

  /// Test hook: monotonic milliseconds.  Unset = steady_clock.
  std::function<std::uint64_t()> clock_ms;
};

class Guard {
 public:
  struct Decision {
    bool admit = true;
    bool brownout = false;     ///< serve a reduced-quality answer
    unsigned trials = 0;       ///< reduced trial count when brownout
    std::string reason;        ///< shed reason when !admit
    /// Rate-limit sheds carry a token-refill hint; other sheds leave 0 and
    /// the executor computes a drain-rate hint instead.
    std::uint64_t retry_after_ms = 0;
  };

  /// `execute_hist` feeds the AIMD controller (the scope histogram the
  /// executor records every request's residency into); may be null, which
  /// disables adaptation.  Not owned; must outlive the guard.
  Guard(Options options, const scope::Histogram* execute_hist);

  /// Admission decision for one query about to become a flight leader.
  /// On admit the cost is charged (pending cost, client bucket + share);
  /// the caller MUST pair it with complete() or release().
  Decision admit(const std::string& client, const Query& q,
                 std::uint64_t cost);

  /// A charged flight finished (any outcome).  Also ticks the AIMD
  /// controller when its adjust interval has elapsed.
  void complete(const std::string& client, std::uint64_t cost);

  /// A charged flight was dropped without running (drain shed of a queued
  /// task, pool rejection): un-charge without feeding the controller.
  void release(const std::string& client, std::uint64_t cost);

  /// Pending admitted cost / effective limit.  >= 1.0 means the gate is
  /// effectively closed; the health report exposes it for fleet routing.
  double pressure() const;

  std::uint64_t pending_cost() const;
  std::uint64_t effective_limit() const;
  std::size_t clients_tracked() const;

  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t shed_backlog = 0;   ///< cost budget full
    std::uint64_t shed_share = 0;     ///< client over fair share
    std::uint64_t shed_rate = 0;      ///< client token bucket empty
    std::uint64_t brownouts = 0;      ///< admits degraded by brownout
    std::uint64_t limit_increases = 0;
    std::uint64_t limit_decreases = 0;
  };
  Counters counters() const;

  /// Health-report block: budget, limit, pending, pressure, counters.
  Json to_json() const;

  const Options& options() const { return options_; }

 private:
  struct ClientState {
    double tokens = 0.0;
    std::uint64_t last_refill_ms = 0;
    std::uint64_t in_flight_cost = 0;
    std::uint64_t last_seen_ms = 0;
  };

  /// AIMD runs iff a latency target is set and there is a histogram to
  /// read it from.
  bool runs_aimd() const {
    return options_.target_p95_ms > 0.0 && execute_hist_ != nullptr;
  }
  std::uint64_t now_ms() const;
  ClientState& client_state_locked(const std::string& client,
                                   std::uint64_t now);
  void refill_locked(ClientState& c, std::uint64_t now) const;
  void maybe_adjust_locked(std::uint64_t now);
  void evict_idle_locked(std::uint64_t now);

  Options options_;
  const scope::Histogram* execute_hist_;
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ClientState> clients_;
  std::uint64_t pending_cost_ = 0;
  double burst_units_ = 0.0;  ///< token-bucket depth (0 = no rate limit)
  double limit_ = 0.0;  ///< AIMD-effective cost limit
  Counters counters_;
  std::uint64_t last_adjust_ms_ = 0;
  scope::Histogram::Snapshot last_snapshot_;
  bool have_snapshot_ = false;
};

}  // namespace netemu::guard
