#pragma once
// netemu::guard — overload protection for the query service.
//
// The guard is the executor's only admission gate, with one fixed policy
// (docs/GUARD.md):
//
//  * cost-model admission: the executor admits estimated work units
//    (guard/cost.hpp), not query count, so one huge estimate and one
//    closed-form lookup stop being "equal" at the admission gate.  With
//    unit costs the backlog check sheds exactly like a request counter;
//  * per-client fair share: every query carries a client identity (the
//    "client" wire field, stamped per connection peer when absent), and
//    one client's in-flight cost is capped at a fraction of the budget, so
//    a flood from one client sheds that client, not everybody.
//
// The Guard itself is a decision box: the executor asks admit() before a
// flight is created, calls release() when the flight is retired, and reads
// pressure()/to_json() for the health report.  It takes its own lock and
// may be called under the executor's.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

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
  /// Admission budget in cost units (guard/cost.hpp).  With unit costs the
  /// backlog check sheds iff pending queries >= cost_budget.
  std::uint64_t cost_budget = 64;

  /// One client's in-flight cost may not exceed this fraction of the
  /// budget while other work is pending (fair-share isolation).
  /// 1.0 is never binding: the backlog check fires first.
  double client_share = 1.0;
};

class Guard {
 public:
  /// Client identities tracked for fair share; past this many, the
  /// least-recently-seen idle client is forgotten.
  static constexpr std::size_t kMaxClients = 1024;

  struct Decision {
    bool admit = true;
    std::string reason;  ///< shed reason when !admit
  };

  explicit Guard(Options options);

  /// Admission decision for one flight about to be created.  On admit the
  /// cost is charged (pending cost + the client's share); the caller MUST
  /// pair it with release().
  Decision admit(const std::string& client, std::uint64_t cost);

  /// A charged flight was retired (any outcome, run or not): un-charge it.
  void release(const std::string& client, std::uint64_t cost);

  /// Pending admitted cost / budget.  >= 1.0 means the gate is effectively
  /// closed; the health report exposes it for fleet routing.
  double pressure() const;

  std::uint64_t pending_cost() const;
  std::size_t clients_tracked() const;

  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t shed_backlog = 0;  ///< cost budget full
    std::uint64_t shed_share = 0;    ///< client over fair share
  };
  Counters counters() const;

  /// Health-report block: budget, pending, pressure, clients, counters.
  Json to_json() const;

  const Options& options() const { return options_; }

 private:
  struct ClientState {
    std::uint64_t in_flight_cost = 0;
    std::uint64_t last_seen = 0;  ///< admit() sequence number, for LRU
  };

  double pressure_locked() const;
  void evict_idle_locked();

  Options options_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ClientState> clients_;
  std::uint64_t pending_cost_ = 0;
  std::uint64_t admit_calls_ = 0;  ///< sequence clock for last_seen
  Counters counters_;
};

}  // namespace netemu::guard
