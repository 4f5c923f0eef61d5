#pragma once
// The request executor: the concurrency heart of the service.
//
//   execute(query)
//     ├─ cache hit  ──────────────────────────────► O(1) answer
//     ├─ identical query already in flight ───────► join it (single-flight)
//     ├─ guard refuses (cost budget full ────────► shed: "overloaded" +
//     │  or client over fair share)                retry_after_ms hint
//     └─ otherwise: queue on the fair scheduler, run plan_query() on the
//        pool, publish to every waiter, store the result under its
//        content address.
//
// Single-flight matters because the expensive queries are the memoizable
// ones: a thundering herd of identical `estimate` requests triggers exactly
// one packet simulation; the rest block on the flight and share its result.
// Waiters honor a per-query deadline, capped at default_deadline_ms — a
// timed-out waiter gets an error response, but a compute that is already
// running still completes and still fills the cache.
//
// Resilience (netemu::faultline integration):
//  * cooperative cancellation end-to-end (docs/LIFECYCLE.md): every flight
//    owns a CancelSource armed with the leader's deadline; compute stopped
//    mid-sweep surfaces completed trials as a degraded partial result (kept
//    out of the cache), and begin_drain() sheds new work while cancel_all()
//    reclaims what is still running;
//  * the deadline is the one timer that abandons a flight: when its last
//    waiter leaves at the deadline the flight is retired at once (key
//    unregistered, guard charge returned) and its token fired, so a running
//    compute unwinds within one check quantum and a still-queued one never
//    starts;
//  * a recompute (refresh=true) that fails falls back to the previous
//    cached value, marked stale, instead of erroring;
//  * Options::faults routes worker stalls from a FaultInjector into the
//    compute path, so chaos tests exercise all of the above.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "netemu/guard/fair_queue.hpp"
#include "netemu/guard/guard.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {

class FaultInjector;

struct Response {
  bool ok = false;
  bool cache_hit = false;
  bool stale = false;       ///< served from cache after a recompute failure
  bool overloaded = false;  ///< shed by admission control (when !ok)
  bool degraded = false;    ///< deadline-bounded partial result (when ok);
                            ///< never cached — a refresh recomputes in full
  std::string error;        ///< set when !ok
  std::string result;       ///< serialized result document (when ok)
  std::uint64_t key = 0;    ///< content address of the query
  std::uint64_t retry_after_ms = 0;  ///< backoff hint (when overloaded)
  double micros = 0.0;      ///< wall time inside execute()
  std::uint64_t trace_id = 0;  ///< scope trace id echoed back (0 = untraced)
};

class QueryExecutor {
 public:
  struct Options {
    std::size_t threads = 0;        ///< worker threads; 0 = hardware
    /// Deadline for a query that names none, and the ceiling for one that
    /// does: a client may shorten its deadline but not extend it.
    std::uint64_t default_deadline_ms = 30000;
    std::size_t cache_capacity = 4096;
    std::string cache_file;         ///< empty = memory-only cache; loaded
                                    ///< on construction when set
    /// Write-ahead journal: fsync every put to `<cache_file>.wal` so a
    /// SIGKILL'd process rejoins warm (see ResultCache).  Needs cache_file.
    bool cache_journal = false;
    /// Backoff hint attached to shed ("overloaded") responses.  Used as-is
    /// until the executor has completed at least one compute; after that the
    /// hint scales with backlog depth x observed drain rate (clamped),
    /// so a deep backlog tells clients to wait longer than a shallow one.
    std::uint64_t retry_after_hint_ms = 50;
    /// Fault injector for chaos testing (worker stalls + cache disk
    /// faults).  Not owned; must outlive the executor.  nullptr disables.
    FaultInjector* faults = nullptr;
    /// Compute function; defaults to plan_query with the executor's own
    /// pool passed down (estimate trials then run concurrently).  Tests
    /// inject counters and slow functions here.  The token is the flight's:
    /// armed with the leader's deadline, fired by the last departing
    /// waiter / cancel_trace / cancel_all.  Compute that honors
    /// it either throws CancelledError or returns a document with
    /// "degraded": true (see plan_query); compute that ignores it merely
    /// keeps the pre-cancellation behavior.
    std::function<Json(const Query&, const CancelToken&)> compute;
    /// Admission (netemu::guard), the one gate every new flight passes.
    /// The defaults shed on cost backlog alone; client_share < 1 adds the
    /// per-client fair-share cap.
    guard::Options guard;
  };

  QueryExecutor();  // all-default Options
  explicit QueryExecutor(Options options);
  ~QueryExecutor();

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  /// Blocking: returns when the answer is available, the deadline passes,
  /// or the request is shed.
  Response execute(const Query& q);

  /// Non-blocking fast path: answer `q` only if it is a plain cache hit
  /// (never for refresh=true).  A hit is accounted exactly as execute()
  /// would account it (request + cache-hit counters, spans, latency
  /// histogram); a miss touches no counters and returns nullopt — the
  /// caller then routes the query through execute() on a thread that may
  /// block.  Safe to call concurrently from event-loop shards.
  std::optional<Response> try_cached(const Query& q);

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t computed = 0;        ///< plan_query invocations
    std::uint64_t dedup_joins = 0;     ///< requests that joined a flight
    std::uint64_t rejected = 0;        ///< shed by admission control
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t errors = 0;          ///< compute failures
    std::uint64_t stale_served = 0;    ///< recompute failures served stale
    std::uint64_t cancelled = 0;       ///< computes stopped by cooperative
                                       ///< cancellation (degraded partials
                                       ///< included)
  };
  Stats stats() const;

  /// Fire the CancelSource of the flight carrying this trace id (the
  /// {"op":"cancel"} verb; hedge losers are cancelled this way).  Declined
  /// when the flight has more than one waiter — a dedup-joined flight is
  /// serving other clients.  Returns whether a cancellation was requested.
  bool cancel_trace(std::uint64_t trace_id);

  /// Fire every registered flight's CancelSource (drain).  Returns how many
  /// flights were signalled.
  std::size_t cancel_all();

  /// Enter drain mode: new queries that would start a flight are shed with
  /// an "overloaded" draining error (so fleet front doors fail over), cache
  /// hits and joins of already-running flights still serve.  Irreversible.
  void begin_drain();
  bool draining() const;

  /// Lifetime compute-time distribution (cache hits and shed requests
  /// excluded), read from this executor's scope::Histogram — bounded
  /// relative error (~4.5%), no sample window, no lock on the record path.
  struct ComputeTimes {
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t samples = 0;  ///< lifetime computed-query count
  };
  ComputeTimes compute_times() const;

  /// Flights registered for single-flight joins: queued or running, with
  /// at least one waiter left.
  std::size_t pending() const;
  /// Seconds since construction (for the health report).
  double uptime_seconds() const;

  const Options& options() const { return options_; }

  /// The admission guard (never null).
  const guard::Guard* overload_guard() const { return &guard_; }
  /// Guard pressure (pending admitted cost / cost budget).  >= 1.0
  /// means the admission gate is effectively closed.
  double pressure() const;

  ResultCache& cache() { return cache_; }
  ThreadPool& pool() { return pool_; }
  /// Persist the cache to its file (no-op without one).
  bool save_cache() { return cache_.save(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    Response response;
    std::uint64_t key = 0;          // immutable after creation
    std::uint64_t trace_id = 0;     // leader's trace id (immutable)
    std::uint64_t cost = 0;         // admission cost units (immutable)
    std::string client;             // leader's client identity (immutable)
    // Unregistered and un-charged; guarded by the executor mutex_.
    bool retired = false;
    // Deadline armed at creation (before the compute task exists); fired by
    // the last departing waiter, cancel_trace, or cancel_all.
    CancelSource cancel;
    std::size_t waiters = 0;    // guarded by the executor mutex_
  };

  /// Unregister a flight and return its guard charge, exactly once: the
  /// last waiter leaving at its deadline, the finishing task and the shed
  /// callback may each reach here for the same flight.  Caller holds mutex_.
  void retire_locked(Flight& flight);
  /// Answer a queued-but-never-started flight (drain shed, pool refusal):
  /// retire it and publish an overloaded/draining response to its waiters.
  void shed_unstarted_flight(const std::shared_ptr<Flight>& flight,
                             std::uint64_t key, std::uint64_t tid);

  Options options_;
  ResultCache cache_;
  const Clock::time_point started_ = Clock::now();

  void record_compute_micros(double micros);

  mutable std::mutex mutex_;  // guards flights_, stats_, draining_,
                              // drain_rate_
  std::map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  Stats stats_;
  bool draining_ = false;
  guard::DrainRate drain_rate_;  // feeds dynamic retry_after_ms hints
  guard::Guard guard_;  // the pending-cost ledger; its own lock
  scope::Histogram compute_us_;  // lock-free; written by workers, read by
                                 // compute_times() without mutex_

  // Declared last: the destructor sheds sched_'s queue and drains pool_
  // while cache_ and flights_ are still alive for in-flight tasks to
  // publish into.  sched_ sits between execute() and pool_ and needs the
  // pool at construction, so it follows it.
  ThreadPool pool_;
  guard::FairScheduler sched_;
};

}  // namespace netemu
