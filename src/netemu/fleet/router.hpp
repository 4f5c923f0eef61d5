#pragma once
// FleetRouter: the replicated front door over N netemu_serve backends.
//
//   request(doc)
//     ├─ route: rendezvous-rank the backends on the query's content
//     │         address — the same key the result caches use, so every
//     │         backend sees a stable shard of the key space and its cache
//     │         stays hot (free affinity, no rebalancing on membership
//     │         change)
//     ├─ health: skip backends whose circuit breaker is open; a half-open
//     │          backend gets exactly one in-flight probe; a backend whose
//     │          probed guard pressure is at/above the sink threshold moves
//     │          to the back of the order (prefer lower-pressure peers)
//     ├─ failover: a refused connect, dropped connection, or shed response
//     │            moves to the next hash choice — safe because every query
//     │            op is idempotent (content-addressed results)
//     └─ hedging (optional): if the primary has not answered by the hedge
//        deadline (fixed, or an observed latency percentile), fire the same
//        request at the next choice; first answer wins (hedge.hpp) — tail
//        latency from one slow/stalled backend stops being the fleet's tail
//
// A background probe thread keeps health fresh: it sends {"op":"health"} to
// closed backends (liveness) and to half-open ones (recovery probes), so an
// ejected backend rejoins without waiting for live traffic to test it.
//
// Thread-safe: any number of threads may call request() concurrently.  The
// router keeps a small pool of persistent Client connections per backend.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netemu/fleet/health.hpp"
#include "netemu/fleet/hedge.hpp"
#include "netemu/service/client.hpp"
#include "netemu/util/json.hpp"

namespace netemu {

/// One backend's address.  `id` is its rendezvous identity; leave empty to
/// derive "127.0.0.1:<port>" (stable across restarts of the same port).
struct FleetBackendConfig {
  std::uint16_t port = 0;
  std::string id;
};

class FleetRouter {
 public:
  struct Options {
    std::vector<FleetBackendConfig> backends;
    BackendHealth::Options health;
    /// Per-attempt client policy.  retry_overloaded is forced off: a shed
    /// must surface immediately so the router can fail it over instead of
    /// waiting out the backend's own backoff hint.
    Client::RetryPolicy client;
    /// Probe thread period; 0 disables background probing.
    std::uint64_t probe_interval_ms = 200;
    /// Hedged requests: fire a second attempt when the primary is slower
    /// than the hedge deadline.
    bool hedge = false;
    /// Fixed hedge deadline; 0 = adaptive (latency percentile below).
    std::uint64_t hedge_fixed_ms = 0;
    double hedge_percentile = 0.95;
    /// Overload-aware routing: a backend whose last health probe reported
    /// guard pressure at or above this sinks to the back of its rendezvous
    /// order (still tried — affinity loses to overload, not to liveness).
    /// 0 disables the preference.
    double pressure_sink_threshold = 0.9;
  };

  struct Result {
    bool ok = false;   ///< a response document arrived (check doc["ok"])
    Json doc;          ///< the backend's response document (when ok)
    std::string error; ///< why no backend answered (when !ok)
    std::size_t backend = static_cast<std::size_t>(-1);  ///< responder index
    int backends_tried = 0;
    bool hedged = false;     ///< a hedge was fired for this request
    bool hedge_won = false;  ///< ... and the hedge answered first
    bool cancel_fired = false;  ///< hedge loser sent {"op":"cancel"}
  };

  explicit FleetRouter(Options options);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Route one request document and block for its response.
  ///
  /// Observability: when the document carries a "trace" field, the whole
  /// residency is recorded as a `fleet.route` span (note: responder + tries)
  /// and any hedge as a `fleet.hedge` span (note: won | lost) in this
  /// process's scope::TraceStore; every breaker transition and hedge
  /// outcome additionally lands in the scope flight recorder.
  ///
  /// `exclude_backend` skips one backend entirely (the scatterer's
  /// straggler retry must land somewhere OTHER than the backend presumed
  /// stuck).
  Result request(const Json& request_doc,
                 std::optional<std::size_t> exclude_backend = std::nullopt);

  /// Rendezvous rank of every backend for this document's content address
  /// (exposed for tests and the `fleet` op).
  std::vector<std::size_t> rank_for(const Json& request_doc) const;

  /// A hedge race (hedge.hpp) whose attempt threads stop() joins and whose
  /// losers get a best-effort detached {"op":"cancel","trace":...} — the
  /// router's own hedging and the scatterer's straggler retry both race
  /// through one of these.
  std::shared_ptr<HedgeRace> make_race(HedgeRace::OnLand on_land = {});

  /// Backends currently worth scattering over: circuit breaker closed and
  /// (when the sink threshold is armed) probed guard pressure below it.
  /// The scatterer caps its fan-out here so sub-queries never pile onto
  /// sunk or ejected backends.
  std::size_t available_backends() const;

  /// Send one document to EVERY backend (ignoring breaker state — this is
  /// an admin fan-out for `trace`/`stats` merging, not a routed query) and
  /// collect the responses that arrived.
  struct BroadcastReply {
    std::size_t backend = 0;
    Json doc;
  };
  std::vector<BroadcastReply> broadcast(const Json& request_doc);

  struct BackendStats {
    std::string id;
    std::uint16_t port = 0;
    BackendHealth::State state = BackendHealth::State::kClosed;
    double window_failure_rate = 0.0;
    std::uint64_t requests = 0;   ///< attempts routed at this backend
    std::uint64_t responses = 0;  ///< attempts that returned a document
    std::uint64_t shed = 0;       ///< responses that were overload sheds
    std::uint64_t refused = 0;    ///< connect-refused failures
    std::uint64_t transport_failures = 0;  ///< drops/timeouts (incl. refused)
    std::uint64_t probes = 0;     ///< background health probes sent
    std::uint64_t ejections = 0;  ///< breaker open transitions
    /// Guard pressure from the last health probe (0 until one answers):
    /// pending admitted cost over the backend's cost budget.
    double pressure = 0.0;
  };
  struct Stats {
    std::uint64_t requests = 0;    ///< request() calls
    std::uint64_t answered = 0;    ///< ... that returned a document
    std::uint64_t unanswered = 0;  ///< ... that exhausted every backend
    std::uint64_t failovers = 0;   ///< extra backends tried beyond the first
    std::uint64_t hedges_fired = 0;
    std::uint64_t hedges_won = 0;
    /// {"op":"cancel"} verbs fired at hedge losers the moment the winner's
    /// answer arrived (reclaims the loser's compute; see docs/LIFECYCLE.md).
    std::uint64_t cancels_fired = 0;
    std::vector<BackendStats> backends;
  };
  Stats stats() const;

  /// request() calls currently executing (the fleet daemon's drain polls
  /// this until in-flight proxied work has landed).
  std::size_t inflight() const;

  /// Stop the probe thread and join every race's attempt threads; called by
  /// the destructor.
  void stop();

  const Options& options() const { return options_; }

 private:
  struct Backend {
    FleetBackendConfig config;
    BackendHealth health;
    std::vector<std::unique_ptr<Client>> idle;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t shed = 0;
    std::uint64_t refused = 0;
    std::uint64_t transport_failures = 0;
    std::uint64_t probes = 0;
    /// Guard pressure parsed from the last health-probe response.
    double pressure = 0.0;
    /// Last breaker state seen by note_breaker_locked (event de-dup).
    BackendHealth::State last_state = BackendHealth::State::kClosed;
  };

  std::uint64_t now_ms() const;
  std::uint64_t route_key(const Json& request_doc) const;
  /// One synchronous request at backend `index`, recorded in its health and
  /// counters, and graded for the hedge scoreboard.
  HedgeOutcome attempt(std::size_t index, const Json& request_doc);
  /// Emit a flight-recorder kBreaker event if `b`'s breaker state changed
  /// since last observed.  Caller holds mutex_.
  void note_breaker_locked(Backend& b, std::uint64_t now,
                           std::uint64_t trace_id) const;
  /// Next allowed candidate in `order` strictly after position `pos`
  /// (reserves a half-open probe slot); nullopt when none.
  std::optional<std::size_t> next_allowed(
      const std::vector<std::size_t>& order, std::size_t& pos);
  std::optional<std::uint64_t> hedge_delay_ms() const;
  void record_latency(double ms);
  void probe_loop();

  Options options_;
  std::vector<std::string> ids_;  // rendezvous identities, by index
  const std::chrono::steady_clock::time_point started_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::uint64_t requests_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t unanswered_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t hedges_fired_ = 0;
  std::uint64_t hedges_won_ = 0;
  std::uint64_t cancels_fired_ = 0;
  std::size_t active_requests_ = 0;  ///< request() calls executing now
  std::vector<double> latency_ms_;  // ring buffer
  std::size_t latency_next_ = 0;

  bool stopping_ = false;
  AttemptThreads inflight_;  ///< detached hedge/cancel threads still running
  std::condition_variable probe_cv_;
  std::thread probe_thread_;
};

/// Serialize router stats into a JSON document (the `fleet` op's result).
Json fleet_stats_to_json(const FleetRouter::Stats& stats);

}  // namespace netemu
