#include "netemu/fleet/router.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "netemu/fleet/rendezvous.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {

// The trace id a request document carries (0 = untraced).  The fleet reads
// it for its own spans/events and forwards the document untouched.
std::uint64_t doc_trace_id(const Json& request_doc) {
  return scope::parse_trace_id(request_doc["trace"].as_string());
}

scope::Counter& hedges_fired_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_fleet_hedges_fired_total", "Hedge attempts fired by the fleet");
  return c;
}

scope::Counter& hedges_won_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_fleet_hedges_won_total", "Hedge attempts that answered first");
  return c;
}

scope::Counter& breaker_transitions_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_fleet_breaker_transitions_total",
      "Circuit-breaker state transitions observed by the fleet");
  return c;
}

scope::Counter& cancels_fired_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_fleet_cancels_fired_total",
      "Cancel verbs fired at hedge losers after a winner answered");
  return c;
}

// Fixed tuning (no deployment has needed to set these).
constexpr std::size_t kHedgeMinSamples = 16;      // adaptive hedging off below
constexpr std::uint64_t kHedgeMinDelayMs = 2;     // clamp on the adaptive
constexpr std::uint64_t kHedgeMaxDelayMs = 1000;  //   hedge deadline
constexpr std::size_t kLatencyWindow = 256;       // samples for the percentile
constexpr std::size_t kPoolPerBackend = 8;        // idle connections kept

}  // namespace

FleetRouter::FleetRouter(Options options)
    : options_(std::move(options)),
      started_(std::chrono::steady_clock::now()) {
  // Sheds must surface to the router (which fails them over) instead of
  // being absorbed by the client's own retry_after sleep.
  options_.client.retry_overloaded = false;
  for (auto& cfg : options_.backends) {
    if (cfg.id.empty()) cfg.id = "127.0.0.1:" + std::to_string(cfg.port);
    auto b = std::make_unique<Backend>();
    b->config = cfg;
    b->health = BackendHealth(options_.health);
    ids_.push_back(cfg.id);
    backends_.push_back(std::move(b));
  }
  if (options_.probe_interval_ms > 0 && !backends_.empty()) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
}

FleetRouter::~FleetRouter() { stop(); }

void FleetRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  inflight_.stop();
}

std::uint64_t FleetRouter::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

std::uint64_t FleetRouter::route_key(const Json& request_doc) const {
  // Route on the same content address the backend caches key on, so a key's
  // repeats land on the backend whose cache already holds its result.  Ops
  // that are not queries (stats, health, ...) hash their canonical dump.
  std::string error;
  if (auto q = query_from_json(request_doc, &error)) return q->cache_key();
  return fnv1a64(request_doc.dump());
}

std::vector<std::size_t> FleetRouter::rank_for(const Json& request_doc) const {
  return rendezvous_rank(route_key(request_doc), ids_);
}

std::vector<FleetRouter::BroadcastReply> FleetRouter::broadcast(
    const Json& request_doc) {
  std::vector<BroadcastReply> replies;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    HedgeOutcome a = attempt(i, request_doc);
    if (a.grade != HedgeGrade::kFailed) {
      replies.push_back(BroadcastReply{i, std::move(a.doc)});
    }
  }
  return replies;
}

std::optional<std::size_t> FleetRouter::next_allowed(
    const std::vector<std::size_t>& order, std::size_t& pos) {
  // Caller holds mutex_.  allow() is called here — immediately before the
  // attempt — so a half-open probe slot is only reserved for a backend that
  // will actually be tried.
  const std::uint64_t now = now_ms();
  while (pos < order.size()) {
    const std::size_t index = order[pos++];
    const bool allowed = backends_[index]->health.allow(now);
    // allow() may have lazily moved an expired-open breaker to half-open.
    note_breaker_locked(*backends_[index], now, 0);
    if (allowed) return index;
  }
  return std::nullopt;
}

HedgeOutcome FleetRouter::attempt(std::size_t index,
                                  const Json& request_doc) {
  std::unique_ptr<Client> client;
  std::uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Backend& b = *backends_[index];
    ++b.requests;
    port = b.config.port;
    if (!b.idle.empty()) {
      client = std::move(b.idle.back());
      b.idle.pop_back();
    }
  }
  if (!client) {
    client = std::make_unique<Client>(options_.client);
    client->set_target(port);
  }

  Client::RequestOutcome outcome = client->request_outcome(request_doc);
  HedgeOutcome a;
  a.backend = index;
  std::lock_guard<std::mutex> lock(mutex_);
  Backend& b = *backends_[index];
  const std::uint64_t now = now_ms();
  if (outcome.doc) {
    const bool shed = outcome.failure == RequestFailure::kOverloaded;
    ++b.responses;
    if (shed) ++b.shed;
    // Any document — even a shed or a server-side error — proves the
    // transport and the process are alive.
    b.health.record_success(now);
    a.grade = shed ? HedgeGrade::kShed : HedgeGrade::kAnswer;
    a.doc = std::move(*outcome.doc);
  } else {
    ++b.transport_failures;
    if (outcome.failure == RequestFailure::kConnectRefused) ++b.refused;
    b.health.record_failure(now);
    a.error = outcome.error.empty() ? request_failure_name(outcome.failure)
                                    : outcome.error;
  }
  note_breaker_locked(b, now, doc_trace_id(request_doc));
  if (client->connected() && !stopping_ && b.idle.size() < kPoolPerBackend) {
    b.idle.push_back(std::move(client));
  }
  return a;
}

void FleetRouter::note_breaker_locked(Backend& b, std::uint64_t now,
                                      std::uint64_t trace_id) const {
  const BackendHealth::State s = b.health.state(now);
  if (s == b.last_state) return;
  breaker_transitions_counter().inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kBreaker, trace_id,
      "backend " + b.config.id + ": " +
          BackendHealth::state_name(b.last_state) + " -> " +
          BackendHealth::state_name(s));
  b.last_state = s;
}

std::optional<std::uint64_t> FleetRouter::hedge_delay_ms() const {
  if (!options_.hedge) return std::nullopt;
  if (options_.hedge_fixed_ms > 0) return options_.hedge_fixed_ms;
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (latency_ms_.size() < kHedgeMinSamples) return std::nullopt;
    window = latency_ms_;
  }
  std::size_t rank = static_cast<std::size_t>(
      options_.hedge_percentile * static_cast<double>(window.size() - 1));
  rank = std::min(rank, window.size() - 1);
  std::nth_element(window.begin(), window.begin() + static_cast<long>(rank),
                   window.end());
  const auto delay = static_cast<std::uint64_t>(std::ceil(window[rank]));
  return std::clamp(delay, kHedgeMinDelayMs, kHedgeMaxDelayMs);
}

void FleetRouter::record_latency(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (latency_ms_.size() < kLatencyWindow) {
    latency_ms_.push_back(ms);
  } else {
    latency_ms_[latency_next_] = ms;
  }
  latency_next_ = (latency_next_ + 1) % kLatencyWindow;
}

std::shared_ptr<HedgeRace> FleetRouter::make_race(HedgeRace::OnLand on_land) {
  const auto cancel = [this](std::size_t index, std::uint64_t trace_id) {
    if (index >= backends_.size() || trace_id == 0) return;
    Json verb = Json::object();
    verb["op"] = "cancel";
    verb["trace"] = hex64(trace_id);
    // Detached and best-effort: the winner's answer is already on its way
    // back, so nothing waits on this.  If the loser's query never started
    // (or already finished) the backend just answers {"cancelled":false}.
    if (!inflight_.spawn([this, index, verb] { attempt(index, verb); })) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++cancels_fired_;
    }
    cancels_fired_counter().inc();
    scope::FlightRecorder::global().record(
        scope::FlightRecorder::Kind::kHedge, trace_id,
        "cancel fired at loser " + ids_[index]);
  };
  return std::make_shared<HedgeRace>(inflight_, cancel, std::move(on_land));
}

std::size_t FleetRouter::available_backends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t now = now_ms();
  std::size_t available = 0;
  for (const auto& bp : backends_) {
    Backend& b = *bp;
    if (b.health.state(now) != BackendHealth::State::kClosed) continue;
    if (options_.pressure_sink_threshold > 0.0 &&
        b.pressure >= options_.pressure_sink_threshold) {
      continue;
    }
    ++available;
  }
  return available;
}

FleetRouter::Result FleetRouter::request(
    const Json& request_doc, std::optional<std::size_t> exclude_backend) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t tid = doc_trace_id(request_doc);
  scope::SpanTimer route_span(tid, "fleet.route");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
    ++active_requests_;
  }
  // Balanced on every exit path (the fleet daemon's drain polls inflight()).
  struct ActiveGuard {
    FleetRouter* router;
    ~ActiveGuard() {
      std::lock_guard<std::mutex> lock(router->mutex_);
      --router->active_requests_;
    }
  } active_guard{this};

  std::vector<std::size_t> order =
      rendezvous_rank(route_key(request_doc), ids_);
  if (exclude_backend) {
    order.erase(std::remove(order.begin(), order.end(), *exclude_backend),
                order.end());
  }
  if (options_.pressure_sink_threshold > 0.0) {
    // Overload preference: backends whose last probe reported pressure at or
    // above the threshold sink to the back of the rendezvous order.  A
    // stable partition keeps the affinity ranking within each group, and a
    // sunk backend is still a candidate — under fleet-wide overload the
    // request degrades to the old behaviour instead of failing outright.
    std::lock_guard<std::mutex> lock(mutex_);
    std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
      return backends_[i]->pressure < options_.pressure_sink_threshold;
    });
  }

  Result out;
  std::string last_error;
  HedgeOutcome last_shed;  // returned if every candidate sheds
  std::size_t pos = 0;

  const auto finish_answered = [&](HedgeOutcome&& a) {
    out.ok = true;
    out.doc = std::move(a.doc);
    out.backend = a.backend;
    route_span.set_note("backend=" + ids_[a.backend] + " tried=" +
                        std::to_string(out.backends_tried));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (a.grade == HedgeGrade::kAnswer) record_latency(elapsed_ms);
    std::lock_guard<std::mutex> lock(mutex_);
    ++answered_;
    if (out.backends_tried > 1) {
      failovers_ += static_cast<std::uint64_t>(out.backends_tried - 1);
    }
  };

  while (true) {
    std::optional<std::size_t> primary;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      primary = next_allowed(order, pos);
    }
    if (!primary) break;
    ++out.backends_tried;

    const std::optional<std::uint64_t> delay = hedge_delay_ms();
    HedgeOutcome a;
    if (delay) {
      // Hedging wants a trace id even for untraced callers: the cancel verb
      // that reclaims the losing backend's compute is keyed by it.
      const std::uint64_t hedge_tid = tid != 0 ? tid : scope::mint_trace_id();
      const Json hedge_doc =
          tid != 0 ? request_doc
                   : attempt_doc(request_doc, {{"trace", hex64(hedge_tid)}});
      const auto at = [this, &hedge_doc](std::size_t index) {
        return [this, index, doc = hedge_doc] { return attempt(index, doc); };
      };
      const std::shared_ptr<HedgeRace> race = make_race();
      race->launch(*primary, hedge_tid, at(*primary));
      std::uint64_t hedge_fired_us = 0;
      if (!race->wait_for(std::chrono::milliseconds(*delay))) {
        // Primary is slow: fire the hedge at the next allowed choice.
        std::optional<std::size_t> secondary;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          secondary = next_allowed(order, pos);
          if (secondary) ++hedges_fired_;
        }
        if (secondary) {
          out.hedged = true;
          ++out.backends_tried;
          hedge_fired_us = scope::now_us();
          hedges_fired_counter().inc();
          scope::FlightRecorder::global().record(
              scope::FlightRecorder::Kind::kHedge, tid,
              "fired at " + ids_[*secondary] + " (primary " +
                  ids_[*primary] + " slower than " +
                  std::to_string(*delay) + " ms)");
          race->launch(*secondary, hedge_tid, at(*secondary));
        }
      }
      HedgeRace::Result settled = race->take();
      a = std::move(settled.outcome);
      out.hedge_won = settled.winner == 1u;  // slot 1: the hedge
      out.cancel_fired = settled.cancel_fired;
      if (out.hedge_won) {
        hedges_won_counter().inc();
        std::lock_guard<std::mutex> lock(mutex_);
        ++hedges_won_;
      }
      if (out.hedged) {
        const char* outcome = out.hedge_won ? "won" : "lost";
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kHedge, tid,
            std::string(outcome) + " (responder " +
                (a.backend < ids_.size() ? ids_[a.backend] : "none") + ")");
        if (tid != 0) {
          scope::TraceStore::global().add(
              tid, scope::Span{"fleet.hedge", hedge_fired_us,
                               scope::now_us() - hedge_fired_us, outcome});
        }
      }
    } else {
      a = attempt(*primary, request_doc);
    }

    if (a.grade == HedgeGrade::kAnswer) {
      finish_answered(std::move(a));
      return out;
    }
    if (a.grade == HedgeGrade::kShed) {
      last_shed = std::move(a);
      last_error = "all candidates shed";
    } else {
      last_error = ids_[a.backend] + ": " + a.error;
    }
    // Transport failure or shed: fail over to the next rendezvous choice.
  }

  if (last_shed.grade == HedgeGrade::kShed) {
    // Every live candidate shed: surface the shed document (it carries the
    // backend's retry_after hint) rather than inventing an error.
    finish_answered(std::move(last_shed));
    return out;
  }

  out.error = out.backends_tried == 0
                  ? "no backend available (all circuit breakers open)"
                  : "no backend answered; last: " + last_error;
  route_span.set_note("unanswered tried=" +
                      std::to_string(out.backends_tried));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++unanswered_;
    if (out.backends_tried > 1) {
      failovers_ += static_cast<std::uint64_t>(out.backends_tried - 1);
    }
  }
  return out;
}

void FleetRouter::probe_loop() {
  Json probe = Json::object();
  probe["op"] = "health";

  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.probe_interval_ms),
                       [this] { return stopping_; });
    if (stopping_) return;
    std::vector<std::size_t> targets;
    const std::uint64_t now = now_ms();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = *backends_[i];
      switch (b.health.state(now)) {
        case BackendHealth::State::kClosed:
          // Liveness probe: detect a dead backend before live traffic does.
          targets.push_back(i);
          break;
        case BackendHealth::State::kHalfOpen:
          // Recovery probe; allow() reserves the single half-open slot.
          if (b.health.allow(now)) targets.push_back(i);
          break;
        case BackendHealth::State::kOpen:
          break;
      }
    }
    for (std::size_t i : targets) ++backends_[i]->probes;
    lock.unlock();
    // Health answers double as pressure reports: the backend's guard
    // pressure rides in result.pressure and feeds the router's
    // prefer-lower-pressure ordering.
    std::vector<std::pair<std::size_t, double>> pressures;
    for (std::size_t i : targets) {
      const HedgeOutcome a = attempt(i, probe);
      if (a.doc["ok"].as_bool()) {
        const Json& p = a.doc["result"]["pressure"];
        if (p.is_number()) pressures.emplace_back(i, p.as_number());
      }
    }
    lock.lock();
    for (const auto& [i, p] : pressures) backends_[i]->pressure = p;
  }
}

std::size_t FleetRouter::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_requests_;
}

FleetRouter::Stats FleetRouter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.requests = requests_;
  s.answered = answered_;
  s.unanswered = unanswered_;
  s.failovers = failovers_;
  s.hedges_fired = hedges_fired_;
  s.hedges_won = hedges_won_;
  s.cancels_fired = cancels_fired_;
  const std::uint64_t now = now_ms();
  for (const auto& bp : backends_) {
    Backend& b = *bp;  // unique_ptr does not propagate const to the pointee
    BackendStats bs;
    bs.id = b.config.id;
    bs.port = b.config.port;
    bs.state = b.health.state(now);
    bs.window_failure_rate = b.health.window_failure_rate();
    bs.requests = b.requests;
    bs.responses = b.responses;
    bs.shed = b.shed;
    bs.refused = b.refused;
    bs.transport_failures = b.transport_failures;
    bs.probes = b.probes;
    bs.ejections = b.health.ejections();
    bs.pressure = b.pressure;
    s.backends.push_back(std::move(bs));
  }
  return s;
}

Json fleet_stats_to_json(const FleetRouter::Stats& stats) {
  Json doc = Json::object();
  doc["requests"] = stats.requests;
  doc["answered"] = stats.answered;
  doc["unanswered"] = stats.unanswered;
  doc["failovers"] = stats.failovers;
  doc["hedges_fired"] = stats.hedges_fired;
  doc["hedges_won"] = stats.hedges_won;
  doc["cancels_fired"] = stats.cancels_fired;
  Json backends = Json::array();
  for (const auto& b : stats.backends) {
    Json e = Json::object();
    e["id"] = b.id;
    e["port"] = static_cast<std::uint64_t>(b.port);
    e["state"] = BackendHealth::state_name(b.state);
    e["window_failure_rate"] = b.window_failure_rate;
    e["requests"] = b.requests;
    e["responses"] = b.responses;
    e["shed"] = b.shed;
    e["refused"] = b.refused;
    e["transport_failures"] = b.transport_failures;
    e["probes"] = b.probes;
    e["ejections"] = b.ejections;
    e["pressure"] = b.pressure;
    backends.items().push_back(std::move(e));
  }
  doc["backends"] = std::move(backends);
  return doc;
}

}  // namespace netemu
