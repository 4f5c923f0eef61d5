#include "netemu/service/executor.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "netemu/faultline/injector.hpp"
#include "netemu/guard/cost.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {
using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Process-global views of executor activity (scope registry).  These are
// deliberately separate from the per-executor Stats/Histogram: a process may
// host several executors (tests do), and the registry aggregates them all
// for the `stats` op and Prometheus exposition.
scope::Histogram& compute_us_hist() {
  static scope::Histogram& h = scope::Registry::global().histogram(
      "netemu_compute_us", "Planner compute wall time per computed query");
  return h;
}

scope::Histogram& execute_us_hist() {
  static scope::Histogram& h = scope::Registry::global().histogram(
      "netemu_execute_us",
      "Executor residency per request (hits, sheds, and computes alike)");
  return h;
}

scope::Counter& requests_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_requests_total", "Requests accepted by any executor");
  return c;
}

scope::Counter& cache_hits_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_cache_hits_total", "Requests answered from the result cache");
  return c;
}

scope::Counter& shed_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_shed_total", "Requests shed by admission control");
  return c;
}

scope::Counter& compute_cancelled_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_compute_cancelled_total",
      "Computes stopped mid-way by cooperative cancellation "
      "(degraded partial results included)");
  return c;
}

scope::Counter& reclaimed_cpu_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_compute_reclaimed_cpu_ms_total",
      "Estimated CPU milliseconds returned to the pool by cancelling "
      "compute instead of letting it finish");
  return c;
}
}  // namespace

QueryExecutor::QueryExecutor() : QueryExecutor(Options()) {}

QueryExecutor::QueryExecutor(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_file,
             options_.cache_journal),
      guard_(options_.guard),
      pool_(options_.threads),
      sched_(pool_, guard::FairScheduler::Options{}) {
  if (!options_.compute) {
    // Pass the executor's own pool down so estimate trials run concurrently;
    // measure_throughput's collaborative loop makes that safe even though
    // the compute itself occupies a pool worker.
    options_.compute = [this](const Query& q, const CancelToken& cancel) {
      return plan_query(q, &pool_, cancel);
    };
  }
  if (options_.faults) cache_.set_fault_injector(options_.faults);
  if (!options_.cache_file.empty()) cache_.load();
}

QueryExecutor::~QueryExecutor() {
  // Queued-but-unstarted tasks answer their waiters before the pool goes
  // away; tasks already on a worker drain below.
  sched_.shed_queued();
  // Drain in-flight work first so every accepted computation lands in the
  // cache before it is persisted.
  pool_.shutdown();
  if (!options_.cache_file.empty()) cache_.save();
}

std::optional<Response> QueryExecutor::try_cached(const Query& q) {
  if (q.refresh) return std::nullopt;
  const auto start = Clock::now();
  const std::uint64_t key = q.cache_key();
  const std::uint64_t tid = q.trace_id;
  // Probe before committing to any accounting: a miss must leave every
  // counter untouched so the fallback execute() stays the single
  // authoritative accounting path (get_if_hit leaves misses uncounted for
  // the same reason).
  auto cached = cache_.get_if_hit(key);
  if (!cached) return std::nullopt;

  scope::SpanTimer exec_span(tid, "executor.execute");
  requests_counter().inc();
  {
    scope::SpanTimer probe(tid, "cache.probe");
    probe.set_note("hit");
  }
  cache_hits_counter().inc();
  Response response;
  response.key = key;
  response.trace_id = tid;
  {
    std::lock_guard lock(mutex_);
    ++stats_.requests;
    ++stats_.cache_hits;
  }
  response.ok = true;
  response.cache_hit = true;
  response.result = std::move(*cached);
  response.micros = micros_since(start);
  execute_us_hist().observe(response.micros);
  return response;
}

Response QueryExecutor::execute(const Query& q) {
  const auto start = Clock::now();
  const std::uint64_t key = q.cache_key();
  const std::uint64_t tid = q.trace_id;
  // Whole-residency span; destroyed (and recorded) last, after the waiter
  // has its answer, so it closes every trace's span list.
  scope::SpanTimer exec_span(tid, "executor.execute");
  requests_counter().inc();

  Response response;
  response.key = key;
  response.trace_id = tid;

  const auto finish = [&](Response& r) -> Response& {
    r.micros = micros_since(start);
    execute_us_hist().observe(r.micros);
    return r;
  };

  // refresh=true forces a recompute: skip the cache read but keep every
  // other gate (single-flight, admission, deadline).
  if (!q.refresh) {
    scope::SpanTimer probe(tid, "cache.probe");
    if (auto cached = cache_.get(key)) {
      probe.set_note("hit");
      probe.finish();
      cache_hits_counter().inc();
      std::lock_guard lock(mutex_);
      ++stats_.requests;
      ++stats_.cache_hits;
      response.ok = true;
      response.cache_hit = true;
      response.result = std::move(*cached);
      return finish(response);
    }
    probe.set_note("miss");
    probe.finish();
  }

  // The server deadline is the default and the ceiling: deadline_ms is
  // client input, and it bounds how long an abandoned flight can hold a
  // worker and its guard charge.
  const std::uint64_t deadline_ms =
      q.deadline_ms > 0
          ? std::min(q.deadline_ms, options_.default_deadline_ms)
          : options_.default_deadline_ms;
  const std::uint64_t cost = guard::query_cost(q);
  const std::string client = q.client.empty() ? std::string("anon") : q.client;

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard lock(mutex_);
    ++stats_.requests;
    const auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
      ++flight->waiters;
      ++stats_.dedup_joins;
    } else {
      // A flight for this key may have stored its result and retired since
      // the probe above; it stores before retiring, so this finds it.
      if (!q.refresh) {
        if (auto stored = cache_.get_if_hit(key)) {
          cache_hits_counter().inc();
          ++stats_.cache_hits;
          exec_span.set_note("hit after retire");
          response.ok = true;
          response.cache_hit = true;
          response.result = std::move(*stored);
          return finish(response);
        }
      }
      if (draining_) {
        ++stats_.rejected;
        shed_counter().inc();
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kShed, tid,
            "draining: new flight refused key=" + hex64(key));
        exec_span.set_note("drain-shed");
        // Overloaded-shaped so clients back off and fleet front doors fail
        // over to a backend that is not going away.  No retry hint: this
        // server will not be less drained in retry_after_ms, the caller
        // should go elsewhere.
        response.error = "overloaded: draining";
        response.overloaded = true;
        return finish(response);
      }
      const guard::Guard::Decision decision = guard_.admit(client, cost);
      if (!decision.admit) {
        ++stats_.rejected;
        shed_counter().inc();
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kShed, tid,
            "guard shed (" + decision.reason + "): client=" + client +
                " cost=" + std::to_string(cost) + " key=" + hex64(key));
        exec_span.set_note("shed");
        response.error = "overloaded: " + decision.reason;
        response.overloaded = true;
        // The hint scales with how long the admitted cost takes to drain.
        response.retry_after_ms = drain_rate_.hint_ms(
            static_cast<double>(guard_.pending_cost()),
            options_.retry_after_hint_ms);
        return finish(response);
      }
      flight = std::make_shared<Flight>();
      flight->key = key;
      flight->trace_id = tid;
      flight->cost = cost;
      flight->client = client;
      flight->waiters = 1;
      // Arm the compute deadline now, before the task is submitted and the
      // token can be checked concurrently (CancelSource's arm contract).
      flight->cancel.set_deadline_after_ms(deadline_ms);
      flights_[key] = flight;
      leader = true;
    }
  }
  if (!leader && tid != 0) {
    scope::TraceStore::global().add(
        tid, scope::Span{"flight.join", scope::now_us(), 0,
                         "leader key=" + hex64(key)});
  }

  if (leader) {
    const Query task_query = q;
    const std::uint64_t submit_us = scope::now_us();
    std::function<void()> task = [this, task_query, key, tid, submit_us,
                                  flight] {
      if (tid != 0) {
        // Admission-to-pickup latency: starts at submit, ends now that a
        // worker owns the task.
        scope::TraceStore::global().add(
            tid, scope::Span{"queue.wait", submit_us,
                             scope::now_us() - submit_us, ""});
      }
      if (options_.faults) options_.faults->on_compute();
      Response computed;
      computed.key = key;
      computed.trace_id = tid;
      const CancelToken token = flight->cancel.token();
      bool unwound = false;  // compute threw CancelledError (no result)
      Json doc;
      const auto compute_start = Clock::now();
      scope::SpanTimer sim_span(tid, "sim.run");
      try {
        // A token that fired while the task was queued (deadline passed,
        // last waiter gone, cancel op): skip the compute instead of
        // starting it only to unwind.
        token.check();
        doc = options_.compute(task_query, token);
        computed.result = doc.dump();
        computed.ok = true;
        computed.degraded = doc["degraded"].as_bool(false);
      } catch (const CancelledError& e) {
        computed.error = std::string("cancelled: ") + e.what();
        unwound = true;
      } catch (const std::exception& e) {
        computed.error = e.what();
      } catch (...) {
        computed.error = "unknown planner failure";
      }
      if (!computed.ok) sim_span.set_note(unwound ? "cancelled" : "error");
      else if (computed.degraded) sim_span.set_note("degraded");
      sim_span.finish();
      const double compute_micros = micros_since(compute_start);
      record_compute_micros(compute_micros);
      if (unwound || computed.degraded) {
        // Reclaimed-CPU estimate: a degraded sweep that finished c of T
        // trials in E ms would have needed roughly E*(T-c)/c more; a full
        // unwind reclaims "the rest of something we know nothing about" —
        // credit the elapsed time as the scale of what was avoided.
        const double elapsed_ms = compute_micros / 1000.0;
        double reclaimed_ms = elapsed_ms;
        if (computed.degraded) {
          // A trial-range shard's sweep is its range width, not the full
          // request's trial count (docs/SCATTER.md).
          double total = doc["trials"].as_number(0.0);
          if (doc.contains("trial_hi")) {
            total = doc["trial_hi"].as_number(0.0) -
                    doc["trial_lo"].as_number(0.0);
          }
          const double done_trials =
              doc["trials_completed"].as_number(0.0);
          reclaimed_ms = elapsed_ms * (total - done_trials) /
                         std::max(done_trials, 1.0);
        }
        compute_cancelled_counter().inc();
        reclaimed_cpu_counter().add(
            static_cast<std::uint64_t>(std::max(0.0, reclaimed_ms)));
        if (tid != 0) {
          scope::TraceStore::global().add(
              tid, scope::Span{"sim.cancel", scope::now_us(), 0,
                               unwound ? "unwound"
                                       : "degraded " +
                                             doc["trials_completed"].dump() +
                                             "/" + doc["trials"].dump() +
                                             " trials"});
        }
      }
      // A failed recompute falls back to the previous cached value so a
      // transient planner fault degrades to slightly-stale instead of down.
      if (!computed.ok) {
        if (auto stale = cache_.get(key)) {
          computed.ok = true;
          computed.stale = true;
          computed.error.clear();
          computed.result = std::move(*stale);
        }
      }
      // Errors are not cached: a transient failure should not poison the
      // content address forever.  (Stale fallbacks are already in cache.)
      // Degraded partials are not cached either — they answer the deadline
      // that produced them, but the content address promises the full sweep.
      // The result is stored before the flight retires, so a request for
      // this key always finds one or the other (execute re-probes the cache
      // under mutex_ when it finds no flight).
      if (computed.ok && !computed.stale && !computed.degraded) {
        scope::SpanTimer persist(
            tid, options_.cache_journal ? "wal.append" : "cache.put");
        cache_.put(key, computed.result);
      }
      {
        std::lock_guard lock(mutex_);
        if (unwound || computed.degraded) ++stats_.cancelled;
        if (computed.stale) {
          ++stats_.errors;
          ++stats_.stale_served;
        } else if (computed.ok) {
          ++stats_.computed;
        } else {
          ++stats_.errors;
        }
        // Drain-rate sample: only full, uncancelled computes — a sweep that
        // quit early would make the per-unit estimate optimistic.
        if (computed.ok && !computed.stale && !computed.degraded) {
          drain_rate_.note(compute_micros / 1000.0, flight->cost,
                           pool_.size());
        }
        // No-op when the last waiter already abandoned this flight.
        retire_locked(*flight);
      }
      {
        std::lock_guard flight_lock(flight->mutex);
        flight->response = std::move(computed);
        flight->done = true;
      }
      flight->cv.notify_all();
    };
    // The fair scheduler owns dispatch order (DRR across clients).  If the
    // task is shed before it starts (drain, shutdown), the flight's
    // waiters — this leader included — get an overloaded response through
    // the shed callback and the wait below returns.
    sched_.submit(flight->client, cost, std::move(task),
                  [this, flight, key, tid] {
                    shed_unstarted_flight(flight, key, tid);
                  });
  }

  // Waiters linger a short grace past the deadline: the compute token fires
  // AT the deadline and a cooperative compute then needs up to one check
  // quantum plus publish time to hand back a degraded partial result —
  // without the grace the waiter would walk away moments before the partial
  // answer it paid for arrives.
  const auto grace = std::chrono::milliseconds(
      std::clamp<std::uint64_t>(deadline_ms / 8, 10, 250));
  {
    std::unique_lock flight_lock(flight->mutex);
    const bool done = flight->cv.wait_for(
        flight_lock, std::chrono::milliseconds(deadline_ms) + grace,
        [&flight] { return flight->done; });
    if (!done) {
      flight_lock.unlock();
      bool last_waiter = false;
      {
        std::lock_guard lock(mutex_);
        ++stats_.deadline_exceeded;
        if (flight->waiters > 0) --flight->waiters;
        last_waiter = flight->waiters == 0;
        // Nobody is listening for this answer any more: return the charge
        // now, even if the task is still queued behind other work.
        if (last_waiter) retire_locked(*flight);
      }
      if (last_waiter) {
        // ...and stop paying for the compute, running or not yet started.
        flight->cancel.request_cancel();
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kInfo, tid,
            "last waiter left: cancelling flight key=" + hex64(key));
      }
      response.error = "deadline exceeded after " +
                       std::to_string(deadline_ms) + " ms";
      exec_span.set_note("deadline");
      return finish(response);
    }
    response = flight->response;
  }
  {
    std::lock_guard lock(mutex_);
    if (flight->waiters > 0) --flight->waiters;
  }
  response.key = key;
  response.trace_id = tid;  // a follower's response keeps its own trace id
  return finish(response);
}

QueryExecutor::Stats QueryExecutor::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

bool QueryExecutor::cancel_trace(std::uint64_t trace_id) {
  if (trace_id == 0) return false;
  std::shared_ptr<Flight> target;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [key, flight] : flights_) {
      if (flight->trace_id != trace_id) continue;
      // A dedup-joined flight is serving other clients; the canceller only
      // speaks for its own request, so leave shared work alone.
      if (flight->waiters > 1) return false;
      target = flight;
      break;
    }
  }
  if (!target) return false;
  target->cancel.request_cancel();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kInfo, trace_id,
      "cancel op: flight key=" + hex64(target->key) + " cancelled");
  return true;
}

std::size_t QueryExecutor::cancel_all() {
  std::vector<std::shared_ptr<Flight>> flights;
  {
    std::lock_guard lock(mutex_);
    flights.reserve(flights_.size());
    for (const auto& [key, flight] : flights_) flights.push_back(flight);
  }
  for (const auto& flight : flights) flight->cancel.request_cancel();
  return flights.size();
}

void QueryExecutor::shed_unstarted_flight(
    const std::shared_ptr<Flight>& flight, std::uint64_t key,
    std::uint64_t tid) {
  bool was_draining = false;
  {
    std::lock_guard lock(mutex_);
    was_draining = draining_;
    retire_locked(*flight);
    ++stats_.rejected;
  }
  shed_counter().inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kShed, tid,
      "queued flight shed before start key=" + hex64(key));
  {
    std::lock_guard flight_lock(flight->mutex);
    flight->response.ok = false;
    flight->response.overloaded = true;
    // Draining sheds carry no retry hint — this server is going away;
    // the caller should fail over, not wait.
    flight->response.error =
        was_draining ? "overloaded: draining" : "executor shutting down";
    flight->done = true;
  }
  flight->cv.notify_all();
}

void QueryExecutor::begin_drain() {
  {
    std::lock_guard lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  // Queued-but-unstarted flights answer "draining" now instead of running:
  // drain exists to finish what is running, not to start new work.
  sched_.shed_queued();
  scope::FlightRecorder::global().record(scope::FlightRecorder::Kind::kInfo,
                                         0, "executor draining");
}

bool QueryExecutor::draining() const {
  std::lock_guard lock(mutex_);
  return draining_;
}

void QueryExecutor::record_compute_micros(double micros) {
  compute_us_.observe(micros);       // this executor's view (health op)
  compute_us_hist().observe(micros);  // process-wide view (stats op)
}

QueryExecutor::ComputeTimes QueryExecutor::compute_times() const {
  const scope::Histogram::Snapshot snap = compute_us_.snapshot();
  ComputeTimes t;
  t.samples = snap.count;
  t.p50_us = snap.quantile(0.50);
  t.p95_us = snap.quantile(0.95);
  t.p99_us = snap.quantile(0.99);
  return t;
}

void QueryExecutor::retire_locked(Flight& flight) {
  if (flight.retired) return;
  flight.retired = true;
  // Only retire_locked unregisters, so an unretired flight still owns its
  // key's slot in flights_.
  flights_.erase(flight.key);
  guard_.release(flight.client, flight.cost);
}

double QueryExecutor::pressure() const { return guard_.pressure(); }

std::size_t QueryExecutor::pending() const {
  std::lock_guard lock(mutex_);
  return flights_.size();
}

double QueryExecutor::uptime_seconds() const {
  return std::chrono::duration<double>(Clock::now() - started_).count();
}

}  // namespace netemu
