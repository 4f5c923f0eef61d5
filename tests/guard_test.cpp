// Tests for netemu::guard overload protection (docs/GUARD.md): the query
// cost model, the backlog drain-rate estimator behind dynamic
// retry_after_ms, the Guard decision box (backlog / fair-share admission,
// bounded client tracking), the weighted-DRR fair scheduler, and the
// executor integration (shed shapes, count-gate parity of the default
// options).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netemu/guard/cost.hpp"
#include "netemu/guard/fair_queue.hpp"
#include "netemu/guard/guard.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/thread_pool.hpp"

using namespace netemu;

namespace {

Query closed_form_query() {
  Query q;
  q.kind = QueryKind::kBandwidth;
  q.n = 1024;
  return q;
}

Query estimate_query(double n, unsigned trials) {
  Query q;
  q.kind = QueryKind::kEstimate;
  q.n = n;
  q.trials = trials;
  q.seed = 1;
  return q;
}

/// Spin until `pred` holds or `ms` elapse; returns whether it held.
template <typename Pred>
bool eventually(Pred pred, std::uint64_t ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

// ----------------------------------------------------------------- cost model

TEST(QueryCost, ClosedFormKindsCostOneUnit) {
  Query q = closed_form_query();
  EXPECT_EQ(guard::query_cost(q), 1u);
  q.kind = QueryKind::kMaxHost;
  EXPECT_EQ(guard::query_cost(q), 1u);
  q.kind = QueryKind::kBounds;
  q.n = 1e7;  // closed-form stays flat in n
  EXPECT_EQ(guard::query_cost(q), 1u);
}

TEST(QueryCost, EstimateScalesWithNodeTrials) {
  // One unit is ~1024 node-trials; cost is the ceiling, never below 1.
  EXPECT_EQ(guard::query_cost(estimate_query(64, 1)), 1u);
  EXPECT_EQ(guard::query_cost(estimate_query(1024, 1)), 1u);
  EXPECT_EQ(guard::query_cost(estimate_query(1024, 8)), 8u);
  EXPECT_EQ(guard::query_cost(estimate_query(10240, 8)), 80u);
  EXPECT_EQ(guard::query_cost(estimate_query(1025, 1)), 2u);  // ceil
  // Deterministic: the same query always costs the same.
  EXPECT_EQ(guard::query_cost(estimate_query(4096, 16)),
            guard::query_cost(estimate_query(4096, 16)));
}

// ----------------------------------------------------------------- drain rate

TEST(DrainRate, FallbackUntilFirstSample) {
  guard::DrainRate rate;
  EXPECT_FALSE(rate.has_samples());
  // A fresh estimator returns the configured constant unchanged — even the
  // clamps stay out of the way (tests pin the constant).
  EXPECT_EQ(rate.hint_ms(1000.0, 50), 50u);
  EXPECT_EQ(rate.hint_ms(0.0, 7), 7u);
}

TEST(DrainRate, HintScalesWithBacklogAndClamps) {
  guard::DrainRate rate;
  // 100 ms of wall time retired 10 units on 1 worker: 10 ms/unit.
  rate.note(100.0, 10, 1);
  ASSERT_TRUE(rate.has_samples());
  EXPECT_DOUBLE_EQ(rate.ms_per_unit(), 10.0);
  EXPECT_EQ(rate.hint_ms(50.0, 40), 500u);  // backlog x rate
  // Near-empty backlog floors at a quarter of the fallback...
  EXPECT_EQ(rate.hint_ms(0.5, 40), 10u);
  // ...and a monster backlog is capped so clients retry this decade.
  EXPECT_EQ(rate.hint_ms(1e9, 40), 10000u);
}

TEST(DrainRate, ParallelWorkersDrainFaster) {
  guard::DrainRate one, four;
  one.note(100.0, 10, 1);
  four.note(100.0, 10, 4);
  EXPECT_DOUBLE_EQ(four.ms_per_unit() * 4.0, one.ms_per_unit());
}

// ------------------------------------------------------------ guard admission

TEST(GuardAdmit, EmptyExecutorAdmitsAnything) {
  guard::Options opts;
  opts.cost_budget = 100;
  guard::Guard guard(opts);

  // The biggest legal estimate must stay servable when nothing competes,
  // even though it alone exceeds the whole budget.
  const guard::Guard::Decision d = guard.admit("a", 500);
  EXPECT_TRUE(d.admit);
  EXPECT_EQ(guard.pending_cost(), 500u);
  EXPECT_GT(guard.pressure(), 1.0);
  guard.release("a", 500);
  EXPECT_EQ(guard.pending_cost(), 0u);
}

TEST(GuardAdmit, BacklogShedsOnceWorkIsPending) {
  guard::Options opts;
  opts.cost_budget = 100;
  guard::Guard guard(opts);

  ASSERT_TRUE(guard.admit("a", 90).admit);
  const guard::Guard::Decision d = guard.admit("b", 20);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "cost budget full");
  EXPECT_EQ(guard.counters().shed_backlog, 1u);
  // The shed charged nothing: completing the admitted flight reopens.
  guard.release("a", 90);
  EXPECT_TRUE(guard.admit("b", 20).admit);
}

TEST(GuardAdmit, FairShareCapsOneClientNotTheOthers) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.client_share = 0.5;  // one client may hold at most 50 units
  guard::Guard guard(opts);

  ASSERT_TRUE(guard.admit("greedy", 40).admit);
  // Second query would put the same client at 80 > 50: shed...
  const guard::Guard::Decision d = guard.admit("greedy", 40);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "client over fair share");
  // ...while another client's identical query fits the global budget.
  EXPECT_TRUE(guard.admit("polite", 40).admit);
  EXPECT_EQ(guard.counters().shed_share, 1u);
  guard.release("greedy", 40);
  guard.release("polite", 40);
}

TEST(GuardAdmit, ReleaseUnchargesWithoutControllerFeedback) {
  guard::Options opts;
  opts.cost_budget = 100;
  guard::Guard guard(opts);
  ASSERT_TRUE(guard.admit("a", 60).admit);
  EXPECT_DOUBLE_EQ(guard.pressure(), 0.6);
  guard.release("a", 60);
  EXPECT_DOUBLE_EQ(guard.pressure(), 0.0);
  EXPECT_EQ(guard.pending_cost(), 0u);
}

TEST(GuardClients, IdleClientsEvictedPastTheCap) {
  guard::Options opts;
  opts.cost_budget = 100;
  guard::Guard guard(opts);

  // One idle client past the cap evicts the least-recently-seen idle one:
  // bounded map.
  const std::size_t clients = guard::Guard::kMaxClients + 1;
  for (std::size_t i = 0; i < clients; ++i) {
    const std::string client = "c" + std::to_string(i);
    ASSERT_TRUE(guard.admit(client, 1).admit) << i;
    guard.release(client, 1);
  }
  EXPECT_EQ(guard::Guard::kMaxClients, 1024u);
  EXPECT_LE(guard.clients_tracked(), guard::Guard::kMaxClients);
}

// --------------------------------------------------------------- health block

TEST(GuardJson, HealthBlockCarriesTheDials) {
  guard::Options opts;
  opts.cost_budget = 100;
  guard::Guard guard(opts);
  ASSERT_TRUE(guard.admit("a", 25).admit);

  const Json doc = guard.to_json();
  EXPECT_EQ(doc["cost_budget"].as_uint(0), 100u);
  EXPECT_EQ(doc["pending_cost"].as_uint(99), 25u);
  EXPECT_DOUBLE_EQ(doc["pressure"].as_number(0.0), 0.25);
  EXPECT_EQ(doc["admitted"].as_uint(0), 1u);
  EXPECT_EQ(doc["clients"].as_uint(0), 1u);
  guard.release("a", 25);
}

// ------------------------------------------------------------- fair scheduler

TEST(FairScheduler, UncontendedSubmitRunsTheTask) {
  ThreadPool pool(1);
  guard::FairScheduler sched(pool, {});
  std::atomic<bool> ran{false};
  EXPECT_TRUE(sched.submit("a", 1, [&] { ran = true; }, nullptr));
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_TRUE(eventually([&] { return sched.running() == 0; }));
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(FairScheduler, DrrInterleavesAFloodWithAMouse) {
  ThreadPool pool(1);
  guard::FairScheduler::Options opts;
  opts.max_concurrent = 1;  // strictly serial: dispatch order is observable
  guard::FairScheduler sched(pool, opts);

  // Park the single worker so every later submit queues.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  sched.submit("warmup", 1,
               [&] {
                 std::unique_lock lock(gate_mutex);
                 gate_cv.wait(lock, [&] { return gate_open; });
               },
               nullptr);

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](const std::string& who) {
    return [&, who] {
      std::lock_guard lock(order_mutex);
      order.push_back(who);
    };
  };
  // The flood enqueues three tasks before the mouse's one arrives.
  for (int i = 0; i < 3; ++i) sched.submit("flood", 1, record("flood"), nullptr);
  sched.submit("mouse", 1, record("mouse"), nullptr);
  EXPECT_EQ(sched.queued(), 4u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(eventually([&] {
    std::lock_guard lock(order_mutex);
    return order.size() == 4;
  }));
  // DRR alternates clients: the mouse's single task runs after at most one
  // flood task, not behind the whole flood (a plain FIFO would run it last).
  std::lock_guard lock(order_mutex);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[1], "mouse") << order[0] << order[1] << order[2];
}

TEST(FairScheduler, ShedQueuedAnswersEveryParkedTask) {
  ThreadPool pool(1);
  guard::FairScheduler::Options opts;
  opts.max_concurrent = 1;
  guard::FairScheduler sched(pool, opts);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  sched.submit("warmup", 1,
               [&] {
                 std::unique_lock lock(gate_mutex);
                 gate_cv.wait(lock, [&] { return gate_open; });
               },
               nullptr);

  std::atomic<int> ran{0}, shed{0};
  for (int i = 0; i < 3; ++i) {
    sched.submit("a", 1, [&] { ++ran; }, [&] { ++shed; });
  }
  EXPECT_EQ(sched.queued(), 3u);
  // Each dropped task answers through its shed callback, exactly once.
  EXPECT_EQ(sched.shed_queued(), 3u);
  EXPECT_EQ(shed.load(), 3);
  EXPECT_EQ(sched.queued(), 0u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  EXPECT_TRUE(eventually([&] { return sched.running() == 0; }));
  EXPECT_EQ(ran.load(), 0);  // run and shed are mutually exclusive
}

TEST(FairScheduler, PoolRefusalRunsTheShedCallback) {
  ThreadPool pool(1);
  pool.shutdown();  // every submit from here on is rejected
  guard::FairScheduler sched(pool, {});
  std::atomic<bool> ran{false}, shed{false};
  sched.submit("a", 1, [&] { ran = true; }, [&] { shed = true; });
  EXPECT_TRUE(shed.load());  // inline, so no wait needed
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(sched.running(), 0u);
}

// ------------------------------------------------------- executor integration

TEST(ExecutorGuard, ShedResponsesCarryOverloadedAndAHint) {
  QueryExecutor::Options options;
  options.threads = 1;
  options.retry_after_hint_ms = 40;
  options.guard.cost_budget = 1;  // one closed-form unit fills the gate
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  options.compute = [&](const Query& q, const CancelToken&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);

  Response first;
  std::thread leader([&] { first = exec.execute(estimate_query(64, 1)); });
  ASSERT_TRUE(eventually([&] { return exec.pending() == 1; }));

  // Distinct query, same 1-unit cost: the budget is full, so it sheds in
  // the overloaded shape with the fallback hint (no drain samples yet).
  const Response shed = exec.execute(estimate_query(65, 1));
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(shed.overloaded);
  EXPECT_NE(shed.error.find("cost budget full"), std::string::npos)
      << shed.error;
  EXPECT_EQ(shed.retry_after_ms, 40u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  leader.join();
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_EQ(exec.stats().rejected, 1u);
}

// ------------------------------------------------------- count-gate parity

TEST(ExecutorGuard, DefaultsShedExactlyLikeTheCountGate) {
  // With unit costs, the default admission config is the old request-count
  // gate: a new flight sheds iff pending >= budget.  A scripted mix of
  // arrivals and completions from two client identities checks that rule
  // at every arrival, and that no share cap ever fires under the
  // defaults.
  for (const std::uint64_t budget : {1u, 3u, 8u}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    QueryExecutor::Options options;
    options.threads = budget;  // every admitted flight runs at once
    options.guard.cost_budget = budget;
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    std::set<double> released;  // n of each flight allowed to finish
    bool release_all = false;
    options.compute = [&](const Query& q, const CancelToken&) {
      std::unique_lock lock(gate_mutex);
      gate_cv.wait(lock,
                   [&] { return release_all || released.count(q.n) > 0; });
      Json doc = Json::object();
      doc["n"] = q.n;
      return doc;
    };
    QueryExecutor exec(options);
    std::vector<std::pair<double, std::future<Response>>> in_flight;
    // Opens every gate on scope exit (after a failed ASSERT too), before
    // the futures above wait for their flights.
    struct Opener {
      std::mutex& m;
      std::condition_variable& cv;
      bool& all;
      ~Opener() {
        {
          std::lock_guard lock(m);
          all = true;
        }
        cv.notify_all();
      }
    } opener{gate_mutex, gate_cv, release_all};

    std::mt19937 script(static_cast<std::mt19937::result_type>(budget));
    std::size_t sheds = 0, admits = 0;
    double next_n = 1000;
    for (int step = 0; step < 60; ++step) {
      if (in_flight.empty() || script() % 3 != 0) {
        Query q = closed_form_query();
        q.n = next_n++;  // distinct: never a dedup join or a cache hit
        q.client = script() % 2 == 0 ? "a" : "b";
        ASSERT_EQ(guard::query_cost(q), 1u);
        const bool parent_sheds = in_flight.size() >= budget;
        const std::uint64_t rejected = exec.stats().rejected;
        auto answer = std::async(std::launch::async,
                                 [&exec, q] { return exec.execute(q); });
        ASSERT_TRUE(eventually([&] {
          return exec.stats().rejected > rejected ||
                 exec.pending() > in_flight.size();
        }));
        const bool shed = exec.stats().rejected > rejected;
        EXPECT_EQ(shed, parent_sheds)
            << "step " << step << ", pending " << in_flight.size();
        if (shed) {
          const Response r = answer.get();
          EXPECT_TRUE(r.overloaded);
          EXPECT_NE(r.error.find("cost budget full"), std::string::npos)
              << r.error;
          ++sheds;
        } else {
          in_flight.emplace_back(q.n, std::move(answer));
          ++admits;
        }
      } else {
        const std::size_t pick = script() % in_flight.size();
        {
          std::lock_guard lock(gate_mutex);
          released.insert(in_flight[pick].first);
        }
        gate_cv.notify_all();
        const Response r = in_flight[pick].second.get();
        EXPECT_TRUE(r.ok) << r.error;
        in_flight.erase(in_flight.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        EXPECT_EQ(exec.pending(), in_flight.size());
      }
    }
    EXPECT_GT(sheds, 0u);
    EXPECT_GT(admits, budget);

    const guard::Guard::Counters c = exec.overload_guard()->counters();
    EXPECT_EQ(c.shed_backlog, sheds);
    EXPECT_EQ(c.shed_share, 0u);
    EXPECT_EQ(exec.stats().rejected, sheds);
  }
}
