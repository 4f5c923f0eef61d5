// Unit tests for the util subsystem: prng, math, stats, thread pool, table,
// cli.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "netemu/util/cli.hpp"
#include "netemu/util/math.hpp"
#include "netemu/util/prng.hpp"
#include "netemu/util/stats.hpp"
#include "netemu/util/table.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Prng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Prng, BelowIsInRangeAndCoversAll) {
  Prng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Prng, BelowIsApproximatelyUniform) {
  Prng rng(11);
  constexpr int kBuckets = 10, kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Prng, UniformInUnitInterval) {
  Prng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Prng, RangeInclusive) {
  Prng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Prng, SplitStreamsAreIndependent) {
  Prng a(9);
  Prng b = a.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Prng, ShufflePreservesMultiset) {
  Prng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Math, Ilog2) {
  EXPECT_EQ(ilog2(1), 0u);
  EXPECT_EQ(ilog2(2), 1u);
  EXPECT_EQ(ilog2(3), 1u);
  EXPECT_EQ(ilog2(1024), 10u);
  EXPECT_EQ(ilog2(1025), 10u);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(63));
}

TEST(Math, Ipow) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(3, 4), 81u);
  EXPECT_EQ(ipow(7, 0), 1u);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 8), 1u);
}

TEST(Math, LgClamped) {
  EXPECT_DOUBLE_EQ(lg_clamped(1.0), 1.0);
  EXPECT_DOUBLE_EQ(lg_clamped(2.0), 1.0);
  EXPECT_DOUBLE_EQ(lg_clamped(8.0), 3.0);
}

TEST(Math, BitReverse) {
  EXPECT_EQ(bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(bit_reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bit_reverse(0b1011, 4), 0b1101u);
}

TEST(Math, RotlRotrBitsAreInverse) {
  for (unsigned bits = 2; bits <= 8; ++bits) {
    for (std::uint64_t x = 0; x < ipow(2, bits); ++x) {
      EXPECT_EQ(rotr_bits(rotl_bits(x, bits), bits), x);
    }
  }
}

TEST(Stats, Summarize) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> ns, ys;
  for (double n = 16; n <= 4096; n *= 2) {
    ns.push_back(n);
    ys.push_back(5.0 * std::pow(n, 0.75));
  }
  const PowerFit f = fit_power(ns, ys);
  EXPECT_NEAR(f.exponent, 0.75, 1e-9);
  EXPECT_NEAR(f.lg_coeff, std::log2(5.0), 1e-9);
}

TEST(Stats, PowerFitWithLogDividesOutLogFactor) {
  std::vector<double> ns, ys;
  for (double n = 16; n <= 65536; n *= 2) {
    ns.push_back(n);
    ys.push_back(std::pow(n, 0.5) * std::log2(n));
  }
  const PowerFit raw = fit_power(ns, ys);
  const PowerFit adj = fit_power_with_log(ns, ys, 1.0);
  EXPECT_GT(raw.exponent, 0.55);      // log factor inflates the raw slope
  EXPECT_NEAR(adj.exponent, 0.5, 1e-6);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean(std::vector<double>{1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean(std::vector<double>{2, 2, 2}), 2.0, 1e-12);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DestructionDrainsQueuedTasks) {
  // Regression: the daemon path destroys pools that still hold queued work.
  // Every accepted task must run before join — none dropped, none leaked.
  auto ran = std::make_shared<std::atomic<int>>(0);
  int accepted = 0;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      if (pool.submit([ran] { ran->fetch_add(1); })) ++accepted;
    }
    // Destroy immediately: most tasks are still queued.
  }
  EXPECT_EQ(accepted, 200);
  EXPECT_EQ(ran->load(), 200);
}

TEST(ThreadPool, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  pool.shutdown();
  bool ran = false;
  EXPECT_FALSE(pool.submit([&ran] { ran = true; }));
  EXPECT_FALSE(ran);
  pool.shutdown();  // idempotent
}

TEST(ThreadPool, ParallelForWorksAfterShutdown) {
  // A shut-down pool degrades parallel_for to the calling thread rather
  // than silently skipping the range.
  ThreadPool pool(2);
  pool.shutdown();
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

// for_n's contract (thread_pool.hpp): the caller runs index 0 itself,
// exceptions surface only once every claimed index is done, and a call from
// inside a pool task never waits on a worker.

TEST(ThreadPool, ForNRunsIndexZeroOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 200; ++round) {
    std::thread::id zero_ran_on;
    std::vector<std::atomic<int>> hits(8);
    pool.for_n(hits.size(), [&](std::size_t i) {
      if (i == 0) zero_ran_on = std::this_thread::get_id();
      hits[i].fetch_add(1);
    });
    ASSERT_EQ(zero_ran_on, caller) << "round " << round;
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ForNRethrowsIndexZeroAfterEveryClaimedIndex) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 12;
  std::atomic<int> started{0}, finished{0};
  EXPECT_THROW(
      pool.for_n(kCount,
                 [&](std::size_t i) {
                   if (i == 0) {
                     // Throw only once another index is under way (or, on a
                     // pool that could not start a helper, straight away).
                     const auto give_up = std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(200);
                     while (started.load() == 0 &&
                            std::chrono::steady_clock::now() < give_up) {
                       std::this_thread::yield();
                     }
                     throw std::runtime_error("index 0");
                   }
                   started.fetch_add(1);
                   std::this_thread::sleep_for(std::chrono::milliseconds(5));
                   finished.fetch_add(1);
                 }),
      std::runtime_error);
  // Nothing is still running once for_n throws, and the loop went on to
  // cover every other index.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_EQ(finished.load(), static_cast<int>(kCount - 1));
}

TEST(ThreadPool, NestedForNCompletesWithEveryWorkerBusy) {
  constexpr std::size_t kWorkers = 2;
  ThreadPool pool(kWorkers);
  std::atomic<std::size_t> busy{0};
  std::atomic<int> sum{0};
  std::vector<std::promise<void>> done(kWorkers);
  std::vector<std::future<void>> landed;
  for (auto& d : done) landed.push_back(d.get_future());
  for (auto& d : done) {
    pool.submit([&pool, &busy, &sum, &d] {
      // Hold every worker inside a task before any of them calls for_n, so
      // no worker is free to take a helper.
      busy.fetch_add(1);
      while (busy.load() < kWorkers) std::this_thread::yield();
      pool.for_n(32, [&](std::size_t) { sum.fetch_add(1); });
      d.set_value();
    });
  }
  for (auto& f : landed) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
              std::future_status::ready);
  }
  EXPECT_EQ(sum.load(), static_cast<int>(32 * kWorkers));
  pool.wait_idle();  // late helpers find no index left and exit
}

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(42), "42");
}

TEST(Cli, ParsesFlagsAndPositional) {
  // A bare --flag followed by another --flag stays boolean; "--name value"
  // consumes the value.  (A bare flag followed by a positional would absorb
  // it — documented Cli behavior, so keep booleans before other flags.)
  const char* argv[] = {"prog", "--n=128", "pos1", "--verbose",
                        "--name", "mesh"};
  Cli cli(6, argv, {"n", "verbose", "name"});
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("name"), "mesh");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv, {"n", "x", "anything"});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(cli.has("anything"));
}

TEST(Cli, UndeclaredFlagExitsWithOneLineInBothForms) {
  // A deleted or misspelled flag fails loudly with one stderr line that
  // names the program's basename, in the "--x v" and "--x=v" forms alike.
  const char* spaced[] = {"/usr/bin/prog", "--n", "3", "--gone", "v"};
  EXPECT_EXIT(Cli(5, spaced, {"n"}), ::testing::ExitedWithCode(1),
              "^prog: --gone was removed or never existed\n$");
  const char* joined[] = {"prog", "--gone=v", "--n=3"};
  EXPECT_EXIT(Cli(3, joined, {"n"}), ::testing::ExitedWithCode(1),
              "^prog: --gone was removed or never existed\n$");
}

TEST(Cli, ReadingAnUndeclaredFlagThrows) {
  const char* argv[] = {"prog", "--n=1"};
  Cli cli(2, argv, {"n"});
  EXPECT_THROW(cli.has("m"), std::logic_error);
  EXPECT_THROW(cli.get_int("m", 0), std::logic_error);
}

}  // namespace
}  // namespace netemu
