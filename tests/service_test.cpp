// Unit tests for the service subsystem: JSON wire format, cache-key
// canonicalization, the LRU + disk result cache, the single-flight
// executor, and a loopback server/client round trip.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "netemu/bandwidth/theory.hpp"
#include "netemu/emulation/host_size.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/json.hpp"

namespace netemu {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"nested":true},"c":null,"d":-3})";
  std::string error;
  const Json doc = Json::parse(text, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc.dump(), text);
  EXPECT_DOUBLE_EQ(doc["a"].items()[1].as_number(), 2.5);
  EXPECT_TRUE(doc["b"]["nested"].as_bool());
  EXPECT_TRUE(doc["c"].is_null());
  EXPECT_EQ(doc["d"].as_int(), -3);
}

TEST(Json, ObjectKeysSerializeSorted) {
  const Json doc = Json::parse(R"({"zeta":1,"alpha":2,"mid":3})");
  EXPECT_EQ(doc.dump(), R"({"alpha":2,"mid":3,"zeta":1})");
}

TEST(Json, StringEscapes) {
  std::string error;
  const Json doc = Json::parse(R"({"s":"a\"b\\c\nAé"})", &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(doc["s"].as_string(), "a\"b\\c\nA\xc3\xa9");
  // Escapes survive a dump/reparse cycle.
  const Json again = Json::parse(doc.dump(), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(again["s"].as_string(), doc["s"].as_string());
}

TEST(Json, IntegersDumpWithoutFraction) {
  Json doc = Json::object();
  doc["n"] = 1048576;
  doc["seed"] = std::uint64_t{123456789012345ULL};
  doc["x"] = 0.5;
  EXPECT_EQ(doc.dump(), R"({"n":1048576,"seed":123456789012345,"x":0.5})");
}

TEST(Json, RejectsMalformed) {
  std::string error;
  Json::parse("{\"a\":}", &error);
  EXPECT_FALSE(error.empty());
  Json::parse("[1,2", &error);
  EXPECT_FALSE(error.empty());
  Json::parse("{} trailing", &error);
  EXPECT_FALSE(error.empty());
}

// A daemon parses attacker-adjacent bytes straight off a socket, so the
// parser must reject — never mis-read, never crash on — every malformed
// shape we can think of.  Table-driven so new cases are one line.
TEST(Json, MalformedInputTable) {
  const struct {
    const char* text;
    const char* why;
  } kCases[] = {
      {"", "empty input"},
      {"   ", "whitespace only"},
      {"{", "unterminated object"},
      {"[", "unterminated array"},
      {"\"abc", "unterminated string"},
      {"{\"a\":1,}", "trailing comma in object"},
      {"[1,2,]", "trailing comma in array"},
      {"{\"a\" 1}", "missing colon"},
      {"{1:2}", "non-string key"},
      {"tru", "truncated literal true"},
      {"nul", "truncated literal null"},
      {"01", "leading zero"},
      {"+1", "leading plus"},
      {"-", "bare minus"},
      {"1.", "fraction without digits"},
      {".5", "bare leading dot"},
      {"1e", "exponent without digits"},
      {"1e+", "signed exponent without digits"},
      {"0x10", "hex number"},
      {"inf", "infinity literal"},
      {"nan", "nan literal"},
      {"{} x", "trailing garbage"},
      {"1 2", "two documents"},
      {"\"\\ud800\"", "unpaired high surrogate"},
      {"\"\\udc00\"", "unpaired low surrogate"},
      {"\"\\ud800\\u0041\"", "high surrogate followed by non-surrogate"},
      {"\"\\q\"", "unknown escape"},
      {"\"\\u12g4\"", "non-hex in unicode escape"},
      {"\"a\tb\"", "raw control character in string"},
  };
  for (const auto& c : kCases) {
    std::string error;
    const Json doc = Json::parse(c.text, &error);
    EXPECT_FALSE(error.empty()) << c.why << ": " << c.text;
    EXPECT_TRUE(doc.is_null()) << c.why << ": " << c.text;
  }
}

TEST(Json, DepthCapRejectsDeepNestingAcceptsShallow) {
  std::string deep;
  for (int i = 0; i < kJsonMaxDepth + 1; ++i) deep += '[';
  for (int i = 0; i < kJsonMaxDepth + 1; ++i) deep += ']';
  std::string error;
  Json::parse(deep, &error);
  EXPECT_FALSE(error.empty());

  std::string shallow;
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) shallow += '[';
  for (int i = 0; i < kJsonMaxDepth - 1; ++i) shallow += ']';
  const Json ok = Json::parse(shallow, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(ok.is_array());
}

TEST(Json, StrictNumbersStillAcceptValidForms) {
  const struct {
    const char* text;
    double value;
  } kCases[] = {
      {"0", 0.0},           {"-0", 0.0},       {"10", 10.0},
      {"-3", -3.0},         {"0.5", 0.5},      {"1.25e2", 125.0},
      {"2E-2", 0.02},       {"1e3", 1000.0},
  };
  for (const auto& c : kCases) {
    std::string error;
    const Json doc = Json::parse(c.text, &error);
    EXPECT_TRUE(error.empty()) << c.text << ": " << error;
    EXPECT_DOUBLE_EQ(doc.as_number(), c.value) << c.text;
  }
}

// ----------------------------------------------------------- cache key --

Query must_parse(const std::string& text) {
  std::string error;
  const auto q = query_from_json(Json::parse(text), &error);
  EXPECT_TRUE(q.has_value()) << error << " for " << text;
  return *q;
}

TEST(CacheKey, FieldOrderInvariant) {
  const Query a = must_parse(
      R"({"op":"estimate","family":"Butterfly","n":64,"seed":7})");
  const Query b = must_parse(
      R"({"seed":7,"n":64,"family":"Butterfly","op":"estimate"})");
  EXPECT_EQ(a.cache_key(), b.cache_key());
}

TEST(CacheKey, DefaultsExplicitOrOmittedInvariant) {
  const Query spelled = must_parse(
      R"({"op":"estimate","family":"Butterfly","n":64,"seed":1,"trials":3,)"
      R"("router":"default","traffic":"symmetric",)"
      R"("arbitration":"farthest-first"})");
  const Query terse = must_parse(
      R"({"op":"estimate","family":"butterfly","n":64})");
  EXPECT_EQ(spelled.canonical_string(), terse.canonical_string());
  EXPECT_EQ(spelled.cache_key(), terse.cache_key());
}

TEST(CacheKey, FamilyNameCaseAndSuffix) {
  const Query suffixed =
      must_parse(R"({"op":"bandwidth","family":"mesh2","n":4096})");
  const Query explicit_k =
      must_parse(R"({"op":"bandwidth","family":"Mesh","k":2,"n":4096})");
  EXPECT_EQ(suffixed.cache_key(), explicit_k.cache_key());
}

TEST(CacheKey, GuestAliasMatchesFamily) {
  const Query guest = must_parse(
      R"({"op":"max_host","guest":"DeBruijn","host":"mesh2","n":1024})");
  const Query family = must_parse(
      R"({"op":"max_host","family":"DeBruijn","host":"Mesh","host_k":2,)"
      R"("n":1024})");
  EXPECT_EQ(guest.cache_key(), family.cache_key());
}

TEST(CacheKey, IrrelevantFieldsIgnoredPerKind) {
  // Seed cannot change a closed-form bandwidth lookup.
  const Query with_seed =
      must_parse(R"({"op":"bandwidth","family":"Tree","n":1024,"seed":99})");
  const Query without =
      must_parse(R"({"op":"bandwidth","family":"Tree","n":1024})");
  EXPECT_EQ(with_seed.cache_key(), without.cache_key());
  // deadline_ms is execution control, never part of the address.
  const Query slow = must_parse(
      R"({"op":"bandwidth","family":"Tree","n":1024,"deadline_ms":5})");
  EXPECT_EQ(slow.cache_key(), without.cache_key());
}

TEST(CacheKey, RelevantFieldsChangeKey) {
  const Query base =
      must_parse(R"({"op":"estimate","family":"Butterfly","n":64})");
  const Query other_seed =
      must_parse(R"({"op":"estimate","family":"Butterfly","n":64,"seed":2})");
  const Query other_n =
      must_parse(R"({"op":"estimate","family":"Butterfly","n":128})");
  const Query other_kind =
      must_parse(R"({"op":"bandwidth","family":"Butterfly","n":64})");
  EXPECT_NE(base.cache_key(), other_seed.cache_key());
  EXPECT_NE(base.cache_key(), other_n.cache_key());
  EXPECT_NE(base.cache_key(), other_kind.cache_key());
}

TEST(CacheKey, ParseRejectsBadRequests) {
  std::string error;
  EXPECT_FALSE(query_from_json(Json::parse(R"({"op":"nope"})"), &error));
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"estimate","family":"NotAFamily"})"), &error));
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"max_host","family":"Tree","n":64})"), &error));
  EXPECT_NE(error.find("host"), std::string::npos);
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"estimate","family":"ccc3","n":64})"), &error));
  // A dimension suffix too large for unsigned must be a parse error, not a
  // std::stoul out_of_range crash.
  EXPECT_FALSE(query_from_json(
      Json::parse(
          R"({"op":"estimate","family":"mesh99999999999999999999","n":64})"),
      &error));
  EXPECT_NE(error.find("family"), std::string::npos);
  EXPECT_FALSE(query_from_json(
      Json::parse(R"({"op":"max_host","family":"tree","n":64,
                      "host":"mesh99999999999999999999"})"),
      &error));
}

TEST(CacheKey, Hex64RoundTrip) {
  const std::uint64_t v = 0xdeadbeef01234567ULL;
  EXPECT_EQ(hex64(v), "deadbeef01234567");
  std::uint64_t back = 0;
  EXPECT_TRUE(parse_hex64("deadbeef01234567", back));
  EXPECT_EQ(back, v);
  EXPECT_FALSE(parse_hex64("not-hex", back));
  EXPECT_FALSE(parse_hex64("", back));
}

// ----------------------------------------------------------- LRU cache --

TEST(ResultCache, LruEvictionAtCapacity) {
  ResultCache cache(3);
  cache.put(1, "one");
  cache.put(2, "two");
  cache.put(3, "three");
  cache.put(4, "four");  // evicts 1
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.get(2).value(), "two");
}

TEST(ResultCache, GetRefreshesRecency) {
  ResultCache cache(2);
  cache.put(1, "one");
  cache.put(2, "two");
  EXPECT_TRUE(cache.get(1).has_value());  // 1 now hot, 2 cold
  cache.put(3, "three");                  // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
}

TEST(ResultCache, PutOverwritesInPlace) {
  ResultCache cache(2);
  cache.put(1, "old");
  cache.put(1, "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(1).value(), "new");
}

TEST(ResultCache, HitMissCounters) {
  ResultCache cache(2);
  cache.put(1, "one");
  cache.get(1);
  cache.get(7);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCache, DiskRoundTrip) {
  const std::string path =
      testing::TempDir() + "netemu_cache_roundtrip.json";
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(0x11, R"({"beta":1})");
    cache.put(0x22, R"({"beta":2})");
    EXPECT_TRUE(cache.save());
  }
  ResultCache reloaded(8, path);
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.get(0x11).value(), R"({"beta":1})");
  EXPECT_EQ(reloaded.get(0x22).value(), R"({"beta":2})");
  std::remove(path.c_str());
}

TEST(ResultCache, LoadPreservesRecencyOrder) {
  const std::string path = testing::TempDir() + "netemu_cache_order.json";
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(1, "a");
    cache.put(2, "b");
    cache.put(3, "c");
    cache.get(1);  // order hot->cold: 1, 3, 2
    EXPECT_TRUE(cache.save());
  }
  ResultCache reloaded(2, path);  // capacity below file size: cold 2 dropped
  EXPECT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.get(1).has_value());
  EXPECT_TRUE(reloaded.get(3).has_value());
  EXPECT_FALSE(reloaded.get(2).has_value());
  std::remove(path.c_str());
}

TEST(ResultCache, LoadedEntriesNeverDisplaceLiveOnes) {
  const std::string path = testing::TempDir() + "netemu_cache_merge.json";
  std::remove(path.c_str());
  {
    ResultCache cache(8, path);
    cache.put(10, "file-a");
    cache.put(20, "file-b");
    EXPECT_TRUE(cache.save());
  }
  ResultCache merged(2, path);
  merged.put(30, "live");
  merged.put(10, "live-overrides-file");
  EXPECT_TRUE(merged.load());
  EXPECT_EQ(merged.get(30).value(), "live");
  EXPECT_EQ(merged.get(10).value(), "live-overrides-file");
  EXPECT_FALSE(merged.get(20).has_value());  // no room, not evicted for it
  std::remove(path.c_str());
}

TEST(ResultCache, LoadMissingOrMalformedFileFails) {
  ResultCache cache(4, testing::TempDir() + "netemu_cache_missing.json");
  EXPECT_FALSE(cache.load());
  const std::string bad = testing::TempDir() + "netemu_cache_bad.json";
  {
    std::ofstream out(bad);
    out << "not json at all";
  }
  ResultCache cache2(4, bad);
  EXPECT_FALSE(cache2.load());
  std::remove(bad.c_str());
}

// ------------------------------------------------------------ executor --

Query estimate_query(double n, std::uint64_t seed = 1) {
  Query q;
  q.kind = QueryKind::kEstimate;
  q.family = Family::kButterfly;
  q.n = n;
  q.seed = seed;
  return q;
}

TEST(Executor, SingleFlightDedup) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 2;
  options.compute = [invocations](const Query&, const CancelToken&) {
    invocations->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Json doc = Json::object();
    doc["value"] = 42;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Response> responses(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&executor, &responses, i] {
      responses[static_cast<std::size_t>(i)] =
          executor.execute(estimate_query(64));
    });
  }
  for (auto& t : threads) t.join();

  // However the threads interleaved, the computation ran exactly once.
  EXPECT_EQ(invocations->load(), 1);
  for (const Response& r : responses) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.result, R"({"value":42})");
  }
  const QueryExecutor::Stats s = executor.stats();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.dedup_joins + s.cache_hits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Executor, RequestRacingAFinishingFlightNeverRecomputes) {
  // A request probes the cache, then looks for a flight under the
  // executor's lock.  If the flight for its key stores its result and
  // retires in between, the request must still get that result: the flight
  // stores before it retires, and a request that finds no flight probes the
  // cache again under the lock.  A long client name makes execute's copy of
  // it slow, which holds the follower between its probe and its flight
  // lookup for longer than the leader's compute takes.
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 2;
  options.compute = [invocations](const Query& q, const CancelToken&) {
    invocations->fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  constexpr int kRounds = 20;
  for (int round = 1; round <= kRounds; ++round) {
    Query follower_query = estimate_query(64 + round);
    follower_query.client.assign(std::size_t{8} << 20, 'c');
    std::thread follower([&executor, &follower_query] {
      const Response r = executor.execute(follower_query);
      EXPECT_TRUE(r.ok) << r.error;
    });
    EXPECT_TRUE(executor.execute(estimate_query(64 + round)).ok);
    follower.join();
  }
  EXPECT_EQ(invocations->load(), kRounds);
  EXPECT_EQ(executor.stats().computed, static_cast<std::uint64_t>(kRounds));
}

TEST(Executor, DistinctQueriesComputeIndependently) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 4;
  options.compute = [invocations](const Query& q, const CancelToken&) {
    invocations->fetch_add(1);
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  const Response a = executor.execute(estimate_query(64));
  const Response b = executor.execute(estimate_query(128));
  const Response a_again = executor.execute(estimate_query(64));
  EXPECT_TRUE(a.ok && b.ok && a_again.ok);
  EXPECT_EQ(invocations->load(), 2);
  EXPECT_TRUE(a_again.cache_hit);
  EXPECT_EQ(a_again.result, a.result);
}

TEST(Executor, AdmissionQueueRejectsWhenFull) {
  auto started = std::make_shared<std::promise<void>>();
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  QueryExecutor::Options options;
  options.threads = 1;
  options.guard.cost_budget = 1;
  options.compute = [started, gate_future](const Query&, const CancelToken&) {
    started->set_value();
    gate_future->wait();
    return Json::object();
  };
  QueryExecutor executor(std::move(options));

  std::thread leader([&executor] {
    const Response r = executor.execute(estimate_query(64));
    EXPECT_TRUE(r.ok) << r.error;
  });
  started->get_future().wait();  // the one slot is now occupied

  const Response rejected = executor.execute(estimate_query(128));
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("overloaded"), std::string::npos);
  EXPECT_EQ(executor.stats().rejected, 1u);

  gate->set_value();
  leader.join();
}

TEST(Executor, DeadlineExceededButResultStillCached) {
  auto gate = std::make_shared<std::promise<void>>();
  auto gate_future =
      std::make_shared<std::shared_future<void>>(gate->get_future());
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [gate_future](const Query&, const CancelToken&) {
    gate_future->wait();
    Json doc = Json::object();
    doc["late"] = true;
    return doc;
  };
  QueryExecutor executor(std::move(options));

  Query q = estimate_query(64);
  q.deadline_ms = 30;
  const Response timed_out = executor.execute(q);
  EXPECT_FALSE(timed_out.ok);
  EXPECT_NE(timed_out.error.find("deadline"), std::string::npos);
  EXPECT_EQ(executor.stats().deadline_exceeded, 1u);

  gate->set_value();
  // The abandoned flight still completes and fills the cache.
  for (int i = 0; i < 200; ++i) {
    if (executor.cache().get(q.cache_key())) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Response cached = executor.execute(q);
  EXPECT_TRUE(cached.ok) << cached.error;
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(cached.result, R"({"late":true})");
}

TEST(Executor, ComputeErrorsAreReportedAndNotCached) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [invocations](const Query&, const CancelToken&) -> Json {
    invocations->fetch_add(1);
    throw std::runtime_error("boom");
  };
  QueryExecutor executor(std::move(options));
  const Response first = executor.execute(estimate_query(64));
  EXPECT_FALSE(first.ok);
  EXPECT_NE(first.error.find("boom"), std::string::npos);
  const Response second = executor.execute(estimate_query(64));
  EXPECT_FALSE(second.ok);
  EXPECT_EQ(invocations->load(), 2);  // errors never poison the cache
  EXPECT_EQ(executor.stats().errors, 2u);
}

TEST(Executor, PersistsCacheAcrossInstances) {
  const std::string path = testing::TempDir() + "netemu_exec_persist.json";
  std::remove(path.c_str());
  Query q = estimate_query(64);
  {
    QueryExecutor::Options options;
    options.cache_file = path;
    options.compute = [](const Query&, const CancelToken&) {
      Json doc = Json::object();
      doc["expensive"] = true;
      return doc;
    };
    QueryExecutor executor(std::move(options));
    EXPECT_TRUE(executor.execute(q).ok);
  }  // destructor saves
  {
    QueryExecutor::Options options;
    options.cache_file = path;
    options.compute = [](const Query&, const CancelToken&) -> Json {
      throw std::runtime_error("should have been served from disk");
    };
    QueryExecutor executor(std::move(options));
    const Response r = executor.execute(q);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(r.result, R"({"expensive":true})");
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- planner --

TEST(Planner, EstimateIsDeterministicInSeed) {
  Query q = estimate_query(64, 42);
  q.trials = 1;
  const std::string a = plan_estimate(q).dump();
  const std::string b = plan_estimate(q).dump();
  EXPECT_EQ(a, b);
  q.seed = 43;
  // A different seed is a different content address; the value may or may
  // not differ, but the document must still be well-formed.
  EXPECT_TRUE(plan_estimate(q).is_object());
}

TEST(Planner, EstimateExposesTrialSpread) {
  Query q = estimate_query(64, 7);
  q.trials = 4;
  const Json doc = plan_estimate(q);
  ASSERT_EQ(doc["trial_rates"].items().size(), 4u);
  double lo = 1e300, hi = -1e300;
  for (const Json& r : doc["trial_rates"].items()) {
    lo = std::min(lo, r.as_number());
    hi = std::max(hi, r.as_number());
  }
  EXPECT_DOUBLE_EQ(doc["beta_hat_min"].as_number(), lo);
  EXPECT_DOUBLE_EQ(doc["beta_hat_max"].as_number(), hi);
  EXPECT_LE(doc["beta_hat_min"].as_number(), doc["beta_hat"].as_number());
  EXPECT_GE(doc["beta_hat_max"].as_number(), doc["beta_hat"].as_number());
  EXPECT_GT(doc["simulated_ticks"].as_uint(), 0u);
}

TEST(Planner, BandwidthMatchesTheoryRegistry) {
  Query q;
  q.kind = QueryKind::kBandwidth;
  q.family = Family::kHypercube;
  q.n = 1024;
  const Json doc = plan_bandwidth(q);
  EXPECT_DOUBLE_EQ(doc["beta"]["value"].as_number(),
                   beta_theory(Family::kHypercube)(1024.0));
  EXPECT_EQ(doc["beta"]["theta"].as_string(),
            beta_theory(Family::kHypercube).theta_string());
}

TEST(Planner, MaxHostAgreesWithSolver) {
  Query q;
  q.kind = QueryKind::kMaxHost;
  q.family = Family::kDeBruijn;
  q.n = 1 << 20;
  q.host_family = Family::kMesh;
  q.host_k = 2;
  const Json doc = plan_query(q);
  const HostSizeEntry direct = max_host_size(
      Family::kDeBruijn, 2, q.n, HostSpec{Family::kMesh, 2});
  EXPECT_DOUBLE_EQ(doc["max_host_numeric"].as_number(), direct.numeric);
  EXPECT_EQ(doc["max_host_symbolic"].as_string(), direct.symbolic);
}

TEST(Planner, InfeasibleTrafficThrows) {
  Query q = estimate_query(64);
  q.family = Family::kTree;  // 2^(h+1)-1 vertices: never a power of two
  q.traffic = TrafficKind::kBitReversal;
  EXPECT_THROW(plan_estimate(q), std::runtime_error);
}

// ------------------------------------------------- protocol + loopback --

TEST(Protocol, HandlesControlOpsAndBadInput) {
  QueryExecutor::Options options;
  options.compute = [](const Query&, const CancelToken&) { return Json::object(); };
  QueryExecutor executor(std::move(options));

  const Json pong = Json::parse(handle_request_line(R"({"op":"ping"})",
                                                    executor));
  EXPECT_TRUE(pong["ok"].as_bool());
  EXPECT_TRUE(pong["result"]["pong"].as_bool());

  const Json bad = Json::parse(handle_request_line("{{{", executor));
  EXPECT_FALSE(bad["ok"].as_bool());
  EXPECT_NE(bad["error"].as_string().find("bad JSON"), std::string::npos);

  bool shutdown_requested = false;
  const Json down = Json::parse(handle_request_line(
      R"({"op":"shutdown"})", executor, &shutdown_requested));
  EXPECT_TRUE(down["ok"].as_bool());
  EXPECT_TRUE(shutdown_requested);
}

TEST(Protocol, HealthReportsComputeTimes) {
  QueryExecutor::Options options;
  options.compute = [](const Query&, const CancelToken&) { return Json::object(); };
  QueryExecutor executor(std::move(options));

  const Json before =
      Json::parse(handle_request_line(R"({"op":"health"})", executor));
  ASSERT_TRUE(before["ok"].as_bool());
  ASSERT_TRUE(before["result"]["compute"].is_object());
  EXPECT_EQ(before["result"]["compute"]["samples"].as_int(), 0);

  const Response r = executor.execute(estimate_query(64));
  ASSERT_TRUE(r.ok) << r.error;

  const Json after =
      Json::parse(handle_request_line(R"({"op":"health"})", executor));
  const Json& compute = after["result"]["compute"];
  EXPECT_EQ(compute["samples"].as_int(), 1);
  EXPECT_GE(compute["p50_us"].as_number(), 0.0);
  EXPECT_GE(compute["p95_us"].as_number(), compute["p50_us"].as_number());
  // The cumulative simulation-volume counter is process-wide and
  // monotonic; other tests may already have advanced it.
  EXPECT_GE(compute["sim_ticks_total"].as_uint(), 0u);
}

TEST(Server, LoopbackEndToEnd) {
  QueryExecutor executor;  // real planner
  Server::Options server_options;
  server_options.port = 0;  // ephemeral
  Server server(executor, server_options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(server.port(), &error)) << error;

  const auto pong = client.request(Json::parse(R"({"op":"ping"})"), &error);
  ASSERT_TRUE(pong.has_value()) << error;
  EXPECT_TRUE((*pong)["ok"].as_bool());

  const Json query = Json::parse(
      R"({"op":"bandwidth","family":"Butterfly","n":4096})");
  const auto first = client.request(query, &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_TRUE((*first)["ok"].as_bool());
  EXPECT_FALSE((*first)["cache_hit"].as_bool());

  const auto second = client.request(query, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_TRUE((*second)["ok"].as_bool());
  EXPECT_TRUE((*second)["cache_hit"].as_bool());
  EXPECT_EQ((*second)["result"].dump(), (*first)["result"].dump());

  const auto stats = client.request(Json::parse(R"({"op":"stats"})"), &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ((*stats)["result"]["computed"].as_int(), 1);

  // Client-initiated shutdown stops the daemon.
  const auto down =
      client.request(Json::parse(R"({"op":"shutdown"})"), &error);
  ASSERT_TRUE(down.has_value()) << error;
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(Server, ManyConcurrentConnections) {
  QueryExecutor::Options options;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor executor(std::move(options));
  Server::Options server_options;
  server_options.port = 0;
  Server server(executor, server_options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kClients = 8;
  constexpr int kRequests = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &failures, c] {
      Client client;
      if (!client.connect(server.port())) {
        failures.fetch_add(kRequests);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        Json query = Json::object();
        query["op"] = "estimate";
        query["family"] = "Butterfly";
        query["n"] = 64 + (c + i) % 4;  // a few distinct addresses
        std::string response;
        if (!client.request_raw(query.dump(), response) ||
            response.find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0);
  const QueryExecutor::Stats s = executor.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients * kRequests));
  // Only 4 distinct content addresses exist; everything else was served
  // from cache or joined a flight.
  EXPECT_EQ(s.computed, 4u);
}

// ----------------------------------------------- adversarial framing --
// The epoll plane frames request lines incrementally from whatever byte
// boundaries the kernel delivers; these tests drive the framer with raw
// sockets at its worst-case boundaries.

/// Raw loopback TCP connection (no LineChannel: the tests control the exact
/// bytes and boundaries on the wire).
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Stop sending but keep reading (half-close).
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Bound every later read, so a missing answer or EOF fails the test
  /// instead of hanging it.
  void set_recv_timeout_ms(int ms) {
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// Read up to the next '\n'; empty string on EOF/error before one.
  std::string read_line() {
    std::string line;
    for (;;) {
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::string();
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the peer has closed (a clean EOF with no pending bytes).
  bool read_eof() {
    char chunk[64];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A server over an executor whose compute echoes n (cheap + verifiable).
struct EchoServer {
  explicit EchoServer(Server::Options options = {}) {
    QueryExecutor::Options exec_options;
    exec_options.compute = [](const Query& q, const CancelToken&) {
      Json doc = Json::object();
      doc["n"] = q.n;
      return doc;
    };
    executor = std::make_unique<QueryExecutor>(std::move(exec_options));
    options.port = 0;
    server = std::make_unique<Server>(*executor, options);
    std::string error;
    started = server->start(&error);
  }
  std::unique_ptr<QueryExecutor> executor;
  std::unique_ptr<Server> server;
  bool started = false;
};

TEST(ServerFraming, SlowlorisByteAtATime) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // One byte per segment: the framer must accumulate across reads and only
  // answer at the newline.  Two requests back to back prove the connection
  // state survives the first.
  const std::string request =
      R"({"op":"estimate","family":"Butterfly","n":64})" "\n";
  for (int round = 0; round < 2; ++round) {
    for (const char c : request) {
      ASSERT_TRUE(conn.send_all(std::string(1, c)));
    }
    const Json response = Json::parse(conn.read_line());
    EXPECT_TRUE(response["ok"].as_bool());
    EXPECT_EQ(response["result"]["n"].as_int(), 64);
  }
}

TEST(ServerFraming, PipelinedRequestsInOneSegment) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // Many requests in ONE send: the framer must split them and answer each
  // in request order even though some hit cache (inline fast path) and some
  // compute (offload pool) — the ordering guarantee is what's under test.
  constexpr int kRequests = 32;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    Json query = Json::object();
    query["op"] = "estimate";
    query["family"] = "Butterfly";
    query["n"] = 64 << (i % 3);  // 3 addresses: repeats become cache hits
    burst += query.dump();
    burst += '\n';
  }
  ASSERT_TRUE(conn.send_all(burst));
  for (int i = 0; i < kRequests; ++i) {
    const Json response = Json::parse(conn.read_line());
    ASSERT_TRUE(response["ok"].as_bool()) << "response " << i;
    EXPECT_EQ(response["result"]["n"].as_int(), 64 << (i % 3))
        << "response " << i << " out of order";
  }
}

TEST(ServerFraming, OverlongLineAnswersProtocolErrorAndResyncs) {
  Server::Options options;
  options.max_line = 128;
  EchoServer s(options);
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // An overlong line — delivered in several segments so the framer enters
  // and leaves discard mode — answers protocol_error; the next request on
  // the same connection still works (the stream re-synced at the newline).
  const std::string junk(512, 'x');
  ASSERT_TRUE(conn.send_all(junk));
  ASSERT_TRUE(conn.send_all(junk));
  ASSERT_TRUE(conn.send_all("\n"));
  const Json error_response = Json::parse(conn.read_line());
  EXPECT_FALSE(error_response["ok"].as_bool());
  EXPECT_NE(error_response["error"].as_string().find("exceeds"),
            std::string::npos);

  ASSERT_TRUE(conn.send_all("{\"op\":\"ping\"}\n"));
  const Json pong = Json::parse(conn.read_line());
  EXPECT_TRUE(pong["ok"].as_bool());
  EXPECT_TRUE(pong["result"]["pong"].as_bool());
}

TEST(ServerFraming, HalfCloseAfterCompleteRequestStillAnswered) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // shutdown(SHUT_WR) right behind a complete request: the server sees EOF
  // with a framed request still queued — it must answer it, flush, and only
  // then close.
  ASSERT_TRUE(conn.send_all(
      R"({"op":"estimate","family":"Butterfly","n":128})" "\n"));
  conn.shutdown_write();
  const Json response = Json::parse(conn.read_line());
  EXPECT_TRUE(response["ok"].as_bool());
  EXPECT_EQ(response["result"]["n"].as_int(), 128);
  EXPECT_TRUE(conn.read_eof());
}

TEST(ServerFraming, HalfCloseMidRequestGetsNoAnswer) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  RawConn conn(s.server->port());
  ASSERT_TRUE(conn.ok());

  // A torn request (no newline) then EOF: same semantics as LineChannel —
  // the tail is dropped, no response, clean close.
  ASSERT_TRUE(conn.send_all(R"({"op":"estimate","family":"Butter)"));
  conn.shutdown_write();
  EXPECT_TRUE(conn.read_eof());
}

TEST(ServerFraming, HalfCloseQueuedWithItsRequestOnABusyShardStillCloses) {
  // One shard, held inline by a fast-path request on another connection.
  // Meanwhile the probe's request and its FIN queue up together, so the
  // shard later sees them as ONE edge-triggered event carrying EPOLLRDHUP:
  // it must read on past the request's short read to the EOF, or the
  // answered socket is never closed.
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  Server::Options options;
  options.io_threads = 1;
  options.fast_handler =
      [&entered, released](const std::string& line) -> std::optional<std::string> {
    if (line != "hold") return std::nullopt;
    entered.set_value();
    released.wait();
    return std::string(R"({"ok":true})");
  };
  EchoServer s(options);
  ASSERT_TRUE(s.started);
  RawConn probe(s.server->port());
  RawConn holder(s.server->port());
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(holder.ok());
  probe.set_recv_timeout_ms(5000);

  // The probe is registered on the shard before the shard is held.
  ASSERT_TRUE(probe.send_all("{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(Json::parse(probe.read_line())["ok"].as_bool());
  ASSERT_TRUE(holder.send_all("hold\n"));
  entered.get_future().wait();

  ASSERT_TRUE(probe.send_all(
      R"({"op":"estimate","family":"Butterfly","n":128})" "\n"));
  probe.shutdown_write();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();

  const Json response = Json::parse(probe.read_line());
  EXPECT_TRUE(response["ok"].as_bool());
  EXPECT_EQ(response["result"]["n"].as_int(), 128);
  EXPECT_TRUE(probe.read_eof());
}

// ------------------------------------------------- lifecycle, binding --

TEST(Server, DrainRefusesNewConnectionsButServesOpenOnes) {
  EchoServer s;
  ASSERT_TRUE(s.started);
  const std::uint16_t port = s.server->port();
  RawConn open(port);
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(open.send_all("{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(Json::parse(open.read_line())["ok"].as_bool());

  s.server->begin_drain();
  // The listener is closed synchronously: a new connect is refused.
  RawConn late(port);
  EXPECT_FALSE(late.ok());

  // Requests sent on the connection opened before the drain are still
  // answered — a compute miss (offload pool) and a fast-path ping, in
  // order.
  ASSERT_TRUE(open.send_all(
      R"({"op":"estimate","family":"Butterfly","n":256})" "\n"
      R"({"op":"ping"})" "\n"));
  const Json computed = Json::parse(open.read_line());
  EXPECT_TRUE(computed["ok"].as_bool());
  EXPECT_EQ(computed["result"]["n"].as_int(), 256);
  EXPECT_TRUE(Json::parse(open.read_line())["result"]["pong"].as_bool());

  s.server->stop();
  EXPECT_FALSE(s.server->running());
  EXPECT_TRUE(open.read_eof());
}

TEST(Server, StartOnTakenPortFailsWithEaddrinuse) {
  EchoServer first;
  ASSERT_TRUE(first.started);
  const std::uint16_t port = first.server->port();

  Server::Options options;
  options.port = port;
  Server second(*first.executor, options);
  std::string error;
  EXPECT_FALSE(second.start(&error));
  EXPECT_EQ(second.last_errno(), EADDRINUSE);
  // netemu_serve prints this error and its port hint verbatim.
  EXPECT_NE(error.find(std::to_string(port)), std::string::npos) << error;
  EXPECT_FALSE(second.running());

  // The failed bind left the first server untouched.
  RawConn conn(port);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.send_all("{\"op\":\"ping\"}\n"));
  EXPECT_TRUE(Json::parse(conn.read_line())["result"]["pong"].as_bool());
}

// ---------------------------------------------------- connection churn --

/// Parse a numeric field ("Threads:", "VmRSS:") out of /proc/self/status.
long proc_status_value(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtol(line.c_str() + field.size(), nullptr, 10);
    }
  }
  return -1;
}

TEST(ServerChurn, SequentialConnectionsStayBounded) {
  EchoServer s;
  ASSERT_TRUE(s.started);

  // Warm up: let every lazily-spawned thread (shards, offload pool) exist
  // before the baseline measurement.
  {
    RawConn warm(s.server->port());
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.send_all("{\"op\":\"ping\"}\n"));
    EXPECT_FALSE(warm.read_line().empty());
  }
  const long threads_before = proc_status_value("Threads:");
  const long rss_before_kb = proc_status_value("VmRSS:");
  ASSERT_GT(threads_before, 0);

  // Thousands of open/request/close cycles: connections must not leak
  // threads (the epoll plane never spawns per connection) or memory
  // (per-connection state is freed on close).
  constexpr int kChurn = 2000;
  for (int i = 0; i < kChurn; ++i) {
    RawConn conn(s.server->port());
    ASSERT_TRUE(conn.ok()) << "connect " << i << " failed";
    if (i % 16 == 0) {  // a request on some keeps the framer in the loop
      ASSERT_TRUE(conn.send_all("{\"op\":\"ping\"}\n"));
      EXPECT_FALSE(conn.read_line().empty());
    }
  }

  const long threads_after = proc_status_value("Threads:");
  const long rss_after_kb = proc_status_value("VmRSS:");
  EXPECT_EQ(threads_after, threads_before)
      << "connection churn changed the thread count";
  // Generous bound (sanitizer builds have noisy RSS): churn must not
  // accumulate per-connection state.
  EXPECT_LT(rss_after_kb - rss_before_kb, 128 * 1024)
      << "RSS grew by " << (rss_after_kb - rss_before_kb) << " kB over "
      << kChurn << " connections";
}

}  // namespace
}  // namespace netemu
