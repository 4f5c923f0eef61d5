// fleet_scatter: a FleetRouter and a Scatterer hosted in this process over
// nproc - 1 spawned single-thread backends.  One closed-loop client sends
// cold mesh estimates whose trial sweep is scattered across every backend.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "netemu/fleet/rendezvous.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/fleet/scatter.hpp"
#include "netemu/service/planner.hpp"
#include "workloads.hpp"

namespace perfbench {

using netemu::Json;

namespace {

constexpr unsigned kFleetTrials = 16;  // == the Scatterer's min_trials
constexpr unsigned kMaxWays = 4;       // == the Scatterer's max_ways
constexpr unsigned kFleetPool = 256;
constexpr unsigned kPoolSeed0 = 5000;  // pool seeds; the warm-up uses 4999

unsigned fleet_backends(const Args& args) {
  return std::max(2u, args.threads - 1);
}

std::string backend_id(unsigned b) {
  std::string id = "b";
  id += std::to_string(b);
  return id;
}

/// A mesh estimate with 16 trials; the pool is 16x16 (about 0.15 s per
/// shard), the warm-up 8x8.
std::string fleet_line(unsigned seed, unsigned n = 256) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                R"({"op":"estimate","family":"mesh","k":2,"n":%u,)"
                R"("trials":%u,"seed":%u})",
                n, kFleetTrials, seed);
  return buf;
}

/// Backends, router and scatterer of one fleet.  Teardown order matters:
/// the scatterer drains its dispatch threads before the router stops, and
/// both before the backends are stopped.
struct Fleet {
  std::vector<std::unique_ptr<Daemon>> backends;
  std::unique_ptr<netemu::FleetRouter> router;
  std::unique_ptr<netemu::Scatterer> scatter;
  unsigned ways = 0;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    scatter.reset();
    if (router) router->stop();
    for (auto& b : backends) b->proc.terminate();
  }
};

/// Phase timestamps reported by the scatterer's hook.
struct Phases {
  Clock::time_point dispatch, pre_merge;
};

std::unique_ptr<Fleet> make_fleet(const Args& args, Phases* phases) {
  auto fleet = std::make_unique<Fleet>();
  const unsigned backends = fleet_backends(args);
  netemu::FleetRouter::Options ro;
  for (unsigned b = 0; b < backends; ++b) {
    std::string error;
    auto d = spawn_daemon(
        args.serve_bin,
        {"--no-persist", "--threads", "1", "--io-threads", "1"}, &error);
    if (!d) throw std::runtime_error(error);
    ro.backends.push_back({d->port, backend_id(b)});
    fleet->backends.push_back(std::move(d));
  }
  fleet->router = std::make_unique<netemu::FleetRouter>(ro);
  netemu::Scatterer::Options so;
  so.min_trials = kFleetTrials;
  so.max_ways = kMaxWays;
  if (phases != nullptr) {
    so.phase_hook = [phases](const char* phase) {
      const auto now = Clock::now();
      if (phase[0] == 'd') {
        phases->dispatch = now;
      } else {
        phases->pre_merge = now;
      }
    };
  }
  fleet->scatter = std::make_unique<netemu::Scatterer>(*fleet->router, so);
  fleet->ways = std::min({kMaxWays, kFleetTrials, backends});
  return fleet;
}

/// A scattered estimate whose answer must equal `expected` (full result
/// text) or the recorded digest of `g`.
bool scatter_ok(const std::string& response, const DigestBook* book,
                const GenQuery& g, const std::string* expected, Record& rec) {
  const Json doc = Json::parse(response);
  if (!doc["ok"].as_bool(false) || doc["degraded"].as_bool(false)) {
    rec.wrong("scatter failed or degraded: " + response.substr(0, 200));
    return false;
  }
  if (expected != nullptr) {
    if (doc["result"].dump() != *expected) {
      rec.wrong("scattered warm-up differs from plan_query: " + g.line);
      return false;
    }
    return true;
  }
  return check_estimate(*book, g, doc["result"], rec);
}

/// Spawn + router + scatterer + one scattered warm-up estimate (a small
/// mesh outside the pool); `took_s` gets the time.
std::unique_ptr<Fleet> set_up(const Args& args, Phases* phases, Record& rec,
                              double* took_s) {
  const GenQuery warm = make_query(fleet_line(kPoolSeed0 - 1, 64));
  const std::string expected = netemu::plan_query(warm.query).dump();
  const auto t0 = Clock::now();
  auto fleet = make_fleet(args, phases);
  const std::string response =
      fleet->scatter->scatter_line(Json::parse(warm.line));
  *took_s = ms_since(t0) / 1000.0;
  rec.count(1, 0);
  scatter_ok(response, nullptr, warm, &expected, rec);
  return fleet;
}

/// Every query is cold only once, so a run that uses up the pool before
/// its time is up fails one operation rather than silently measuring less.
void check_pool_left(std::size_t next, std::size_t pool_size,
                     Clock::time_point start, double seconds, Record& rec) {
  if (next < pool_size || ms_since(start) >= seconds * 1000.0) return;
  rec.count(1, 1);
  std::cerr << "perfbench: fleet pool of " << pool_size
            << " queries used up after " << ms_since(start) / 1000.0
            << " s of " << seconds << " s\n";
}

/// The measured scatters of a run.  scatter_pass appends one segment at a
/// time; `at_s` runs over the segments end to end.
struct ScatterPass {
  std::vector<double> lat_ms;
  std::vector<double> at_s;  ///< completion time of each scatter
  double wall_s = 0.0;
};

void scatter_pass(Fleet& fleet, const std::vector<GenQuery>& seq,
                  std::size_t& next, const DigestBook& book, double seconds,
                  Record& rec, ScatterPass& pass) {
  const auto start = Clock::now();
  std::uint64_t attempted = 0;
  while (ms_since(start) < seconds * 1000.0 && next < seq.size()) {
    const GenQuery& g = seq[next++];
    ++attempted;
    const Json request = Json::parse(g.line);
    const auto t0 = Clock::now();
    const std::string response = fleet.scatter->scatter_line(request);
    const auto t1 = Clock::now();
    pass.lat_ms.push_back(ms_between(t0, t1));
    pass.at_s.push_back(pass.wall_s + ms_between(start, t1) / 1000.0);
    scatter_ok(response, &book, g, nullptr, rec);
  }
  pass.wall_s += ms_since(start) / 1000.0;
  rec.count(attempted, 0);
  check_pool_left(next, seq.size(), start, seconds, rec);
}

}  // namespace

std::vector<GenQuery> fleet_pool() {
  std::vector<GenQuery> pool;
  for (unsigned j = 0; j < kFleetPool; ++j) {
    pool.push_back(make_query(fleet_line(kPoolSeed0 + j)));
  }
  return pool;
}

std::vector<GenQuery> fleet_sequence(std::uint64_t seed, unsigned backends) {
  const unsigned ways = std::min({kMaxWays, kFleetTrials, backends});
  std::vector<std::string> ids;
  for (unsigned b = 0; b < backends; ++b) ids.push_back(backend_id(b));
  // Class = the most shards any one backend owns (1 .. ways).
  std::vector<std::vector<GenQuery>> classes(ways);
  for (GenQuery& g : fleet_pool()) {
    std::vector<unsigned> load(backends, 0);
    for (unsigned i = 0; i < ways; ++i) {
      netemu::Query shard = g.query;
      shard.trial_lo = i * kFleetTrials / ways;
      shard.trial_hi = (i + 1) * kFleetTrials / ways;
      ++load[netemu::rendezvous_rank(shard.cache_key(), ids)[0]];
    }
    classes[*std::max_element(load.begin(), load.end()) - 1].push_back(
        std::move(g));
  }
  return stratified(std::move(classes), seed);
}

void run_fleet_scatter(const Args& args, Record& rec) {
  const DigestBook book = load_book(args);
  const std::vector<GenQuery> seq =
      fleet_sequence(args.seed, fleet_backends(args));
  std::size_t next = 0;
  // The first set-up's fleet is the one measured; the later rounds build
  // their own beside it.
  std::unique_ptr<Fleet> fleet;
  ScatterPass pass;
  const std::vector<double> setup = interleave_setup(
      args.seconds,
      [&] {
        double took_s = 0.0;
        auto f = set_up(args, nullptr, rec, &took_s);
        if (!fleet) fleet = std::move(f);
        return took_s;
      },
      [&](double seconds) {
        scatter_pass(*fleet, seq, next, book, seconds, rec, pass);
      });

  double rss = 0.0;
  for (const auto& b : fleet->backends) {
    rss = std::max(rss, peak_rss_mb(b->proc.pid()));
  }
  const Latency lat = summarize_timed(pass.lat_ms, pass.at_s, pass.wall_s);
  rec.metric("ops_per_s", lat.per_s, "1/s");
  rec.metric("p50_ms", lat.p50, "ms");
  rec.metric("tail_ms", lat.tail, "ms");
  rec.latency("tail_ms", lat);
  rec.setup(setup);
  rec.metric("peak_rss_mb", rss, "MiB");
  Json d = Json::object();
  d["backends"] = fleet->backends.size();
  d["ways"] = fleet->ways;
  rec.detail("fleet_scatter.shape", std::move(d));
}

void ledger_fleet_scatter(const Args& args, Record& rec) {
  const DigestBook book = load_book(args);
  Phases phases;
  double setup_s = 0.0;
  auto fleet = set_up(args, &phases, rec, &setup_s);
  const std::vector<GenQuery> seq =
      fleet_sequence(args.seed, fleet_backends(args));
  std::size_t next = 0;
  const netemu::Scatterer::Stats stats0 = fleet->scatter->stats();
  ScatterPass plain;
  scatter_pass(*fleet, seq, next, book, args.seconds, rec, plain);

  // Traced pass, alternating two kinds of op on fresh queries:
  //  - a real scatter_line, split by the phase hook into the gather (from
  //    dispatch to the last shard settled) and everything else;
  //  - a shard probe: the same trial ranges the scatterer would cut, ranked
  //    and dispatched concurrently through FleetRouter::request, each timed,
  //    next to an in-process calibration of the same query.
  std::vector<double> traced_ms, merge_ms, rank_us, shard_ms, straggler,
      cal_share, unaccounted;
  const unsigned ways = fleet->ways;
  std::uint64_t attempted = 0;
  const auto start = Clock::now();
  for (std::size_t op = 0;
       ms_since(start) < args.seconds * 1000.0 && next < seq.size(); ++op) {
    const GenQuery& g = seq[next++];
    ++attempted;
    const Json request = Json::parse(g.line);
    if (op % 2 == 0) {
      const auto t0 = Clock::now();
      const std::string response = fleet->scatter->scatter_line(request);
      const auto t1 = Clock::now();
      scatter_ok(response, &book, g, nullptr, rec);
      const double wall = ms_between(t0, t1);
      const double gather = ms_between(phases.dispatch, phases.pre_merge);
      traced_ms.push_back(wall);
      merge_ms.push_back(wall - gather);
      unaccounted.push_back(
          1.0 - (gather + ms_between(phases.pre_merge, t1) +
                 ways * (rank_us.empty() ? 0.0 : median(rank_us)) / 1000.0) /
                    wall);
      continue;
    }
    std::vector<Json> subs;
    for (unsigned i = 0; i < ways; ++i) {
      Json sub = Json::object();
      for (const auto& [k, v] : request.fields()) sub[k] = v;
      sub["trial_lo"] = i * kFleetTrials / ways;
      sub["trial_hi"] = (i + 1) * kFleetTrials / ways;
      const auto r0 = Clock::now();
      fleet->router->rank_for(sub);
      rank_us.push_back(ms_since(r0) * 1000.0);
      subs.push_back(std::move(sub));
    }
    std::vector<double> ms(ways, 0.0);
    std::vector<char> ok(ways, 0);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < ways; ++i) {
      threads.emplace_back([&, i] {
        const auto s0 = Clock::now();
        const netemu::FleetRouter::Result r = fleet->router->request(subs[i]);
        ms[i] = ms_since(s0);
        ok[i] = r.ok && r.doc["ok"].as_bool(false) &&
                !r.doc["degraded"].as_bool(false);
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned i = 0; i < ways; ++i) {
      if (!ok[i]) rec.wrong("shard probe failed: " + subs[i].dump());
    }
    netemu::Query cal = g.query;
    cal.trial_lo = 0;
    cal.trial_hi = 1;
    const auto c0 = Clock::now();
    netemu::plan_query(cal);
    const double cal_ms = ms_since(c0);
    double sum = 0.0;
    for (const double m : ms) sum += m;
    shard_ms.insert(shard_ms.end(), ms.begin(), ms.end());
    straggler.push_back(*std::max_element(ms.begin(), ms.end()) / median(ms));
    cal_share.push_back(ways * cal_ms / sum);
  }
  rec.count(attempted, 0);
  check_pool_left(next, seq.size(), start, args.seconds, rec);
  const netemu::Scatterer::Stats stats1 = fleet->scatter->stats();

  rec.metric("fleet.rank_us", median(rank_us), "us");
  rec.metric("fleet.shard_ms", median(shard_ms), "ms");
  rec.metric("fleet.straggler_ratio", median(straggler), "ratio");
  rec.metric("fleet.merge_ms", median(merge_ms), "ms");
  rec.metric("fleet.calibration_share", median(cal_share), "ratio");
  rec.metric("fleet.subqueries",
             static_cast<double>(stats1.subqueries - stats0.subqueries),
             "count");
  rec.metric("fleet.straggler_retries",
             static_cast<double>(stats1.straggler_retries -
                                 stats0.straggler_retries),
             "count");
  rec.metric("fleet_scatter.unaccounted_share", median(unaccounted), "ratio");
  rec.metric("fleet_scatter.trace_overhead_share",
             median(traced_ms) / median(plain.lat_ms) - 1.0, "ratio");
  Json d = Json::object();
  d["ways"] = ways;
  d["untraced_scatters"] = plain.lat_ms.size();
  d["traced_scatters"] = traced_ms.size();
  d["shard_probes"] = straggler.size();
  rec.detail("fleet_scatter.ledger", std::move(d));
}

}  // namespace perfbench
