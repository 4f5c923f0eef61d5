// estimate_cold: cold estimate queries through plan_query, one at a time,
// each on a ThreadPool of nproc threads.  The estimate pipeline does all of
// the work; the service stack does none.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "netemu/graph/algorithms.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using netemu::Json;

GenQuery make_query(const std::string& line) {
  std::string error;
  const auto q = netemu::query_from_json(Json::parse(line), &error);
  if (!q) {
    throw std::runtime_error("bad generated query " + line + ": " + error);
  }
  return GenQuery{line, *q};
}

namespace {

constexpr unsigned kEstimateTrials = 8;
constexpr unsigned kPoolSeeds = 48;  // per family

struct FamilyShape {
  const char* fields;  // family/size fields of the request
};
constexpr FamilyShape kFamilies[] = {
    {R"("family":"mesh","k":2,"n":1024)"},  // mesh32x32
    {R"("family":"butterfly","n":448)"},    // butterfly6
    {R"("family":"tree","n":1023)"},        // tree9
};

const char* arbitration_for(unsigned j) {
  switch (j % 8) {
    case 6: return "fifo";
    case 7: return "random";
    default: return "farthest-first";
  }
}

std::string estimate_line(unsigned family, unsigned j) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                R"({"op":"estimate",%s,"trials":%u,"seed":%u,)"
                R"("arbitration":"%s"})",
                kFamilies[family].fields, kEstimateTrials, 1000 + j,
                arbitration_for(j));
  return buf;
}

/// Fisher-Yates permutation of [0, n) drawn from `seed`.
std::vector<unsigned> permutation(unsigned n, std::uint64_t seed) {
  std::vector<unsigned> p(n);
  for (unsigned i = 0; i < n; ++i) p[i] = i;
  for (unsigned i = n; i > 1; --i) {
    const auto j = static_cast<unsigned>(mix64(seed, i) % i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

std::vector<netemu::Vertex> processor_list(const netemu::Machine& m) {
  if (!m.processors.empty()) return m.processors;
  std::vector<netemu::Vertex> all(m.graph.num_vertices());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<netemu::Vertex>(i);
  }
  return all;
}

/// Pool construction plus one single-trial estimate per family: the lazy
/// set-up a fresh process pays before its first real query.
double estimate_setup_s(const Args& args) {
  const auto t0 = Clock::now();
  netemu::ThreadPool pool(args.threads);
  for (unsigned f = 0; f < 3; ++f) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  R"({"op":"estimate",%s,"trials":1,"seed":7})",
                  kFamilies[f].fields);
    netemu::plan_query(make_query(buf).query, &pool).dump();
  }
  return ms_since(t0) / 1000.0;
}

/// The measured queries of a run.  cold_pass appends one segment at a
/// time; `at_s` runs over the segments end to end.
struct ColdPass {
  std::vector<GenQuery> seq;
  std::size_t next = 0;  ///< the next query of `seq`
  std::vector<double> lat_ms;
  std::vector<double> at_s;  ///< completion time of each query
  double wall_s = 0.0;
  std::uint64_t sim_messages = 0;
};

/// Untraced loop: plan_query + serialize per query for `seconds`, going on
/// through pass.seq where the last segment stopped.
void cold_pass(const DigestBook& book, netemu::ThreadPool& pool, Record& rec,
               double seconds, ColdPass& pass) {
  std::uint64_t attempted = 0;
  const std::uint64_t msgs0 = netemu::simulated_messages_total();
  const auto start = Clock::now();
  while (ms_since(start) < seconds * 1000.0) {
    const GenQuery& q = pass.seq[pass.next++ % pass.seq.size()];
    ++attempted;
    try {
      const auto t0 = Clock::now();
      const Json doc = netemu::plan_query(q.query, &pool);
      const std::string text = doc.dump();
      const auto t1 = Clock::now();
      pass.lat_ms.push_back(ms_between(t0, t1));
      pass.at_s.push_back(pass.wall_s + ms_between(start, t1) / 1000.0);
      check_estimate(book, q, doc, rec);
    } catch (const std::exception& e) {
      rec.wrong(q.line + ": " + e.what());
    }
  }
  pass.wall_s += ms_since(start) / 1000.0;
  pass.sim_messages += netemu::simulated_messages_total() - msgs0;
  rec.count(attempted, 0);
}

}  // namespace

std::vector<GenQuery> estimate_pool() {
  std::vector<GenQuery> pool;
  for (unsigned f = 0; f < 3; ++f) {
    for (unsigned j = 0; j < kPoolSeeds; ++j) {
      pool.push_back(make_query(estimate_line(f, j)));
    }
  }
  return pool;
}

std::vector<GenQuery> stratified(std::vector<std::vector<GenQuery>> classes,
                                 std::uint64_t seed) {
  std::size_t total = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::vector<unsigned> p = permutation(
        static_cast<unsigned>(classes[c].size()), mix64(seed, 100 + c));
    std::vector<GenQuery> shuffled;
    for (const unsigned i : p) shuffled.push_back(classes[c][i]);
    classes[c] = std::move(shuffled);
    total += classes[c].size();
  }
  std::vector<GenQuery> seq;
  std::vector<std::size_t> taken(classes.size(), 0);
  while (seq.size() < total) {
    std::size_t best = classes.size();
    double best_key = 0.0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (taken[c] == classes[c].size()) continue;
      const double key = (static_cast<double>(taken[c]) + 0.5) /
                         static_cast<double>(classes[c].size());
      if (best == classes.size() || key < best_key) {
        best = c;
        best_key = key;
      }
    }
    seq.push_back(classes[best][taken[best]++]);
  }
  return seq;
}

std::vector<GenQuery> estimate_sequence(std::uint64_t seed) {
  // Classes (family, arbitration): farthest-first, fifo, random.
  std::vector<std::vector<GenQuery>> classes(9);
  for (unsigned f = 0; f < 3; ++f) {
    for (unsigned j = 0; j < kPoolSeeds; ++j) {
      const unsigned a = j % 8 == 6 ? 1 : j % 8 == 7 ? 2 : 0;
      classes[f * 3 + a].push_back(make_query(estimate_line(f, j)));
    }
  }
  return stratified(std::move(classes), seed);
}

bool check_estimate(const DigestBook& book, const GenQuery& q,
                    const Json& result, Record& rec) {
  const std::string canonical = q.query.canonical_string();
  const std::string* want = book.find(canonical);
  if (want == nullptr) {
    rec.wrong("no recorded digest for " + canonical);
    return false;
  }
  const std::string got = estimate_digest(result);
  if (got != *want) {
    rec.wrong(canonical + ": digest " + got + " != recorded " + *want);
    return false;
  }
  return true;
}

int make_digests(const std::string& path, unsigned threads) {
  std::vector<GenQuery> all = estimate_pool();
  for (GenQuery& q : fleet_pool()) all.push_back(std::move(q));
  std::vector<std::string> digests(all.size());
  std::mutex mutex;
  std::size_t next = 0;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    workers.emplace_back([&] {
      for (;;) {
        std::size_t i;
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (next == all.size()) return;
          i = next++;
        }
        digests[i] = estimate_digest(netemu::plan_query(all[i].query));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  Json book = Json::object();
  for (std::size_t i = 0; i < all.size(); ++i) {
    book[all[i].query.canonical_string()] = digests[i];
  }
  Json doc = Json::object();
  doc["about"] =
      "estimate_digest of every estimate_cold and fleet_scatter pool query, "
      "computed by plan_query without a trial pool; regenerate with "
      "perfbench --make-digests only when a change is meant to move "
      "simulated results";
  doc["digests"] = std::move(book);
  std::ofstream out(path);
  out << doc.dump() << "\n";
  std::cout << "wrote " << all.size() << " digests to " << path << "\n";
  return out ? 0 : 1;
}

void run_estimate_cold(const Args& args, Record& rec) {
  const DigestBook book = load_book(args);
  netemu::ThreadPool pool(args.threads);
  ColdPass pass;
  pass.seq = estimate_sequence(args.seed);
  const std::vector<double> setup = interleave_setup(
      args.seconds, [&] { return estimate_setup_s(args); },
      [&](double seconds) { cold_pass(book, pool, rec, seconds, pass); });
  const double rss = peak_rss_mb(::getpid());

  const Latency lat = summarize_timed(pass.lat_ms, pass.at_s, pass.wall_s);
  rec.metric("ops_per_s", lat.per_s, "1/s");
  rec.metric("p50_ms", lat.p50, "ms");
  rec.metric("tail_ms", lat.tail, "ms");
  rec.latency("tail_ms", lat);
  rec.setup(setup);
  rec.metric("peak_rss_mb", rss, "MiB");
  rec.metric("sim_msgs_per_s",
             static_cast<double>(pass.sim_messages) / pass.wall_s, "1/s");
}

void ledger_estimate_cold(const Args& args, Record& rec) {
  const DigestBook book = load_book(args);
  const unsigned threads = args.threads;
  netemu::ThreadPool pool(threads);
  estimate_setup_s(args);  // warm, untimed

  // Untraced reference pass: the baseline for trace_overhead_share.
  ColdPass plain;
  plain.seq = estimate_sequence(args.seed);
  cold_pass(book, pool, rec, args.seconds, plain);

  // Traced pass: the estimate pipeline rebuilt from its public calls, each
  // timed, followed by standalone timings of the layers measure_throughput
  // runs internally, on the same machine and random streams: the diameter
  // sweep, the calibration (trial range [0, 1)) and every fan-out trial
  // [1, trials) through sample / route / prepare / run_batch.
  //
  // Covered time counts each layer's busy time with the fan-out's trial
  // work spread evenly over the pool, so what is left uncovered is pool
  // dispatch, threads idle behind the last trial, contention between
  // concurrent trials and the glue between calls.
  std::vector<double> total_ms, covered_ms, machine_ms, diam_ms, sample_ns,
      route_ns, prepare_ns, batch_ms, tick_ns, calibrate_ms, serialize_ms,
      serial_share, unaccounted;
  const std::vector<GenQuery> seq = estimate_sequence(args.seed);
  std::uint64_t attempted = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; ms_since(start) < args.seconds * 1000.0; ++i) {
    const GenQuery& g = seq[i % seq.size()];
    const netemu::Query& q = g.query;
    ++attempted;
    const auto t0 = Clock::now();
    netemu::Prng rng(q.seed);
    const netemu::Machine machine =
        netemu::make_machine(q.family, static_cast<std::size_t>(q.n), q.k, rng);
    const auto t1 = Clock::now();
    auto router = netemu::make_default_router(machine);
    const netemu::TrafficDistribution traffic =
        netemu::TrafficDistribution::symmetric(processor_list(machine));
    const netemu::Prng after_machine = rng;
    netemu::ThroughputOptions opt;
    opt.trials = q.trials;
    opt.arbitration = q.arbitration;
    opt.pool = &pool;
    const auto t2 = Clock::now();
    const netemu::ThroughputResult r =
        netemu::measure_throughput(machine, *router, traffic, rng, opt);
    const auto t3 = Clock::now();
    Json doc = Json::object();
    doc["beta_hat"] = r.rate;
    doc["beta_hat_min"] = r.rate_min;
    doc["beta_hat_max"] = r.rate_max;
    Json rates = Json::array();
    for (const double rate : r.trial_rates) rates.items().emplace_back(rate);
    doc["trial_rates"] = std::move(rates);
    doc["machine"] = machine.name;
    doc["router"] = router->name();
    doc["arbitration"] = netemu::arbitration_name(q.arbitration);
    doc["seed"] = q.seed;
    doc["trials"] = q.trials;
    doc["messages"] = r.messages;
    doc["makespan"] = r.last.makespan;
    doc["avg_latency"] = r.last.avg_latency;
    doc["static_congestion"] = r.last.static_congestion;
    doc["simulated_ticks"] = r.total_ticks;
    const std::string text = doc.dump();
    const auto t4 = Clock::now();
    check_estimate(book, g, Json::parse(text), rec);

    // measure_throughput seeds everything from one draw of the caller's
    // stream: stream(base, 0) for the diameter sweep, stream(base, 1 + t)
    // for trial t.
    netemu::Prng base_rng = after_machine;
    const std::uint64_t base = base_rng();
    netemu::Prng diam_rng = netemu::Prng::stream(base, 0);
    const auto d0 = Clock::now();
    netemu::diameter_double_sweep(machine.graph, diam_rng);
    diam_ms.push_back(ms_since(d0));

    netemu::Prng cal_rng = after_machine;
    netemu::ThroughputOptions cal = opt;
    cal.trial_lo = 0;
    cal.trial_hi = 1;
    const auto c0 = Clock::now();
    netemu::measure_throughput(machine, *router, traffic, cal_rng, cal);
    const double cal_ms = ms_since(c0);

    const netemu::PacketSimulator sim(machine, q.arbitration);
    double fanout_work_ms = 0.0;
    netemu::BatchStats last{};
    for (unsigned t = 1; t < q.trials; ++t) {
      netemu::Prng trial_rng = netemu::Prng::stream(base, 1 + t);
      const auto s0 = Clock::now();
      const std::vector<netemu::Message> msgs =
          traffic.batch(r.messages, trial_rng);
      const auto s1 = Clock::now();
      std::vector<std::vector<netemu::Vertex>> paths(msgs.size());
      for (std::size_t k = 0; k < msgs.size(); ++k) {
        router->route_append(msgs[k].src, msgs[k].dst, trial_rng, paths[k]);
      }
      const auto s2 = Clock::now();
      const auto prepared = sim.prepare(paths);
      const auto s3 = Clock::now();
      last = sim.run_batch(prepared, trial_rng);
      const auto s4 = Clock::now();
      const double m = static_cast<double>(msgs.size());
      fanout_work_ms += ms_between(s0, s4);
      sample_ns.push_back(ms_between(s0, s1) * 1e6 / m);
      route_ns.push_back(ms_between(s1, s2) * 1e6 / m);
      prepare_ns.push_back(ms_between(s2, s3) * 1e6 /
                           static_cast<double>(prepared.total_hops()));
      batch_ms.push_back(ms_between(s3, s4));
      tick_ns.push_back(ms_between(s3, s4) * 1e6 /
                        (m * static_cast<double>(last.makespan)));
    }
    // The standalone trials must be the pipeline's own: the last one
    // reproduces the result's makespan.
    if (q.trials > 1 && last.makespan != r.last.makespan) {
      rec.wrong(g.line + ": ledger trial makespan " +
                std::to_string(last.makespan) + " != pipeline's " +
                std::to_string(r.last.makespan));
    }

    const double width = std::min<double>(threads, std::max(1u, q.trials - 1));
    const double total = ms_between(t0, t4);
    const double covered = ms_between(t0, t2) + cal_ms +
                           fanout_work_ms / width + ms_between(t3, t4);
    total_ms.push_back(total);
    covered_ms.push_back(covered);
    machine_ms.push_back(ms_between(t0, t1));
    calibrate_ms.push_back(cal_ms);
    serialize_ms.push_back(ms_between(t3, t4));
    serial_share.push_back(cal_ms / total);
    unaccounted.push_back(1.0 - covered / total);
  }
  rec.count(attempted, 0);

  // Fixed ledger set, one query per family: counts that repeat exactly for
  // a seed, and the 1-thread against nproc-thread wall time.
  double one_thread_ms = 0.0, n_thread_ms = 0.0;
  double batch_messages = 0.0, sim_ticks = 0.0;
  for (std::size_t f = 0; f < 3; ++f) {
    const GenQuery& g = seq[f];
    auto t0 = Clock::now();
    const Json serial = netemu::plan_query(g.query, nullptr);
    one_thread_ms += ms_since(t0);
    t0 = Clock::now();
    const Json pooled = netemu::plan_query(g.query, &pool);
    n_thread_ms += ms_since(t0);
    check_estimate(book, g, serial, rec);
    check_estimate(book, g, pooled, rec);
    batch_messages += pooled["messages"].as_number();
    sim_ticks += pooled["simulated_ticks"].as_number();
  }
  rec.count(6, 0);

  rec.metric("topology.make_machine_ms", median(machine_ms), "ms");
  rec.metric("graph.diameter_sweep_ms", median(diam_ms), "ms");
  rec.metric("traffic.sample_ns_per_msg", median(sample_ns), "ns");
  rec.metric("routing.route_ns_per_msg", median(route_ns), "ns");
  rec.metric("routing.prepare_ns_per_hop", median(prepare_ns), "ns");
  rec.metric("routing.run_batch_ms", median(batch_ms), "ms");
  rec.metric("routing.ns_per_msg_tick", median(tick_ns), "ns");
  rec.metric("routing.calibrate_ms", median(calibrate_ms), "ms");
  rec.metric("routing.serial_share", median(serial_share), "ratio");
  rec.metric("routing.thread_speedup", one_thread_ms / n_thread_ms, "ratio");
  rec.metric("routing.batch_messages", batch_messages, "count");
  rec.metric("routing.sim_ticks", sim_ticks, "count");
  rec.metric("service.plan_serialize_ms", median(serialize_ms), "ms");
  rec.metric("estimate_cold.unaccounted_share", median(unaccounted), "ratio");
  // Both passes walk the same query sequence from its start, so query i of
  // one pass is query i of the other: compare them pairwise.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < std::min(total_ms.size(), plain.lat_ms.size());
       ++i) {
    overhead.push_back(total_ms[i] / plain.lat_ms[i] - 1.0);
  }
  rec.metric("estimate_cold.trace_overhead_share", median(overhead), "ratio");
  Json d = Json::object();
  d["traced_queries"] = total_ms.size();
  d["traced_wall_ms"] = median(total_ms);
  d["covered_ms"] = median(covered_ms);
  d["untraced_queries"] = plain.lat_ms.size();
  d["pool_threads"] = threads;
  rec.detail("estimate_cold.ledger", std::move(d));
}

}  // namespace perfbench
