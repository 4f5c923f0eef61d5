// request_hot and request_mixed: a spawned netemu_serve driven over TCP.
//
// request_hot  — memory-only cache pre-warmed with a working set of all four
//                query kinds; a closed loop of nproc connections, one
//                outstanding request each.  Every request is a cache hit.
// request_mixed — cache file + WAL journal, capacity below the miss stream;
//                an open loop on a fixed schedule at a few offered rates,
//                mostly hits plus a steady share of fresh misses.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iostream>
#include <set>
#include <thread>

#include "netemu/service/executor.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using netemu::Json;

namespace {

constexpr std::size_t kHotPerKind = 64;    // 256 queries, cache holds 4096
constexpr std::size_t kMixedPerKind = 32;  // 128 warm queries
constexpr std::size_t kMixedCapacity = 256;
constexpr unsigned kMissEvery = 10;        // every 10th request is a miss
// Offered rates of the open loop (requests/s), each held for an equal
// share of the run, and the latency limits slo_rate_per_s is judged by.
constexpr double kMixedRates[] = {1000.0, 2000.0, 4000.0, 8000.0};
constexpr double kHitLimitMs = 10.0;
constexpr double kMissLimitMs = 50.0;

const char* const kGuests[] = {"butterfly", "mesh2",     "mesh3",  "tree",
                               "hypercube", "ccc",       "debruijn", "pyramid2",
                               "xtree",     "multigrid2", "torus2", "ring",
                               "expander"};
const char* const kHosts[] = {"mesh2", "tree", "mesh3", "butterfly"};

/// The i-th generated query of one kind (0 bandwidth, 1 max_host,
/// 2 bounds, 3 estimate) for a seed; fresh n, m or seed per (seed, i).
std::string kind_line(unsigned kind, std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t r = mix64(seed, i * 4 + kind);
  const char* guest = kGuests[r % 13];
  const char* host = kHosts[(r >> 8) % 4];
  char buf[256];
  switch (kind) {
    case 0:
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"bandwidth","family":"%s","n":%llu})", guest,
                    static_cast<unsigned long long>(1024 + (r >> 16) % 999999));
      break;
    case 1:
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"max_host","guest":"%s","n":%llu,"host":"%s"})",
                    guest,
                    static_cast<unsigned long long>(4096 + (r >> 16) % 1000000),
                    host);
      break;
    case 2:
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"bounds","guest":"%s","n":1048576,"host":"%s",)"
                    R"("m":%llu})",
                    guest, host,
                    static_cast<unsigned long long>(16 + (r >> 16) % 60000));
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    R"({"op":"estimate","family":"tree","n":31,"trials":1,)"
                    R"("seed":%llu})",
                    static_cast<unsigned long long>((r >> 12) % 1000000000));
      break;
  }
  return buf;
}

/// Queries with their expected result text (in-process plan_query).
struct QuerySet {
  std::vector<GenQuery> queries;
  std::vector<std::string> expected;
};

QuerySet working_set(std::uint64_t seed, std::size_t per_kind,
                     netemu::ThreadPool& pool) {
  QuerySet set;
  std::set<std::uint64_t> keys;
  for (unsigned kind = 0; kind < 4; ++kind) {
    std::size_t have = 0;
    for (std::uint64_t i = 0; have < per_kind; ++i) {
      GenQuery g = make_query(kind_line(kind, seed, i));
      if (!keys.insert(g.query.cache_key()).second) continue;
      set.queries.push_back(std::move(g));
      ++have;
    }
  }
  set.expected.resize(set.queries.size());
  pool.parallel_for(0, set.queries.size(), [&](std::size_t i) {
    set.expected[i] = netemu::plan_query(set.queries[i].query).dump();
  });
  return set;
}

std::string with_trace(const std::string& line, std::uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"trace\":\"%016llx\"}",
                static_cast<unsigned long long>(id));
  return line.substr(0, line.size() - 1) + buf;
}

/// Sends every query of `set` once over `conns` parallel connections and
/// checks each answer.  Each connection's share goes out in one write, so
/// the warm-up time is the daemon's work rather than one client wake-up
/// per request.  Returns false on a transport failure.
bool warm(std::uint16_t port, const QuerySet& set, unsigned conns,
          Record& rec) {
  std::atomic<bool> ok{true};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      std::string error, batch, line;
      if (!conn.connect(port, &error)) {
        ok = false;
        return;
      }
      for (std::size_t i = c; i < set.queries.size(); i += conns) {
        if (!batch.empty()) batch += '\n';
        batch += set.queries[i].line;
      }
      if (!conn.send(batch)) {
        ok = false;
        return;
      }
      for (std::size_t i = c; i < set.queries.size(); i += conns) {
        if (!conn.recv(line)) {
          ok = false;
          return;
        }
        if (!response_matches(line, set.expected[i])) ++wrong;
      }
    });
  }
  for (auto& t : threads) t.join();
  rec.count(set.queries.size(), ok ? 0 : set.queries.size());
  for (std::uint64_t i = 0; i < wrong; ++i) rec.wrong("warm-up answer differs");
  return ok;
}

std::vector<std::string> serve_flags_hot() { return {"--no-persist"}; }

std::vector<std::string> serve_flags_mixed(const std::string& dir) {
  return {"--cache-file", dir + "/cache.json", "--cache-capacity",
          std::to_string(kMixedCapacity)};
}

/// Spawns a daemon (on a wiped `wipe` directory, when given) and warms
/// it; `took_s` gets the spawn + warm-up time.
std::unique_ptr<Daemon> set_up(const Args& args,
                               const std::vector<std::string>& flags,
                               const QuerySet& set, const std::string& wipe,
                               Record& rec, double* took_s) {
  if (!wipe.empty()) {
    std::filesystem::remove_all(wipe);
    std::filesystem::create_directories(wipe);
  }
  std::string error;
  const auto t0 = Clock::now();
  auto daemon = spawn_daemon(args.serve_bin, flags, &error);
  if (!daemon) throw std::runtime_error(error);
  if (!warm(daemon->port, set, args.threads, rec)) {
    throw std::runtime_error("warm-up lost its connection");
  }
  *took_s = ms_since(t0) / 1000.0;
  return daemon;
}

/// The samples of a closed loop.  closed_loop appends one segment at a
/// time; `at_s` runs over the segments end to end.
struct ClosedLoop {
  std::vector<double> lat_ms;
  std::vector<double> at_s;  ///< completion time of each sample
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  double wall_s = 0.0;
  unsigned segments = 0;
};

/// nproc connections, one outstanding request each, uniform over the set,
/// multiplexed with poll() on the calling thread, for `seconds`.  Every
/// response must be a cache hit whose result equals the in-process answer.
void closed_loop(const Args& args, std::uint16_t port, const QuerySet& set,
                 double seconds, bool traced, ClosedLoop& out) {
  struct Slot {
    Conn conn;
    std::uint64_t r = 0;
    std::size_t query = 0;
    Clock::time_point sent;
    std::string outbuf;
    bool busy = false;
  };
  std::vector<std::unique_ptr<Slot>> slots;
  std::vector<pollfd> fds;
  for (unsigned c = 0; c < args.threads; ++c) {
    auto slot = std::make_unique<Slot>();
    std::string error;
    if (!slot->conn.connect(port, &error)) {
      ++out.attempted;
      ++out.failed;
      continue;
    }
    slot->conn.set_nonblocking();
    slot->r = mix64(args.seed, 1000 + 64 * out.segments + c);
    fds.push_back({slot->conn.fd(), POLLIN, 0});
    slots.push_back(std::move(slot));
  }
  ++out.segments;
  if (out.lat_ms.capacity() == 0) {
    out.lat_ms.reserve(1 << 21);
    out.at_s.reserve(1 << 21);
  }
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  const auto issue = [&](Slot& s) {
    s.r = mix64(s.r, 1);
    s.query = s.r % set.queries.size();
    s.outbuf = traced ? with_trace(set.queries[s.query].line, s.r | 1)
                      : set.queries[s.query].line;
    s.outbuf += '\n';
    ++out.attempted;
    s.busy = true;
    s.sent = Clock::now();
    return s.conn.flush_some(s.outbuf);
  };
  bool alive = true;
  for (auto& s : slots) alive = alive && issue(*s);
  std::vector<std::string> lines;
  while (alive) {
    bool any_busy = false;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      fds[k].events = static_cast<short>(
          POLLIN | (slots[k]->outbuf.empty() ? 0 : POLLOUT));
      any_busy = any_busy || slots[k]->busy;
    }
    if (!any_busy) break;
    if (::poll(fds.data(), fds.size(), 1000) <= 0) {
      break;  // a hit never takes a second: the busy slots count as failed
    }
    for (std::size_t k = 0; k < slots.size() && alive; ++k) {
      Slot& s = *slots[k];
      if (fds[k].revents == 0) continue;
      if (!s.conn.flush_some(s.outbuf)) alive = false;
      lines.clear();
      if (!s.conn.read_some(lines)) alive = false;
      for (const std::string& line : lines) {
        const auto now = Clock::now();
        out.lat_ms.push_back(ms_between(s.sent, now));
        out.at_s.push_back(out.wall_s + ms_between(start, now) / 1000.0);
        s.busy = false;
        if (!response_is_hit(line) ||
            !response_matches(line, set.expected[s.query])) {
          ++out.wrong;
        }
        if (now < deadline && !issue(s)) alive = false;
      }
    }
  }
  for (auto& s : slots) out.failed += s->busy ? 1 : 0;
  out.wall_s += ms_since(start) / 1000.0;
}

void count_closed(const ClosedLoop& loop, Record& rec) {
  rec.count(loop.attempted, loop.failed);
  for (std::uint64_t i = 0; i < loop.wrong; ++i) {
    rec.wrong("request_hot response is no cache hit or differs from "
              "plan_query");
  }
}

double stat_delta(const Json& after, const Json& before, const char* key) {
  return after[key].as_number() - before[key].as_number();
}

// ---- request_mixed ------------------------------------------------------

struct Planned {
  double due_s = 0.0;      ///< offset from the schedule start
  unsigned level = 0;
  bool miss = false;
  std::size_t index = 0;   ///< into the warm set or the miss list
};

struct Outcome {
  double lat_ms = -1.0;    ///< from due time to response; <0 = no answer
  double lag_ms = 0.0;     ///< send time minus due time
  double micros = -1.0;    ///< server-side wall time
  bool hit = false;
  bool shed = false;
  std::string response;    ///< the response line, checked after the run
};

struct MixedPlan {
  QuerySet warm;
  std::vector<GenQuery> misses;
  std::vector<Planned> schedule;
  std::vector<double> level_rates;
};

MixedPlan mixed_plan(const Args& args, double seconds,
                     netemu::ThreadPool& pool) {
  MixedPlan plan;
  plan.warm = working_set(args.seed, kMixedPerKind, pool);
  const double level_s = seconds / std::size(kMixedRates);
  std::uint64_t r = mix64(args.seed, 77);
  for (unsigned level = 0; level < std::size(kMixedRates); ++level) {
    const double rate = kMixedRates[level];
    plan.level_rates.push_back(rate);
    const auto count = static_cast<std::size_t>(rate * level_s);
    for (std::size_t k = 0; k < count; ++k) {
      Planned p;
      p.due_s = level * level_s + static_cast<double>(k) / rate;
      p.level = level;
      r = mix64(r, k);
      if (k % kMissEvery == kMissEvery - 1) {
        // Fresh misses: a small estimate with a new seed, or a closed-form
        // query with a new n / m, cycling through the kinds.
        const std::size_t i = plan.misses.size();
        const unsigned kind = static_cast<unsigned>(i % 3) + 1;  // 1..3
        plan.misses.push_back(
            make_query(kind_line(kind, mix64(args.seed, 4242), 100000 + i)));
        p.miss = true;
        p.index = i;
      } else {
        p.index = r % plan.warm.queries.size();
      }
      plan.schedule.push_back(p);
    }
  }
  return plan;
}

const std::string& planned_line(const MixedPlan& plan, const Planned& p) {
  return p.miss ? plan.misses[p.index].line : plan.warm.queries[p.index].line;
}

/// Open loop: request j goes out on connection j % conns at its due time,
/// pipelined; responses come back in order per connection.
std::vector<Outcome> open_loop(const Args& args, std::uint16_t port,
                               const MixedPlan& plan, bool traced) {
  const unsigned conns = args.threads;
  std::vector<Outcome> out(plan.schedule.size());
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const double last_due =
      plan.schedule.empty() ? 0.0 : plan.schedule.back().due_s;
  const auto give_up =
      start + std::chrono::milliseconds(
                  static_cast<long long>(last_due * 1000.0) + 30000);
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Conn conn;
      std::string error;
      if (!conn.connect(port, &error)) return;
      conn.set_nonblocking();
      std::vector<std::size_t> mine;
      for (std::size_t j = c; j < plan.schedule.size(); j += conns) {
        mine.push_back(j);
      }
      std::size_t next = 0;
      std::deque<std::size_t> inflight;
      std::string outbuf;
      std::vector<std::string> lines;
      while ((next < mine.size() || !inflight.empty()) &&
             Clock::now() < give_up) {
        auto now = Clock::now();
        const double t = std::chrono::duration<double>(now - start).count();
        while (next < mine.size() && plan.schedule[mine[next]].due_s <= t) {
          const std::size_t j = mine[next++];
          const Planned& p = plan.schedule[j];
          const std::string& line = planned_line(plan, p);
          outbuf += traced ? with_trace(line, mix64(args.seed, j) | 1) : line;
          outbuf += '\n';
          out[j].lag_ms = (t - p.due_s) * 1000.0;
          inflight.push_back(j);
        }
        if (!conn.flush_some(outbuf)) return;
        double wait_s = 0.05;
        if (next < mine.size()) {
          wait_s = std::min(wait_s, plan.schedule[mine[next]].due_s - t);
        }
        pollfd pfd{conn.fd(), static_cast<short>(
                                  POLLIN | (outbuf.empty() ? 0 : POLLOUT)),
                   0};
        if (wait_s > 0) {
          const timespec ts{0, static_cast<long>(wait_s * 1e9)};
          ::ppoll(&pfd, 1, &ts, nullptr);
        }
        lines.clear();
        if (!conn.read_some(lines)) return;
        now = Clock::now();
        const double tr = std::chrono::duration<double>(now - start).count();
        for (std::string& line : lines) {
          if (inflight.empty()) return;  // unsolicited line: give up
          const std::size_t j = inflight.front();
          inflight.pop_front();
          Outcome& o = out[j];
          o.lat_ms = (tr - plan.schedule[j].due_s) * 1000.0;
          o.micros = response_micros(line);
          o.hit = response_is_hit(line);
          o.shed = line.find("\"overloaded\":true") != std::string::npos;
          o.response = std::move(line);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

struct MixedSummary {
  std::vector<double> all, hits, misses, lag;
  std::vector<double> all_at, hits_at, misses_at;  ///< due times (s)
  std::uint64_t attempted = 0, failed = 0, shed = 0;
  double span_s = 0.0;
  double sum_lat_ms = 0.0;      ///< over answered requests
  double sum_covered_ms = 0.0;  ///< generator lag + server-side micros
  std::vector<double> miss_compute_ms;  ///< in-process plan_query per miss
  std::vector<double> queue_wait_ms;    ///< server micros minus that compute
  std::vector<std::string> miss_results;
  double slo_rate = 0.0;
  Json levels = Json::array();
};

/// Checks every answer (hits against the warm set's expected text, misses
/// against an in-process plan_query timed for service.miss_compute_ms) and
/// folds the outcomes into latency samples and per-level SLO verdicts.
MixedSummary summarize_mixed(const MixedPlan& plan,
                             std::vector<Outcome>& out, Record& rec) {
  MixedSummary s;
  std::vector<std::vector<double>> level_hits(plan.level_rates.size()),
      level_misses(plan.level_rates.size()), level_all(plan.level_rates.size());
  double last_done = 0.0;
  for (std::size_t j = 0; j < out.size(); ++j) {
    const Planned& p = plan.schedule[j];
    Outcome& o = out[j];
    ++s.attempted;
    if (o.lat_ms < 0 || o.shed) {
      ++s.failed;
      s.shed += o.shed ? 1 : 0;
      continue;
    }
    std::string expected;
    if (p.miss) {
      const auto t0 = Clock::now();
      expected = netemu::plan_query(plan.misses[p.index].query).dump();
      const double compute = ms_since(t0);
      s.miss_compute_ms.push_back(compute);
      if (o.micros >= 0) {
        s.queue_wait_ms.push_back(o.micros / 1000.0 - compute);
      }
      s.miss_results.push_back(expected);
    }
    const std::string& want = p.miss ? expected : plan.warm.expected[p.index];
    if (!response_matches(o.response, want)) {
      rec.wrong("request_mixed answer differs: " + planned_line(plan, p));
      continue;
    }
    last_done = std::max(last_done, p.due_s + o.lat_ms / 1000.0);
    s.sum_lat_ms += o.lat_ms;
    s.sum_covered_ms += o.lag_ms + std::max(0.0, o.micros) / 1000.0;
    s.all.push_back(o.lat_ms);
    s.all_at.push_back(p.due_s);
    s.lag.push_back(o.lag_ms);
    (o.hit ? s.hits : s.misses).push_back(o.lat_ms);
    (o.hit ? s.hits_at : s.misses_at).push_back(p.due_s);
    level_all[p.level].push_back(o.lat_ms);
    (o.hit ? level_hits : level_misses)[p.level].push_back(o.lat_ms);
  }
  s.span_s = last_done;
  rec.count(s.attempted, s.failed);

  for (std::size_t level = 0; level < plan.level_rates.size(); ++level) {
    const Latency h = summarize(level_hits[level]);
    const Latency m = summarize(level_misses[level]);
    // Growing backlog: the last quarter of the level answers much slower
    // than the first quarter.
    const std::vector<double>& a = level_all[level];
    const std::size_t q = a.size() / 4;
    const double early = median(std::vector<double>(a.begin(), a.begin() + q));
    const double late = median(std::vector<double>(a.end() - q, a.end()));
    const bool backlog = q > 0 && late > 2.0 * early + 1.0;
    const bool meets = h.n > 0 && h.tail <= kHitLimitMs &&
                       (m.n == 0 || m.tail <= kMissLimitMs) && !backlog;
    if (meets) s.slo_rate = plan.level_rates[level];
    Json l = Json::object();
    l["offered_per_s"] = plan.level_rates[level];
    l["hit_tail_ms"] = h.tail;
    l["hit_tail_percentile"] = h.tail_pct;
    l["miss_tail_ms"] = m.tail;
    l["miss_tail_percentile"] = m.tail_pct;
    l["backlog"] = backlog;
    l["meets_slo"] = meets;
    s.levels.items().push_back(std::move(l));
  }
  return s;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return static_cast<double>(part) /
         static_cast<double>(std::max<std::uint64_t>(1, whole));
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string mixed_dir(const Args& args) {
  return args.work_dir + "/mixed-" + std::to_string(::getpid());
}

}  // namespace

void run_request_hot(const Args& args, Record& rec) {
  netemu::ThreadPool pool(args.threads);
  const QuerySet set = working_set(args.seed, kHotPerKind, pool);
  // The first set-up's daemon is the one measured; the later rounds spawn
  // their own beside it.
  std::unique_ptr<Daemon> daemon;
  ClosedLoop loop;
  const std::vector<double> setup = interleave_setup(
      args.seconds,
      [&] {
        double took_s = 0.0;
        auto d = set_up(args, serve_flags_hot(), set, "", rec, &took_s);
        if (daemon) {
          d->proc.terminate();
        } else {
          daemon = std::move(d);
        }
        return took_s;
      },
      [&](double seconds) {
        closed_loop(args, daemon->port, set, seconds, false, loop);
      });
  const double rss = peak_rss_mb(daemon->proc.pid());
  daemon->proc.terminate();
  count_closed(loop, rec);
  const Latency lat = summarize_timed(loop.lat_ms, loop.at_s, loop.wall_s);
  rec.metric("ops_per_s", lat.per_s, "1/s");
  rec.metric("p50_ms", lat.p50, "ms");
  rec.metric("tail_ms", lat.tail, "ms");
  rec.latency("tail_ms", lat);
  rec.setup(setup);
  rec.metric("peak_rss_mb", rss, "MiB");
}

void ledger_request_hot(const Args& args, Record& rec) {
  netemu::ThreadPool pool(args.threads);
  const QuerySet set = working_set(args.seed, kHotPerKind, pool);
  double setup_s = 0.0;
  auto daemon = set_up(args, serve_flags_hot(), set, "", rec, &setup_s);
  const Json before = daemon_stats(daemon->port);
  ClosedLoop plain, traced;
  closed_loop(args, daemon->port, set, args.seconds, false, plain);
  const Json after = daemon_stats(daemon->port);
  closed_loop(args, daemon->port, set, args.seconds, true, traced);
  count_closed(plain, rec);
  count_closed(traced, rec);
  daemon->proc.terminate();

  // The hit path's layers, timed in process on the same working set
  // against an executor warmed the same way.
  netemu::QueryExecutor::Options opt;
  opt.threads = args.threads;
  netemu::QueryExecutor exec(opt);
  for (const GenQuery& g : set.queries) exec.execute(g.query);
  std::vector<double> parse_us, key_us, probe_us, ser_us, fast_us;
  const std::size_t rounds = 20;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < set.queries.size(); ++i) {
      const std::string& line = set.queries[i].line;
      auto t0 = Clock::now();
      const Json doc = Json::parse(line);
      auto t1 = Clock::now();
      std::string error;
      const auto q = netemu::query_from_json(doc, &error);
      const std::uint64_t key = q->cache_key();
      auto t2 = Clock::now();
      const auto cached = exec.try_cached(*q);
      auto t3 = Clock::now();
      const std::string resp = netemu::response_to_line(*cached);
      auto t4 = Clock::now();
      const auto fast = netemu::try_handle_request_line_fast(line, exec);
      auto t5 = Clock::now();
      if (!fast || key != cached->key ||
          !response_matches(*fast, set.expected[i]) ||
          !response_matches(resp, set.expected[i])) {
        rec.wrong("in-process hit path differs: " + line);
      }
      parse_us.push_back(ms_between(t0, t1) * 1000.0);
      key_us.push_back(ms_between(t1, t2) * 1000.0);
      probe_us.push_back(ms_between(t2, t3) * 1000.0);
      ser_us.push_back(ms_between(t3, t4) * 1000.0);
      fast_us.push_back(ms_between(t4, t5) * 1000.0);
    }
  }
  rec.count(rounds * set.queries.size(), 0);

  const double p50_ms = summarize(plain.lat_ms).p50;
  const double layers_us =
      median(parse_us) + median(key_us) + median(probe_us) + median(ser_us);
  const double requests = stat_delta(after, before, "requests");
  rec.metric("service.parse_us", median(parse_us), "us");
  rec.metric("service.query_key_us", median(key_us), "us");
  rec.metric("service.cache_probe_us", median(probe_us), "us");
  rec.metric("service.serialize_us", median(ser_us), "us");
  rec.metric("service.fast_path_us", median(fast_us), "us");
  rec.metric("service.wire_share", 1.0 - median(fast_us) / 1000.0 / p50_ms,
             "ratio");
  rec.metric("service.cache_hit_ratio",
             requests > 0 ? stat_delta(after, before, "cache_hits") / requests
                          : 0.0,
             "ratio");
  rec.metric("request_hot.unaccounted_share", 1.0 - layers_us / 1000.0 / p50_ms,
             "ratio");
  rec.metric("request_hot.trace_overhead_share",
             summarize(traced.lat_ms).p50 / p50_ms - 1.0, "ratio");
  Json d = Json::object();
  d["untraced_requests"] = plain.lat_ms.size();
  d["traced_requests"] = traced.lat_ms.size();
  rec.detail("request_hot.ledger", std::move(d));
}

void run_request_mixed(const Args& args, Record& rec) {
  netemu::ThreadPool pool(args.threads);
  const MixedPlan plan = mixed_plan(args, args.seconds, pool);
  const std::string dir = mixed_dir(args);
  // The open loop's schedule is one piece, so the set-up rounds run half
  // before it and half after; the last round before it is measured.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  const auto round = [&] {
    if (daemon) daemon->proc.terminate();
    double took_s = 0.0;
    daemon = set_up(args, serve_flags_mixed(dir), plan.warm, dir, rec,
                    &took_s);
    setup.push_back(took_s);
  };
  while (setup.size() < kSetupRounds / 2) round();
  std::vector<Outcome> out = open_loop(args, daemon->port, plan, false);
  const double rss = peak_rss_mb(daemon->proc.pid());
  while (setup.size() < kSetupRounds) round();
  daemon->proc.terminate();
  std::filesystem::remove_all(dir);
  const MixedSummary s = summarize_mixed(plan, out, rec);

  const double span = plan.schedule.back().due_s;
  const Latency all = summarize_timed(s.all, s.all_at, span);
  const Latency hits = summarize_timed(s.hits, s.hits_at, span);
  const Latency misses = summarize_timed(s.misses, s.misses_at, span);
  rec.metric("ops_per_s", static_cast<double>(s.all.size()) / s.span_s, "1/s");
  rec.metric("p50_ms", all.p50, "ms");
  rec.metric("tail_ms", all.tail, "ms");
  rec.latency("tail_ms", all);
  rec.setup(setup);
  rec.metric("peak_rss_mb", rss, "MiB");
  rec.metric("hit_tail_ms", hits.tail, "ms");
  rec.latency("hit_tail_ms", hits);
  rec.metric("miss_p50_ms", misses.p50, "ms");
  rec.metric("miss_tail_ms", misses.tail, "ms");
  rec.latency("miss_tail_ms", misses);
  rec.metric("slo_rate_per_s", s.slo_rate, "1/s");
  Json d = Json::object();
  d["levels"] = s.levels;
  d["hit_limit_ms"] = kHitLimitMs;
  d["miss_limit_ms"] = kMissLimitMs;
  d["miss_share"] = 1.0 / kMissEvery;
  rec.detail("request_mixed.schedule", std::move(d));
}

void ledger_request_mixed(const Args& args, Record& rec) {
  netemu::ThreadPool pool(args.threads);
  const MixedPlan plan = mixed_plan(args, args.seconds, pool);
  const std::string dir = mixed_dir(args);
  double setup_s = 0.0;
  auto daemon =
      set_up(args, serve_flags_mixed(dir), plan.warm, dir, rec, &setup_s);
  const Json before = daemon_stats(daemon->port);
  std::vector<Outcome> plain_out = open_loop(args, daemon->port, plan, false);
  const Json after = daemon_stats(daemon->port);
  daemon->proc.terminate();

  // The traced pass needs cold misses again: a fresh daemon on a wiped dir.
  daemon =
      set_up(args, serve_flags_mixed(dir), plan.warm, dir, rec, &setup_s);
  std::vector<Outcome> traced_out = open_loop(args, daemon->port, plan, true);
  daemon->proc.terminate();

  const MixedSummary plain = summarize_mixed(plan, plain_out, rec);
  const MixedSummary traced = summarize_mixed(plan, traced_out, rec);

  // Journaled cache puts of the miss results, in process.
  std::vector<double> put_us;
  {
    netemu::ResultCache cache(kMixedCapacity, dir + "/put-cache.json",
                              /*journal=*/true);
    std::uint64_t key = mix64(args.seed, 9);
    for (const std::string& value : plain.miss_results) {
      key = mix64(key, 1);
      const auto t0 = Clock::now();
      cache.put(key, value);
      put_us.push_back(ms_since(t0) * 1000.0);
    }
  }
  std::filesystem::remove_all(dir);

  const double p50 = median(plain.all);
  // Means, not medians: two thirds of the misses are closed-form queries
  // that compute in microseconds, so a median hides the estimates.
  rec.metric("service.miss_compute_ms", mean(plain.miss_compute_ms), "ms");
  rec.metric("service.queue_wait_ms", mean(plain.queue_wait_ms), "ms");
  rec.metric("service.cache_put_us", median(put_us), "us");
  rec.metric("service.shed_share", share(plain.shed, plain.attempted),
             "ratio");
  rec.metric("service.dedup_joins", stat_delta(after, before, "dedup_joins"),
             "count");
  rec.metric("generator.lag_ms", summarize(plain.lag).tail, "ms");
  // Covered: the generator's lag and the server-side time of each request
  // (queue wait + compute for misses, the probe for hits).  What remains is
  // the wire, the reactor, and hits queued behind a miss on their
  // connection.
  rec.metric("request_mixed.unaccounted_share",
             1.0 - plain.sum_covered_ms / plain.sum_lat_ms, "ratio");
  rec.metric("request_mixed.trace_overhead_share",
             median(traced.all) / p50 - 1.0, "ratio");
  Json d = Json::object();
  d["hit_p50_ms"] = median(plain.hits);
  d["miss_p50_ms"] = median(plain.misses);
  d["levels"] = plain.levels;
  rec.detail("request_mixed.ledger", std::move(d));
}

}  // namespace perfbench
