#pragma once
// Shared plumbing for the netemu benchmark: timing, latency summaries, the
// run record, answer digests, spawned daemons and a minimal line client.
//
// The benchmark stands outside the program: it calls the library's public
// functions and talks to the real daemon over TCP, and every timing it
// reports is taken here, around those calls.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netemu/faultline/process.hpp"
#include "netemu/util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< netemu_serve built beside this binary
  std::string work_dir;   ///< scratch space for cache files (inside checkout)
  std::string digests;    ///< recorded answer digests (digests.json)
  unsigned threads = 1;   ///< load and pool width: nproc
};

/// Median and tail of a latency sample.  The tail is the highest
/// percentile with at least ten samples beyond it, i.e. the 11th largest
/// value (the median when there are fewer than 20 samples); `tail_pct`
/// records which percentile that is for this sample.
struct Latency {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t block = 0;  ///< samples per tail block (0 = whole sample)
  double per_s = 0.0;     ///< samples per second (median over groups)
};
Latency summarize(std::vector<double> samples);

/// Timed samples of a long run: `at_s[i]` is when sample i completed.
/// A run of hundreds of thousands of requests has a tail made of a few
/// host-scheduling stalls, which no two runs share.  So when there are at
/// least kTailBlocks blocks of kTailBlock samples, the tail is taken per
/// block of consecutive samples (ten samples beyond it within the block)
/// and the median over blocks is reported.  The rate is the median over
/// kRateSlices groups of consecutive samples.  The median is over all
/// samples.
constexpr std::size_t kTailBlock = 2000;
constexpr std::size_t kTailBlocks = 5;
constexpr unsigned kRateSlices = 5;
Latency summarize_timed(const std::vector<double>& samples,
                        const std::vector<double>& at_s, double span_s);

/// Set-up (spawn + warm-up) is repeated kSetupRounds times per run and the
/// median is reported as setup_s.  A set-up round lasts tens to hundreds of
/// milliseconds, so back-to-back rounds all fall into one short stretch of
/// the shared host's load.  The rounds are therefore spread over the run:
/// kRoundsPerSlot rounds before each of kSetupSlots - 1 equal measured
/// segments and after the last one.
constexpr std::size_t kSetupSlots = 10;
constexpr std::size_t kRoundsPerSlot = 2;
constexpr std::size_t kSetupRounds = kSetupSlots * kRoundsPerSlot;

/// Calls `round()` (returns one set-up's seconds) and `segment(seconds)`
/// (measures for that long, appending to the run's samples) in the order
/// above; returns every round's time.
template <class Round, class Segment>
std::vector<double> interleave_setup(double seconds, Round round,
                                     Segment segment) {
  std::vector<double> times;
  for (std::size_t slot = 0; slot < kSetupSlots; ++slot) {
    for (std::size_t r = 0; r < kRoundsPerSlot; ++r) times.push_back(round());
    if (slot + 1 < kSetupSlots) segment(seconds / (kSetupSlots - 1));
  }
  return times;
}

/// Linear-interpolated quantile q in [0, 1] (0 on an empty sample).
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Accumulates one run's metrics, counts and details.  The last stdout line
/// of the binary is to_json(); run.py turns it into the contract result.
class Record {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void latency(const std::string& prefix, const Latency& lat);
  void detail(const std::string& name, netemu::Json value);
  void count(std::uint64_t attempted, std::uint64_t failed);
  /// setup_s (the median of `rounds_s`) and every round's time.
  void setup(const std::vector<double>& rounds_s);
  /// A wrong answer: counted as failed and logged to stderr.
  void wrong(const std::string& what);

  std::string to_json(const Args& args) const;

 private:
  netemu::Json metrics_ = netemu::Json::object();
  netemu::Json details_ = netemu::Json::object();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t wrong_ = 0;
};

/// Digest of the answer fields of an estimate result: beta-hat and its
/// spread, every trial rate, simulated ticks, the calibrated batch size and
/// the last trial's statistics.  Doubles are written exactly (hex floats),
/// so a digest match means bit-identical simulation.
std::string estimate_digest(const netemu::Json& result);

/// The recorded digests: canonical query string -> estimate_digest.
class DigestBook {
 public:
  bool load(const std::string& path, std::string* error);
  /// nullptr when the query has no recorded digest.
  const std::string* find(const std::string& canonical) const;

 private:
  std::vector<std::pair<std::string, std::string>> book_;  // sorted
};
/// The book at args.digests; throws when it cannot be read.
DigestBook load_book(const Args& args);

std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

/// VmHWM (peak resident set) of a process, in MiB; 0 when unreadable.
double peak_rss_mb(pid_t pid);

/// One spawned netemu_serve.  The ManagedProcess destructor kills and reaps
/// a daemon that was not stopped.
struct Daemon {
  netemu::ManagedProcess proc;
  std::uint16_t port = 0;
};
std::unique_ptr<Daemon> spawn_daemon(const std::string& serve_bin,
                                     const std::vector<std::string>& flags,
                                     std::string* error);

/// Blocking line-delimited JSON connection to a daemon.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect(std::uint16_t port, std::string* error);
  bool send(const std::string& line);  ///< appends '\n'
  bool recv(std::string& line);        ///< one line, without '\n'
  /// send + recv.
  bool call(const std::string& line, std::string& response);
  void set_nonblocking();
  int fd() const { return fd_; }
  /// Non-blocking helpers for the open-loop generator: write what the
  /// socket takes from `out`, and split whatever arrived into lines.
  bool flush_some(std::string& out);
  bool read_some(std::vector<std::string>& lines);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// The `"result":` document of a response line, when the line is an ok
/// response whose result equals `expected` byte for byte.
bool response_matches(const std::string& line, const std::string& expected);
bool response_is_hit(const std::string& line);
/// Server-side wall time ("micros") of a response line; -1 when absent.
double response_micros(const std::string& line);

/// Executor counters of a daemon, from its stats op.
netemu::Json daemon_stats(std::uint16_t port);

}  // namespace perfbench
