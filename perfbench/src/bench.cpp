#include "bench.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using netemu::Json;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Latency summarize(std::vector<double> v) {
  Latency lat;
  lat.n = v.size();
  if (v.empty()) return lat;
  std::sort(v.begin(), v.end());
  lat.p50 = quantile(v, 0.5);
  const std::size_t beyond = 10;
  if (v.size() >= 2 * beyond) {
    lat.tail = v[v.size() - 1 - beyond];
    lat.tail_pct = 100.0 * static_cast<double>(v.size() - beyond) /
                   static_cast<double>(v.size());
  } else {
    // Under 20 samples no percentile above the median has ten beyond it.
    lat.tail = lat.p50;
    lat.tail_pct = 50.0;
  }
  return lat;
}

Latency summarize_timed(const std::vector<double>& samples,
                        const std::vector<double>& at_s, double span_s) {
  Latency lat = summarize(samples);
  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return at_s[a] < at_s[b]; });

  // Rate over kRateSlices groups of consecutive samples: each group's count
  // over the time since the previous group ended.
  std::vector<double> rates;
  const std::size_t group = order.size() / kRateSlices;
  double prev_end = 0.0;
  for (std::size_t g = 0; group > 0 && g < kRateSlices; ++g) {
    const double end = at_s[order[(g + 1) * group - 1]];
    if (end > prev_end) {
      rates.push_back(static_cast<double>(group) / (end - prev_end));
    }
    prev_end = end;
  }
  lat.per_s = rates.size() == kRateSlices
                  ? median(rates)
                  : static_cast<double>(samples.size()) / span_s;

  if (samples.size() >= kTailBlock * kTailBlocks) {
    std::vector<double> tails;
    for (std::size_t b = 0; b + kTailBlock <= order.size(); b += kTailBlock) {
      std::vector<double> block;
      for (std::size_t k = b; k < b + kTailBlock; ++k) {
        block.push_back(samples[order[k]]);
      }
      tails.push_back(summarize(std::move(block)).tail);
    }
    lat.tail = median(tails);
    lat.tail_pct = 100.0 * static_cast<double>(kTailBlock - 10) / kTailBlock;
    lat.block = kTailBlock;
  }
  return lat;
}

void Record::metric(const std::string& name, double value,
                    const std::string& unit) {
  Json m = Json::object();
  m["value"] = value;
  m["unit"] = unit;
  metrics_[name] = std::move(m);
}

void Record::latency(const std::string& prefix, const Latency& lat) {
  Json d = Json::object();
  d["samples"] = lat.n;
  d["tail_percentile"] = lat.tail_pct;
  d["tail_block"] = lat.block;
  details_[prefix] = std::move(d);
}

void Record::detail(const std::string& name, Json value) {
  details_[name] = std::move(value);
}

void Record::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Record::setup(const std::vector<double>& rounds_s) {
  metric("setup_s", median(rounds_s), "s");
  Json rounds = Json::array();
  for (const double t : rounds_s) rounds.items().emplace_back(t);
  details_["setup_rounds_s"] = std::move(rounds);
}

void Record::wrong(const std::string& what) {
  ++failed_;
  if (++wrong_ <= 5) std::cerr << "perfbench: WRONG ANSWER: " << what << "\n";
}

std::string Record::to_json(const Args& args) const {
  Json doc = Json::object();
  doc["workload"] = args.workload;
  doc["seed"] = args.seed;
  doc["trace"] = args.trace ? 1 : 0;
  doc["seconds"] = args.seconds;
  doc["threads"] = args.threads;
  doc["attempted"] = attempted_;
  doc["failed"] = failed_;
  doc["wrong_answers"] = wrong_;
  doc["correct"] = wrong_ == 0 && attempted_ > 0;
  Json build = Json::object();
  build["compiler"] = PERFBENCH_COMPILER;
  build["build_type"] = PERFBENCH_BUILD_TYPE;
  doc["build"] = std::move(build);
  doc["metrics"] = metrics_;
  doc["details"] = details_;
  return doc.dump();
}

namespace {

void append_exact(std::string& s, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a|", v);
  s += buf;
}

}  // namespace

std::string estimate_digest(const Json& r) {
  std::string s;
  for (const char* field : {"beta_hat", "beta_hat_min", "beta_hat_max"}) {
    append_exact(s, r[field].as_number(-1.0));
  }
  s += "rates:";
  for (const Json& rate : r["trial_rates"].items()) {
    append_exact(s, rate.as_number(-1.0));
  }
  for (const char* field : {"simulated_ticks", "messages", "makespan",
                            "static_congestion", "avg_latency"}) {
    append_exact(s, r[field].as_number(-1.0));
  }
  // FNV-1a, printed as 16 hex digits.
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool DigestBook::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string parse_error;
  const Json doc = Json::parse(ss.str(), &parse_error);
  if (!parse_error.empty() || !doc["digests"].is_object()) {
    *error = path + ": not a digest file " + parse_error;
    return false;
  }
  for (const auto& [key, value] : doc["digests"].fields()) {
    book_.emplace_back(key, value.as_string());
  }
  std::sort(book_.begin(), book_.end());
  return true;
}

DigestBook load_book(const Args& args) {
  DigestBook book;
  std::string error;
  if (!book.load(args.digests, &error)) throw std::runtime_error(error);
  return book;
}

const std::string* DigestBook::find(const std::string& canonical) const {
  const auto it = std::lower_bound(
      book_.begin(), book_.end(), canonical,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == book_.end() || it->first != canonical) return nullptr;
  return &it->second;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::unique_ptr<Daemon> spawn_daemon(const std::string& serve_bin,
                                     const std::vector<std::string>& flags,
                                     std::string* error) {
  auto d = std::make_unique<Daemon>();
  std::vector<std::string> argv = {serve_bin, "--port", "0"};
  argv.insert(argv.end(), flags.begin(), flags.end());
  if (!d->proc.start(argv, error)) return nullptr;
  std::string line;
  const std::string prefix = "listening on 127.0.0.1:";
  if (!d->proc.read_stdout_line(line, 10000) || line.rfind(prefix, 0) != 0) {
    *error = serve_bin + ": no listen line (got '" + line + "')";
    return nullptr;
  }
  d->port = static_cast<std::uint16_t>(std::stoi(line.substr(prefix.size())));
  return d;
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::connect(std::uint16_t port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return false;
  }
  return true;
}

bool Conn::send(const std::string& line) {
  std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Conn::recv(std::string& line) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Conn::call(const std::string& line, std::string& response) {
  return send(line) && recv(response);
}

void Conn::set_nonblocking() {
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

bool Conn::flush_some(std::string& out) {
  while (!out.empty()) {
    const ssize_t n = ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    out.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

bool Conn::read_some(std::vector<std::string>& lines) {
  for (;;) {
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t start = 0;
  for (std::size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.emplace_back(buf_, start, nl - start);
  }
  buf_.erase(0, start);
  return true;
}

bool response_matches(const std::string& line, const std::string& expected) {
  static const std::string marker = "\"ok\":true,\"result\":";
  const std::size_t pos = line.find(marker);
  if (pos == std::string::npos) return false;
  const std::size_t at = pos + marker.size();
  if (line.compare(at, expected.size(), expected) != 0) return false;
  const std::size_t end = at + expected.size();
  return end < line.size() && (line[end] == ',' || line[end] == '}');
}

bool response_is_hit(const std::string& line) {
  return line.rfind("{\"cache_hit\":true", 0) == 0;
}

double response_micros(const std::string& line) {
  static const std::string marker = "\"micros\":";
  const std::size_t pos = line.find(marker);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + pos + marker.size(), nullptr);
}

Json daemon_stats(std::uint16_t port) {
  Conn conn;
  std::string error, line;
  if (!conn.connect(port, &error) || !conn.call("{\"op\":\"stats\"}", line)) {
    return Json();
  }
  return Json::parse(line)["result"];
}

}  // namespace perfbench
