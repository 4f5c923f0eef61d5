// netemu_top: live fleet dashboard.  Polls every backend's `stats` op (and,
// when --fleet is given, the front door's `fleet` op for breaker states)
// and renders one row per backend: request rate, cache hit rate, shed rate,
// breaker state, simulation ticks/s, and execute-latency tails from the
// scope registry histograms.
//
//   $ netemu_top --backends 7465,7466,7467            # poll backends only
//   $ netemu_top --fleet 7470                         # discover via fleet
//   $ netemu_top --backends 7465,7466 --once          # one frame (CI smoke)
//
// Rates are windowed: each frame diffs the counters against the previous
// poll.  A backend restart is detected by its process epoch (epoch_unix_s)
// — the window resets instead of printing a huge negative rate, which is
// exactly the reset-safety the epoch exists for (docs/SCOPE.md).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "netemu/service/client.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

struct Sample {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected = 0;
  std::uint64_t sim_ticks = 0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
  std::chrono::steady_clock::time_point t;
};

std::vector<std::uint16_t> parse_ports(const std::string& spec) {
  std::vector<std::uint16_t> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const long port = std::strtol(item.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
      return {};
    }
    out.push_back(static_cast<std::uint16_t>(port));
  }
  return out;
}

Sample poll_backend(Client& client) {
  Sample s;
  s.t = std::chrono::steady_clock::now();
  Json req = Json::object();
  req["op"] = "stats";
  Client::RequestOutcome outcome = client.request_outcome(req);
  if (!outcome.doc || !(*outcome.doc)["ok"].as_bool()) return s;
  const Json& r = (*outcome.doc)["result"];
  s.ok = true;
  s.requests = r["requests"].as_uint();
  s.cache_hits = r["cache_hits"].as_uint();
  s.rejected = r["rejected"].as_uint();
  const Json& scope = r["scope"];
  s.epoch = scope["epoch_unix_s"].as_uint();
  s.sim_ticks = scope["counters"]["netemu_sim_ticks_total"].as_uint();
  const Json& exec_hist = scope["histograms"]["netemu_execute_us"];
  s.p50_us = exec_hist["p50"].as_number();
  s.p95_us = exec_hist["p95"].as_number();
  s.p99_us = exec_hist["p99"].as_number();
  return s;
}

/// Per-second rate of a counter across two samples; nullopt when the
/// process restarted (epoch changed) or the window is degenerate.
std::optional<double> rate(std::uint64_t cur, std::uint64_t prev,
                           const Sample& now, const Sample& before) {
  if (!before.ok || now.epoch != before.epoch || cur < prev) {
    return std::nullopt;
  }
  const double dt =
      std::chrono::duration<double>(now.t - before.t).count();
  if (dt <= 0.0) return std::nullopt;
  return static_cast<double>(cur - prev) / dt;
}

std::string pct(double num, double den) {
  if (den <= 0.0) return "-";
  return Table::num(100.0 * num / den, 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"backends", "fleet", "interval-ms", "no-clear", "once"});

  std::vector<std::uint16_t> ports = parse_ports(cli.get("backends"));
  const auto fleet_port =
      static_cast<std::uint16_t>(cli.get_int("fleet", 0));
  if (ports.empty() && fleet_port == 0) {
    std::cerr << "usage: " << cli.program()
              << " --backends <port,port,...> [--fleet P] [--interval-ms N]"
                 " [--once] [--no-clear]\n"
                 "  or:  " << cli.program()
              << " --fleet P   (backend ports discovered from the fleet)\n";
    return 2;
  }

  const auto interval = std::chrono::milliseconds(
      std::max<std::int64_t>(50, cli.get_int("interval-ms", 1000)));
  const bool once = cli.has("once");
  const bool clear = !cli.has("no-clear") && !once;

  Client::RetryPolicy policy;
  policy.max_attempts = 1;
  policy.attempt_timeout_ms = 2000;

  std::optional<Client> fleet_client;
  if (fleet_port != 0) {
    fleet_client.emplace(policy);
    fleet_client->set_target(fleet_port);
  }

  std::map<std::uint16_t, std::unique_ptr<Client>> clients;
  std::map<std::uint16_t, Sample> previous;

  for (int frame = 0;; ++frame) {
    // Breaker states (and backend discovery) from the fleet, when present.
    std::map<std::uint16_t, std::string> breaker;
    std::map<std::uint16_t, std::string> ids;
    if (fleet_client) {
      Json req = Json::object();
      req["op"] = "fleet";
      Client::RequestOutcome outcome = fleet_client->request_outcome(req);
      if (outcome.doc && (*outcome.doc)["ok"].as_bool()) {
        for (const Json& b : (*outcome.doc)["result"]["backends"].items()) {
          const auto port = static_cast<std::uint16_t>(b["port"].as_uint());
          breaker[port] = b["state"].as_string();
          ids[port] = b["id"].as_string();
        }
        if (ports.empty()) {
          // No --backends: poll every backend the fleet knows about.
          for (const auto& [port, id] : ids) ports.push_back(port);
        }
      }
    }

    Table table({"backend", "state", "qps", "hit", "shed", "ticks/s",
                 "p50 ms", "p95 ms", "p99 ms"});
    for (const std::uint16_t port : ports) {
      auto& client = clients[port];
      if (!client) {
        client = std::make_unique<Client>(policy);
        client->set_target(port);
      }
      const Sample now = poll_backend(*client);
      const Sample& before = previous[port];

      std::string label = ids.count(port)
                              ? ids[port]
                              : "127.0.0.1:" + std::to_string(port);
      const std::string state =
          breaker.count(port) ? breaker[port] : (now.ok ? "up" : "down");
      if (!now.ok) {
        table.add_row({label, state, "-", "-", "-", "-", "-", "-", "-"});
        previous[port] = now;
        continue;
      }
      const auto qps = rate(now.requests, before.requests, now, before);
      const auto tps = rate(now.sim_ticks, before.sim_ticks, now, before);
      const auto hits = rate(now.cache_hits, before.cache_hits, now, before);
      const auto sheds = rate(now.rejected, before.rejected, now, before);
      table.add_row({
          label,
          state,
          qps ? Table::num(*qps, 1) : "-",
          qps && hits && *qps > 0.0 ? pct(*hits, *qps) : "-",
          qps && sheds && *qps > 0.0 ? pct(*sheds, *qps) : "-",
          tps ? Table::num(*tps, 0) : "-",
          Table::num(now.p50_us / 1000.0, 3),
          Table::num(now.p95_us / 1000.0, 3),
          Table::num(now.p99_us / 1000.0, 3),
      });
      previous[port] = now;
    }

    if (clear) std::cout << "\x1b[2J\x1b[H";
    table.print(std::cout);
    std::cout.flush();
    if (once) return 0;
    std::this_thread::sleep_for(interval);
  }
}
