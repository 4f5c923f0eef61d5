// netemu_fleet: the replicated front door.  Speaks the same line-delimited
// JSON protocol as netemu_serve, but instead of computing anything it
// routes each query to one of N real backends by rendezvous hashing on the
// query's content address — with circuit-breaker health tracking, failover
// to the next hash choice, and (optionally) hedged requests for tail
// latency.  Clients keep using the plain Client class; the fleet is just a
// faster, harder-to-kill "server".
//
//   $ netemu_serve --port 7465 --cache-file a.json &
//   $ netemu_serve --port 7466 --cache-file b.json &
//   $ netemu_fleet --port 7470 --backends 7465,7466
//
// Extra ops: {"op":"fleet"} returns router stats (per-backend health, shed /
// failover / hedge counters); {"op":"trace","id":...} merges the fleet's
// span records with every backend's; {"op":"events"} dumps the fleet's
// flight recorder (breaker transitions, hedge outcomes).  {"op":"shutdown"}
// stops the front door only; backends keep running.  SIGINT/SIGTERM and
// {"op":"drain"} run the graceful drain instead: stop accepting, give
// in-flight proxied requests up to --drain-ms to land, then exit 0 — the
// same lifecycle netemu_serve follows (docs/LIFECYCLE.md).  See
// docs/FLEET.md and docs/SCOPE.md.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"

using namespace netemu;

namespace {

std::atomic<bool> g_signal_stop{false};
void on_signal(int) { g_signal_stop.store(true); }

std::vector<FleetBackendConfig> parse_backends(const std::string& spec,
                                               std::string* error) {
  std::vector<FleetBackendConfig> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const long port = std::strtol(item.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
      *error = "bad backend port '" + item + "'";
      return {};
    }
    FleetBackendConfig cfg;
    cfg.port = static_cast<std::uint16_t>(port);
    out.push_back(cfg);
  }
  if (out.empty()) *error = "no backend ports in '" + spec + "'";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv,
                {"attempt-timeout-ms", "attempts", "backends", "cooldown-ms",
                 "drain-ms", "failure-threshold", "hedge", "hedge-ms",
                 "hedge-percentile", "io-threads", "port", "pressure-sink",
                 "probe-ms", "scatter-min-trials", "scatter-ways",
                 "trace-all"});

  const std::string backends_spec = cli.get("backends");
  if (backends_spec.empty()) {
    std::cerr << "netemu_fleet: --backends <port,port,...> is required\n"
                 "  start one netemu_serve per port first, e.g.\n"
                 "    netemu_serve --port 7465 --cache-file a.json\n";
    return 1;
  }
  std::string error;
  FleetRouter::Options options;
  options.backends = parse_backends(backends_spec, &error);
  if (options.backends.empty()) {
    std::cerr << "netemu_fleet: " << error << "\n";
    return 1;
  }

  options.health.failure_threshold =
      static_cast<int>(cli.get_int("failure-threshold", 3));
  options.health.open_cooldown_ms =
      static_cast<std::uint64_t>(cli.get_int("cooldown-ms", 500));
  options.probe_interval_ms =
      static_cast<std::uint64_t>(cli.get_int("probe-ms", 200));
  options.client.max_attempts = static_cast<int>(cli.get_int("attempts", 2));
  options.client.attempt_timeout_ms =
      static_cast<std::uint32_t>(cli.get_int("attempt-timeout-ms", 10000));
  options.hedge = cli.has("hedge");
  options.hedge_fixed_ms =
      static_cast<std::uint64_t>(cli.get_int("hedge-ms", 0));
  options.hedge_percentile = cli.get_double("hedge-percentile", 0.95);
  // Backends whose probed guard pressure is at/above this sink to the back
  // of the rendezvous order (still tried last); 0 disables.
  options.pressure_sink_threshold = cli.get_double("pressure-sink", 0.9);

  // A crashing front door leaves its last breaker/hedge events on stderr.
  scope::install_crash_handler();

  FleetRouter router(options);
  FleetFrontDoor::Options door_options;
  door_options.trace_all = cli.has("trace-all");
  // Scatter-gather: estimates with at least this many trials decompose into
  // trial-range sub-queries across the backends (docs/SCATTER.md).  0
  // disables; the merged answer is bit-identical either way.
  door_options.scatter.min_trials =
      static_cast<unsigned>(cli.get_int("scatter-min-trials", 16));
  door_options.scatter.max_ways =
      static_cast<unsigned>(cli.get_int("scatter-ways", 4));
  FleetFrontDoor front_door(router, door_options);

  Server::Options server_options;
  server_options.port = static_cast<std::uint16_t>(cli.get_int("port", 7470));
  server_options.io_threads =
      static_cast<std::size_t>(cli.get_int("io-threads", 0));
  // No fast_handler: every line proxies to a backend (blocking network
  // I/O), so everything rides the offload pool.
  std::atomic<bool> drain_op{false};
  Server server(
      Server::TaggedLineHandler(
          [&front_door, &drain_op](const std::string& line,
                                   const std::string& peer,
                                   bool* shutdown_requested) {
            bool drain = false;
            std::string response = front_door.handle_line(
                line, shutdown_requested, &drain, peer);
            if (drain) drain_op.store(true);
            return response;
          }),
      server_options);

  if (!server.start(&error)) {
    std::cerr << "netemu_fleet: " << error << "\n";
    if (server.last_errno() == EADDRINUSE) {
      std::cerr << "  port " << server_options.port
                << " is already bound; pick a different --port or --port 0\n";
    }
    return 1;
  }
  std::cout << "listening on 127.0.0.1:" << server.port() << std::endl;
  std::cerr << "fleet: " << options.backends.size() << " backends ("
            << backends_spec << "), hedge "
            << (options.hedge ? "on" : "off") << "\n";

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  const auto drain_budget_ms =
      static_cast<std::uint64_t>(cli.get_int("drain-ms", 1000));
  while (!g_signal_stop.load() && !drain_op.load() && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (g_signal_stop.load() || drain_op.load()) {
    // Graceful drain: no new connections; in-flight proxied requests get up
    // to the budget to land before the connections are shut down.  The
    // front door holds no compute, so there is nothing to cancel here —
    // backends drain on their own schedule.
    using SteadyClock = std::chrono::steady_clock;
    const auto started = SteadyClock::now();
    const auto deadline =
        started + std::chrono::milliseconds(drain_budget_ms);
    server.begin_drain();
    while (router.inflight() > 0 && SteadyClock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server.stop();
    std::cerr << "drained in "
              << std::chrono::duration_cast<std::chrono::milliseconds>(
                     SteadyClock::now() - started)
                     .count()
              << " ms\n";
  } else {
    server.stop();
  }
  router.stop();

  const FleetRouter::Stats s = router.stats();
  std::cerr << "routed " << s.requests << " requests (" << s.answered
            << " answered, " << s.unanswered << " unanswered, "
            << s.failovers << " failovers, " << s.hedges_fired
            << " hedges fired / " << s.hedges_won << " won)\n";
  return 0;
}
