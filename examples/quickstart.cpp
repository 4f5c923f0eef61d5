// Quickstart: the paper's running example end to end in ~60 lines.
//
//   1. Build a guest (de Bruijn graph) and a host (2-d mesh).
//   2. Look up / measure their bandwidths β.
//   3. Get the Efficient Emulation Theorem's slowdown lower bound.
//   4. Solve for the largest mesh that can efficiently emulate the guest.
//   5. Actually run the emulation and compare.
//
//   $ quickstart [--guest-n 1024] [--host-side 8]

#include <iostream>

#include "netemu/bandwidth/empirical.hpp"
#include "netemu/emulation/bounds.hpp"
#include "netemu/emulation/engine.hpp"
#include "netemu/emulation/verified.hpp"
#include "netemu/emulation/host_size.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/cli.hpp"

using namespace netemu;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"guest-n", "host-side"});
  const auto guest_n = static_cast<std::size_t>(cli.get_int("guest-n", 1024));
  const auto side = static_cast<std::uint32_t>(cli.get_int("host-side", 8));
  Prng rng(2026);

  // 1. Machines.
  Machine guest = make_machine(Family::kDeBruijn, guest_n, 1, rng);
  Machine host = make_mesh({side, side});
  std::cout << "guest: " << guest.name << "  (" << guest.graph.num_vertices()
            << " vertices)\nhost:  " << host.name << "  ("
            << host.graph.num_vertices() << " vertices)\n\n";

  // 2. Bandwidths: closed form (Table 4) and measured.
  const double n = static_cast<double>(guest.graph.num_vertices());
  const double m = static_cast<double>(host.graph.num_vertices());
  std::cout << "beta(guest) = " << beta_theory(guest.family).theta_string()
            << " = " << beta_theory(guest.family)(n) << "\n";
  std::cout << "beta(host)  = "
            << beta_theory(host.family, 2).theta_string("m") << " = "
            << beta_theory(host.family, 2)(m) << "\n";
  const double measured_guest = measure_beta_simulated(guest, rng);
  const double measured_host = measure_beta_simulated(host, rng);
  std::cout << "measured:   beta-hat(guest) = " << measured_guest
            << ", beta-hat(host) = " << measured_host << "\n\n";

  // 3. Slowdown bounds.
  const SlowdownBounds b =
      slowdown_bounds(guest.family, 1, n, host.family, 2, m);
  std::cout << "slowdown lower bounds: load |G|/|H| = " << b.load
            << ", bandwidth beta(G)/beta(H) = " << b.bandwidth
            << " -> S = Omega(" << b.combined << ")\n";

  // 4. Largest efficient mesh host.
  const HostSizeEntry e =
      max_host_size(guest.family, 1, n, {Family::kMesh, 2});
  std::cout << "max efficient Mesh2 host: " << e.symbolic << "  ->  |H| <= "
            << e.numeric << " at |G| = " << n << "\n\n";

  // 5. Run it — with semantic verification: the host actually computes the
  // guest's synchronous data-flow automaton through explicit mailboxes.
  EmulationOptions opt;
  opt.guest_steps = 4;
  const VerifiedEmulation v = emulate_verified(guest, host, rng, opt);
  std::cout << "measured emulation: slowdown = " << v.timing.slowdown
            << " (load " << v.timing.max_load << ", comm fraction "
            << v.timing.comm_fraction << ")\n";
  std::cout << "host computed the guest's computation: "
            << (v.states_match ? "yes (checksums match)" : "NO") << "\n";
  std::cout << "lower bound respected: "
            << (v.timing.slowdown * 4.0 >= b.combined ? "yes" : "NO") << "\n";
  return 0;
}
