// emulation_planner: given a guest machine family and size, print — for the
// whole ladder of host families — the slowdown lower bound and the largest
// host that can possibly emulate it efficiently.  This is "Tables 1-3 as a
// service" for one guest.
//
//   $ emulation_planner --guest DeBruijn --n 1048576
//   $ emulation_planner --guest Mesh --k 3 --n 262144 --hosts-k 1,2,3

#include <iostream>
#include <sstream>

#include "netemu/emulation/bounds.hpp"
#include "netemu/emulation/host_size.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"guest", "hosts-k", "k", "n"});
  const std::string guest_name = cli.get("guest", "DeBruijn");
  const auto guest = family_from_name(guest_name);
  if (!guest) {
    std::cerr << "unknown guest family '" << guest_name << "'; one of:";
    for (Family f : all_families()) std::cerr << " " << family_name(f);
    std::cerr << "\n";
    return 2;
  }
  const auto gk = static_cast<unsigned>(cli.get_int("k", 2));
  const double n = static_cast<double>(cli.get_int("n", 1 << 20));

  std::vector<unsigned> host_ks;
  {
    std::istringstream is(cli.get("hosts-k", "1,2,3"));
    std::string tok;
    while (std::getline(is, tok, ',')) {
      host_ks.push_back(static_cast<unsigned>(std::stoul(tok)));
    }
  }

  std::cout << "Guest: " << guest_name;
  if (family_is_dimensional(*guest)) std::cout << " (k=" << gk << ")";
  std::cout << ", |G| = " << n
            << ", beta(G) = " << beta_theory(*guest, gk).theta_string()
            << "\n\n";

  Table t({"host", "beta(H)", "max |H| (symbolic)", "max |H| at this |G|",
           "slowdown at max |H|"});
  for (const HostSpec& h : standard_hosts(host_ks)) {
    const HostSizeEntry e = max_host_size(*guest, gk, n, h);
    const SlowdownBounds b =
        slowdown_bounds(*guest, gk, n, h.family, h.k, e.numeric);
    t.add_row({h.label(), beta_theory(h.family, h.k).theta_string("m"),
               e.symbolic, Table::num(e.numeric, 0),
               Table::num(b.combined, 1)});
  }
  t.print(std::cout);
  std::cout << "\nReading: a host larger than 'max |H|' cannot emulate this "
               "guest without either\nsuper-constant inefficiency or "
               "slowdown exceeding |G|/|H| (Efficient Emulation Theorem).\n";
  return 0;
}
