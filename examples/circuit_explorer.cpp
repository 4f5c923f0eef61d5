// circuit_explorer: walk through the Lemma 9 construction on a small guest
// and print every object the proof manipulates — the circuit parameters,
// one concrete cone, the S/Q bookkeeping, the full audit, and the Lemma 11
// collapse onto a host of chosen size.
//
//   $ circuit_explorer --guest Mesh --k 2 --n 144 --parts 16
//   $ circuit_explorer --guest DeBruijn --n 128 --stretch 2.0

#include <iostream>

#include "netemu/circuit/collapse_audit.hpp"
#include "netemu/circuit/lemma9.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"guest", "k", "n", "parts", "seed", "stretch"});
  Prng rng(static_cast<std::uint64_t>(cli.get_int("seed", 3)));

  const std::string guest_name = cli.get("guest", "Mesh");
  const auto family = family_from_name(guest_name);
  if (!family) {
    std::cerr << "unknown guest '" << guest_name << "'\n";
    return 2;
  }
  const auto k = static_cast<unsigned>(cli.get_int("k", 2));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 144));
  const Machine g = make_machine(*family, n, k, rng);

  Lemma9Options opt;
  opt.stretch = cli.get_double("stretch", 1.0);
  const Lemma9Construction c(g.graph, opt, rng);

  std::cout << "guest: " << g.name << "\n";
  std::cout << "Λ (diameter) = " << c.lambda() << ", t = (1+"
            << opt.stretch << ")Λ = " << c.t() << ", S-levels w = "
            << c.s_levels() << ", cone cutoff Λ~ = " << c.cutoff() << "\n";
  std::cout << "circuit nodes = " << c.circuit_nodes()
            << "  (efficient: O(|G|·t) with duplicity 1)\n";
  std::cout << "C(G, K_n) witness = " << c.guest_congestion()
            << ", β(G, K_n) = " << Table::num(c.guest_beta(), 2) << "\n\n";

  // One concrete cone: from the S-node (vertex 0, level t).
  std::cout << "example cone from S-node (v0, level " << c.t() << "):\n";
  int shown = 0;
  for (Vertex v = 1; v < c.n() && shown < 3; ++v) {
    const auto d = c.distance(0, v);
    if (d == 0 || d > c.cutoff()) continue;
    const auto path = c.witness_path(0, v);
    std::cout << "  cone path to v" << v << " (dist " << d << "):";
    for (Vertex x : path) std::cout << " " << x;
    std::cout << "  -> Q-set {(v" << v << ", j) : j <= " << c.t() - d
              << "}, bundle size " << c.t() - d + 1 << "\n";
    ++shown;
  }

  std::cout << "\nLemma 9 audit:\n";
  const Lemma9Audit a = lemma9_audit(c);
  Table t({"quantity", "value", "paper's claim"});
  t.add_row({"|V(gamma)| / nt", Table::num(a.vertices_per_nt, 3),
             "Theta(1)  (gamma in K_{Theta(nt),1})"});
  t.add_row({"E(gamma) / (nt)^2", Table::num(a.edges_per_n2t2, 4),
             "Theta(1)"});
  t.add_row({"max pair multiplicity",
             Table::integer((long long)a.max_pair_multiplicity), "1"});
  t.add_row({"cone paths per S-level / n^2",
             Table::num(a.cone_paths_per_level_n2, 3), "Omega(1)"});
  t.add_row({"congestion / max(nt^2, t*C(G,K_n))",
             Table::num(a.congestion_ratio, 3), "O(1)"});
  t.add_row({"beta(Phi,gamma) / (t*beta(G))",
             Table::num(a.preservation_ratio, 3), "Omega(1)"});
  t.print(std::cout);

  const auto parts = static_cast<std::uint32_t>(cli.get_int("parts", 16));
  std::cout << "\nLemma 11 collapse onto |H| = " << parts
            << " super-vertices:\n";
  const CollapseAudit ca =
      collapse_audit(c, parts, PartitionStrategy::kBlock, rng);
  Table t2({"quantity", "value", "paper's claim"});
  t2.add_row({"load k", Table::integer(ca.load_k), "O(N/|H|)"});
  t2.add_row({"surviving gamma-edges",
              Table::num(ca.surviving_fraction, 3), "1 - O(nk)/E = 1 - o(1)"});
  t2.add_row({"pair multiplicity / k^2", Table::num(ca.pair_mult_over_k2, 3),
              "O(1)  (xi in K_{|H|,Theta(k^2)})"});
  t2.add_row({"beta(M,xi) / beta(Phi,gamma)",
              Table::num(ca.preservation_ratio, 3), "Omega(1)"});
  t2.print(std::cout);
  return 0;
}
