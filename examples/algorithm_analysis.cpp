// algorithm_analysis: pick a parallel algorithm and see, per host family,
// the communication lower bound of its pattern and the measured execution
// time — the §3 program of the paper as a tool.
//
//   $ algorithm_analysis --algorithm fft --n 256
//   $ algorithm_analysis --algorithm bitonic --n 128 --hosts Mesh,Tree
//   $ algorithm_analysis --algorithm all-to-all --n 128

#include <iostream>
#include <sstream>

#include "netemu/algopattern/execution.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/util/math.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

AlgorithmPattern make_pattern(const std::string& name, std::size_t n) {
  const auto d = static_cast<unsigned>(ceil_log2(n));
  if (name == "fft") return fft_pattern(d);
  if (name == "bitonic") return bitonic_sort_pattern(d);
  if (name == "transpose") {
    return transpose_pattern(static_cast<std::uint32_t>(ipow(2, d / 2)));
  }
  if (name == "prefix") return parallel_prefix_pattern(n);
  if (name == "stencil") {
    const auto side = static_cast<std::uint32_t>(ipow(2, d / 2));
    return stencil_pattern(std::vector<std::uint32_t>{side, side}, 4);
  }
  if (name == "all-to-all") return all_to_all_pattern(n);
  if (name == "odd-even") return odd_even_transposition_pattern(n);
  throw std::invalid_argument(
      "unknown algorithm '" + name +
      "' (fft|bitonic|transpose|prefix|stencil|all-to-all|odd-even)");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"algorithm", "hosts", "n", "seed"});
  Prng rng(static_cast<std::uint64_t>(cli.get_int("seed", 9)));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 256));

  AlgorithmPattern pattern;
  try {
    pattern = make_pattern(cli.get("algorithm", "fft"), n);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<std::pair<Family, unsigned>> hosts;
  {
    std::istringstream is(
        cli.get("hosts", "LinearArray,Tree,XTree,Mesh,DeBruijn,Hypercube"));
    std::string tok;
    while (std::getline(is, tok, ',')) {
      const auto f = family_from_name(tok);
      if (!f) {
        std::cerr << "unknown host family '" << tok << "'\n";
        return 2;
      }
      hosts.emplace_back(*f, 2);
    }
  }

  std::cout << "algorithm: " << pattern.name << "  (" << pattern.processors
            << " processors, " << pattern.rounds << " native rounds, "
            << pattern.traffic.total_multiplicity()
            << " messages per pass)\n\n";

  Table t({"host", "cut LB (ticks)", "measured (ticks)", "LB slowdown",
           "measured slowdown"});
  for (const auto& [f, k] : hosts) {
    const Machine host = make_machine(f, pattern.processors, k, rng);
    const PatternExecution ex = execute_pattern(pattern, host, rng);
    t.add_row({ex.host_name, Table::num(ex.cut_lower_bound, 1),
               Table::integer(static_cast<long long>(ex.measured_time)),
               Table::num(ex.bound_slowdown, 2),
               Table::num(ex.measured_slowdown, 2)});
  }
  t.print(std::cout);
  std::cout << "\n'LB slowdown' is a lower bound on the slowdown of ANY "
               "efficient redundant\nsimulation of this algorithm on that "
               "host (Lemma 8 applied to the pattern).\n";
  return 0;
}
