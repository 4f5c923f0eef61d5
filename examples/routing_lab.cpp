// routing_lab: interactive-grade exploration of machine bandwidth.
// Pick a machine, a traffic pattern, and an arbitration policy; get the
// measured delivery rate, latency, congestion, and the cut/flux upper
// bounds it must respect.
//
//   $ routing_lab --machine Mesh --k 2 --n 1024
//   $ routing_lab --machine Butterfly --traffic bit-reversal
//   $ routing_lab --machine GlobalBus --n 64 --traffic hotspot --hot 0.5

#include <iostream>

#include "netemu/bandwidth/empirical.hpp"
#include "netemu/graph/algorithms.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

TrafficDistribution make_traffic(const std::string& kind,
                                 std::vector<Vertex> procs, double hot,
                                 Prng& rng) {
  if (kind == "symmetric") {
    return TrafficDistribution::symmetric(std::move(procs));
  }
  if (kind == "quasi") {
    return TrafficDistribution::quasi_symmetric(std::move(procs), 0.25, 99);
  }
  if (kind == "permutation") {
    return TrafficDistribution::permutation(std::move(procs), rng);
  }
  if (kind == "bit-reversal") {
    return TrafficDistribution::bit_reversal(std::move(procs));
  }
  if (kind == "transpose") {
    return TrafficDistribution::transpose(std::move(procs));
  }
  if (kind == "hotspot") {
    return TrafficDistribution::hotspot(std::move(procs), hot, rng);
  }
  throw std::invalid_argument("unknown traffic kind '" + kind + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv, {"hot", "k", "machine", "n", "seed", "traffic"});
  Prng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));

  const std::string machine_name = cli.get("machine", "Mesh");
  const auto family = family_from_name(machine_name);
  if (!family) {
    std::cerr << "unknown machine '" << machine_name << "'; one of:";
    for (Family f : all_families()) std::cerr << " " << family_name(f);
    std::cerr << "\n";
    return 2;
  }
  const auto k = static_cast<unsigned>(cli.get_int("k", 2));
  const auto n = static_cast<std::size_t>(cli.get_int("n", 1024));
  const Machine m = make_machine(*family, n, k, rng);

  std::vector<Vertex> procs;
  for (std::size_t i = 0; i < m.num_processors(); ++i) {
    procs.push_back(m.processor(i));
  }
  const std::string kind = cli.get("traffic", "symmetric");
  const auto traffic =
      make_traffic(kind, std::move(procs), cli.get_double("hot", 0.25), rng);

  std::cout << "machine: " << m.name << "  (|V| = " << m.graph.num_vertices()
            << ", E = " << m.graph.total_multiplicity()
            << ", diameter ~ " << diameter_double_sweep(m.graph, rng)
            << ")\ntraffic: " << traffic_kind_name(traffic.kind()) << "\n\n";

  Table t({"arbitration", "rate (msgs/tick)", "avg latency", "messages",
           "static congestion"});
  const auto router = make_default_router(m);
  for (Arbitration arb : {Arbitration::kFarthestFirst, Arbitration::kFifo,
                          Arbitration::kRandom}) {
    ThroughputOptions opt;
    opt.arbitration = arb;
    opt.trials = 2;
    const ThroughputResult r =
        measure_throughput(m, *router, traffic, rng, opt);
    t.add_row({arbitration_name(arb), Table::num(r.rate, 2),
               Table::num(r.last.avg_latency, 1),
               Table::integer(static_cast<long long>(r.messages)),
               Table::integer(static_cast<long long>(
                   r.last.static_congestion))});
  }
  t.print(std::cout);

  if (kind == "symmetric") {
    BetaMeasureOptions opt;
    opt.throughput.trials = 2;
    const BetaBounds b = measure_beta(m, rng, opt);
    std::cout << "\nupper bounds: 2*bisection = " << Table::num(b.cut_upper, 1)
              << ", E/avgdist = " << Table::num(b.flux_upper, 1)
              << "  (router: " << router->name() << ")\n";
  }
  return 0;
}
