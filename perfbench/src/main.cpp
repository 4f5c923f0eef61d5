// perfbench: the netemu benchmark driver binary.  perfbench/run.py builds
// it and calls
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --serve-bin <netemu_serve> --work-dir <dir> --digests <file>
//
// and prints one JSON record as the last stdout line.  --trace 0 measures
// one workload untraced (end-to-end metrics); --trace 1 runs the layer
// ledger of every workload (per-layer metrics), each on --seconds / 4 per
// pass.  perfbench --make-digests <file> regenerates the answer digests.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::Record;

struct Workload {
  const char* name;
  void (*run)(const Args&, Record&);
  void (*ledger)(const Args&, Record&);
};

const Workload kWorkloads[] = {
    {"estimate_cold", perfbench::run_estimate_cold,
     perfbench::ledger_estimate_cold},
    {"request_hot", perfbench::run_request_hot, perfbench::ledger_request_hot},
    {"request_mixed", perfbench::run_request_mixed,
     perfbench::ledger_request_mixed},
    {"fleet_scatter", perfbench::run_fleet_scatter,
     perfbench::ledger_fleet_scatter},
};

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --serve-bin <path> --work-dir <dir> "
               "--digests <file>\n"
               "       perfbench --make-digests <file>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string make_digests;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--digests") {
      args.digests = value;
    } else if (flag == "--make-digests") {
      make_digests = value;
    } else {
      return usage();
    }
  }
  args.threads = std::max(1u, std::thread::hardware_concurrency());
  if (!make_digests.empty()) {
    return perfbench::make_digests(make_digests, args.threads);
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) chosen = &w;
  }
  if (chosen == nullptr || args.seconds <= 0 || args.serve_bin.empty() ||
      args.work_dir.empty() || args.digests.empty()) {
    return usage();
  }

  Record rec;
  try {
    if (args.trace) {
      Args pass = args;
      pass.seconds = std::max(0.5, args.seconds / 4.0);
      for (const Workload& w : kWorkloads) {
        std::cerr << "perfbench: ledger " << w.name << "\n";
        w.ledger(pass, rec);
      }
    } else {
      chosen->run(args, rec);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << rec.to_json(args) << std::endl;
  return 0;
}
