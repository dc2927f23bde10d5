// ssvsp_perfbench: one workload of the end-to-end benchmark per process.
//
//   ssvsp_perfbench --workload=recheck-rs|campaign-rws4|wire-n4
//                   [--seed=N] [--seconds=S] [--trace=0|1] [--setup-only]
//                   [--spawn-ns=NS] [--work-dir=DIR] [--root=DIR]
//
// Prints human-readable lines, then one JSON line: correct, attempted,
// failed, setup_s, metrics, and the exact counts run.py compares across
// runs.  perfbench/run.py builds this binary, spawns it and merges.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "util/argspec.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  args.entryNs = perfbench::monotonicNs();
  std::int64_t seed = 36;
  int trace = 0;
  ssvsp::ArgSpec spec("ssvsp_perfbench --workload=NAME [options]");
  spec.value("workload", &args.workload,
             "recheck-rs, campaign-rws4 or wire-n4")
      .value("seed", &seed, "input seed (only wire-n4 draws from it)")
      .value("seconds", &args.seconds, "measurement budget in seconds")
      .value("trace", &trace, "1 = per-layer traced run")
      .flag("setup-only", &args.setupOnly, "report set-up time and exit")
      .value("spawn-ns", &args.spawnNs,
             "CLOCK_MONOTONIC ns at which the caller spawned this process")
      .value("work-dir", &args.workDir, "scratch directory")
      .value("root", &args.root, "repository root (certs/, perfbench/)");
  spec.parse(&argc, argv);
  args.seed = static_cast<std::uint64_t>(seed);
  args.trace = trace != 0;

  perfbench::Report report;
  double setup = 0;
  try {
    if (args.workload == "recheck-rs")
      setup = perfbench::runRecheck(args, report);
    else if (args.workload == "campaign-rws4")
      setup = perfbench::runCampaign(args, report);
    else if (args.workload == "wire-n4")
      setup = perfbench::runWire(args, report);
    else {
      std::cerr << "ssvsp_perfbench: unknown workload '" << args.workload
                << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "ssvsp_perfbench: " << args.workload << " threw: "
              << e.what() << "\n";
    return 1;
  }
  if (args.setupOnly) {
    std::printf("%.9f\n", setup);
    return 0;
  }
  std::cout << report.toJson(setup) << std::endl;
  return 0;
}
