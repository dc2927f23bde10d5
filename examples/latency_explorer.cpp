// Interactive latency explorer: measure the paper's latency degrees for any
// registered algorithm and system size from the command line.
//
//   $ ./latency_explorer                          # list algorithms
//   $ ./latency_explorer FloodSet 4 2             # exhaustive profile
//   $ ./latency_explorer F_OptFloodSetWS 5 2 --sampled
//   $ ./latency_explorer A1 3 1 --check           # + exhaustive spec check
//   $ ./latency_explorer FloodSetWS 3 2 --threads 8
//   $ ./latency_explorer FloodSet 4 2 --progress=2 --trace-out=t.json
//   $ ./latency_explorer FloodSet 4 2 --metrics-out=metrics.json
//
// Prints lat(A), Lat(A), Lambda(A) and Lat(A, f) for f = 0..t, in the
// algorithm's intended model, and optionally runs the exhaustive model
// checker to confirm (or refute — try A1WS_candidate) correctness.
// --threads N fans the sweep out over N workers (0 or omitted = one per
// hardware thread); the profile is bit-identical for every value.
// --trace-out writes a Chrome trace (spans require -DSSVSP_OBS=ON),
// --metrics-out the sweep's metrics JSON, --progress=S a stderr progress
// line every S seconds.
#include <cstdlib>
#include <iostream>
#include <string>

#include "consensus/registry.hpp"
#include "latency/latency.hpp"
#include "lint/diagnostic.hpp"
#include "mc/checker.hpp"
#include "obs/artifacts.hpp"
#include "util/argspec.hpp"

namespace {

int usage() {
  std::cout << "usage: latency_explorer <algorithm> <n> <t> "
               "[--sampled] [--check] [--threads N] [--trace-out=FILE] "
               "[--metrics-out=FILE] [--progress=SEC]\n\n"
               "registered algorithms:\n";
  for (const auto& e : ssvsp::algorithmRegistry())
    std::cout << "  " << e.name << "  (" << e.paperRef << ", intended model "
              << ssvsp::toString(e.intendedModel)
              << (e.requiresTLe1 ? ", requires t <= 1" : "") << ")\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ssvsp;
  std::string name, nText, tText;
  bool sampled = false, check = false;
  int threads = 0;  // one worker per hardware thread
  obs::ArtifactSession artifacts;
  ArgSpec args(
      "latency_explorer <algorithm> <n> <t> [options]",
      "Measure lat(A), Lat(A), Lambda(A) and Lat(A, f) for a registered "
      "algorithm (run with no arguments to list them).");
  args.positional("algorithm", &name, "registry name", /*required=*/false)
      .positional("n", &nText, "number of processes", /*required=*/false)
      .positional("t", &tText, "crash-resilience bound", /*required=*/false)
      .flag("sampled", &sampled, "sampled profile instead of exhaustive")
      .flag("check", &check, "also run the exhaustive spec check")
      .value("threads", &threads,
             "sweep worker threads (0 = one per hardware thread)")
      .consumer([&](std::string_view arg) { return artifacts.parseArg(arg); });
  args.parse(&argc, argv);
  if (name.empty() || nText.empty() || tText.empty()) return usage();
  const int n = std::atoi(nText.c_str());
  const int t = std::atoi(tText.c_str());
  if (n < 2 || n > kMaxProcs || t < 0 || t >= n) {
    std::cout << "need 2 <= n <= " << kMaxProcs << " and 0 <= t < n\n";
    return 2;
  }

  const AlgorithmEntry* entry = findAlgorithm(name);
  if (entry == nullptr) {
    std::cout << "unknown algorithm '" << name << "'\n\n";
    return usage();
  }
  if (entry->requiresTLe1 && t > 1) {
    std::cout << entry->name << " requires t <= 1\n";
    return 2;
  }

  const RoundConfig cfg{n, t};
  LatencyOptions o = canonicalLatencyOptions(*entry, cfg, !sampled);
  o.threads = threads;
  o.progressIntervalSec = artifacts.progressSec();

  std::cout << entry->name << " (" << entry->paperRef << ") in "
            << toString(entry->intendedModel) << ", n = " << n
            << ", t = " << t << (sampled ? " [sampled]" : " [exhaustive]")
            << ", " << resolveThreads(threads) << " worker thread(s)\n";
  artifacts.begin();
  try {
    const auto profile =
        measureLatency(entry->factory, cfg, entry->intendedModel, o);
    std::cout << "  " << profile.toString() << "\n";

    if (check) {
      McCheckOptions mo;
      static_cast<ExploreSpec&>(mo) = o;  // same sweep description
      const auto report = modelCheckConsensus(entry->factory, cfg,
                                              entry->intendedModel, mo);
      std::cout << "  spec check: " << report.summary() << "\n";
      if (!report.ok()) {
        std::cout << "  first violation: "
                  << report.violations.front().verdict.witness << "\n"
                  << report.violations.front().runDump;
      }
    }
  } catch (const PreflightError& e) {
    std::cerr << renderText(e.diagnostics(), "preflight");
    artifacts.finish(std::cerr);
    return 3;
  }
  return artifacts.finish(std::cerr) ? 0 : 1;
}
