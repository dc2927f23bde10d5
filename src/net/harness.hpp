// Launch-and-replay harness: the closed loop between the real transport and
// the analyzer.
//
// launchCluster() runs one consensus instance as n genuine OS processes on
// UDP loopback and returns a machine-checked verdict:
//
//   * the parent binds EVERY socket (n node sockets + 1 control socket, all
//     kernel-assigned ports) BEFORE forking, so the address book is complete
//     and race-free when the first child starts — children adopt their
//     inherited fd (UdpTransport::adopt), the campaign layer's
//     fork-without-exec pattern;
//   * scripted crashes are real deaths: the doomed child executes its crash
//     round's partial broadcast, falls silent, and repeats a tiny `halted`
//     control datagram; the parent answers with SIGKILL.  Nothing about the
//     kill is cooperative beyond its placement in the round structure;
//   * survivors write NodeReport JSON files; the parent reaps every child
//     (woken when an exit pipe the children hold hangs up, not by a
//     timer), collects the reports, and checks the consensus contract —
//     uniform agreement, validity, termination — plus the paper's
//     efficiency bound:
//     every observed decision round must be <= Lat(A, f) as computed by the
//     static analyzer (src/analysis) for f = scripted crashes.  A run that
//     decides later than the analyzer's worst case means the transport
//     broke an emulation assumption (usually a mistimed suspicion), and the
//     harness reports it as a hard failure, not a statistic.
//
// Under FdMode::kPerfect the verdict also rejects any suspicion of a
// process the script keeps correct (accuracy violation made observable);
// under ◇P that check is waived — early mistakes are the model.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "consensus/registry.hpp"
#include "net/node.hpp"
#include "scenario/scenario.hpp"

namespace ssvsp::net {

struct LaunchSpec {
  const AlgorithmEntry* entry = nullptr;
  RoundConfig cfg;
  std::vector<Value> values;  ///< size n
  Round maxRounds = 0;        ///< 0 = derive t + 2
  FailureScript script;       ///< crashes replayed as SIGKILLs; pendings
                              ///< are advisory (the network schedules)
  LinkOptions link;
  HeartbeatOptions heartbeat;
  NetTime deadlineMs = 30000;
  std::string reportDir;  ///< created if missing; node_<i>.json per survivor
  bool verbose = false;   ///< narrate forks/kills/reaps to stderr
};

/// What became of one node process.
struct NodeOutcome {
  ProcessId node = kNoProcess;
  pid_t pid = -1;
  bool scriptedCrash = false;
  bool killedByHarness = false;  ///< SIGKILL delivered on `halted`
  int waitStatus = 0;            ///< raw waitpid status
  bool reportOk = false;
  std::string reportError;
  NodeReport report;
};

struct LaunchResult {
  bool ok = false;
  /// Human-readable hard failures (empty iff ok).  Consensus violations,
  /// bound violations, FD accuracy violations, harness mechanics.
  std::vector<std::string> failures;
  std::vector<NodeOutcome> nodes;
  int observedCrashes = 0;   ///< f: scripted crashes executed
  Round latBound = kNoRound; ///< analyzer's Lat(A, f) for this (A, cfg, f)
  Round worstDecisionRound = 0;
  Value agreedValue = kUndecided;
};

/// Runs one cluster to completion and checks the verdict.  Fails soft (ok =
/// false with failures filled) on everything except unusable arguments,
/// which SSVSP_CHECK.
LaunchResult launchCluster(const LaunchSpec& spec);

/// Builds a LaunchSpec from a parsed scenario file: algorithm looked up in
/// the registry, crashes carried over, pendings ignored (see lint L312).
/// Returns false with `error` set for scenarios the transport cannot
/// replay (unknown algorithm, missing values, rs-model pendings, n out of
/// range).
bool launchSpecFromScenario(const Scenario& scenario, LaunchSpec* out,
                            std::string* error);

/// The analyzer's Lat(A, f) for this entry at `cfg` (byMaxCrashes[f].latest,
/// interpreting only the cells with at most f crashes); kNoRound when f
/// exceeds cfg.t or the analyzer reports non-termination.
Round analyzerLatBound(const AlgorithmEntry& entry, const RoundConfig& cfg,
                       int f);

}  // namespace ssvsp::net
