// Exhaustive model checking of uniform-consensus algorithms.
//
// modelCheckConsensus runs an algorithm against EVERY legal adversary script
// (per the ExploreSpec's EnumOptions) crossed with every initial
// configuration over a value domain, verifies the uniform consensus
// specification on each run, and aggregates latency statistics.  For small
// systems this decides the paper's claims outright:
//   * FloodSet is correct in RS, and incorrect in RWS (violations found);
//   * FloodSetWS and F_OptFloodSetWS are correct in RWS (no violations);
//   * A1 is correct in RS for t = 1 and has Lambda = 1;
//   * no run of the RWS algorithms decides all correct processes in round 1
//     of failure-free runs (the Lambda >= 2 separation of Section 5.3).
//
// The sweep runs on the sweep driver it shares with measureLatency
// (src/mc/sweep.hpp) over the parallel exploration engine
// (src/explore/parallel_sweep.hpp): set ExploreSpec::threads to use a
// worker pool.  Reports are bit-identical for every thread count —
// violations are collected in canonical run order (script index, then
// configuration index) and per-shard statistics are reduced in stream
// order.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "explore/spec.hpp"
#include "mc/enumerator.hpp"
#include "rounds/engine.hpp"
#include "rounds/spec.hpp"

namespace ssvsp {

struct SweepRunStats;  // explore/reduction.hpp
class RunMemo;         // explore/reduction.hpp
class JsonWriter;      // util/serde.hpp
struct JsonValue;      // util/serde.hpp

struct McViolation {
  /// Canonical run key: position of the script in the enumeration stream
  /// and of the initial configuration in allInitialConfigs order.  The
  /// violation list is sorted by (scriptIndex, configIndex) regardless of
  /// how many threads explored the space.
  std::int64_t scriptIndex = 0;
  int configIndex = 0;
  std::vector<Value> initial;
  FailureScript script;
  UcVerdict verdict;
  std::string runDump;
};

struct McReport {
  std::int64_t scriptsVisited = 0;
  std::int64_t runsExecuted = 0;
  std::vector<McViolation> violations;  ///< capped at maxViolations

  /// Worst / best latency over all checked runs, keyed by the number of
  /// crashes in the script.  Termination failures record kNoRound as worst.
  std::map<int, Round> worstLatencyByCrashes;
  std::map<int, Round> bestLatencyByCrashes;

  bool ok() const { return violations.empty(); }

  /// Lat(A, f) over the checked space: worst latency among runs with at most
  /// f crashes (kNoRound if some such run fails termination).
  Round latUpToCrashes(int f) const;

  std::string summary() const;

  /// Versioned wire form (schema kReportSchemaV1, kind "mc_report") — what
  /// campaign shard workers persist and the query front-end reads back.
  /// kNoRound is encoded as JSON null, never as a sentinel integer.
  void toJson(JsonWriter& w) const;
  std::string toJsonString() const;
  static std::optional<McReport> fromJson(const JsonValue& doc,
                                          std::string* error = nullptr);
};

/// Folds `from` — an McReport over the script range immediately after
/// `into`'s — into `into`: counters add, violations append up to
/// `maxViolations` (preserving canonical run order), the latency maps reduce
/// by max-with-kNoRound-as-infinity / min.  This is exactly the shard merge
/// the parallel sweep performs, exposed so the campaign layer can reduce
/// per-shard reports from different processes into the whole-sweep report.
void mergeMcReports(McReport& into, McReport&& from, int maxViolations);

/// ExploreSpec plus the checker's one extra knob.  The sweep fields
/// (`enumeration`, `valueDomain`, `horizonSlack`, `threads`, ...) are the
/// inherited ExploreSpec members; pre-ExploreSpec code that assigned them
/// directly keeps compiling unchanged.
struct McCheckOptions : ExploreSpec {
  /// Stop exploring (at the next chunk boundary) once this many violations
  /// are on record; the verdict is already clear.
  int maxViolations = 4;
  /// Cross-check hook for the static analyzer (src/analysis): when set, any
  /// run whose latency |r| exceeds this bound is reported as a violation
  /// (UcVerdict::withinLatencyBound) even if the consensus spec holds, so an
  /// exhaustive sweep can prove a derived Lat(A, f).  kNoRound disables it.
  Round latencyBound = kNoRound;
  /// When set, receives the sweep's execution counters (memo hits, rounds
  /// resumed, ...).  An out-param rather than a report field on purpose:
  /// McReport stays bit-identical across reduction modes and thread counts,
  /// these counters legitimately do not.
  SweepRunStats* runStats = nullptr;
  /// External run memo: when non-null (and reduction is kSymmetry), the
  /// sweep recalls and publishes RunSummary values through this memo
  /// instead of a sweep-local one.  The campaign layer passes its
  /// persistent MemoStore here, so executions are shared across worker
  /// processes and invocations.  Not owned; must outlive the call.  The
  /// memo is a pure accelerator — the report is bit-identical with or
  /// without it, warm or cold.
  RunMemo* memo = nullptr;
};

McReport modelCheckConsensus(const RoundAutomatonFactory& factory,
                             const RoundConfig& cfg, RoundModel model,
                             const McCheckOptions& options);

/// Convenience overload for callers that only have a sweep description.
McReport modelCheckConsensus(const RoundAutomatonFactory& factory,
                             const RoundConfig& cfg, RoundModel model,
                             const ExploreSpec& spec);

}  // namespace ssvsp
