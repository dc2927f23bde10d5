// Shared plumbing of ssvsp_perfbench: arguments, clocks, the
// time-boxed sample loop, the result document, and span self times.
//
// Every workload runs in its own process (run.py spawns one per run).  A
// workload first builds its inputs (the set-up interval, timed from the
// moment run.py spawned the process), then does its untimed housekeeping
// (references, scrubbing), then loops over its timed operations until the
// --seconds budget is spent, checking every answer.  With --trace 1 it
// instead runs each operation once untraced, replays the same work with
// obs spans around every layer call, and reports per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "consensus/registry.hpp"
#include "explore/spec.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  /// Only wire-n4 draws from it; 36 replays the script of
  /// scenarios/floodsetws_net_replay.txt.
  std::uint64_t seed = 36;
  double seconds = 40;
  bool trace = false;
  /// Stop right after set-up and report only its duration (run.py spawns
  /// several of these per run to take the set-up time).
  bool setupOnly = false;
  /// CLOCK_MONOTONIC nanoseconds at which run.py spawned this process; the
  /// set-up interval starts there.  0 = use `entryNs` instead.
  std::int64_t spawnNs = 0;
  /// CLOCK_MONOTONIC nanoseconds at entry to main().
  std::int64_t entryNs = 0;
  /// Scratch directory for campaign stores and node reports (created and
  /// removed by the workload, outside every timed interval).
  std::string workDir = ".bench_build/work";
  /// Directory of the committed inputs (certs/) and references.
  std::string root = ".";
};

/// CLOCK_MONOTONIC in nanoseconds (the clock Python's time.monotonic_ns
/// reads, so spawn stamps from run.py are comparable).
std::int64_t monotonicNs();

/// Wall seconds of one call.
template <typename Fn>
double timeSeconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// 0 when empty.
double median(std::vector<double> values);

/// The run's result document: operations attempted and failed, metrics,
/// and the counts that must repeat exactly between runs of one build.
class Report {
 public:
  /// One timed operation, and whether its answer checked out.  A wrong
  /// answer is a failed operation, never a fast one.
  void op(bool ok, const std::string& what);
  /// A check that is not an operation (replay equality, self-checks).
  void check(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  void exact(const std::string& name, std::int64_t value);

  bool correct() const { return correct_; }

  /// The last stdout line run.py parses.
  std::string toJson(double setupS) const;

 private:
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::map<std::string, std::int64_t> exact_;
};

/// Decides whether a time-boxed loop may start another operation: only
/// while the operation, at its expected cost, still ends within the
/// budget.  Every loop runs each of its operations once before asking.
class Budget {
 public:
  explicit Budget(double seconds);
  bool allows(double expectedSeconds) const;

 private:
  std::chrono::steady_clock::time_point start_;
  double seconds_;
};

/// obs::startTracing, plus a first record that registers this thread's
/// span ring right away: obs resets a thread's nesting depth when it first
/// records, which would flatten the spans already open at that moment.
void beginTrace();

/// Per span name, summed over a trace, in seconds: the full durations, and
/// the self times (duration minus the direct children).
struct SpanSeconds {
  std::map<std::string, double> total;
  std::map<std::string, double> self;
  /// Self time of the top-level spans: traced time inside no layer span.
  double unattributed = 0;
};

/// Ends the session beginTrace() started, writes it (Chrome trace JSON)
/// and the metrics registry as <workDir>/../trace-<workload>.trace.json
/// and .metrics.json, and returns its span times.
SpanSeconds endTrace(const Args& args);

/// Peak resident set of this process plus that of its largest reaped
/// child, in MB.
double peakRssMb();

/// rm -rf of a scratch directory the benchmark created.
void removeTree(const std::string& path);

/// Seconds since run.py spawned this process (args.spawnNs), or since
/// main() was entered when no spawn stamp was given.
double setupSeconds(const Args& args);

/// What a chunk-by-chunk replay of a symmetry_por sweep did.  Every field
/// but `violations` mirrors a SweepRunStats field of a one-thread sweep
/// over the same spec, which is how the replay proves it did the same work.
struct ReplayResult {
  std::int64_t scripts = 0;
  std::int64_t collapsed = 0;  ///< scripts ScriptNormalizer changed
  std::int64_t runsRequested = 0;
  std::int64_t runsFromMemo = 0;
  std::int64_t runsExecuted = 0;
  std::int64_t roundsExecuted = 0;
  std::int64_t roundsResumed = 0;
  std::int64_t memoEntries = 0;
  std::int64_t violations = 0;  ///< executed runs failing uniform consensus
  int groupSize = 0;
};

/// Replays the serial sweep of `spec` (reduction symmetry_por) through the
/// public layer entry points, one span per layer per chunk of
/// spec.chunkScripts scripts: forEachScript (mc.enumerate) ->
/// ScriptNormalizer::normalize (indep.normalize) -> PairCanonicalizer
/// (explore.canonicalize) -> RunMemo::find (explore.memo_probe) ->
/// RoundEngine::execute + checkUniformConsensus on misses (rounds.engine).
/// A miss is probed again right before it executes, so the set of
/// executed runs, and each engine's resume chain, equal a one-thread
/// sweep's.
ReplayResult replaySweep(const ssvsp::AlgorithmEntry& entry,
                         const ssvsp::RoundConfig& cfg,
                         const ssvsp::ExploreSpec& spec);

/// Reports the replay's per-layer metrics (mc.*, indep.*, explore.*,
/// rounds.*); its counts are exact counts too.
void reportReplay(const ReplayResult& replay, const SpanSeconds& spans,
                  Report& report);

// Workload entry points.  Each returns its set-up time (setupSeconds at
// the end of set-up); with args.setupOnly it returns right after set-up.
double runRecheck(const Args& args, Report& report);
double runCampaign(const Args& args, Report& report);
double runWire(const Args& args, Report& report);

}  // namespace perfbench
