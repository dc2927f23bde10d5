// The one sweep driver behind modelCheckConsensus and measureLatency.
//
// Both sweeps execute the same runs — every script of a stream crossed with
// every initial configuration over the value domain — and differ only in
// what they fold out of each run: the checker a consensus verdict, the
// analyzer latency minima and maxima.  sweepRuns owns everything else: the
// symmetry group, run memo and POR spec; one RunExecutor arena per worker;
// the progress meter; parallelSweep; and the SweepRunStats aggregation and
// publish.  A caller brings its fold (a SweepShard class) and, when it
// samples instead of enumerating, its script list.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "explore/parallel_sweep.hpp"
#include "explore/spec.hpp"
#include "rounds/engine.hpp"

namespace ssvsp {

class RunExecutor;     // explore/reduction.hpp
class RunMemo;         // explore/reduction.hpp
struct SweepRunStats;  // explore/reduction.hpp

/// What every shard of one sweep reads.  The factory must be callable
/// concurrently (see rounds/round_automaton.hpp).  Constructing a context
/// preflights the sweep — an inadmissible spec throws PreflightError with
/// structured diagnostics before any worker spawns — and derives the
/// initial configurations and engine options from the spec.
struct SweepContext {
  SweepContext(const RoundAutomatonFactory& factory, const RoundConfig& cfg,
               RoundModel model, const ExploreSpec& spec);

  const RoundAutomatonFactory& factory;
  RoundConfig cfg;
  RoundModel model;
  const ExploreSpec& spec;
  std::vector<std::vector<Value>> configs;  ///< allInitialConfigs order
  RoundEngineOptions engineOpt;
};

/// Makes the shard for one chunk; `executor` is the arena of the worker the
/// chunk runs on, to be touched from visit() only (parallel_sweep.hpp).
using ExecutorShardFactory =
    std::function<std::unique_ptr<SweepShard>(RunExecutor* executor)>;

/// Sweeps `scripts` — nullptr = every script of ctx.spec.enumeration, in
/// enumeration order — over ctx.configs on resolveThreads(spec.threads)
/// workers, restricted to spec.shard.  `label` names the progress line.
/// With reduction on, runs are recalled from and published to `memo`
/// (nullptr = a sweep-local memo); with reduction off, `memo` is unused.
/// The sweep's execution counters are published as sweep.* metrics and,
/// when `runStats` is non-null, copied there.
SweepOutcome sweepRuns(const SweepContext& ctx, const char* label,
                       const ExecutorShardFactory& makeShard,
                       const std::vector<FailureScript>* scripts = nullptr,
                       RunMemo* memo = nullptr,
                       SweepRunStats* runStats = nullptr);

/// Reduces one (crashes -> latency) entry into a worst-latency map: kNoRound
/// is infinity, so it absorbs.
void foldWorst(std::map<int, Round>& into, int crashes, Round lat);

}  // namespace ssvsp
