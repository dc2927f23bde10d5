#include "mc/sweep.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "explore/reduction.hpp"
#include "lint/lint.hpp"
#include "mc/enumerator.hpp"
#include "obs/progress.hpp"

namespace ssvsp {

SweepContext::SweepContext(const RoundAutomatonFactory& factory,
                           const RoundConfig& cfg, RoundModel model,
                           const ExploreSpec& spec)
    : factory(factory), cfg(cfg), model(model), spec(spec) {
  // Fail fast on inadmissible specs: a structured PreflightError here beats
  // an InvariantViolation thrown from the middle of a sweep.
  preflightSweep(cfg, model, spec);
  configs = allInitialConfigs(cfg.n, spec.valueDomain);
  engineOpt.horizon = spec.enumeration.horizon + spec.horizonSlack;
  // Decisions are final; stopping once every alive process decided is safe
  // and makes exhaustive sweeps ~2x faster.
  engineOpt.stopWhenAllDecided = true;
}

SweepOutcome sweepRuns(const SweepContext& ctx, const char* label,
                       const ExecutorShardFactory& makeShard,
                       const std::vector<FailureScript>* scripts,
                       RunMemo* memo, SweepRunStats* runStats) {
  const ExploreSpec& spec = ctx.spec;

  // One execution arena per worker: engines (with their automata and
  // buffers) live for the whole sweep, not per chunk.  The memo is shared.
  std::unique_ptr<SymmetryGroup> group;
  std::unique_ptr<RunMemo> ownedMemo;
  std::optional<indep::PorSpec> por;
  if (spec.reduction == Reduction::kNone) {
    memo = nullptr;
  } else {
    group = std::make_unique<SymmetryGroup>(ctx.cfg.n, spec.symmetryFixedIds);
    if (memo == nullptr) {
      ownedMemo = std::make_unique<RunMemo>();
      memo = ownedMemo.get();
    }
    if (spec.reduction == Reduction::kSymmetryPor)
      por = porSpecFromExplore(spec);
  }
  std::vector<std::unique_ptr<RunExecutor>> arenas;
  for (int w = 0; w < resolveThreads(spec.threads); ++w)
    arenas.push_back(std::make_unique<RunExecutor>(
        ctx.cfg, ctx.model, ctx.factory, ctx.configs, ctx.engineOpt,
        group.get(), memo, por.has_value() ? &*por : nullptr));

  ScriptStream stream;
  if (scripts == nullptr) {
    stream = [&ctx](const std::function<bool(const FailureScript&)>& fn) {
      forEachScript(ctx.cfg, ctx.model, ctx.spec.enumeration, fn);
    };
  } else {
    stream = [scripts](const std::function<bool(const FailureScript&)>& fn) {
      for (const FailureScript& script : *scripts)
        if (!fn(script)) return;
    };
  }

  obs::ProgressMeter::Options progressOpt;
  progressOpt.intervalSec = spec.progressIntervalSec >= 0
                                ? spec.progressIntervalSec
                                : obs::progressIntervalFromEnv();
  progressOpt.label = label;
  if (progressOpt.intervalSec > 0) {
    // Counting costs one extra (runless) enumeration pass; only pay it when
    // the progress line is actually on.  The total is the SLICE the sweep
    // actually executes, not the whole stream — a shard worker's ETA would
    // otherwise be pessimistic by the shard count.
    progressOpt.totalScripts = spec.shard.countWithin(
        scripts == nullptr
            ? countScripts(ctx.cfg, ctx.model, spec.enumeration)
            : static_cast<std::int64_t>(scripts->size()));
    progressOpt.memoHits = [&arenas] {
      std::int64_t hits = 0;
      for (const auto& arena : arenas) hits += arena->runsFromMemoNow();
      return hits;
    };
    progressOpt.memoRequests = [&arenas] {
      std::int64_t requests = 0;
      for (const auto& arena : arenas) requests += arena->runsRequestedNow();
      return requests;
    };
  }
  obs::ProgressMeter progress(std::move(progressOpt));

  SweepOutcome outcome = parallelSweep(
      stream, spec,
      [&](int worker) {
        return makeShard(arenas[static_cast<std::size_t>(worker)].get());
      },
      progress.enabled() ? &progress : nullptr);
  progress.finish();

  SweepRunStats agg;
  for (const auto& arena : arenas) agg.add(arena->stats());
  agg.memoEntries = memo != nullptr ? memo->size() : 0;
  agg.publish(obs::metrics());
  if (runStats != nullptr) *runStats = agg;
  return outcome;
}

void foldWorst(std::map<int, Round>& into, int crashes, Round lat) {
  auto [it, inserted] = into.try_emplace(crashes, lat);
  if (inserted) return;
  if (lat == kNoRound || it->second == kNoRound)
    it->second = kNoRound;
  else
    it->second = std::max(it->second, lat);
}

}  // namespace ssvsp
