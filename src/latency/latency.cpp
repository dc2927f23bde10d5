#include "latency/latency.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "explore/reduction.hpp"
#include "mc/sweep.hpp"
#include "obs/obs.hpp"
#include "rounds/adversary.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssvsp {

std::string LatencyProfile::toString() const {
  auto fmt = [](Round r) {
    return r == kNoRound ? std::string("inf") : std::to_string(r);
  };
  std::ostringstream os;
  os << "lat=" << fmt(lat) << " Lat=" << fmt(latMax)
     << " Lambda=" << fmt(lambda);
  for (const auto& [f, worst] : latByMaxCrashes)
    os << " Lat(f<=" << f << ")=" << fmt(worst);
  os << " runs=" << runsExecuted;
  return os.str();
}

namespace {

/// One shard of the latency sweep.  All aggregates are per-config minima
/// and per-crash-count maxima (with kNoRound = infinity), so merging two
/// shards is the same elementwise min/max regardless of how the stream was
/// split — the profile is thread-count-invariant.
class LatShard : public SweepShard {
 public:
  LatShard(std::size_t numConfigs, RunExecutor* executor)
      : executor_(executor), minPerConfig_(numConfigs, kNoRound) {}

  void visit(const FailureScript& script, std::int64_t scriptIndex) override {
    const int crashes = script.numCrashes();
    for (std::size_t ci = 0; ci < minPerConfig_.size(); ++ci) {
      ++runsExecuted_;
      const Round lr = executor_->run(script, scriptIndex, ci).latency;

      Round& cmin = minPerConfig_[ci];
      if (lr != kNoRound && (cmin == kNoRound || lr < cmin)) cmin = lr;

      foldWorst(worstByExactCrashes_, crashes, lr);
    }
  }

  void mergeFrom(SweepShard& from) override {
    LatShard& other = static_cast<LatShard&>(from);
    runsExecuted_ += other.runsExecuted_;
    for (std::size_t ci = 0; ci < minPerConfig_.size(); ++ci) {
      const Round omin = other.minPerConfig_[ci];
      Round& cmin = minPerConfig_[ci];
      if (omin != kNoRound && (cmin == kNoRound || omin < cmin)) cmin = omin;
    }
    for (const auto& [crashes, lr] : other.worstByExactCrashes_)
      foldWorst(worstByExactCrashes_, crashes, lr);
  }

  /// Folds the accumulated minima/maxima into the profile's degrees.
  LatencyProfile finish() {
    LatencyProfile profile;
    profile.runsExecuted = runsExecuted_;

    // lat(A) = min over configs of lat(A, C);  Lat(A) = max over configs.
    profile.latMax = 0;
    for (Round cmin : minPerConfig_) {
      if (cmin != kNoRound && (profile.lat == kNoRound || cmin < profile.lat))
        profile.lat = cmin;
      if (cmin == kNoRound)
        profile.latMax = kNoRound;  // some config never yields a deciding run
      else if (profile.latMax != kNoRound)
        profile.latMax = std::max(profile.latMax, cmin);
    }

    // Lat(A, f) = max over exact-crash buckets 0..f (monotone accumulation).
    Round running = 0;
    for (const auto& [crashes, worst] : worstByExactCrashes_) {
      if (worst == kNoRound || running == kNoRound)
        running = kNoRound;
      else
        running = std::max(running, worst);
      profile.latByMaxCrashes[crashes] = running;
    }
    const auto zero = profile.latByMaxCrashes.find(0);
    profile.lambda = zero != profile.latByMaxCrashes.end() ? zero->second
                                                           : kNoRound;
    return profile;
  }

 private:
  RunExecutor* executor_;  ///< the owning worker's arena; visit()-only
  std::int64_t runsExecuted_ = 0;
  /// lat(A, C) per configuration index; latencies here are "min over runs",
  /// so start at kNoRound (no run seen yet).
  std::vector<Round> minPerConfig_;
  /// Worst |r| over runs with exactly k crashes.
  std::map<int, Round> worstByExactCrashes_;
};

}  // namespace

ExploreSpec canonicalSweep(const AlgorithmEntry& entry, const RoundConfig& cfg,
                           Reduction reduction, std::int64_t maxScripts) {
  ExploreSpec spec;
  spec.enumeration.horizon = cfg.t + 2;
  spec.enumeration.maxCrashes = cfg.t;
  if (entry.intendedModel == RoundModel::kRws)
    spec.enumeration.pendingLags = {1, 0};
  spec.enumeration.maxScripts = maxScripts;
  spec.reduction = reduction;
  resolveReduction(spec, entry, cfg);
  return spec;
}

LatencyOptions canonicalLatencyOptions(const AlgorithmEntry& entry,
                                       const RoundConfig& cfg,
                                       bool exhaustive) {
  LatencyOptions options;
  // Behaviour-preserving accelerator: profiles are bit-identical with
  // reduction on (the orbit-equivalence and POR-equality tests pin this),
  // it only cuts the number of engine executions.  symmetry_por composes
  // the footprint-derived independence collapse on top of the orbit memo.
  static_cast<ExploreSpec&>(options) = canonicalSweep(
      entry, cfg, Reduction::kSymmetryPor,
      entry.intendedModel == RoundModel::kRws ? 200000 : -1);
  options.exhaustive = exhaustive;
  options.samples = 1000;
  return options;
}

LatencyProfile measureLatency(const RoundAutomatonFactory& factory,
                              const RoundConfig& cfg, RoundModel model,
                              const LatencyOptions& options) {
  const SweepContext ctx(factory, cfg, model, options);

  // Sampling mode: the script list is drawn up front (serially, from the
  // spec's seed) and then swept like any other stream, so the profile is a
  // function of (seed, samples) alone — not of the thread count.
  std::vector<FailureScript> sampled;
  if (!options.exhaustive) {
    Rng rng(options.seed);
    ScriptSampler sampler(cfg, model, options.enumeration.horizon);
    // Always include the designed corner cases the paper's arguments use.
    sampled.push_back(noFailures());
    for (int k = 1; k <= cfg.t; ++k)
      sampled.push_back(initialCrashes(cfg.n, k));
    for (int i = 0; i < options.samples; ++i)
      sampled.push_back(sampler.sample(rng));
  }

  SweepOutcome outcome;
  {
    OBS_SPAN("latency.sweep");
    outcome = sweepRuns(
        ctx, "latency",
        [&](RunExecutor* executor) {
          return std::make_unique<LatShard>(ctx.configs.size(), executor);
        },
        options.exhaustive ? nullptr : &sampled);
  }

  LatencyProfile profile = static_cast<LatShard&>(*outcome.merged).finish();
  obs::metrics().counter("latency.runs").add(profile.runsExecuted);
  return profile;
}

LatencyProfile measureLatency(const RoundAutomatonFactory& factory,
                              const RoundConfig& cfg, RoundModel model,
                              const ExploreSpec& spec) {
  LatencyOptions options;
  static_cast<ExploreSpec&>(options) = spec;
  return measureLatency(factory, cfg, model, options);
}

}  // namespace ssvsp
