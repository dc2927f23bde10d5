// The chunk-by-chunk replay of a symmetry_por sweep through the public
// layer entry points, which campaign-rws4's traced run uses to split the
// sweep inside every campaign shard into its layers.
#include <memory>

#include "explore/reduction.hpp"
#include "harness.hpp"
#include "mc/enumerator.hpp"
#include "rounds/spec.hpp"
#include "util/check.hpp"

namespace perfbench {

using namespace ssvsp;

ReplayResult replaySweep(const AlgorithmEntry& entry, const RoundConfig& cfg,
                         const ExploreSpec& spec) {
  SSVSP_CHECK(spec.reduction == Reduction::kSymmetryPor);
  const RoundModel model = entry.intendedModel;
  const std::vector<std::vector<Value>> configs =
      allInitialConfigs(cfg.n, spec.valueDomain);
  const std::size_t numConfigs = configs.size();

  RoundEngineOptions engineOpt;
  engineOpt.horizon = spec.enumeration.horizon + spec.horizonSlack;
  engineOpt.stopWhenAllDecided = true;
  std::vector<std::unique_ptr<RoundEngine>> engines;
  for (std::size_t c = 0; c < numConfigs; ++c)
    engines.push_back(
        std::make_unique<RoundEngine>(cfg, model, entry.factory, engineOpt));

  const SymmetryGroup group(cfg.n, spec.symmetryFixedIds);
  RunMemo memo;
  indep::ScriptNormalizer normalizer(cfg, porSpecFromExplore(spec));
  PairCanonicalizer canon(group);

  const auto chunkScripts = static_cast<std::size_t>(spec.chunkScripts);
  std::vector<FailureScript> chunk(chunkScripts);
  std::vector<FailureScript> normalized(chunkScripts);
  std::vector<MemoKey> keys(chunkScripts * numConfigs);
  std::vector<char> hit(chunkScripts * numConfigs);
  std::size_t fill = 0;

  ReplayResult out;
  out.groupSize = group.size();
  const auto processChunk = [&] {
    {
      obs::ScopedSpan span("indep.normalize");
      for (std::size_t i = 0; i < fill; ++i) {
        normalized[i] = normalizer.normalize(chunk[i]);
        out.collapsed += normalizer.lastCollapsed() ? 1 : 0;
      }
    }
    {
      obs::ScopedSpan span("explore.canonicalize");
      for (std::size_t i = 0; i < fill; ++i) {
        canon.setScript(normalized[i]);
        for (std::size_t c = 0; c < numConfigs; ++c)
          keys[i * numConfigs + c] = canon.key(configs[c]);
      }
    }
    {
      obs::ScopedSpan span("explore.memo_probe");
      for (std::size_t k = 0; k < fill * numConfigs; ++k)
        hit[k] = memo.find(keys[k]).has_value() ? 1 : 0;
    }
    {
      obs::ScopedSpan span("rounds.engine");
      for (std::size_t k = 0; k < fill * numConfigs; ++k) {
        if (hit[k] != 0 || memo.find(keys[k]).has_value()) {
          ++out.runsFromMemo;
          continue;
        }
        const std::size_t c = k % numConfigs;
        RoundEngine& engine = *engines[c];
        engine.execute(configs[c], chunk[k / numConfigs]);
        const bool ok = checkUniformConsensus(engine.result()).ok();
        memo.insert(keys[k], RunSummary{engine.result().latency(), ok});
        out.violations += ok ? 0 : 1;
      }
    }
    out.runsRequested += static_cast<std::int64_t>(fill * numConfigs);
    fill = 0;
  };

  {
    obs::ScopedSpan span("mc.enumerate");
    out.scripts = forEachScript(cfg, model, spec.enumeration,
                                [&](const FailureScript& script) {
                                  chunk[fill++] = script;
                                  if (fill == chunkScripts) processChunk();
                                  return true;
                                });
    if (fill > 0) processChunk();
  }
  for (const auto& engine : engines) {
    out.runsExecuted += engine->stats().runsExecuted;
    out.roundsExecuted += engine->stats().roundsExecuted;
    out.roundsResumed += engine->stats().roundsResumed;
  }
  out.memoEntries = memo.size();
  return out;
}

void reportReplay(const ReplayResult& replay, const SpanSeconds& spans,
                  Report& report) {
  const auto count = [&](const std::string& name, std::int64_t value) {
    report.metric(name, static_cast<double>(value), "count");
    report.exact(name, value);
  };
  report.metric("mc.enumerate_s", spans.self.at("mc.enumerate"), "s");
  count("mc.scripts", replay.scripts);
  report.metric("indep.normalize_s", spans.self.at("indep.normalize"), "s");
  report.metric("indep.collapsed_ratio",
                static_cast<double>(replay.collapsed) /
                    static_cast<double>(replay.scripts),
                "ratio");
  report.metric("explore.canonicalize_s",
                spans.self.at("explore.canonicalize"), "s");
  report.metric("explore.group_size", replay.groupSize, "count");
  report.metric("explore.memo_probe_s", spans.self.at("explore.memo_probe"),
                "s");
  report.metric("explore.memo_hit_ratio",
                static_cast<double>(replay.runsFromMemo) /
                    static_cast<double>(replay.runsRequested),
                "ratio");
  count("explore.memo_entries", replay.memoEntries);
  report.metric("rounds.engine_s", spans.self.at("rounds.engine"), "s");
  count("rounds.runs_executed", replay.runsExecuted);
  count("rounds.rounds_executed", replay.roundsExecuted);
  count("rounds.rounds_resumed", replay.roundsResumed);
}

}  // namespace perfbench
