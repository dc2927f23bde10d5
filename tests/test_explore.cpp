// Tests for the parallel exploration engine (src/explore): the sweep
// results must be BIT-IDENTICAL regardless of thread count and sharding
// grain — violations in canonical run order included — for both the model
// checker and the latency analyzers, in RS and RWS.  Also covers the
// ExploreSpec unification (McCheckOptions / LatencyOptions embed it) and
// the non-throwing registry lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "consensus/registry.hpp"
#include "explore/parallel_sweep.hpp"
#include "explore/spec.hpp"
#include "latency/latency.hpp"
#include "mc/checker.hpp"
#include "mc/enumerator.hpp"
#include "util/check.hpp"

namespace ssvsp {
namespace {

RoundConfig cfgOf(int n, int t) {
  RoundConfig c;
  c.n = n;
  c.t = t;
  return c;
}

McCheckOptions mcOptions(int t, std::vector<int> lags = {}) {
  McCheckOptions o;
  o.enumeration.horizon = t + 2;
  o.enumeration.maxCrashes = t;
  o.enumeration.pendingLags = std::move(lags);
  return o;
}

/// Field-by-field equality of two reports, with readable failure output.
void expectIdenticalReports(const McReport& a, const McReport& b) {
  EXPECT_EQ(a.scriptsVisited, b.scriptsVisited);
  EXPECT_EQ(a.runsExecuted, b.runsExecuted);
  EXPECT_EQ(a.worstLatencyByCrashes, b.worstLatencyByCrashes);
  EXPECT_EQ(a.bestLatencyByCrashes, b.bestLatencyByCrashes);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    const McViolation& va = a.violations[i];
    const McViolation& vb = b.violations[i];
    EXPECT_EQ(va.scriptIndex, vb.scriptIndex) << "violation " << i;
    EXPECT_EQ(va.configIndex, vb.configIndex) << "violation " << i;
    EXPECT_EQ(va.initial, vb.initial) << "violation " << i;
    EXPECT_EQ(va.script.toString(), vb.script.toString()) << "violation " << i;
    EXPECT_EQ(va.verdict.witness, vb.verdict.witness) << "violation " << i;
    EXPECT_EQ(va.runDump, vb.runDump) << "violation " << i;
  }
  EXPECT_EQ(a.summary(), b.summary());
}

McReport checkWithThreads(const std::string& algo, RoundModel model, int n,
                          int t, McCheckOptions o, int threads,
                          int chunkScripts = 64) {
  o.threads = threads;
  o.chunkScripts = chunkScripts;
  return modelCheckConsensus(algorithmByName(algo).factory, cfgOf(n, t),
                             model, o);
}

TEST(ExploreDeterminism, McIdenticalAcrossThreadCountsRs) {
  // FloodSet in RS (n=3, t=1): a clean sweep — every aggregate must match.
  const auto one =
      checkWithThreads("FloodSet", RoundModel::kRs, 3, 1, mcOptions(1), 1);
  const auto four =
      checkWithThreads("FloodSet", RoundModel::kRs, 3, 1, mcOptions(1), 4);
  EXPECT_TRUE(one.ok());
  // 37 scripts (1 failure-free + 3 ids x 3 rounds x 4 self-free sendTo
  // masks) x 8 initial configs.
  EXPECT_EQ(one.runsExecuted, 37 * 8);
  expectIdenticalReports(one, four);
}

TEST(ExploreDeterminism, McIdenticalAcrossThreadCountsRws) {
  // FloodSetWS in RWS (n=3, t=1): the pending space exercises RWS sharding.
  const auto one = checkWithThreads("FloodSetWS", RoundModel::kRws, 3, 1,
                                    mcOptions(1, {1, 0}), 1);
  const auto four = checkWithThreads("FloodSetWS", RoundModel::kRws, 3, 1,
                                     mcOptions(1, {1, 0}), 4);
  EXPECT_TRUE(one.ok());
  expectIdenticalReports(one, four);
}

TEST(ExploreDeterminism, McViolationOrderIdenticalUnderCap) {
  // FloodSet VIOLATES in RWS.  With a violation cap the sweep early-exits;
  // the cut must land on the same chunk boundary for every thread count, so
  // the violation list (canonical order!) and even scriptsVisited agree.
  McCheckOptions o = mcOptions(1, {1, 0});
  o.maxViolations = 3;
  const auto one = checkWithThreads("FloodSet", RoundModel::kRws, 3, 1, o, 1);
  const auto four = checkWithThreads("FloodSet", RoundModel::kRws, 3, 1, o, 4);
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(static_cast<int>(one.violations.size()), 3);
  expectIdenticalReports(one, four);
}

TEST(ExploreDeterminism, McIdenticalUnderOddChunking) {
  // A chunk size that never divides the stream evenly (tail chunks, ragged
  // merges) must not change the result either.
  const auto base = checkWithThreads("FloodSetWS", RoundModel::kRws, 3, 1,
                                     mcOptions(1, {1, 0}), 1, 64);
  const auto ragged = checkWithThreads("FloodSetWS", RoundModel::kRws, 3, 1,
                                       mcOptions(1, {1, 0}), 3, 7);
  expectIdenticalReports(base, ragged);
}

TEST(ExploreDeterminism, ViolationsSortedByCanonicalRunKey) {
  McCheckOptions o = mcOptions(1, {1, 0});
  o.maxViolations = 100;
  const auto r = checkWithThreads("FloodSet", RoundModel::kRws, 3, 1, o, 4);
  ASSERT_GT(r.violations.size(), 1u);
  for (std::size_t i = 1; i < r.violations.size(); ++i) {
    const auto& prev = r.violations[i - 1];
    const auto& cur = r.violations[i];
    EXPECT_TRUE(prev.scriptIndex < cur.scriptIndex ||
                (prev.scriptIndex == cur.scriptIndex &&
                 prev.configIndex < cur.configIndex))
        << "violations out of canonical order at " << i;
  }
}

TEST(ExploreDeterminism, LatencyIdenticalAcrossThreadCounts) {
  struct Case {
    const char* algo;
    RoundModel model;
    std::vector<int> lags;
  };
  const Case cases[] = {{"FloodSet", RoundModel::kRs, {}},
                        {"FloodSetWS", RoundModel::kRws, {1, 0}}};
  for (const auto& [algo, model, lags] : cases) {
    LatencyOptions o;
    o.enumeration.horizon = 3;
    o.enumeration.maxCrashes = 1;
    o.enumeration.pendingLags = lags;
    o.threads = 1;
    const auto one =
        measureLatency(algorithmByName(algo).factory, cfgOf(3, 1), model, o);
    o.threads = 4;
    o.chunkScripts = 5;
    const auto four =
        measureLatency(algorithmByName(algo).factory, cfgOf(3, 1), model, o);
    EXPECT_EQ(one.toString(), four.toString()) << algo;
    EXPECT_EQ(one.latByMaxCrashes, four.latByMaxCrashes) << algo;
    EXPECT_EQ(one.runsExecuted, four.runsExecuted) << algo;
  }
}

TEST(ExploreDeterminism, SampledLatencyIdenticalAcrossThreadCounts) {
  // Sampling draws its script list serially from the seed; the sweep over
  // it must still be thread-count-invariant.
  LatencyOptions o;
  o.enumeration.horizon = 4;
  o.enumeration.maxCrashes = 2;
  o.exhaustive = false;
  o.samples = 60;
  o.seed = 7;
  o.threads = 1;
  const auto one = measureLatency(algorithmByName("F_OptFloodSet").factory,
                                  cfgOf(4, 2), RoundModel::kRs, o);
  o.threads = 4;
  const auto four = measureLatency(algorithmByName("F_OptFloodSet").factory,
                                   cfgOf(4, 2), RoundModel::kRs, o);
  EXPECT_EQ(one.toString(), four.toString());
  EXPECT_EQ(one.lat, 1);
  EXPECT_EQ(one.latMax, 1);
}

// ------------------------- API surface ----------------------------------

TEST(ExploreSpecApi, OptionsEmbedExploreSpec) {
  // The unified sweep description is the base of both analyzers' options;
  // a spec configured once drives both, and since both run on the one
  // sweep driver their two folds of the same runs must agree: the
  // analyzer's Lat(A, f), Lambda and lat(A) are the checker's worst and
  // best latency maps read another way.
  const RoundConfig cfg = cfgOf(3, 1);
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    SCOPED_TRACE(entry.name);
    ExploreSpec spec = canonicalLatencyOptions(entry, cfg);
    spec.threads = 2;

    McCheckOptions check;
    static_cast<ExploreSpec&>(check) = spec;
    // A saturated sweep stops at a chunk boundary, and its latency maps
    // then cover only a prefix: let no check saturate.
    check.maxViolations = std::numeric_limits<int>::max();
    const auto report =
        modelCheckConsensus(entry.factory, cfg, entry.intendedModel, check);
    const auto profile =
        measureLatency(entry.factory, cfg, entry.intendedModel, spec);

    // Same space: the checker and the analyzer executed the same runs.
    EXPECT_EQ(report.runsExecuted, profile.runsExecuted);
    ASSERT_FALSE(profile.latByMaxCrashes.empty());
    for (const auto& [f, lat] : profile.latByMaxCrashes)
      EXPECT_EQ(lat, report.latUpToCrashes(f)) << "f = " << f;
    EXPECT_EQ(profile.lambda, report.latUpToCrashes(0));
    Round best = kNoRound;
    for (const auto& [crashes, lat] : report.bestLatencyByCrashes)
      best = std::min(best, lat);
    EXPECT_EQ(profile.lat, best);
  }
}

TEST(ExploreSpecApi, ResolveThreads) {
  EXPECT_EQ(resolveThreads(1), 1);
  EXPECT_EQ(resolveThreads(7), 7);
  EXPECT_GE(resolveThreads(0), 1);  // hardware concurrency, at least one
}

TEST(Registry, FindAlgorithmReturnsNullForUnknown) {
  EXPECT_EQ(findAlgorithm("NoSuchAlgorithm"), nullptr);
  const AlgorithmEntry* e = findAlgorithm("FloodSetWS");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->name, "FloodSetWS");
  EXPECT_EQ(e, &algorithmByName("FloodSetWS"));
  EXPECT_THROW(algorithmByName("NoSuchAlgorithm"), InvariantViolation);
}

// ------------------------- engine corner cases --------------------------

/// A trivial shard that records visited script indices, for engine-level
/// checks without the cost of real runs.
class IndexShard : public SweepShard {
 public:
  void visit(const FailureScript&, std::int64_t scriptIndex) override {
    indices_.push_back(scriptIndex);
  }
  void mergeFrom(SweepShard& from) override {
    auto& other = static_cast<IndexShard&>(from);
    indices_.insert(indices_.end(), other.indices_.begin(),
                    other.indices_.end());
  }
  const std::vector<std::int64_t>& indices() const { return indices_; }

 private:
  std::vector<std::int64_t> indices_;
};

TEST(ParallelSweepEngine, MergesChunksInStreamOrder) {
  const int total = 1000;
  ScriptStream stream = [&](const std::function<bool(const FailureScript&)>& fn) {
    FailureScript s;
    for (int i = 0; i < total; ++i)
      if (!fn(s)) return;
  };
  for (int threads : {1, 2, 5}) {
    ExploreSpec spec;
    spec.threads = threads;
    spec.chunkScripts = 17;  // ragged tail on purpose
    auto outcome = parallelSweep(
        stream, spec, [](int) { return std::make_unique<IndexShard>(); });
    EXPECT_EQ(outcome.scriptsMerged, total);
    const auto& idx = static_cast<IndexShard&>(*outcome.merged).indices();
    ASSERT_EQ(static_cast<int>(idx.size()), total);
    for (int i = 0; i < total; ++i)
      ASSERT_EQ(idx[static_cast<std::size_t>(i)], i) << "threads=" << threads;
  }
}

TEST(ParallelSweepEngine, EmptyStreamYieldsFreshShard) {
  ScriptStream stream =
      [](const std::function<bool(const FailureScript&)>&) {};
  ExploreSpec spec;
  spec.threads = 3;
  auto outcome = parallelSweep(stream, spec,
                               [](int) { return std::make_unique<IndexShard>(); });
  EXPECT_EQ(outcome.scriptsMerged, 0);
  ASSERT_NE(outcome.merged, nullptr);
  EXPECT_TRUE(static_cast<IndexShard&>(*outcome.merged).indices().empty());
}

// ------------------------- shard windowing ------------------------------

TEST(ShardPlan, PlanShardRangesIsCeilDivision) {
  const auto plan = planShardRanges(/*totalScripts=*/37, /*shardScripts=*/10);
  ASSERT_EQ(plan.size(), 4u);
  for (std::size_t i = 0; i < plan.size(); ++i)
    EXPECT_EQ(plan[i].firstScript, static_cast<std::int64_t>(10 * i));
  // The planner clips the ragged tail; countWithin agrees.
  EXPECT_EQ(plan[2].numScripts, 10);
  EXPECT_EQ(plan[3].numScripts, 7);
  EXPECT_EQ(plan[3].countWithin(37), 7);
  EXPECT_EQ(plan[0].countWithin(37), 10);
  // The default range is the whole stream.
  EXPECT_TRUE(ShardRange{}.whole());
  EXPECT_EQ(ShardRange{}.countWithin(37), 37);
}

TEST(ShardPlan, ShardedSweepsKeepGlobalIndicesAndTileTheStream) {
  const int total = 100;
  ScriptStream stream =
      [&](const std::function<bool(const FailureScript&)>& fn) {
        FailureScript s;
        for (int i = 0; i < total; ++i)
          if (!fn(s)) return;
      };
  std::vector<std::int64_t> all;
  for (const ShardRange& range : planShardRanges(total, 33)) {
    ExploreSpec spec;
    spec.threads = 2;
    spec.chunkScripts = 7;
    spec.shard = range;
    auto outcome = parallelSweep(
        stream, spec, [](int) { return std::make_unique<IndexShard>(); });
    const auto& idx = static_cast<IndexShard&>(*outcome.merged).indices();
    // The shard sees exactly its slice, under GLOBAL indices — the
    // invariant that makes per-shard reports merge bit-identically into
    // the whole-stream result.
    ASSERT_EQ(static_cast<std::int64_t>(idx.size()), range.countWithin(total));
    for (std::size_t i = 0; i < idx.size(); ++i)
      ASSERT_EQ(idx[i], range.firstScript + static_cast<std::int64_t>(i));
    all.insert(all.end(), idx.begin(), idx.end());
  }
  // The shard plan tiles the stream: concatenation is 0..total-1 exactly.
  ASSERT_EQ(static_cast<int>(all.size()), total);
  for (int i = 0; i < total; ++i) ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(ShardPlan, ShardedMcReportsMergeToWholeStreamReport) {
  const AlgorithmEntry& e = algorithmByName("FloodSetWS");
  const RoundConfig cfg = cfgOf(3, 1);
  McCheckOptions whole = mcOptions(1, {1, 0});
  const McReport reference =
      modelCheckConsensus(e.factory, cfg, RoundModel::kRws, whole);

  const std::int64_t total =
      countScripts(cfg, RoundModel::kRws, whole.enumeration);
  McReport merged;
  for (const ShardRange& range : planShardRanges(total, 11)) {
    McCheckOptions sliced = whole;
    sliced.shard = range;
    mergeMcReports(merged,
                   modelCheckConsensus(e.factory, cfg, RoundModel::kRws, sliced),
                   whole.maxViolations);
  }
  expectIdenticalReports(reference, merged);
}

}  // namespace
}  // namespace ssvsp
