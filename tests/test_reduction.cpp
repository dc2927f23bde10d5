// Tests for the state-space reduction layer (src/explore/reduction.hpp)
// and the checkpoint/resume contract of the pooled RoundEngine.
//
// The load-bearing property is BIT-IDENTITY: a sweep with symmetry
// reduction on must produce exactly the same McReport / LatencyProfile as
// the unreduced sweep, for every registered algorithm, in both models.
// Reduction is only ever allowed to skip engine work, never to change what
// an analyzer observes.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "consensus/floodset.hpp"
#include "consensus/registry.hpp"
#include "explore/reduction.hpp"
#include "latency/latency.hpp"
#include "mc/checker.hpp"
#include "mc/enumerator.hpp"
#include "rounds/engine.hpp"
#include "rounds/spec.hpp"
#include "util/check.hpp"

namespace ssvsp {
namespace {

RoundConfig cfgOf(int n, int t) {
  RoundConfig c;
  c.n = n;
  c.t = t;
  return c;
}

// ------------------------------ group -----------------------------------

TEST(SymmetryGroup, SizesAndFixedPrefix) {
  EXPECT_EQ(SymmetryGroup(4, 0).size(), 24);
  EXPECT_EQ(SymmetryGroup(4, 2).size(), 2);
  EXPECT_EQ(SymmetryGroup(4, 4).size(), 1);
  EXPECT_TRUE(SymmetryGroup(4, 4).trivial());
  EXPECT_TRUE(SymmetryGroup(4, 3).trivial());  // one movable id

  const SymmetryGroup g(5, 2);
  EXPECT_EQ(g.size(), 6);
  for (int i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.perm(i)[0], 0);
    EXPECT_EQ(g.perm(i)[1], 1);
    for (ProcessId p = 0; p < 5; ++p)
      EXPECT_EQ(g.inverse(i)[static_cast<std::size_t>(
                    g.perm(i)[static_cast<std::size_t>(p)])],
                p);
  }
}

TEST(SymmetryGroup, MaskImageTracksPermutation) {
  const SymmetryGroup g(4, 0);
  for (int i = 0; i < g.size(); ++i) {
    for (std::uint64_t mask = 0; mask < 16; ++mask) {
      std::uint64_t expected = 0;
      for (ProcessId p = 0; p < 4; ++p)
        if ((mask >> p) & 1)
          expected |= std::uint64_t{1}
                      << g.perm(i)[static_cast<std::size_t>(p)];
      EXPECT_EQ(g.applyToMask(i, mask), expected);
    }
  }
}

TEST(SymmetryGroup, RejectsOversizedGroups) {
  EXPECT_THROW(SymmetryGroup(10, 0), InvariantViolation);
  EXPECT_NO_THROW(SymmetryGroup(10, 2));
}

TEST(CanonicalValueConfigs, PinsProcessZero) {
  const auto configs = canonicalValueConfigs(3);
  EXPECT_EQ(configs.size(), 4u);
  for (const auto& c : configs) EXPECT_EQ(c[0], 0);
}

// --------------------------- canonical keys -----------------------------

FailureScript oneCrash(ProcessId p, Round r, ProcessSet sendTo) {
  FailureScript s;
  s.crashes.push_back({p, r, sendTo});
  return s;
}

TEST(PairCanonicalizer, OrbitEquivalentPairsShareAKey) {
  // Swap of processes 1 and 2: crash of p1 sending to {0} with config
  // (0,1,0) is the image of crash of p2 sending to {0} with config (0,0,1).
  const SymmetryGroup g(3, 0);
  PairCanonicalizer canon(g);

  canon.setScript(oneCrash(1, 2, ProcessSet{0}));
  const MemoKey keyA = canon.key({0, 1, 0});

  canon.setScript(oneCrash(2, 2, ProcessSet{0}));
  const MemoKey keyB = canon.key({0, 0, 1});
  EXPECT_EQ(keyA, keyB);

  // Same script, non-equivalent config: different key.
  const MemoKey keyC = canon.key({0, 1, 0});
  EXPECT_NE(keyA, keyC);

  // Different crash round: different orbit.
  canon.setScript(oneCrash(1, 1, ProcessSet{0}));
  EXPECT_NE(canon.key({0, 1, 0}), keyA);
}

TEST(PairCanonicalizer, FixedIdsAreNotIdentified) {
  // With ids {0, 1} pinned (the A1 family), a crash of p0 and a crash of
  // p1 are NOT in the same orbit even under identical configs.
  const SymmetryGroup g(4, 2);
  PairCanonicalizer canon(g);
  canon.setScript(oneCrash(0, 1, ProcessSet()));
  const MemoKey keyA = canon.key({0, 0, 0, 0});
  canon.setScript(oneCrash(1, 1, ProcessSet()));
  EXPECT_NE(canon.key({0, 0, 0, 0}), keyA);

  // While p2 and p3 still are identified.
  canon.setScript(oneCrash(2, 1, ProcessSet()));
  const MemoKey keyC = canon.key({0, 0, 0, 0});
  canon.setScript(oneCrash(3, 1, ProcessSet()));
  EXPECT_EQ(canon.key({0, 0, 0, 0}), keyC);
}

TEST(PairCanonicalizer, KeyIsOrbitInvariantAcrossTheWholeSpace) {
  // Exhaustive cross-check on a small space: every (script, config) pair's
  // key equals the key of its image under every group element.
  const auto cfg = cfgOf(3, 2);
  const SymmetryGroup g(3, 0);
  PairCanonicalizer canon(g);
  PairCanonicalizer imageCanon(g);

  EnumOptions o;
  o.horizon = 2;
  o.maxCrashes = 1;
  o.pendingLags = {1, 0};
  const auto configs = allInitialConfigs(3, 2);

  forEachScript(cfg, RoundModel::kRws, o, [&](const FailureScript& s) {
    canon.setScript(s);
    for (int e = 0; e < g.size(); ++e) {
      FailureScript image;
      for (const CrashEvent& c : s.crashes)
        image.crashes.push_back(
            {g.perm(e)[static_cast<std::size_t>(c.p)], c.round,
             ProcessSet::fromMask(g.applyToMask(e, c.sendTo.mask()))});
      for (const PendingChoice& pc : s.pendings) {
        PendingChoice ipc = pc;
        ipc.src = g.perm(e)[static_cast<std::size_t>(pc.src)];
        ipc.dst = g.perm(e)[static_cast<std::size_t>(pc.dst)];
        image.pendings.push_back(ipc);
      }
      imageCanon.setScript(image);
      for (const auto& config : configs) {
        std::vector<Value> imageConfig(config.size());
        for (ProcessId p = 0; p < 3; ++p)
          imageConfig[static_cast<std::size_t>(
              g.perm(e)[static_cast<std::size_t>(p)])] =
              config[static_cast<std::size_t>(p)];
        EXPECT_EQ(canon.key(config), imageCanon.key(imageConfig))
            << s.toString() << " under perm " << e;
      }
    }
    return true;
  });
}

// ------------------------- checkpoint/resume ----------------------------

void expectSameRun(const RoundRunResult& a, const RoundRunResult& b) {
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.decisionRound, b.decisionRound);
  EXPECT_EQ(a.latency(), b.latency());
  EXPECT_EQ(a.faulty, b.faulty);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.roundsExecuted, b.roundsExecuted);
  EXPECT_EQ(a.sentPerRound, b.sentPerRound);
  EXPECT_EQ(a.peakPendingInFlight, b.peakPendingInFlight);
  EXPECT_EQ(a.script.toString(), b.script.toString());
}

RoundEngineOptions engineOptionsFor(const RoundConfig& cfg) {
  RoundEngineOptions eo;
  eo.horizon = cfg.t + 4;
  return eo;
}

/// Feeds every script of a small space through ONE pooled engine (so runs
/// reuse automata and checkpoints) and checks each result against a fresh
/// single-use execution.  This is the engine-level bit-identity property.
void runPooledVsFresh(const AlgorithmEntry& entry, const RoundConfig& cfg) {
  const RoundModel model = entry.intendedModel;
  const RoundEngineOptions eo = engineOptionsFor(cfg);
  RoundEngine engine(cfg, model, entry.factory, eo);

  EnumOptions o;
  o.horizon = cfg.t + 1;
  o.maxCrashes = cfg.t;
  if (model == RoundModel::kRws) {
    o.pendingLags = {1, 0};
    o.maxScripts = 400;
  }
  std::vector<Value> initial;
  for (ProcessId p = 0; p < cfg.n; ++p) initial.push_back(p % 2);

  std::int64_t checked = 0;
  forEachScript(cfg, model, o, [&](const FailureScript& s) {
    engine.execute(initial, s);
    const RoundRunResult fresh =
        runRounds(cfg, model, entry.factory, initial, s, eo);
    expectSameRun(engine.result(), fresh);
    ++checked;
    return true;
  });
  EXPECT_GT(checked, 10) << entry.name;
  // The divergence-ordered stream must actually exercise some reuse path
  // (algorithms whose runs early-stop at round 1, like A1, reuse whole runs
  // rather than resume mid-run).
  EXPECT_GT(engine.stats().roundsResumed + engine.stats().runsReused, 0)
      << entry.name;
}

TEST(RoundEngineResume, PooledRunsMatchFreshRunsForEveryAlgorithm) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    runPooledVsFresh(entry, cfg);
  }
}

TEST(RoundEngineResume, CheckpointResumeFiresOnDivergenceOrderedStream) {
  // FloodSet runs last t + 1 = 3 rounds, so consecutive scripts diverging
  // at rounds 2 and 3 must hit mid-run checkpoints, not just whole-run
  // reuse.
  const AlgorithmEntry& entry = algorithmByName("FloodSet");
  const RoundConfig cfg = cfgOf(3, 2);
  const RoundEngineOptions eo = engineOptionsFor(cfg);
  RoundEngine engine(cfg, entry.intendedModel, entry.factory, eo);

  EnumOptions o;
  o.horizon = cfg.t + 1;
  o.maxCrashes = cfg.t;
  const std::vector<Value> initial{0, 1, 1};
  forEachScript(cfg, entry.intendedModel, o, [&](const FailureScript& s) {
    engine.execute(initial, s);
    return true;
  });
  EXPECT_GT(engine.stats().roundsResumed, 0);
  EXPECT_GT(engine.stats().runsExecuted, 0);
}

/// FloodSet that counts the snapshots the engine takes of it: stateBytes
/// calls with an output buffer, summed over every instance into *writes.
/// The counter pointer is fixed at construction, not round state, so the
/// subclass may vouch for the inherited bytes as its own.
class SnapshotCountingFloodSet : public FloodSet {
 public:
  explicit SnapshotCountingFloodSet(int* writes)
      : FloodSet(/*useHaltSet=*/false), writes_(writes) {}
  std::size_t stateBytes(std::byte* out) const override {
    if (out != nullptr) ++*writes_;
    return FloodSet::stateBytes(out);
  }
  const std::type_info* stateBytesType() const override {
    return &typeid(SnapshotCountingFloodSet);
  }

 private:
  int* writes_;
};

TEST(RoundEngineResume, SingleUseRunRoundsTakesNoCheckpoints) {
  // runRounds' engine runs once and is discarded, so it snapshots nothing;
  // a pooled engine on the same factory still checkpoints.
  int writes = 0;
  const RoundAutomatonFactory factory = [&writes](ProcessId) {
    return std::make_unique<SnapshotCountingFloodSet>(&writes);
  };
  const RoundConfig cfg = cfgOf(3, 2);
  const RoundEngineOptions eo = engineOptionsFor(cfg);
  const std::vector<Value> initial{0, 1, 1};
  runRounds(cfg, RoundModel::kRs, factory, initial, FailureScript{}, eo);
  EXPECT_EQ(writes, 0);

  RoundEngine pooled(cfg, RoundModel::kRs, factory, eo);
  pooled.execute(initial, FailureScript{});
  EXPECT_GT(writes, 0);
}

TEST(RoundEngineResume, SnapshotAndResumeRoundTrip) {
  const AlgorithmEntry& entry = algorithmByName("FloodSetWS");
  const RoundConfig cfg = cfgOf(3, 2);
  RoundEngineOptions eo;
  eo.horizon = 4;
  eo.stopWhenAllDecided = false;  // keep all 4 rounds (and 3 checkpoints)

  FailureScript script;
  script.crashes.push_back({2, 3, ProcessSet{0}});
  script.pendings.push_back({2, 1, 2, 3});

  const std::vector<Value> initial{0, 1, 1};
  RoundEngine engine(cfg, entry.intendedModel, entry.factory, eo);
  engine.execute(initial, script);
  const RoundRunResult fresh =
      runRounds(cfg, entry.intendedModel, entry.factory, initial, script, eo);
  expectSameRun(engine.result(), fresh);

  // Rounds 1..3 are snapshotted; the final round is not (a later run that
  // agrees everywhere reuses the whole run without one).
  for (Round r = 1; r <= 3; ++r) {
    ASSERT_NE(engine.snapshotAt(r), nullptr) << "round " << r;
    EXPECT_EQ(engine.snapshotAt(r)->round, r);
  }
  EXPECT_EQ(engine.snapshotAt(4), nullptr);

  // Resuming from each checkpoint under the SAME script must reproduce the
  // fresh run exactly.
  for (Round r = 1; r <= 3; ++r) {
    engine.resumeFrom(*engine.snapshotAt(r), script);
    expectSameRun(engine.result(), fresh);
  }
}

TEST(RoundEngineResume, FullReuseWhenScriptsAgreeOnExecutedPrefix) {
  const AlgorithmEntry& entry = algorithmByName("FloodSet");
  const RoundConfig cfg = cfgOf(3, 1);
  RoundEngineOptions eo;
  eo.horizon = 6;  // stopWhenAllDecided ends runs at round t+1 = 2

  RoundEngine engine(cfg, entry.intendedModel, entry.factory, eo);
  const std::vector<Value> initial{0, 1, 0};
  engine.execute(initial, FailureScript{});

  // A crash after the early-stop round cannot change the run.
  FailureScript late = oneCrash(1, 5, ProcessSet());
  engine.execute(initial, late);
  EXPECT_EQ(engine.stats().runsReused, 1);
  const RoundRunResult fresh =
      runRounds(cfg, entry.intendedModel, entry.factory, initial, late, eo);
  expectSameRun(engine.result(), fresh);
}

TEST(RoundEngineResume, TracedRunsMatchFreshRunsOverTheInterpreterSpace) {
  // The interpreter's traversal on one traced engine: configs outer, the
  // schedule cells inner, horizon t + 3 without early stop.  Resuming keeps
  // the previous run's delivery prefix, so every run's trace must still
  // equal a fresh execution's.
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    SCOPED_TRACE(entry.name);
    const RoundConfig cfg = cfgOf(4, canonicalAnalysisConfig(entry).t);
    RoundEngineOptions eo;
    eo.horizon = cfg.t + 3;
    eo.traceDeliveries = true;
    eo.stopWhenAllDecided = false;
    RoundEngine engine(cfg, entry.intendedModel, entry.factory, eo);
    const std::vector<FailureScript> cells =
        enumerateScheduleCells(cfg, entry.intendedModel);
    std::int64_t mismatches = 0;
    for (const std::vector<Value>& config : canonicalConfigs(cfg.n)) {
      for (const FailureScript& script : cells) {
        engine.execute(config, script);
        const RoundRunResult& got = engine.result();
        const RoundRunResult want = runRounds(cfg, entry.intendedModel,
                                              entry.factory, config, script,
                                              eo);
        bool same = got.decision == want.decision &&
                    got.decisionRound == want.decisionRound &&
                    got.sentPerRound == want.sentPerRound &&
                    got.peakPendingInFlight == want.peakPendingInFlight &&
                    got.deliveries.size() == want.deliveries.size();
        for (std::size_t i = 0; same && i < got.deliveries.size(); ++i) {
          const RoundDelivery& a = got.deliveries[i];
          const RoundDelivery& b = want.deliveries[i];
          same = a.deliveredRound == b.deliveredRound &&
                 a.sentRound == b.sentRound && a.src == b.src &&
                 a.dst == b.dst && a.payload == b.payload;
        }
        if (!same && ++mismatches == 1)
          ADD_FAILURE() << "first mismatch: " << want.toString();
      }
    }
    EXPECT_EQ(mismatches, 0);
    // The traversal must actually resume from checkpoints under tracing.
    EXPECT_GT(engine.stats().roundsResumed, 0);
  }
}

TEST(RoundEngineResume, DivergenceRoundBasics) {
  const FailureScript none;
  EXPECT_EQ(divergenceRound(none, none), kNoRound);

  const FailureScript a = oneCrash(1, 3, ProcessSet{0});
  EXPECT_EQ(divergenceRound(a, a), kNoRound);
  EXPECT_EQ(divergenceRound(a, none), 3);
  EXPECT_EQ(divergenceRound(a, oneCrash(1, 2, ProcessSet{0})), 2);
  EXPECT_EQ(divergenceRound(a, oneCrash(1, 3, ProcessSet{2})), 3);
  EXPECT_EQ(divergenceRound(a, oneCrash(2, 3, ProcessSet{0})), 3);

  // Pending disagreements count from the SEND round.
  FailureScript b = a;
  b.pendings.push_back({1, 0, 2, 3});
  EXPECT_EQ(divergenceRound(a, b), 2);
  FailureScript c = b;
  c.pendings.front().arrival = kNoRound;
  EXPECT_EQ(divergenceRound(b, c), 2);
}

// -------------------- executor / memo bit-identity ----------------------

TEST(RunExecutor, MemoizedSummariesMatchFreshRuns) {
  const AlgorithmEntry& entry = algorithmByName("FloodSetWS");
  const RoundConfig cfg = cfgOf(3, 2);
  const RoundEngineOptions eo = engineOptionsFor(cfg);
  const SymmetryGroup group(cfg.n, entry.symmetryFixedIds);
  RunMemo memo;
  RunExecutor executor(cfg, entry.intendedModel, entry.factory,
                       allInitialConfigs(cfg.n, 2), eo, &group, &memo);

  EnumOptions o;
  o.horizon = cfg.t + 1;
  o.maxCrashes = cfg.t;
  o.pendingLags = {1, 0};
  o.maxScripts = 300;

  std::int64_t index = 0;
  forEachScript(cfg, entry.intendedModel, o, [&](const FailureScript& s) {
    for (std::size_t ci = 0; ci < executor.configs().size(); ++ci) {
      const RunSummary summary = executor.run(s, index, ci);
      const RoundRunResult fresh = runRounds(
          cfg, entry.intendedModel, entry.factory,
          executor.configs()[ci], s, eo);
      EXPECT_EQ(summary.latency, fresh.latency()) << s.toString();
      EXPECT_EQ(summary.consensusOk, checkUniformConsensus(fresh).ok())
          << s.toString();
    }
    ++index;
    return true;
  });

  const SweepRunStats stats = executor.stats();
  EXPECT_EQ(stats.runsRequested, index * 8);
  EXPECT_GT(stats.runsFromMemo, 0);
  EXPECT_EQ(stats.runsFromMemo + stats.runsExecuted +
                stats.runsReusedInEngine,
            stats.runsRequested);
  EXPECT_EQ(memo.size(), stats.runsRequested - stats.runsFromMemo);
}

// ------------------- sweep-level orbit equivalence ----------------------

void expectSameReport(const McReport& a, const McReport& b,
                      const std::string& label) {
  EXPECT_EQ(a.scriptsVisited, b.scriptsVisited) << label;
  EXPECT_EQ(a.runsExecuted, b.runsExecuted) << label;
  EXPECT_EQ(a.worstLatencyByCrashes, b.worstLatencyByCrashes) << label;
  EXPECT_EQ(a.bestLatencyByCrashes, b.bestLatencyByCrashes) << label;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << label;
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    const McViolation& va = a.violations[i];
    const McViolation& vb = b.violations[i];
    EXPECT_EQ(va.scriptIndex, vb.scriptIndex) << label;
    EXPECT_EQ(va.configIndex, vb.configIndex) << label;
    EXPECT_EQ(va.initial, vb.initial) << label;
    EXPECT_EQ(va.script.toString(), vb.script.toString()) << label;
    EXPECT_EQ(va.verdict.witness, vb.verdict.witness) << label;
    EXPECT_EQ(va.runDump, vb.runDump) << label;
  }
}

McCheckOptions checkOptionsFor(const AlgorithmEntry& entry,
                               const RoundConfig& cfg) {
  McCheckOptions o;
  o.enumeration.horizon = cfg.t + 2;
  o.enumeration.maxCrashes = cfg.t;
  if (entry.intendedModel == RoundModel::kRws) {
    o.enumeration.pendingLags = {1, 0};
    o.enumeration.maxScripts = 1500;
  }
  return o;
}

TEST(OrbitEquivalence, McReportIsBitIdenticalForEveryAlgorithm) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    McCheckOptions unreduced = checkOptionsFor(entry, cfg);
    McCheckOptions reduced = unreduced;
    reduced.reduction = Reduction::kSymmetry;
    reduced.symmetryFixedIds = entry.symmetryFixedIds;
    SweepRunStats stats;
    reduced.runStats = &stats;

    const McReport a = modelCheckConsensus(entry.factory, cfg,
                                           entry.intendedModel, unreduced);
    const McReport b = modelCheckConsensus(entry.factory, cfg,
                                           entry.intendedModel, reduced);
    expectSameReport(a, b, entry.name);
    if (entry.symmetryFixedIds < cfg.n - 1) {
      EXPECT_GT(stats.runsFromMemo, 0) << entry.name;
    }
  }
}

TEST(OrbitEquivalence, McReportIsBitIdenticalAcrossThreadsForEveryAlgorithm) {
  // The cheap registry-wide sweep: every algorithm, reduced + 2 workers,
  // against its own single-threaded unreduced reference.  The larger
  // FloodSetWS-only test below stresses the same contract on a bigger
  // space.
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    const McCheckOptions unreduced = checkOptionsFor(entry, cfg);
    McCheckOptions reduced = unreduced;
    reduced.reduction = Reduction::kSymmetry;
    reduced.symmetryFixedIds = entry.symmetryFixedIds;
    reduced.threads = 2;

    const McReport a = modelCheckConsensus(entry.factory, cfg,
                                           entry.intendedModel, unreduced);
    const McReport b = modelCheckConsensus(entry.factory, cfg,
                                           entry.intendedModel, reduced);
    expectSameReport(a, b, entry.name + " threads=2");
  }
}

TEST(OrbitEquivalence, McReportIsBitIdenticalAcrossThreads) {
  const AlgorithmEntry& entry = algorithmByName("FloodSetWS");
  const RoundConfig cfg = cfgOf(4, 2);
  McCheckOptions base = checkOptionsFor(entry, cfg);
  base.enumeration.maxScripts = 4000;
  const McReport reference =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, base);

  McCheckOptions reduced = base;
  reduced.reduction = Reduction::kSymmetry;
  reduced.threads = 2;
  const McReport parallel =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, reduced);
  expectSameReport(reference, parallel, "FloodSetWS threads=2");
}

/// `options` upgraded to symmetry_por with the entry's footprint resolved —
/// the exact wiring canonicalLatencyOptions and the campaign layer use.
McCheckOptions withPor(const AlgorithmEntry& entry, const RoundConfig& cfg,
                       McCheckOptions options, int replayEvery = 0) {
  options.reduction = Reduction::kSymmetryPor;
  resolveReduction(options, entry, cfg);
  options.porReplayEvery = replayEvery;
  return options;
}

// The POR acceptance contract: symmetry_por must be bit-identical to the
// UNREDUCED sweep on every registered algorithm, with the replay tripwire
// armed so every collapsed memo hit is re-executed and compared (a wrong
// independence rule fails this test twice over — differing reports or a
// thrown PorTripwireError).
TEST(OrbitEquivalence, McReportIsBitIdenticalUnderPorForEveryAlgorithm) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    const McCheckOptions unreduced = checkOptionsFor(entry, cfg);
    McCheckOptions por = withPor(entry, cfg, unreduced, /*replayEvery=*/1);
    SweepRunStats porStats;
    por.runStats = &porStats;

    const McReport a = modelCheckConsensus(entry.factory, cfg,
                                           entry.intendedModel, unreduced);
    const McReport b = modelCheckConsensus(entry.factory, cfg,
                                           entry.intendedModel, por);
    expectSameReport(a, b, entry.name + " por");
    EXPECT_EQ(a.toJsonString(), b.toJsonString()) << entry.name;
    // Every entry with a pruning lever must actually dedup.  A1 (RS, no
    // declared decision-fix bound, near-trivial orbit group) is the one
    // registry entry with nothing to collapse on this space.
    const bool hasLever =
        por.decisionFixRound != kNoRound ||
        entry.intendedModel == RoundModel::kRws ||
        entry.symmetryFixedIds < cfg.n - 1;
    if (hasLever) {
      EXPECT_GT(porStats.runsFromMemo, 0) << entry.name;
    }
  }
}

TEST(OrbitEquivalence, PorExecutesNoMoreRunsThanSymmetry) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    McCheckOptions sym = checkOptionsFor(entry, cfg);
    sym.reduction = Reduction::kSymmetry;
    sym.symmetryFixedIds = entry.symmetryFixedIds;
    SweepRunStats symStats;
    sym.runStats = &symStats;
    McCheckOptions por = withPor(entry, cfg, checkOptionsFor(entry, cfg));
    SweepRunStats porStats;
    por.runStats = &porStats;

    modelCheckConsensus(entry.factory, cfg, entry.intendedModel, sym);
    modelCheckConsensus(entry.factory, cfg, entry.intendedModel, por);
    EXPECT_LE(porStats.runsExecuted + porStats.runsReusedInEngine,
              symStats.runsExecuted + symStats.runsReusedInEngine)
        << entry.name;
  }
}

TEST(OrbitEquivalence, McReportIsBitIdenticalUnderPorAcrossThreads) {
  const AlgorithmEntry& entry = algorithmByName("FloodSetWS");
  const RoundConfig cfg = cfgOf(4, 2);
  McCheckOptions base = checkOptionsFor(entry, cfg);
  base.enumeration.maxScripts = 4000;
  const McReport reference =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, base);

  McCheckOptions por = withPor(entry, cfg, base);
  por.threads = 2;
  const McReport parallel =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, por);
  expectSameReport(reference, parallel, "FloodSetWS por threads=2");
}

TEST(OrbitEquivalence, LatencyProfileIsBitIdenticalUnderPor) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    // canonicalLatencyOptions already resolves the footprint into a
    // symmetry_por spec — the production default this test certifies.
    LatencyOptions por = canonicalLatencyOptions(entry, cfg);
    ASSERT_EQ(por.reduction, Reduction::kSymmetryPor) << entry.name;
    por.porReplayEvery = 1;
    por.enumeration.maxScripts =
        entry.intendedModel == RoundModel::kRws ? 1500 : -1;
    LatencyOptions unreduced = por;
    unreduced.reduction = Reduction::kNone;

    const LatencyProfile a = measureLatency(entry.factory, cfg,
                                            entry.intendedModel, unreduced);
    const LatencyProfile b = measureLatency(entry.factory, cfg,
                                            entry.intendedModel, por);
    EXPECT_EQ(a.toString(), b.toString()) << entry.name;
    EXPECT_EQ(a.latByMaxCrashes, b.latByMaxCrashes) << entry.name;
  }
}

// --------------- stream invariance across reduction modes ----------------

// Satellite contract: countScripts, forEachScript and a reduced sweep's
// scriptsVisited all agree under EVERY reduction mode — reductions collapse
// engine work, never the enumerated stream.
TEST(StreamInvariance, CountsVisitsAndReportsAgreeUnderEveryMode) {
  for (const char* name : {"FloodSet", "EarlyFloodSetWS"}) {
    const AlgorithmEntry& entry = algorithmByName(name);
    const RoundConfig cfg = cfgOf(3, 2);
    const McCheckOptions base = checkOptionsFor(entry, cfg);

    const std::int64_t counted =
        countScripts(cfg, entry.intendedModel, base.enumeration);
    std::int64_t walked = 0;
    forEachScript(cfg, entry.intendedModel, base.enumeration,
                  [&](const FailureScript&) {
                    ++walked;
                    return true;
                  });
    EXPECT_EQ(counted, walked) << name;

    for (Reduction mode : {Reduction::kNone, Reduction::kSymmetry,
                           Reduction::kSymmetryPor}) {
      McCheckOptions o = mode == Reduction::kSymmetryPor
                             ? withPor(entry, cfg, base)
                             : base;
      o.reduction = mode;
      if (mode != Reduction::kNone)
        o.symmetryFixedIds = entry.symmetryFixedIds;
      const McReport report =
          modelCheckConsensus(entry.factory, cfg, entry.intendedModel, o);
      EXPECT_EQ(report.scriptsVisited, counted)
          << name << " mode " << std::string(toString(mode));
    }
  }
}

// ------------------------- enumeration edge cases ------------------------

std::int64_t countOf(int n, int t, RoundModel model, int horizon,
                     int maxCrashes, std::vector<int> lags) {
  EnumOptions o;
  o.horizon = horizon;
  o.maxCrashes = maxCrashes;
  o.pendingLags = std::move(lags);
  return countScripts(cfgOf(n, t), model, o);
}

// Golden script-space sizes for the edge cases the POR rules quotient:
// lag-0-only menus (every pending never surfaces), multi-crash spaces where
// pendings toward crashed receivers are skipped, and the degenerate
// maxCrashes = 0 sweep.  These pin the ENUMERATED stream — any reduction
// mode must report exactly these scriptsVisited counts.
TEST(EnumerationEdgeCases, GoldenScriptCounts) {
  // RS baselines: crashes x rounds x send-subsets only.
  EXPECT_EQ(countOf(3, 2, RoundModel::kRs, 3, 0, {}), 1);
  EXPECT_EQ(countOf(3, 2, RoundModel::kRs, 3, 1, {}), 37);
  EXPECT_EQ(countOf(3, 2, RoundModel::kRs, 3, 2, {}), 469);

  // RWS, never-surfacing-only menu: every sent message of a dying sender
  // may independently go "pending forever".
  EXPECT_EQ(countOf(3, 2, RoundModel::kRws, 3, 1, {0}), 244);
  // Adding a surfacing lag grows the per-message menu by one arrival.
  EXPECT_EQ(countOf(3, 2, RoundModel::kRws, 3, 1, {1, 0}), 913);
  // Two crashers: pendings toward a receiver that is crashed on arrival
  // are skipped (their delivery is unobservable), so the space grows far
  // slower than the single-crash menu squared.
  EXPECT_EQ(countOf(3, 2, RoundModel::kRws, 3, 2, {1, 0}), 57553);

  // maxCrashes = 0 degenerates to the single failure-free script in both
  // models, lag menu or not.
  EXPECT_EQ(countOf(3, 2, RoundModel::kRws, 3, 0, {1, 2, 0}), 1);
  EXPECT_EQ(countOf(4, 2, RoundModel::kRws, 4, 0, {1, 0}), 1);
}

TEST(EnumerationEdgeCases, DegenerateSweepsAgreeAcrossModes) {
  // maxCrashes = 0: one script, every mode, bit-identical reports.
  const AlgorithmEntry& entry = algorithmByName("FloodSetWS");
  const RoundConfig cfg = cfgOf(3, 2);
  McCheckOptions base = checkOptionsFor(entry, cfg);
  base.enumeration.maxCrashes = 0;
  const McReport none =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, base);
  EXPECT_EQ(none.scriptsVisited, 1);

  McCheckOptions por = withPor(entry, cfg, base);
  const McReport reduced =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, por);
  expectSameReport(none, reduced, "maxCrashes=0");
}

TEST(EnumerationEdgeCases, NeverSurfacingMenuCollapsesUnderPurePor) {
  // pendingLags = {0}: every pending choice is a never-surfacing message,
  // which S4 proves equivalent to the unset mask bit — so POR alone (over a
  // TRIVIAL symmetry group) must fold the whole lag menu away and still
  // reproduce the unreduced report bit for bit.
  const AlgorithmEntry& entry = algorithmByName("EarlyFloodSetWS");
  const RoundConfig cfg = cfgOf(3, 2);
  McCheckOptions base = checkOptionsFor(entry, cfg);
  base.enumeration.pendingLags = {0};
  const McReport none =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, base);

  McCheckOptions por = withPor(entry, cfg, base, /*replayEvery=*/1);
  por.symmetryFixedIds = cfg.n;  // trivial group: POR is the only reducer
  SweepRunStats stats;
  por.runStats = &stats;
  const McReport reduced =
      modelCheckConsensus(entry.factory, cfg, entry.intendedModel, por);
  expectSameReport(none, reduced, "lag0-only por");
  EXPECT_GT(stats.runsFromMemo, 0);
  EXPECT_LT(stats.runsExecuted, none.runsExecuted);
}

TEST(OrbitEquivalence, LatencyProfileIsBitIdenticalForEveryAlgorithm) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = entry.requiresTLe1 ? cfgOf(3, 1) : cfgOf(3, 2);
    LatencyOptions unreduced = canonicalLatencyOptions(entry, cfg);
    unreduced.reduction = Reduction::kNone;
    unreduced.enumeration.maxScripts =
        entry.intendedModel == RoundModel::kRws ? 1500 : -1;
    LatencyOptions reduced = unreduced;
    reduced.reduction = Reduction::kSymmetry;
    reduced.symmetryFixedIds = entry.symmetryFixedIds;

    LatencyOptions reducedParallel = reduced;
    reducedParallel.threads = 2;

    const LatencyProfile a = measureLatency(entry.factory, cfg,
                                            entry.intendedModel, unreduced);
    const LatencyProfile b = measureLatency(entry.factory, cfg,
                                            entry.intendedModel, reduced);
    const LatencyProfile c = measureLatency(entry.factory, cfg,
                                            entry.intendedModel,
                                            reducedParallel);
    EXPECT_EQ(a.toString(), b.toString()) << entry.name;
    EXPECT_EQ(a.latByMaxCrashes, b.latByMaxCrashes) << entry.name;
    EXPECT_EQ(a.toString(), c.toString()) << entry.name << " threads=2";
    EXPECT_EQ(a.latByMaxCrashes, c.latByMaxCrashes)
        << entry.name << " threads=2";
  }
}

}  // namespace
}  // namespace ssvsp
