// Property-based suites: algebraic laws of the building blocks and global
// invariants of the simulators (determinism, replayability, model
// containment of samplers), swept over randomized inputs via TEST_P.
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "consensus/registry.hpp"
#include "rounds/adversary.hpp"
#include "rounds/engine.hpp"
#include "rounds/spec.hpp"
#include "runtime/executor.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/value_set.hpp"

namespace ssvsp {
namespace {

// ----------------------------- ProcessSet laws ---------------------------

class SetLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetLaws, BooleanAlgebraHolds) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto a = ProcessSet::fromMask(rng.subsetMask(16));
    const auto b = ProcessSet::fromMask(rng.subsetMask(16));
    const auto c = ProcessSet::fromMask(rng.subsetMask(16));
    // Commutativity / associativity / distributivity.
    EXPECT_EQ((a | b), (b | a));
    EXPECT_EQ((a & b), (b & a));
    EXPECT_EQ(((a | b) | c), (a | (b | c)));
    EXPECT_EQ(((a & b) & c), (a & (b & c)));
    EXPECT_EQ((a & (b | c)), ((a & b) | (a & c)));
    // De Morgan over the 16-element universe.
    const auto u = ProcessSet::full(16);
    EXPECT_EQ(u - (a | b), ((u - a) & (u - b)));
    EXPECT_EQ(u - (a & b), ((u - a) | (u - b)));
    // Difference and subset relations.
    EXPECT_TRUE((a - b).isSubsetOf(a));
    EXPECT_TRUE((a & b).isSubsetOf(a | b));
    EXPECT_EQ((a - b) | (a & b), a);
    // Size is consistent with iteration.
    int count = 0;
    for (ProcessId p : a) {
      EXPECT_TRUE(a.contains(p));
      ++count;
    }
    EXPECT_EQ(count, a.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetLaws, ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------- serde fuzz ------------------------------

class SerdeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdeFuzz, RandomRoundTripsAreLossless) {
  Rng rng(GetParam() * 1337);
  for (int iter = 0; iter < 300; ++iter) {
    // Random sequence of typed fields.
    std::vector<int> kinds;
    std::vector<std::int32_t> ints;
    std::vector<ProcessSet> sets;
    PayloadWriter w;
    const int fields = static_cast<int>(rng.uniformInt(0, 8));
    for (int f = 0; f < fields; ++f) {
      switch (rng.uniformInt(0, 1)) {
        case 0: {
          const auto v = static_cast<std::int32_t>(
              rng.uniformInt(-1000000, 1000000));
          kinds.push_back(0);
          ints.push_back(v);
          w.putInt(v);
          break;
        }
        default: {
          const auto s = ProcessSet::fromMask(rng.subsetMask(64));
          kinds.push_back(1);
          sets.push_back(s);
          w.putProcessSet(s);
          break;
        }
      }
    }
    PayloadReader r(w.peek());
    std::size_t ii = 0, si = 0;
    for (int kind : kinds) {
      if (kind == 0)
        EXPECT_EQ(r.getInt(), ints[ii++]);
      else
        EXPECT_EQ(r.getProcessSet(), sets[si++]);
    }
    EXPECT_TRUE(r.exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzz, ::testing::Values(1, 2, 3));

// ------------------------------ ValueSet laws ----------------------------

// ValueSet is the hot-path stand-in for std::set<Value>; the FloodSet family
// relies on it agreeing with the reference semantics on every operation it
// uses.  Run random operation interleavings against a std::set model over
// the FULL value domain [0, 64) and demand observable equivalence after
// every step: membership, size, min, iteration order, union, intersection.
class ValueSetModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValueSetModel, MatchesStdSetOnTheFullDomain) {
  Rng rng(GetParam() * 40961);
  for (int iter = 0; iter < 50; ++iter) {
    ValueSet s;
    std::set<Value> model;
    const auto check = [&] {
      EXPECT_EQ(s.size(), static_cast<int>(model.size()));
      EXPECT_EQ(s.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(s.min(), *model.begin());
      }
      EXPECT_EQ(std::vector<Value>(s.begin(), s.end()),
                std::vector<Value>(model.begin(), model.end()));
      for (Value v = 0; v < kMaxPackedValue + 1; ++v)
        EXPECT_EQ(s.contains(v), model.count(v) != 0);
    };
    const int steps = static_cast<int>(rng.uniformInt(1, 40));
    for (int op = 0; op < steps; ++op) {
      switch (rng.uniformInt(0, 2)) {
        case 0: {  // single insert, anywhere in the domain
          const auto v = static_cast<Value>(rng.uniformInt(0, 63));
          s.insert(v);
          model.insert(v);
          break;
        }
        case 1: {  // absorb another set, the FloodSet transition idiom
          const auto other = ValueSet::fromMask(rng.subsetMask(64));
          s |= other;
          for (Value v : other) model.insert(v);
          break;
        }
        default: {  // intersect, shrinking both
          const auto keep = ValueSet::fromMask(rng.subsetMask(64));
          s &= keep;
          for (auto it = model.begin(); it != model.end();)
            it = keep.contains(*it) ? std::next(it) : model.erase(it);
          break;
        }
      }
      check();
    }
    // Union/intersection of two independently built sets agree with the
    // model-side algebra as well.
    const auto a = ValueSet::fromMask(rng.subsetMask(64));
    EXPECT_EQ((s | a).mask(), s.mask() | a.mask());
    EXPECT_EQ((s & a).mask(), s.mask() & a.mask());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueSetModel,
                         ::testing::Values(1, 2, 3, 4, 5));

// --------------------------- engine determinism --------------------------

class EngineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminism, SameInputsSameRun) {
  Rng rng(GetParam() * 8191);
  RoundConfig cfg{static_cast<int>(rng.uniformInt(3, 6)),
                  static_cast<int>(rng.uniformInt(1, 2))};
  const RoundModel model =
      rng.bernoulli(0.5) ? RoundModel::kRs : RoundModel::kRws;
  ScriptSampler sampler(cfg, model, cfg.t + 2);
  std::vector<Value> initial(static_cast<std::size_t>(cfg.n));
  for (auto& v : initial) v = static_cast<Value>(rng.uniformInt(0, 3));
  RoundEngineOptions opt;
  opt.horizon = cfg.t + 2;

  for (int i = 0; i < 30; ++i) {
    const auto script = sampler.sample(rng);
    const auto a = runRounds(cfg, model, algorithmByName("FloodSetWS").factory,
                             initial, script, opt);
    const auto b = runRounds(cfg, model, algorithmByName("FloodSetWS").factory,
                             initial, script, opt);
    EXPECT_EQ(a.decision, b.decision);
    EXPECT_EQ(a.decisionRound, b.decisionRound);
    EXPECT_EQ(a.roundsExecuted, b.roundsExecuted);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDeterminism,
                         ::testing::Values(1, 2, 3, 4));

TEST(ExecutorDeterminism, SameSeedSameTrace) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    auto runOnce = [&](std::uint64_t s) {
      ExecutorConfig cfg;
      cfg.n = 4;
      cfg.maxSteps = 400;
      Rng rng(s);
      RandomScheduler sched(4, rng.fork());
      RandomBoundedDelivery delivery(rng.fork(), 5);
      // Use a consensus emulation-free automaton: heartbeat-like chatter.
      class Ping : public Automaton {
       public:
        void start(ProcessId self, int n) override {
          self_ = self;
          n_ = n;
        }
        void onStep(StepContext& ctx) override {
          ctx.send((self_ + 1) % n_, {static_cast<std::int32_t>(count_++)});
        }
        std::optional<Value> output() const override { return std::nullopt; }
        ProcessId self_ = 0;
        int n_ = 0;
        std::int32_t count_ = 0;
      };
      Executor ex(
          cfg, [](ProcessId) { return std::make_unique<Ping>(); },
          FailurePattern(4), sched, delivery);
      return ex.run();
    };
    const auto t1 = runOnce(seed);
    const auto t2 = runOnce(seed);
    ASSERT_EQ(t1.numSteps(), t2.numSteps());
    for (ProcessId p = 0; p < 4; ++p)
      EXPECT_TRUE(indistinguishableTo(p, t1, t2));
  }
}

// ----------------------- sampler model containment -----------------------

TEST(SamplerContainment, RwsSamplesCoverPendingBehaviours) {
  // Statistical sanity: the RWS sampler actually produces pendings, lost
  // pendings, initial crashes, and partial broadcasts — the behaviours the
  // latency sweeps rely on for coverage.
  RoundConfig cfg{4, 2};
  ScriptSampler sampler(cfg, RoundModel::kRws, 4);
  Rng rng(424242);
  int pendings = 0, lost = 0, initials = 0, partials = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto s = sampler.sample(rng);
    if (!s.pendings.empty()) ++pendings;
    for (const auto& p : s.pendings)
      if (p.arrival == kNoRound) {
        ++lost;
        break;
      }
    for (const auto& c : s.crashes) {
      if (c.round == 1 && c.sendTo.empty()) ++initials;
      if (!c.sendTo.empty() && c.sendTo != ProcessSet::full(4)) ++partials;
    }
  }
  EXPECT_GT(pendings, 200);
  EXPECT_GT(lost, 100);
  EXPECT_GT(initials, 100);
  EXPECT_GT(partials, 200);
}

// ------------------------ latency measure properties ---------------------

TEST(LatencyProperties, LatNeverExceedsLatMax) {
  // lat(A) = min over configs of lat(A, C) <= max over configs = Lat(A),
  // for every registered algorithm in its intended model.
  for (const auto& entry : algorithmRegistry()) {
    const int t = 1;
    const int n = 3;
    RoundConfig cfg{n, t};
    RoundEngineOptions opt;
    opt.horizon = t + 2;
    // Cheap spot check across a few scripts: best-case latency over the
    // failure-free run can never beat 1 round, and FloodSet-family worst
    // cases never exceed t+1 in their intended model.
    const auto run = runRounds(cfg, entry.intendedModel, entry.factory,
                               {1, 1, 1}, {}, opt);
    const Round lr = run.latency();
    ASSERT_NE(lr, kNoRound) << entry.name;
    EXPECT_GE(lr, 1) << entry.name;
    EXPECT_LE(lr, t + 1) << entry.name;
  }
}

}  // namespace
}  // namespace ssvsp
