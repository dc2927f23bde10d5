// Tests for the emulations of Section 4: RS on SS (padding schedule) and
// RWS on SP (receive-until-suspect), including Lemma 4.1 and the shared
// receive guard (RoundBuffer) the wire driver runs too.
#include <gtest/gtest.h>

#include <cstdint>

#include "consensus/registry.hpp"
#include "rounds/adversary.hpp"
#include "emul/round_buffer.hpp"
#include "emul/rs_from_ss.hpp"
#include "emul/rws_from_sp.hpp"
#include "fd/failure_detectors.hpp"
#include "rounds/spec.hpp"
#include "runtime/executor.hpp"
#include "sync/ss_scheduler.hpp"

namespace ssvsp {
namespace {

RoundConfig cfgOf(int n, int t) {
  RoundConfig c;
  c.n = n;
  c.t = t;
  return c;
}

TEST(RsEmulationSchedule, PhiOnePaddingIsConstant) {
  // For Phi = 1 the recurrence E(r) = E(r-1) + n + 1 + Delta + 1 gives a
  // constant per-round cost of n + Delta + 2.
  const int n = 4, delta = 3;
  for (Round r = 1; r <= 6; ++r)
    EXPECT_EQ(rsEmulationRoundSteps(n, 1, delta, r), n + delta + 2);
}

TEST(RsEmulationSchedule, PhiTwoPaddingGrows) {
  const int n = 3, delta = 1;
  EXPECT_LT(rsEmulationRoundSteps(n, 2, delta, 1),
            rsEmulationRoundSteps(n, 2, delta, 4));
}

TEST(RsEmulationSchedule, RoundEndIsMonotone) {
  for (int phi : {1, 2, 3})
    for (Round r = 1; r <= 5; ++r)
      EXPECT_GT(rsEmulationRoundEnd(4, phi, 2, r),
                rsEmulationRoundEnd(4, phi, 2, r - 1));
}

// End-to-end: FloodSet on the SS step-level simulator via the emulation
// must reach the same decisions as the round engine predicts, across seeds
// and crash patterns.
class RsEmulationSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RsEmulationSweep, FloodSetDecidesUniformly) {
  const auto [n, phi, delta] = GetParam();
  const int t = 1;
  const Round rounds = t + 1;
  const std::int64_t stepsPerProc =
      rsEmulationRoundEnd(n, phi, delta, rounds);

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 31 + static_cast<std::uint64_t>(n));
    std::vector<Value> initial(static_cast<std::size_t>(n));
    for (auto& v : initial) v = static_cast<Value>(rng.uniformInt(0, 4));

    FailurePattern pattern(n);
    if (rng.bernoulli(0.5)) {
      // Crash one process somewhere inside the emulation window.
      pattern.setCrash(
          static_cast<ProcessId>(rng.uniformInt(0, n - 1)),
          rng.uniformInt(1, stepsPerProc * n));
    }

    ExecutorConfig cfg;
    cfg.n = n;
    cfg.maxSteps = stepsPerProc * n * (phi + 1) + 200;
    SsScheduler sched(n, phi, rng.fork());
    SsDelivery delivery(rng.fork(), delta);
    Executor ex(cfg,
                emulateRsOnSs(algorithmByName("FloodSet").factory, cfgOf(n, t),
                              initial, phi, delta, rounds),
                pattern, sched, delivery);
    const auto trace =
        ex.run([](const Executor& e) { return e.allCorrectDecided(); });

    // Uniform agreement + validity over the step-level decisions.
    std::optional<Value> agreed;
    for (ProcessId p = 0; p < n; ++p) {
      const auto d = ex.output(p);
      if (!d.has_value()) continue;
      if (!agreed.has_value()) agreed = d;
      EXPECT_EQ(*agreed, *d) << "disagreement in emulated run, seed " << seed;
      EXPECT_NE(std::find(initial.begin(), initial.end(), *d), initial.end());
    }
    for (ProcessId p : ex.pattern().correct())
      EXPECT_TRUE(ex.output(p).has_value())
          << "correct p" << p << " undecided, seed " << seed << "\n"
          << trace.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RsEmulationSweep,
    ::testing::Values(std::make_tuple(3, 1, 1), std::make_tuple(3, 1, 3),
                      std::make_tuple(4, 1, 2), std::make_tuple(3, 2, 1),
                      std::make_tuple(4, 2, 2)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "phi" +
             std::to_string(std::get<1>(info.param)) + "d" +
             std::to_string(std::get<2>(info.param));
    });

TEST(RsEmulation, FailureFreeMatchesRoundEngineExactly) {
  const int n = 4, phi = 1, delta = 2, t = 2;
  const std::vector<Value> initial{9, 4, 7, 6};

  RoundEngineOptions opt;
  opt.horizon = t + 1;
  const auto engineRun =
      runRounds(cfgOf(n, t), RoundModel::kRs, algorithmByName("FloodSet").factory,
                initial, noFailures(), opt);

  Rng rng(77);
  ExecutorConfig cfg;
  cfg.n = n;
  cfg.maxSteps = 100000;
  SsScheduler sched(n, phi, rng.fork());
  SsDelivery delivery(rng.fork(), delta);
  Executor ex(cfg,
              emulateRsOnSs(algorithmByName("FloodSet").factory, cfgOf(n, t),
                            initial, phi, delta, t + 1),
              FailurePattern(n), sched, delivery);
  ex.run([](const Executor& e) { return e.allCorrectDecided(); });

  for (ProcessId p = 0; p < n; ++p)
    EXPECT_EQ(*ex.output(p), *engineRun.decision[static_cast<std::size_t>(p)]);
}

// ------------------------- RWS on SP -------------------------------------

struct RwsHarness {
  std::vector<RwsEmulator*> emus;

  AutomatonFactory wrap(const RoundAutomatonFactory& factory, RoundConfig cfg,
                        std::vector<Value> initial, Round rounds) {
    auto base = emulateRwsOnSp(factory, cfg, std::move(initial), rounds);
    return [this, base](ProcessId p) {
      auto a = base(p);
      emus.push_back(static_cast<RwsEmulator*>(a.get()));
      return a;
    };
  }
};

TEST(RwsEmulation, FailureFreeRunsLockStep) {
  const int n = 3, t = 1;
  const std::vector<Value> initial{5, 3, 8};
  RwsHarness h;
  FailurePattern pattern(n);
  PerfectFailureDetector fd(pattern, 0);
  ExecutorConfig cfg;
  cfg.n = n;
  cfg.maxSteps = 5000;
  Rng rng(3);
  RandomScheduler sched(n, rng.fork());
  RandomBoundedDelivery delivery(rng.fork(), 4);
  Executor ex(cfg,
              h.wrap(algorithmByName("FloodSetWS").factory, cfgOf(n, t),
                     initial, t + 1),
              pattern, sched, delivery, &fd);
  ex.run([](const Executor& e) { return e.allCorrectDecided(); });
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_TRUE(ex.output(p).has_value());
    EXPECT_EQ(*ex.output(p), 3);  // min of the initial values
  }
  const auto report = checkWeakRoundSynchrony(
      {h.emus.begin(), h.emus.end()}, pattern);
  EXPECT_TRUE(report.ok) << report.witness;
}

class RwsEmulationSweep : public ::testing::TestWithParam<int> {};

TEST_P(RwsEmulationSweep, Lemma41HoldsUnderAdversarialSuspicionDelays) {
  // Randomized SP adversaries: random scheduling, random bounded message
  // delays, random (large) suspicion delays, one random crash.  Weak round
  // synchrony must hold on every run (Lemma 4.1) and FloodSetWS must solve
  // uniform consensus on top.
  const int n = GetParam();
  const int t = 1;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(n));
    std::vector<Value> initial(static_cast<std::size_t>(n));
    for (auto& v : initial) v = static_cast<Value>(rng.uniformInt(0, 3));

    FailurePattern pattern(n);
    const bool crash = rng.bernoulli(0.7);
    if (crash)
      pattern.setCrash(static_cast<ProcessId>(rng.uniformInt(0, n - 1)),
                       rng.uniformInt(1, 400));

    PerfectFailureDetector fd(pattern, 0);
    Rng delayRng = rng.fork();
    fd.randomizeDelays(delayRng, 0, 300);

    RwsHarness h;
    ExecutorConfig cfg;
    cfg.n = n;
    cfg.maxSteps = 60000;
    RandomScheduler sched(n, rng.fork());
    RandomBoundedDelivery delivery(rng.fork(), 6);
    Executor ex(cfg,
                h.wrap(algorithmByName("FloodSetWS").factory, cfgOf(n, t),
                       initial, t + 1),
                pattern, sched, delivery, &fd);
    ex.run([](const Executor& e) { return e.allCorrectDecided(); });

    // Uniform consensus on the emulated decisions.
    std::optional<Value> agreed;
    for (ProcessId p = 0; p < n; ++p) {
      const auto d = ex.output(p);
      if (!d.has_value()) continue;
      if (!agreed.has_value()) agreed = d;
      ASSERT_EQ(*agreed, *d) << "seed " << seed;
    }
    for (ProcessId p : ex.pattern().correct())
      ASSERT_TRUE(ex.output(p).has_value()) << "seed " << seed;

    const auto report = checkWeakRoundSynchrony(
        {h.emus.begin(), h.emus.end()}, pattern);
    ASSERT_TRUE(report.ok) << "seed " << seed << ": " << report.witness;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RwsEmulationSweep, ::testing::Values(2, 3, 4, 5),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(RwsEmulation, PendingMessageScenarioProducesLateDelivery) {
  // Force the Lemma 4.1 scenario: p0 crashes right after sending its round-1
  // message to p1 only (one send step), with a long suspicion delay for p2
  // so p2 leaves round 1 by suspicion while the message to it was never
  // sent.  Weak round synchrony must still hold.
  const int n = 3, t = 1;
  FailurePattern pattern(n);
  pattern.setCrash(0, 3);  // p0 takes two steps: sends to p0 (self), p1
  PerfectFailureDetector fd(pattern, 5);
  RwsHarness h;
  ExecutorConfig cfg;
  cfg.n = n;
  cfg.maxSteps = 20000;
  RoundRobinScheduler sched(n);
  ImmediateDelivery delivery;
  Executor ex(cfg,
              h.wrap(algorithmByName("FloodSetWS").factory, cfgOf(n, t),
                     {4, 6, 9}, t + 1),
              pattern, sched, delivery, &fd);
  ex.run([](const Executor& e) { return e.allCorrectDecided(); });
  for (ProcessId p : pattern.correct())
    EXPECT_TRUE(ex.output(p).has_value());
  const auto report =
      checkWeakRoundSynchrony({h.emus.begin(), h.emus.end()}, pattern);
  EXPECT_TRUE(report.ok) << report.witness;
}

TEST(RoundBuffer, RejectsOutOfRangeRoundsAndKeepsTheFirstCopy) {
  using Stored = RoundBuffer::Stored;
  RoundBuffer buffer(/*n=*/2, /*maxRounds=*/2);
  // Rounds outside [1, maxRounds] can never be consumed: none is buffered.
  for (Round round : {0, 3, INT32_MAX})
    EXPECT_EQ(buffer.store(round, 1, Payload{7}), Stored::kRejected) << round;
  EXPECT_EQ(buffer.store(1, 2, Payload{7}), Stored::kRejected);  // no p2
  EXPECT_FALSE(buffer.ready(1, ProcessSet{0}));
  EXPECT_FALSE(buffer.ready(2, ProcessSet{0}));

  EXPECT_EQ(buffer.store(1, 1, Payload{7}), Stored::kNew);
  EXPECT_EQ(buffer.store(1, 1, Payload{8}), Stored::kDuplicate);
  ASSERT_TRUE(buffer.ready(1, ProcessSet{0}));
  EXPECT_EQ(buffer.consume(1), ProcessSet{1});
  EXPECT_EQ(buffer.received()[1], Payload{7});

  // A copy of a consumed message is a duplicate too, not a late message.
  EXPECT_EQ(buffer.store(1, 1, Payload{7}), Stored::kDuplicate);
  EXPECT_FALSE(buffer.ready(2, ProcessSet{0}));
  EXPECT_EQ(buffer.lateDeliveries(), 0);
}

TEST(RoundBuffer, PendingMessageOfASuspectedSenderSurfacesLate) {
  RoundBuffer buffer(/*n=*/2, /*maxRounds=*/3);
  // Round 1: p1 is silent and suspected, so p0 leaves with its own message.
  ASSERT_EQ(buffer.store(1, 0, Payload{1}), RoundBuffer::Stored::kNew);
  EXPECT_FALSE(buffer.ready(1, ProcessSet{}));
  ASSERT_TRUE(buffer.ready(1, ProcessSet{1}));
  EXPECT_EQ(buffer.consume(1), ProcessSet{0});
  EXPECT_FALSE(buffer.received()[1].has_value());

  // p1's round-1 message lands after that round finished: its slot was
  // never consumed, so it is a genuine pending message, consumed in round 2
  // ahead of p1's fresher round-2 message (FIFO).
  ASSERT_EQ(buffer.store(2, 0, std::nullopt), RoundBuffer::Stored::kNew);
  ASSERT_EQ(buffer.store(1, 1, Payload{5}), RoundBuffer::Stored::kNew);
  ASSERT_EQ(buffer.store(2, 1, Payload{6}), RoundBuffer::Stored::kNew);
  ASSERT_TRUE(buffer.ready(2, ProcessSet{}));
  EXPECT_EQ(buffer.consume(2), (ProcessSet{0, 1}));
  EXPECT_FALSE(buffer.received()[0].has_value());  // heard, null message
  EXPECT_EQ(buffer.received()[1], Payload{5});
  EXPECT_EQ(buffer.lateDeliveries(), 1);
}

}  // namespace
}  // namespace ssvsp
