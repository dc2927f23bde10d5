// Edge-case coverage across modules: engine option boundaries, trace
// utilities, emulation bounds, argv parsing, and checker robustness on
// degenerate systems (n = 1 groups, t = 0, empty scripts).
#include <gtest/gtest.h>

#include "consensus/registry.hpp"
#include "emul/rs_from_ss.hpp"
#include "rounds/engine.hpp"
#include "rounds/spec.hpp"
#include "runtime/executor.hpp"
#include "util/argspec.hpp"

namespace ssvsp {
namespace {

RoundConfig cfgOf(int n, int t) {
  RoundConfig c;
  c.n = n;
  c.t = t;
  return c;
}

TEST(EngineEdges, TZeroFailureFreeDecidesRound1) {
  RoundEngineOptions opt;
  opt.horizon = 2;
  const auto run = runRounds(cfgOf(3, 0), RoundModel::kRs,
                             algorithmByName("FloodSet").factory, {5, 2, 9},
                             {}, opt);
  EXPECT_EQ(run.latency(), 1);  // t+1 = 1
  for (ProcessId p = 0; p < 3; ++p) EXPECT_EQ(*run.decision[p], 2);
}

TEST(EngineEdges, SingleProcessSystem) {
  RoundEngineOptions opt;
  opt.horizon = 2;
  const auto run = runRounds(cfgOf(1, 0), RoundModel::kRs,
                             algorithmByName("FloodSet").factory, {7}, {},
                             opt);
  EXPECT_EQ(*run.decision[0], 7);
  EXPECT_EQ(run.latency(), 1);
}

TEST(EngineEdges, StopWhenAllDecidedStopsEarly) {
  RoundEngineOptions opt;
  opt.horizon = 10;
  opt.stopWhenAllDecided = true;
  const auto run = runRounds(cfgOf(3, 1), RoundModel::kRs,
                             algorithmByName("FloodSet").factory, {1, 2, 3},
                             {}, opt);
  EXPECT_EQ(run.roundsExecuted, 2);  // t+1, then stop

  opt.stopWhenAllDecided = false;
  const auto full = runRounds(cfgOf(3, 1), RoundModel::kRs,
                              algorithmByName("FloodSet").factory, {1, 2, 3},
                              {}, opt);
  EXPECT_EQ(full.roundsExecuted, 10);
  EXPECT_EQ(full.decision, run.decision);
}

TEST(EngineEdges, CrashBeyondHorizonCountsAsCorrect) {
  FailureScript script;
  script.crashes.push_back({0, 9, ProcessSet{}});
  RoundEngineOptions opt;
  opt.horizon = 3;
  const auto run = runRounds(cfgOf(3, 1), RoundModel::kRs,
                             algorithmByName("FloodSet").factory, {1, 2, 3},
                             script, opt);
  EXPECT_TRUE(run.faulty.empty());  // never crashed within the horizon
  EXPECT_TRUE(run.correct.contains(0));
}

TEST(EngineEdges, DeliveryTraceDisabledByDefault) {
  RoundEngineOptions opt;
  opt.horizon = 2;
  const auto run = runRounds(cfgOf(3, 1), RoundModel::kRs,
                             algorithmByName("FloodSet").factory, {1, 2, 3},
                             {}, opt);
  EXPECT_TRUE(run.deliveries.empty());
  opt.traceDeliveries = true;
  const auto traced = runRounds(cfgOf(3, 1), RoundModel::kRs,
                                algorithmByName("FloodSet").factory,
                                {1, 2, 3}, {}, opt);
  EXPECT_FALSE(traced.deliveries.empty());
}

TEST(EngineEdges, RunToStringMentionsEveryProcess) {
  RoundEngineOptions opt;
  opt.horizon = 2;
  const auto run = runRounds(cfgOf(3, 1), RoundModel::kRs,
                             algorithmByName("FloodSet").factory, {1, 2, 3},
                             {}, opt);
  const std::string s = run.toString();
  for (ProcessId p = 0; p < 3; ++p)
    EXPECT_NE(s.find("p" + std::to_string(p)), std::string::npos);
  EXPECT_NE(s.find("RS"), std::string::npos);
}

TEST(TraceEdges, StepsOfAndUndelivered) {
  class OneSend : public Automaton {
   public:
    void start(ProcessId self, int) override { self_ = self; }
    void onStep(StepContext& ctx) override {
      if (self_ == 0 && !sent_) {
        ctx.send(1, {42});
        sent_ = true;
      }
    }
    std::optional<Value> output() const override { return std::nullopt; }
    ProcessId self_ = 0;
    bool sent_ = false;
  };
  ExecutorConfig cfg;
  cfg.n = 2;
  cfg.maxSteps = 6;
  // Schedule only p0: the message to p1 is never delivered.
  ScriptedScheduler sched(2, {0, 0, 0, 0, 0, 0}, false);
  ImmediateDelivery delivery;
  Executor ex(
      cfg, [](ProcessId) { return std::make_unique<OneSend>(); },
      FailurePattern(2), sched, delivery);
  const auto trace = ex.run();
  EXPECT_EQ(trace.stepCount(0), 6);
  EXPECT_EQ(trace.stepCount(1), 0);
  EXPECT_EQ(trace.stepsOf(0).size(), 6u);
  EXPECT_EQ(trace.undeliveredSeqs().size(), 1u);
}

TEST(TraceEdges, LocalViewNormalizesDeliveryOrder) {
  // Two messages delivered in one step must compare equal regardless of
  // buffer order — delivery order within a step is not observable.
  std::vector<Envelope> batch(2);
  batch[0].src = 1;
  batch[0].payload = {7};
  batch[1].src = 0;
  batch[1].payload = {9};
  RunTrace t1(3, FailurePattern(3));
  StepRecord r1;
  r1.globalStep = 1;
  r1.pid = 2;
  r1.localStep = 1;
  r1.delivered = batch;
  t1.append(r1);

  std::swap(batch[0], batch[1]);
  RunTrace t2(3, FailurePattern(3));
  StepRecord r2;
  r2.globalStep = 1;
  r2.pid = 2;
  r2.localStep = 1;
  r2.delivered = batch;
  t2.append(r2);

  EXPECT_TRUE(indistinguishableTo(2, t1, t2));
}

TEST(EmulationEdges, RoundEndFormulaEdgeValues) {
  EXPECT_EQ(rsEmulationRoundEnd(2, 1, 1, 0), 0);
  // Round 1 for n=2, phi=1, delta=1: max(n+1, (0+n+1)*1 + 1 + 1) = 5.
  EXPECT_EQ(rsEmulationRoundEnd(2, 1, 1, 1), 5);
  // A round always has at least n+1 steps even for tiny deltas.
  EXPECT_GE(rsEmulationRoundSteps(8, 1, 1, 1), 9);
}

TEST(RegistryEdges, IntendedModelsAreConsistent) {
  for (const auto& e : algorithmRegistry()) {
    // WS-suffixed algorithms target RWS; everything else RS.  (Naming
    // convention the benches rely on.)
    const bool isWs = e.name.find("WS") != std::string::npos;
    EXPECT_EQ(e.intendedModel == RoundModel::kRws, isWs) << e.name;
  }
}

TEST(SpecEdges, LatencyOfEmptyCorrectSetIsZero) {
  RoundRunResult run;
  run.cfg = cfgOf(2, 1);
  run.initial = {1, 2};
  run.decision = {std::nullopt, std::nullopt};
  run.decisionRound = {kNoRound, kNoRound};
  run.correct = ProcessSet();  // everyone faulty within the horizon
  run.faulty = ProcessSet::full(2);
  EXPECT_EQ(run.latency(), 0);
  EXPECT_TRUE(checkUniformConsensus(run).termination);  // vacuously
}

TEST(ArgSpecEdges, SeenTellsAGivenFlagFromItsDefault) {
  int size = 4;
  std::string spec = "unset";
  std::int64_t budget = 7;
  ArgSpec args("prog");
  args.value("size", &size, "").value("spec", &spec, "").value("budget",
                                                              &budget, "");
  char a0[] = "prog", a1[] = "--size", a2[] = "4", a3[] = "--spec=";
  char* argv[] = {a0, a1, a2, a3};
  int argc = 4;
  std::string error;
  ASSERT_TRUE(args.tryParse(&argc, argv, &error)) << error;
  EXPECT_TRUE(args.seen("size"));  // given at its default value
  EXPECT_TRUE(args.seen("spec"));  // given empty
  EXPECT_FALSE(args.seen("budget"));
  EXPECT_EQ(size, 4);
  EXPECT_EQ(spec, "");
  EXPECT_EQ(budget, 7);
}

TEST(ArgSpecEdges, IntFlagRefusesAValueOutsideInt) {
  int size = 4;
  ArgSpec args("prog");
  args.value("size", &size, "");
  char a0[] = "prog", a1[] = "--size=4294967300";
  char* argv[] = {a0, a1};
  int argc = 2;
  std::string error;
  EXPECT_FALSE(args.tryParse(&argc, argv, &error));
  EXPECT_EQ(error, "--size: 4294967300 is out of range");
  EXPECT_EQ(size, 4);
}

}  // namespace
}  // namespace ssvsp
