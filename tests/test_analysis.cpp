// Tests for the abstract-interpretation bound analyzer (src/analysis): the
// derived latency degrees reproduce the golden theorem table for every
// algorithm with a contract, the closed-form fitter recovers the paper's
// shapes, the structural findings L401-L403 fire exactly where the
// automata warrant them, a crash budget interprets a prefix of the schedule
// cells without moving the bound it serves, and the model checker's
// latency-bound hook turns an asserted bound into a checkable property.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/golden.hpp"
#include "consensus/registry.hpp"
#include "explore/reduction.hpp"
#include "lint/codes.hpp"
#include "mc/checker.hpp"
#include "net/harness.hpp"

namespace ssvsp {
namespace {

/// One analysis per algorithm, shared across tests (the abstract sweep of
/// all 11 algorithms takes seconds; running it once keeps the suite fast).
const std::map<std::string, AnalysisReport>& reports() {
  static const std::map<std::string, AnalysisReport> cache = [] {
    std::map<std::string, AnalysisReport> out;
    for (const AnalysisReport& r : analyzeAllAlgorithms())
      out.emplace(r.algorithm, r);
    return out;
  }();
  return cache;
}

const AnalysisReport& reportFor(const std::string& name) {
  const auto it = reports().find(name);
  EXPECT_NE(it, reports().end()) << name << " not in the registry";
  return it->second;
}

bool hasCode(const DiagnosticSink& sink, std::string_view code) {
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == code) return true;
  return false;
}

// --- derived bounds vs the golden theorem table ---------------------------

TEST(Analysis, DerivedBoundsMatchTheGoldenTableExactly) {
  int checked = 0;
  for (const GoldenBoundsRow& row : goldenBoundsTable()) {
    SCOPED_TRACE(row.name);
    const AnalysisReport& r = reportFor(row.name);
    EXPECT_EQ(r.cfg.n, row.n);
    EXPECT_EQ(r.cfg.t, row.t);
    EXPECT_EQ(r.derived.lat, row.lat);
    EXPECT_EQ(r.derived.latMax, row.latMax);
    EXPECT_EQ(r.derived.lambda, row.lambda);
    ASSERT_EQ(r.derived.latByF.size(), row.latByF.size());
    for (std::size_t f = 0; f < row.latByF.size(); ++f)
      EXPECT_EQ(r.derived.latByF[f], row.latByF[f])
          << "Lat(A, " << f << ")";
    ++checked;
  }
  EXPECT_EQ(checked, 10);  // every algorithm except A1WS_candidate
}

TEST(Analysis, NoDeclaredAlgorithmProducesABoundMismatch) {
  for (const auto& [name, r] : reports()) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(hasCode(r.sink, kDiagBoundMismatch))
        << renderText(r.sink.diagnostics());
    EXPECT_TRUE(r.ok());
  }
}

TEST(Analysis, EarlyFloodSetFitsThePaperFPlus2Form) {
  const AnalysisReport& r = reportFor("EarlyFloodSet");
  ASSERT_TRUE(r.closedForm.has_value());
  EXPECT_EQ(*r.closedForm, boundFPlusCapped(2));
  EXPECT_NE(r.closedForm->toString().find("f + 2"), std::string::npos);
}

TEST(Analysis, COptFloodSetDecidesInRoundOneSomewhere) {
  EXPECT_EQ(reportFor("C_OptFloodSet").derived.lat, 1);
  EXPECT_EQ(reportFor("C_OptFloodSet").derived.latMax, 3);
}

TEST(Analysis, A1WSCandidateHasANonTerminatingRunUnderRws) {
  // The paper's point: A1's decision rule is unsound under weak round
  // synchrony.  The abstract sweep finds the witness (a run where p3 misses
  // x1 and halt-filters everyone else), so Lat at f = 1 is unbounded.
  const AnalysisReport& r = reportFor("A1WS_candidate");
  ASSERT_EQ(r.derived.latByF.size(), 2u);
  EXPECT_EQ(r.derived.latByF[0], 1);
  EXPECT_EQ(r.derived.latByF[1], kNoRound);
  EXPECT_FALSE(r.closedForm.has_value());
  EXPECT_FALSE(r.declared.has_value());  // claims nothing, so no L400
}

// --- structural findings --------------------------------------------------

TEST(Analysis, StructuralNotesFireWhereTheAutomataWarrantThem) {
  // L401: A1 decides in round 1 from p1's message alone (below n - t).
  EXPECT_TRUE(hasCode(reportFor("A1").sink, kDiagDecideBelowQuorum));
  EXPECT_FALSE(hasCode(reportFor("FloodSet").sink, kDiagDecideBelowQuorum));

  // L402: FloodSet's estimates stabilize a round before its fixed decision
  // round; EarlyFloodSet's early-stopping rule removes the dead round.
  EXPECT_TRUE(hasCode(reportFor("FloodSet").sink, kDiagDeadEstimateRounds));
  EXPECT_TRUE(
      hasCode(reportFor("C_OptFloodSet").sink, kDiagDeadEstimateRounds));
  EXPECT_FALSE(
      hasCode(reportFor("EarlyFloodSet").sink, kDiagDeadEstimateRounds));

  // L403: C_OptFloodSet keeps broadcasting after its round-1 fast path
  // decided; FloodSet never decides before its last sending round.
  EXPECT_TRUE(
      hasCode(reportFor("C_OptFloodSet").sink, kDiagMessageAfterDecision));
  EXPECT_FALSE(
      hasCode(reportFor("FloodSet").sink, kDiagMessageAfterDecision));

  // L404 is a tripwire: no registry algorithm exceeds the 2 f (n - 1)
  // pending backlog of the RWS model.
  for (const auto& [name, r] : reports()) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(hasCode(r.sink, kDiagPendingBoundExceeded));
  }
}

TEST(Analysis, StructuralNoteTextsArePinnedForTheRegistry) {
  // L401 and L403 quote the FIRST run that witnesses them, so their texts
  // pin the order the interpreter visits runs in (configs outer, cells in
  // enumeration order), not just the verdicts.
  const std::string kDead =
      "estimates are stable from round 2 but the failure-free decision "
      "waits until round 3 (1 dead round(s))";
  const std::string kA1Quorum =
      "p0 decides in round 1 having heard from 1 process(es), below the "
      "n - t = 2 quorum (run: script{ })";
  const std::string kA1After =
      "9 message(s) still sent in round 2 after every correct process "
      "decided by round 1 (run: script{ })";
  const std::string kFast16 =
      "16 message(s) still sent in round 2 after every correct process "
      "decided by round 1 (run: script{ })";
  const std::string kFOpt =
      "8 message(s) still sent in round 2 after every correct process "
      "decided by round 1 (run: script{ crash(p0@r1->{}) crash(p1@r1->{}) "
      "})";
  const std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      pinned = {
          {"FloodSet", {{"L402", kDead}}},
          {"FloodSetWS", {{"L402", kDead}}},
          {"C_OptFloodSet", {{"L402", kDead}, {"L403", kFast16}}},
          {"C_OptFloodSetWS", {{"L402", kDead}, {"L403", kFast16}}},
          {"F_OptFloodSet", {{"L402", kDead}, {"L403", kFOpt}}},
          {"F_OptFloodSetWS", {{"L402", kDead}, {"L403", kFOpt}}},
          {"A1", {{"L401", kA1Quorum}, {"L403", kA1After}}},
          {"A1WS_candidate", {{"L401", kA1Quorum}, {"L403", kA1After}}},
          {"EarlyFloodSet",
           {{"L403",
             "16 message(s) still sent in round 3 after every correct "
             "process decided by round 2 (run: script{ })"}}},
          {"EarlyFloodSetWS", {{"L402", kDead}}},
          {"NonUniformEarlyFloodSet", {{"L403", kFast16}}},
      };
  ASSERT_EQ(pinned.size(), reports().size());
  for (const auto& [name, r] : reports()) {
    SCOPED_TRACE(name);
    std::vector<std::pair<std::string, std::string>> notes;
    for (const Diagnostic& d : r.sink.diagnostics())
      if (d.code == kDiagDecideBelowQuorum ||
          d.code == kDiagDeadEstimateRounds ||
          d.code == kDiagMessageAfterDecision)
        notes.emplace_back(d.code, d.message);
    const auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end());
    EXPECT_EQ(notes, it->second);
  }
}

TEST(Analysis, StructuralFindingsAreNotesNotErrors) {
  for (const auto& [name, r] : reports()) {
    for (const Diagnostic& d : r.sink.diagnostics()) {
      if (d.code == kDiagDecideBelowQuorum ||
          d.code == kDiagDeadEstimateRounds ||
          d.code == kDiagMessageAfterDecision) {
        EXPECT_EQ(d.severity, Severity::kNote) << name << " " << d.code;
      }
    }
  }
}

// --- the closed-form fitter ----------------------------------------------

TEST(Analysis, FitClosedFormRecoversThePaperShapes) {
  EXPECT_EQ(fitClosedForm({3, 3, 3}, 2), boundTPlus(1));
  EXPECT_EQ(fitClosedForm({1, 1, 1}, 2), boundConst(1));
  EXPECT_EQ(fitClosedForm({2, 3, 3}, 2), boundFPlusCapped(2));
  EXPECT_EQ(fitClosedForm({1, 2, 3}, 2), boundFPlusCapped(1));
  EXPECT_EQ(fitClosedForm({1, 2}, 1), boundFPlusCapped(1));
}

TEST(Analysis, FitClosedFormRejectsNonPaperShapes) {
  EXPECT_EQ(fitClosedForm({1, 3}, 1), std::nullopt);   // jumps past f + c
  EXPECT_EQ(fitClosedForm({3, 2, 1}, 2), std::nullopt);  // decreasing
  EXPECT_EQ(fitClosedForm({1, kNoRound}, 1), std::nullopt);  // unbounded
  EXPECT_EQ(fitClosedForm({}, 0), std::nullopt);
}

// --- the abstract domain itself -------------------------------------------

TEST(Analysis, CanonicalConfigsQuotientTheValueRelabeling) {
  const auto configs = canonicalValueConfigs(4);
  EXPECT_EQ(configs.size(), 8u);  // 2^(n-1)
  for (const auto& c : configs) {
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c[0], 0);  // the canonical representative fixes p1's value
  }
}

TEST(Analysis, ScheduleCellsAreLegalAndDeduplicated) {
  const RoundConfig cfg{4, 2};
  std::set<std::string> seen;
  for (const FailureScript& s : enumerateScheduleCells(cfg, RoundModel::kRws)) {
    EXPECT_TRUE(validateScript(s, cfg, RoundModel::kRws).ok)
        << s.toString();
    EXPECT_TRUE(seen.insert(s.toString()).second)
        << "duplicate cell " << s.toString();
  }
  // The RWS cell space strictly refines the RS one (pending shapes).
  EXPECT_GT(seen.size(),
            enumerateScheduleCells(cfg, RoundModel::kRs).size());
}

TEST(Analysis, CrashBudgetInterpretsAPrefixAndKeepsTheBound) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = canonicalAnalysisConfig(entry);
    const std::vector<FailureScript> all =
        enumerateScheduleCells(cfg, entry.intendedModel);
    const AbstractBounds full = interpretAutomaton(entry, cfg);
    for (int f = 0; f <= cfg.t; ++f) {
      SCOPED_TRACE(entry.name + " f=" + std::to_string(f));
      const std::vector<FailureScript> budgeted =
          enumerateScheduleCells(cfg, entry.intendedModel, f);
      ASSERT_LE(budgeted.size(), all.size());
      for (std::size_t i = 0; i < budgeted.size(); ++i) {
        EXPECT_EQ(budgeted[i].toString(), all[i].toString()) << "cell " << i;
        EXPECT_LE(budgeted[i].numCrashes(), f) << budgeted[i].toString();
      }
      const Round latest = full.latByF[static_cast<std::size_t>(f)];
      EXPECT_EQ(net::analyzerLatBound(entry, cfg, f),
                latest == 0 ? kNoRound : latest);
    }
  }
}

// --- the model checker's latency-bound hook -------------------------------

TEST(Analysis, ModelCheckerAcceptsTheDerivedLatBound) {
  McCheckOptions options;
  options.enumeration.maxCrashes = 1;
  options.latencyBound = 2;  // Lat(FloodSet) = t + 1 at t = 1
  const McReport report =
      modelCheckConsensus(algorithmByName("FloodSet").factory,
                          RoundConfig{3, 1}, RoundModel::kRs, options);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Analysis, ModelCheckerRefutesATooTightLatBound) {
  McCheckOptions options;
  options.enumeration.maxCrashes = 1;
  options.latencyBound = 1;  // one below Lat(FloodSet)
  const McReport report =
      modelCheckConsensus(algorithmByName("FloodSet").factory,
                          RoundConfig{3, 1}, RoundModel::kRs, options);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  const UcVerdict& v = report.violations.front().verdict;
  EXPECT_FALSE(v.withinLatencyBound);
  EXPECT_NE(v.witness.find("latency-bound"), std::string::npos) << v.witness;
  // The bound is the only property violated: consensus itself still holds.
  EXPECT_TRUE(v.uniformAgreement && v.uniformValidity && v.termination);
}

}  // namespace
}  // namespace ssvsp
