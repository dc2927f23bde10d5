// The diagnostic code registry.
//
// Every static check in this library reports through a stable short code so
// tests, CI greps and downstream tooling can match on identity instead of
// message text.  Codes are grouped by the artifact they judge:
//
//   L1xx  failure scripts  (admissibility per the paper's model definitions)
//   L2xx  explore specs    (sweep descriptions: bounds, domains, cost)
//   L3xx  scenario files   (text format: syntax, registry, consistency)
//   L4xx  round automata   (derived decision/message bounds, src/analysis)
//   L5xx  independence/POR (observational footprints, src/indep: L50x are
//         runtime tripwires raised when a static independence claim is
//         invalidated by an executed run; L51x lint footprint declarations)
//
// The full table — code, default severity, one-line summary — is
// diagCodeTable(); DESIGN.md section 8 documents the mapping to the paper.
// Header-only on purpose: the scenario parser uses these constants without
// linking the lint library.
#pragma once

#include <string_view>
#include <vector>

#include "lint/diagnostic.hpp"

namespace ssvsp {

// --- L1xx: failure-script admissibility -----------------------------------
inline constexpr std::string_view kDiagCrashUnknownProcess = "L100";
inline constexpr std::string_view kDiagDuplicateCrash = "L101";
inline constexpr std::string_view kDiagCrashRoundOutOfRange = "L102";
inline constexpr std::string_view kDiagSendToOutsidePi = "L103";
inline constexpr std::string_view kDiagCrashBoundExceeded = "L104";
inline constexpr std::string_view kDiagPendingInRs = "L105";
inline constexpr std::string_view kDiagPendingUnknownProcess = "L106";
inline constexpr std::string_view kDiagPendingRoundOutOfRange = "L107";
inline constexpr std::string_view kDiagPendingArrivalNotLater = "L108";
inline constexpr std::string_view kDiagCrashedSenderSendsLater = "L109";
inline constexpr std::string_view kDiagPendingNeverSent = "L110";
inline constexpr std::string_view kDiagWeakRoundSynchrony = "L111";
inline constexpr std::string_view kDiagDuplicatePending = "L112";
inline constexpr std::string_view kDiagArrivalPastHorizon = "L113";
inline constexpr std::string_view kDiagCrashPastHorizon = "L114";

// --- L2xx: explore-spec checks --------------------------------------------
inline constexpr std::string_view kDiagConfigOutOfRange = "L200";
inline constexpr std::string_view kDiagCrashBoundVsConfig = "L201";
inline constexpr std::string_view kDiagEmptyValueDomain = "L202";
inline constexpr std::string_view kDiagDegenerateValueDomain = "L203";
inline constexpr std::string_view kDiagPendingLagsInRs = "L204";
inline constexpr std::string_view kDiagNegativePendingLag = "L205";
inline constexpr std::string_view kDiagDuplicatePendingLag = "L206";
inline constexpr std::string_view kDiagHorizonOutOfRange = "L207";
inline constexpr std::string_view kDiagScriptSpaceOverBudget = "L208";
inline constexpr std::string_view kDiagChunkScriptsClamped = "L209";
inline constexpr std::string_view kDiagThreadsNegative = "L210";
inline constexpr std::string_view kDiagLagPastHorizon = "L211";
inline constexpr std::string_view kDiagSpecParseError = "L212";
inline constexpr std::string_view kDiagSymmetryGroupTooLarge = "L213";

// --- L3xx: scenario-file checks -------------------------------------------
inline constexpr std::string_view kDiagParseError = "L300";
inline constexpr std::string_view kDiagUnknownDirective = "L301";
inline constexpr std::string_view kDiagUnknownAlgorithm = "L302";
inline constexpr std::string_view kDiagValueCountMismatch = "L303";
inline constexpr std::string_view kDiagUnknownModel = "L304";
inline constexpr std::string_view kDiagScenarioConfigOutOfRange = "L305";
inline constexpr std::string_view kDiagMissingDirective = "L306";
inline constexpr std::string_view kDiagProcessIdOutOfRange = "L307";
inline constexpr std::string_view kDiagAlgorithmModelMismatch = "L308";
inline constexpr std::string_view kDiagAlgorithmResilience = "L309";
inline constexpr std::string_view kDiagScriptInvalid = "L310";
inline constexpr std::string_view kDiagCrashBeyondReplayHorizon = "L311";
inline constexpr std::string_view kDiagPendingAdvisoryInReplay = "L312";

// --- L4xx: round-automaton analysis (src/analysis, src/param) -------------
inline constexpr std::string_view kDiagBoundMismatch = "L400";
inline constexpr std::string_view kDiagDecideBelowQuorum = "L401";
inline constexpr std::string_view kDiagDeadEstimateRounds = "L402";
inline constexpr std::string_view kDiagMessageAfterDecision = "L403";
inline constexpr std::string_view kDiagPendingBoundExceeded = "L404";
inline constexpr std::string_view kDiagCertSweepDivergence = "L410";
inline constexpr std::string_view kDiagCertRecheckMismatch = "L411";

// --- L5xx: independence analysis / POR (src/indep) ------------------------
inline constexpr std::string_view kDiagPorDecisionPastFix = "L500";
inline constexpr std::string_view kDiagPorReplayMismatch = "L501";
inline constexpr std::string_view kDiagFootprintIdOutOfRange = "L510";
inline constexpr std::string_view kDiagFootprintWriteNotRead = "L511";
inline constexpr std::string_view kDiagFootprintMissing = "L512";

// --- L6xx: parametric claims / cutoff certificates (src/param) ------------
inline constexpr std::string_view kDiagParamClaimNoBounds = "L600";
inline constexpr std::string_view kDiagParamCutoffBelowQuorum = "L601";
inline constexpr std::string_view kDiagParamNotInductive = "L602";
inline constexpr std::string_view kDiagParamClaimMissing = "L603";
inline constexpr std::string_view kDiagParamLambdaContradiction = "L604";

struct DiagCodeInfo {
  std::string_view code;
  Severity defaultSeverity;
  std::string_view summary;
};

/// Every registered code, ascending.  Kept in sync with DESIGN.md section 8
/// by tests/test_lint.cpp.
inline const std::vector<DiagCodeInfo>& diagCodeTable() {
  static const std::vector<DiagCodeInfo> kTable = {
      {kDiagCrashUnknownProcess, Severity::kError,
       "crash event names a process outside [0, n)"},
      {kDiagDuplicateCrash, Severity::kError,
       "a process crashes more than once (crash monotonicity)"},
      {kDiagCrashRoundOutOfRange, Severity::kError, "crash round < 1"},
      {kDiagSendToOutsidePi, Severity::kError,
       "partial-send subset reaches outside Pi"},
      {kDiagCrashBoundExceeded, Severity::kError,
       "more crashes than the resilience bound t (f-bounded patterns)"},
      {kDiagPendingInRs, Severity::kError,
       "pending messages are impossible under round synchrony (RS)"},
      {kDiagPendingUnknownProcess, Severity::kError,
       "pending choice names a process outside [0, n)"},
      {kDiagPendingRoundOutOfRange, Severity::kError, "pending round < 1"},
      {kDiagPendingArrivalNotLater, Severity::kError,
       "pending arrival not strictly after its send round"},
      {kDiagCrashedSenderSendsLater, Severity::kError,
       "a crashed sender sends/pends in a later round"},
      {kDiagPendingNeverSent, Severity::kError,
       "pending names a message outside the sender's crash-round sendto"},
      {kDiagWeakRoundSynchrony, Severity::kError,
       "weak round synchrony violated: receiver survives round r but sender "
       "does not crash by round r+1"},
      {kDiagDuplicatePending, Severity::kError,
       "duplicate pending entry for the same message"},
      {kDiagArrivalPastHorizon, Severity::kWarning,
       "pending arrival lands past the horizon (behaves like 'never')"},
      {kDiagCrashPastHorizon, Severity::kWarning,
       "crash round lies past the horizon (never takes effect)"},

      {kDiagConfigOutOfRange, Severity::kError,
       "round config out of range (need 1 <= n <= 64 and 0 <= t < n)"},
      {kDiagCrashBoundVsConfig, Severity::kError,
       "enumeration crash bound outside [0, t]"},
      {kDiagEmptyValueDomain, Severity::kError, "value domain is empty"},
      {kDiagDegenerateValueDomain, Severity::kWarning,
       "value domain of size 1: agreement holds trivially"},
      {kDiagPendingLagsInRs, Severity::kWarning,
       "pending-lag menu has no effect under RS"},
      {kDiagNegativePendingLag, Severity::kError, "negative pending lag"},
      {kDiagDuplicatePendingLag, Severity::kWarning,
       "duplicate pending lag enumerates the same scripts twice"},
      {kDiagHorizonOutOfRange, Severity::kError, "enumeration horizon < 1"},
      {kDiagScriptSpaceOverBudget, Severity::kWarning,
       "estimated script space exceeds the sweep budget"},
      {kDiagChunkScriptsClamped, Severity::kWarning,
       "chunkScripts < 1 (the sweep engine clamps it to 1)"},
      {kDiagThreadsNegative, Severity::kWarning,
       "negative thread count (treated as 'one per hardware thread')"},
      {kDiagLagPastHorizon, Severity::kWarning,
       "pending lag >= horizon: every arrival lands past the horizon"},
      {kDiagSpecParseError, Severity::kError,
       "malformed sweep-spec text (want space/comma-separated k=v pairs)"},
      {kDiagSymmetryGroupTooLarge, Severity::kError,
       "reduced sweep over more than 8 movable ids (the symmetry group "
       "would exceed 8! permutations)"},

      {kDiagParseError, Severity::kError, "malformed directive argument"},
      {kDiagUnknownDirective, Severity::kError, "unknown directive"},
      {kDiagUnknownAlgorithm, Severity::kError,
       "algorithm not present in the registry"},
      {kDiagValueCountMismatch, Severity::kError,
       "'values' must list exactly n values"},
      {kDiagUnknownModel, Severity::kError, "unknown model (want rs or rws)"},
      {kDiagScenarioConfigOutOfRange, Severity::kError,
       "scenario n/t out of range"},
      {kDiagMissingDirective, Severity::kError,
       "missing or misordered required directive"},
      {kDiagProcessIdOutOfRange, Severity::kError,
       "process id outside [0, n)"},
      {kDiagAlgorithmModelMismatch, Severity::kNote,
       "algorithm runs outside its intended model (fine for counterexamples)"},
      {kDiagAlgorithmResilience, Severity::kWarning,
       "algorithm is only proved for t <= 1 but t > 1"},
      {kDiagScriptInvalid, Severity::kError,
       "failure script inadmissible for the scenario's model"},
      {kDiagCrashBeyondReplayHorizon, Severity::kError,
       "crash round exceeds the replayable horizon: the transport harness "
       "would finish every round before the SIGKILL fires"},
      {kDiagPendingAdvisoryInReplay, Severity::kNote,
       "pending choices are advisory under transport replay (the real "
       "network schedules arrivals; only crashes are enforced)"},

      {kDiagBoundMismatch, Severity::kError,
       "derived decision-round bound diverges from the declared/golden/"
       "measured bound"},
      {kDiagDecideBelowQuorum, Severity::kNote,
       "a process can decide on information from fewer than n - t processes "
       "(sound only under round synchrony)"},
      {kDiagDeadEstimateRounds, Severity::kNote,
       "estimates are stable for >= 1 full round before the decision rule "
       "fires (dead waiting rounds)"},
      {kDiagMessageAfterDecision, Severity::kNote,
       "messages are sent after every process has decided (dead traffic "
       "after quiescence of the decision)"},
      {kDiagPendingBoundExceeded, Severity::kError,
       "RWS in-flight pending messages exceed the 2*f*(n-1) model bound"},
      {kDiagCertSweepDivergence, Severity::kError,
       "parametric certificate diverges from the exhaustive measured sweep "
       "at an n within its window"},
      {kDiagCertRecheckMismatch, Severity::kError,
       "a stored parametric certificate does not match its regeneration "
       "(stale golden, or the abstraction changed)"},

      {kDiagPorDecisionPastFix, Severity::kError,
       "an executed run decided after the declared decision-fix round: the "
       "footprint's decisionFixBy bound is wrong (POR tripwire)"},
      {kDiagPorReplayMismatch, Severity::kError,
       "a replayed POR-pruned schedule produced a different run summary than "
       "its class representative (POR tripwire)"},
      {kDiagFootprintIdOutOfRange, Severity::kError,
       "observational footprint names a process id outside [0, n)"},
      {kDiagFootprintWriteNotRead, Severity::kError,
       "footprint write-set not covered by its read-set closure"},
      {kDiagFootprintMissing, Severity::kWarning,
       "no observational footprint declared: POR falls back to treating "
       "every scheduler choice as all-dependent (structural rules only)"},

      {kDiagParamClaimNoBounds, Severity::kError,
       "parametric claim asserts the declared bounds for all n, but the "
       "entry declares no bounds to assert"},
      {kDiagParamCutoffBelowQuorum, Severity::kError,
       "parametric cutoff n0 below the quorum threshold t + 2 (no system "
       "that small distinguishes the closed forms)"},
      {kDiagParamNotInductive, Severity::kError,
       "the abstract reach set is not inductive at the declared cutoff, or "
       "fails to entail the claimed bound"},
      {kDiagParamClaimMissing, Severity::kWarning,
       "no parametric claim declared: bounds are only checked at the swept "
       "sizes, not for all n"},
      {kDiagParamLambdaContradiction, Severity::kError,
       "claimed Lambda lower bound contradicts the entry's declared Lambda "
       "closed form"},
  };
  return kTable;
}

}  // namespace ssvsp
