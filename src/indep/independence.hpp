// The static independence analysis: from an algorithm's declared
// observational footprint plus the structural delivery rules of
// src/rounds/engine, derive which enumeration choices cannot influence any
// run summary — and therefore commute with every other choice.
//
// ## The choice space
//
// The enumerator (src/mc/enumerator.hpp) fans a script out of three kinds
// of scheduler choices:
//   * the crash round of each crasher,
//   * each bit of a crasher's final partial-send mask, and
//   * for each RWS pending slot (src, dst, round): on-time, or one of the
//     lag menu's arrivals (lag 0 = never surfaces).
//
// ## Structural facts (algorithm-independent, from the engine contract)
//
//   S1. A receiver crashed by round r consumes nothing in round r or later:
//       its inbox is cleared and no transition runs.  Any message whose
//       effective arrival is >= its receiver's crash round is invisible.
//   S2. Per channel (src, dst) delivery is FIFO over ARRIVED messages: in
//       round r the single message with the smallest send round among
//       those with arrival <= r is delivered; the rest wait.  A dying
//       sender's channel holds at most two undelivered messages (sent in
//       rounds c-1 and c for a crash at c), so the only interaction is the
//       pair: if both become deliverable in the same round, the older goes
//       first and the younger's EFFECTIVE arrival is one round later.
//       Schedules whose effective arrivals agree are engine-identical.
//   S3. A message whose effective arrival exceeds the engine horizon is
//       never delivered within the run — indistinguishable from "never".
//   S4. A mask bit NOT set and a mask bit set whose message never surfaces
//       are engine-identical at every receiver (the message enters no
//       inbox either way; only sentPerRound / peakPendingInFlight differ,
//       and those are deliberately NOT part of RunSummary).
//
// ## Footprint-derived facts (trusted declarations, linted + tripwired)
//
//   F1 (decisionFixBy = D): in every admissible run all decisions are
//      fixed by round D, and RunSummary = (latency, consensusOk) is a
//      function of the decisions and the faulty set alone.  Hence any
//      delivery with effective arrival > D, and any crash-round difference
//      above D (with identical faulty sets), is summary-invariant.
//   F2 (readsAllSenders = false): deliveries from senders outside the
//      read closure never influence observable state.
//
// The relation these facts induce over choices is what ScriptNormalizer
// (normalizer.hpp) quotients by: it maps every script to the canonical
// representative of its equivalence class, and the sweep executor memoizes
// per class — a sleep-set style pruning that, crucially, NEVER changes the
// enumerated stream (scriptsVisited, indices and per-pair folds are
// bit-identical to unreduced mode; only engine executions collapse).
#pragma once

#include <cstdint>

#include "consensus/registry.hpp"
#include "lint/diagnostic.hpp"
#include "util/types.hpp"

namespace ssvsp::indep {

/// Static lint of a footprint declaration against a swept system size.
/// Reports L510 (ids outside [0, n)), L511 (write-set not covered by the
/// read-set closure: self + readIds + all senders when readsAllSenders)
/// and L512 (undeclared footprint -> all-dependent fallback, a warning).
/// Returns true iff no error-severity diagnostic was reported.
bool lintFootprint(const AlgorithmEntry& entry, int n, DiagnosticSink& sink);

/// The decision-fix round D the analyzer may rely on for `entry` swept at
/// config `cfg`, resolved at the adversarial worst case f = t; kNoRound
/// when the entry declares none (or none is declared at all).  Lint
/// findings (L510/L511/L512) go to `sink` when provided; an error-level
/// finding degrades the result to kNoRound — a malformed declaration must
/// never license pruning.
Round resolveDecisionFixRound(const AlgorithmEntry& entry,
                              const RoundConfig& cfg,
                              DiagnosticSink* sink = nullptr);

/// Everything ScriptNormalizer needs to know about one sweep, resolved
/// from the footprint + engine options by the sweep owner.  Plain data so
/// src/explore can consume it without linking the registry.
struct PorSpec {
  /// F1's D, already resolved against (f = t, t); kNoRound disables every
  /// decision-horizon rule (structural rules S1-S4 still apply).
  Round decisionFixRound = kNoRound;
  /// The ENGINE horizon (enumeration horizon + slack): S3's cutoff.
  Round engineHorizon = 0;
  /// F2: when false, senders outside `readClosure` cannot influence any
  /// summary and their delivery choices collapse entirely.
  bool readsAllSenders = true;
  /// Mask of distinguished read ids (F2); meaningful only when
  /// readsAllSenders is false.
  std::uint64_t readIdsMask = 0;
  /// Dynamic tripwire (SSVSP_CHECK): re-execute every Nth memoized hit on
  /// a POR-collapsed script and compare with the class representative's
  /// summary; 0 = off.  See explore/reduction.cpp.
  int replayEvery = 0;
};

/// F2's read-id bit mask for a system of n processes: the declared readIds
/// clipped to [0, n); 0 when the footprint is undeclared or reads all
/// senders (callers gate on readsAllSenders, not on the mask).
std::uint64_t readIdsMaskFor(const ObservationalFootprint& footprint, int n);

/// The SSVSP_CHECK environment variable as a replay period: unset, empty or
/// "0" disables the tripwire (0); a positive integer N replays every Nth
/// collapsed memo hit; any other non-empty value means "every hit" (1).
/// Read by resolveReduction (explore/reduction.hpp), so the CI por-equality
/// leg turns the tripwire on for every canonical sweep and campaign shard
/// without a recompile.
int replayEveryFromEnv();

/// Builds the PorSpec for sweeping `entry` at `cfg` with the given engine
/// horizon.  Footprint lint findings go to `sink` when provided.
PorSpec porSpecFor(const AlgorithmEntry& entry, const RoundConfig& cfg,
                   Round engineHorizon, DiagnosticSink* sink = nullptr);

}  // namespace ssvsp::indep
