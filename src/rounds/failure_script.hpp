// Failure scripts: the adversary's choices in one round-based run.
//
// A script fixes, for a run of at most `horizon` rounds:
//   * which processes crash, in which round, and the subset of destinations
//     their final partial broadcast reaches (RS and RWS);
//   * which sent messages become "pending" — sent in round r but not
//     received in round r — and the round in which they finally surface
//     (RWS only).
//
// The RWS constraint is the paper's weak round synchrony property: if the
// receiver is alive at the end of round r and does not receive the round-r
// message of p_j, then p_j crashes by the end of round r+1.
// lintFailureScript is the one implementation of the model's admissibility
// rules (lint codes L100-L112); validateScript, the engine's gate, returns
// its first error, so engines only ever execute runs that belong to the
// model and every other caller judges scripts by the same rules.
#pragma once

#include <string>
#include <vector>

#include "rounds/round_automaton.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace ssvsp {

class DiagnosticSink;

enum class RoundModel {
  kRs,   ///< synchronous rounds (round synchrony property)
  kRws,  ///< weakly synchronous rounds (pending messages allowed)
};

std::string toString(RoundModel model);

/// p crashes *during* round `round`: its round-`round` broadcast reaches
/// exactly `sendTo`, and it performs no transition in that round or later.
/// "Decided then crashed silently" is expressed as a crash in the following
/// round with an empty sendTo.
struct CrashEvent {
  ProcessId p = kNoProcess;
  Round round = 1;
  ProcessSet sendTo;
};

/// The round-`round` message from src to dst is sent but not received in
/// round `round`; it surfaces in round `arrival` (> round), or never within
/// the horizon if arrival == kNoRound (legal: delivery is still "eventual",
/// merely after the simulated prefix — or the receiver is faulty).
struct PendingChoice {
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Round round = 1;
  Round arrival = kNoRound;
};

struct FailureScript {
  std::vector<CrashEvent> crashes;
  std::vector<PendingChoice> pendings;

  /// Round in which p crashes, or kNoRound.
  Round crashRound(ProcessId p) const;

  /// Send subset of p's crash round (full set if p does not crash).
  ProcessSet sendSubset(ProcessId p, int n) const;

  /// Processes that crash within the horizon.
  ProcessSet faultyWithin(Round horizon, int n) const;

  int numCrashes() const { return static_cast<int>(crashes.size()); }

  /// True iff the round-r message src->dst is marked pending.
  const PendingChoice* pendingFor(ProcessId src, ProcessId dst,
                                  Round round) const;

  std::string toString() const;
};

struct ScriptValidity {
  bool ok = true;
  std::string reason;
};

/// True when 1 <= n <= kMaxProcs and 0 <= t < n.
bool configInRange(const RoundConfig& cfg);

/// L200: reports one error and returns false when !configInRange(cfg).
bool lintRoundConfig(const RoundConfig& cfg, DiagnosticSink& sink);

/// Admissibility of one failure script for (cfg, model), judged against a
/// run of `horizon` rounds (< 1: no horizon, so no horizon warnings).
/// Emits every violated condition (it does not stop at the first), one
/// stable code each:
///   * at most cfg.t crashes (L104), each of a process in Pi (L100), at
///     most once (L101), in a round >= 1 (L102), with sendTo within Pi
///     (L103);
///   * RS: no pendings (L105);
///   * RWS: each pending names processes in Pi (L106) and a send round
///     >= 1 (L107), arrives strictly after it (L108), names a message that
///     is actually sent — the sender is alive at the start of that round
///     (L109) and, in its crash round, includes dst in sendTo (L110) —,
///     keeps weak round synchrony: if dst survives round r, src crashes by
///     round r+1 (L111), and is listed once (L112);
/// plus the horizon warnings L113/L114 (an arrival or a crash past the
/// simulated prefix).  Allocates nothing on an admissible script.
void lintFailureScript(const FailureScript& script, const RoundConfig& cfg,
                       RoundModel model, Round horizon, DiagnosticSink& sink);

/// The engine's gate: lintFailureScript's first error as `reason`, or ok.
ScriptValidity validateScript(const FailureScript& script,
                              const RoundConfig& cfg, RoundModel model);

}  // namespace ssvsp
