// Abstract interpretation of round automata (paper Section 5).
//
// The latency degrees of Section 5.2 quantify over the full run space:
// every initial configuration crossed with every admissible failure script.
// That space is exponential (src/mc enumerates it outright only for tiny
// systems, and truncates RWS sweeps).  This module analyzes an algorithm
// through a *quotient abstraction* of that space instead:
//
//   * initial configurations are collapsed modulo value relabeling — every
//     automaton in the registry chooses its decision ROUND from message
//     presence and cardinalities, never from the value bits, so |r| is
//     invariant under permuting the value domain;
//   * failure scripts are collapsed into schedule cells: each of at most t
//     crashers picks a crash round in [1, t+1], one of four canonical
//     partial-broadcast shapes (silent / full / a single witness / all but
//     one witness) and, under RWS, a canonical pending shape for its last
//     two rounds of messages.  Crasher identities are drawn from {p1, p2}
//     plus the top of the id range — the automata of Section 5 distinguish
//     at most p1 and p2 (A1), so the cells cover every behaviour class the
//     automata can exhibit.
//
// Each cell is executed concretely on its canonical representative (the
// round engine is the transfer function), and the per-cell results are
// joined into earliest/latest decision rounds, per-round message counts and
// quiescence — a sound SUBSET of the run space, so derived minima are upper
// bounds on lat and derived maxima are lower bounds on Lat(A, f).  The
// analysis layer (src/analysis/analysis.hpp) pins the abstraction's
// completeness against the declared theorem bounds, the golden table and
// exhaustive measured sweeps; a divergence anywhere is reported as L400.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "consensus/bounds.hpp"
#include "consensus/registry.hpp"
#include "rounds/engine.hpp"

namespace ssvsp {

/// The canonical parameters the analyzer runs an algorithm at: the smallest
/// (n, t) where every closed form of Section 5 is distinguishable from the
/// others (t = 2, n = t + 2 — at t <= 1 e.g. min(f + 2, t + 1) collapses
/// into t + 1), clamped to t = 1 for the algorithms only defined there.
RoundConfig canonicalAnalysisConfig(const AlgorithmEntry& entry);

/// The schedule cells for (cfg, model): deduplicated, validateScript-legal
/// failure scripts per the quotient described above.  Polynomial in t for
/// fixed crash budget, versus the exponential full enumeration.  Cells are
/// ordered by crash count, so the cells with at most `maxCrashes` crashes
/// (default and cap: cfg.t) are a prefix of the full list.
std::vector<FailureScript> enumerateScheduleCells(
    const RoundConfig& cfg, RoundModel model,
    std::optional<int> maxCrashes = std::nullopt);

/// Traffic joined over all cells with at most f crashes (index f of
/// AbstractBounds::byMaxCrashes).
struct PerBudgetBounds {
  std::int64_t maxMsgsPerRound = 0;
  /// Worst-case last round in which any message is emitted (0: silence).
  Round quiescence = 0;
  /// Worst-case sent-but-undelivered backlog (0 under RS).
  int peakPendingInFlight = 0;
};

/// The derived degrees — lat(A): min |r| over all cells; Lat(A): max over
/// configs of the per-config min; Lat(A, f) = latByF[f]: max |r| over the
/// cells with at most f crashes, f = 0 .. budget — plus the traffic.
struct AbstractBounds : LatencyDegrees {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  std::vector<PerBudgetBounds> byMaxCrashes;  ///< index f = 0 .. budget
  std::int64_t cells = 0;   ///< schedule cells interpreted
  std::int64_t runs = 0;    ///< cells x canonical configs
};

/// Observer for the structural checks of the analysis layer (L401-L404)
/// and the counting abstraction of src/param: called once per interpreted
/// run, with deliveries traced.  Runs arrive configs outer, cells inner
/// (each in enumeration order); the result is the pooled engine's and is
/// only valid during the call.
using RunObserver = std::function<void(const RoundRunResult&)>;

/// Interprets `entry` over the abstract schedule space at `cfg` on one
/// pooled RoundEngine.  Runs with horizon t + 3 and no early stop, so
/// post-decision traffic and quiescence are visible.  `maxCrashes` (default
/// cfg.t) bounds the cells interpreted: latByF[f] and byMaxCrashes[f] for
/// f <= budget are the same as the full interpretation's, and every other
/// field (lat, latMax, cells, runs) describes the budgeted space only.
AbstractBounds interpretAutomaton(const AlgorithmEntry& entry,
                                  const RoundConfig& cfg,
                                  const RunObserver& observer = {},
                                  std::optional<int> maxCrashes = std::nullopt);

}  // namespace ssvsp
