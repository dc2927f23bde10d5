// Static admissibility analyzer.
//
// The paper's models are defined by admissibility conditions — weak round
// synchrony (a sender silent in round r towards a surviving receiver is
// crashed by the end of round r+1), crash monotonicity (a process crashes at
// most once and takes no step afterwards) and f-bounded failure patterns (at
// most t crashes).  The round engine's gate, validateScript, rejects a
// script in the middle of a sweep; this module judges the library's three
// artifact kinds *before* any run executes, by the same rules:
//
//   * FailureScript  — lintFailureScript (rounds/failure_script.hpp): the
//     one implementation of the L1xx rules, whose first error is
//     validateScript's verdict, plus horizon-relative warnings (crashes or
//     arrivals that land past the simulated prefix);
//   * ExploreSpec    — lintExploreSpec: crash bound vs the config, value
//     domains, pending-lag menus, plus a closed-form upper bound on the
//     script-space cardinality with a warning above a configurable budget;
//   * scenario files — lintScenarioText: line/column parse diagnostics plus
//     the detailed script/registry checks on the parsed result.
//
// preflightSweep is the contract the sweep entry points honor:
// modelCheckConsensus and measureLatency call it before spawning workers and
// throw PreflightError (carrying the structured diagnostics) instead of
// failing mid-sweep with a bare InvariantViolation.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "explore/spec.hpp"
#include "lint/codes.hpp"
#include "lint/diagnostic.hpp"
#include "rounds/failure_script.hpp"
#include "scenario/scenario.hpp"
#include "util/saturating.hpp"

namespace ssvsp {

/// Sentinel for "too many scripts to count in 64 bits" — the saturation
/// point of the shared counting arithmetic (util/saturating.hpp) the
/// estimate is computed in.
inline constexpr std::int64_t kScriptSpaceSaturated = kSatI64Max;

/// Closed-form upper bound on the number of scripts forEachScript would
/// enumerate (saturating at kScriptSpaceSaturated):
///
///   sum over k <= maxCrashes of
///     C(n, k) * (horizon * 2^n)^k * (1 + |lags|)^(2 * k * (n-1))
///
/// i.e. crash sets x (round, sendTo subset) per crasher x one pending
/// choice per slot of a dying sender (at most two rounds of at most n-1
/// receivers each).  Capped by maxScripts when that is set.  Cheap to
/// evaluate even for spaces that would take years to walk — which is the
/// point: the estimate exists so a sweep can be rejected *before* it burns
/// cycles, not counted by running it.
std::int64_t estimateScriptSpace(const RoundConfig& cfg, RoundModel model,
                                 const EnumOptions& options);

struct SweepLintOptions {
  /// Script-space size above which lintExploreSpec emits L208.
  std::int64_t scriptBudget = 100'000'000;
};

/// Static checks over a sweep description.  Errors mark specs the
/// enumerator / config generator would reject at run time; warnings mark
/// legal but suspicious specs (degenerate domains, no-effect knobs,
/// over-budget spaces).
void lintExploreSpec(const ExploreSpec& spec, const RoundConfig& cfg,
                     RoundModel model, DiagnosticSink& sink,
                     const SweepLintOptions& options = {});

struct ScenarioLintResult {
  /// Directives parsed into a structurally complete Scenario (the deeper
  /// script/registry checks ran).  Independent of whether they passed.
  bool parsed = false;
  Scenario scenario;
};

/// Lints a scenario text: parse diagnostics (line/column accurate) plus,
/// when the structure parses, the full script admissibility pass and the
/// registry cross-checks (unknown algorithm, intended-model and resilience
/// notes).  The coarse kDiagScriptInvalid of parseScenario is replaced by
/// the detailed per-condition codes.
ScenarioLintResult lintScenarioText(const std::string& text,
                                    DiagnosticSink& sink);

/// Replay preflight for the real-transport harness (src/net): judges a
/// parsed scenario as a SIGKILL script rather than a simulator script.
/// `maxRounds` is the replayable horizon the harness will run (<= 0 derives
/// the scenario's own horizon, falling back to t + 2).  Emits:
///   * L311 (error) for every crash whose round exceeds that horizon — the
///     node would finish all its rounds and exit before the kill fires, so
///     the scenario cannot be reproduced on the wire;
///   * L312 (note) when the scenario carries pending choices — the real
///     network decides arrivals, so pendings are advisory under replay.
void lintScenarioForReplay(const Scenario& scenario, Round maxRounds,
                           DiagnosticSink& sink);

/// Parses the textual sweep-spec format shared by ssvsp_lint --spec,
/// tests/data/*.spec artifacts and ssvsp_analyze: space- or comma-separated
/// k=v pairs with keys n, t (both required), model (rs|rws), horizon,
/// maxCrashes, lags (':'-separated menu), maxScripts, domain, threads,
/// chunk.  Returns false and fills `problem` on malformed input; the outputs
/// keep whatever defaults they held for keys the text omits.
bool parseSweepSpecText(const std::string& text, RoundConfig* cfg,
                        RoundModel* model, ExploreSpec* spec,
                        std::string* problem);

/// Lints a sweep-spec text: a parse failure is reported as kDiagSpecParseError
/// (L212), a parsed spec gets the full lintExploreSpec pass.
void lintSpecText(const std::string& text, DiagnosticSink& sink,
                  const SweepLintOptions& options = {});

/// The analyzers' preflight: lints (cfg, model, spec) and throws
/// PreflightError carrying the diagnostics if any error was found.
/// Warnings are returned to the optional sink but never throw.
void preflightSweep(const RoundConfig& cfg, RoundModel model,
                    const ExploreSpec& spec,
                    const SweepLintOptions& options = {},
                    DiagnosticSink* sink = nullptr);

}  // namespace ssvsp
