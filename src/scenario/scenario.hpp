// A small text format for describing round-model scenarios, so that runs —
// especially model-checker counterexamples — can be saved, shared and
// replayed from the command line (examples/scenario_runner).
//
//   # FloodSet loses uniform agreement in RWS (paper Sec. 5.1)
//   model     rws
//   algorithm FloodSet
//   n 3
//   t 2
//   values 0 1 1
//   horizon 5
//   crash 0 round 2 sendto none
//   crash 1 round 4 sendto all
//   pending 0 -> 1 round 1 arrival 2
//   pending 0 -> 2 round 1 never
//   pending 1 -> 2 round 3 never
//
// Grammar (one directive per line, '#' starts a comment):
//   model (rs|rws)
//   algorithm <registry name>
//   n <int>                     t <int>
//   values <v0> ... <v(n-1)>    ('_' = opt out, for broadcast scenarios)
//   horizon <int>               (default t+2)
//   crash <p> round <r> sendto (all|none|<id>,<id>,...)
//   pending <src> -> <dst> round <r> (arrival <r'>|never)
#pragma once

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "rounds/engine.hpp"

namespace ssvsp {

struct Scenario {
  RoundModel model = RoundModel::kRs;
  std::string algorithm = "FloodSet";
  RoundConfig cfg;
  std::vector<Value> values;
  int horizon = 0;  ///< 0 = derive t+2
  FailureScript script;

  /// The rounds a run of this scenario simulates: `horizon`, or t+2.
  Round runHorizon() const { return horizon > 0 ? horizon : cfg.t + 2; }
};

struct ScenarioParseResult {
  bool ok = true;
  std::string error;  ///< first error, with its line/column (back-compat)
  /// Structured diagnostics with line/column-accurate locations and the
  /// stable codes of src/lint/codes.hpp.  Empty iff ok.
  std::vector<Diagnostic> diagnostics;
  /// The directives parsed into a structurally complete scenario; only the
  /// semantic script/registry validation may have failed.
  bool structureOk = false;
  /// When structureOk: every diagnostic of the script rules
  /// (lintFailureScript, L1xx) against runHorizon(), which lintScenarioText
  /// forwards.  `diagnostics` wraps their first error as L310 when nothing
  /// else failed.
  std::vector<Diagnostic> scriptDiagnostics;
  Scenario scenario;
};

/// Parses the text format above.  Unknown directives, malformed arguments,
/// out-of-range ids and scripts invalid for the model are all reported,
/// each with the line and column of the offending token.
ScenarioParseResult parseScenario(const std::string& text);

/// Renders a scenario back into the text format (parse/serialize round-trip
/// is stable).
std::string serializeScenario(const Scenario& scenario);

/// Runs the scenario and returns the finished engine result.
RoundRunResult runScenario(const Scenario& scenario, bool traceDeliveries);

}  // namespace ssvsp
