// The bound analyzer: abstract interpretation plus theorem cross-checks.
//
// analyzeAlgorithm interprets one registry algorithm over the abstract
// schedule space (abstract_interp.hpp), fits the derived Lat(A, f) row to
// the paper's closed-form vocabulary (consensus/bounds.hpp) and
// cross-checks the derived quantities against up to three independent
// sources:
//
//   * the registry's declared bounds (the theorems of Section 5 as code);
//   * the hand-transcribed golden table (analysis/golden.hpp);
//   * optionally, an exhaustive measured sweep (latency/measureLatency).
//
// Any divergence is reported as diagnostic L400 (an error); the structural
// findings L401-L404 (quorum-free decisions, dead estimate rounds,
// post-decision traffic, pending-bound violations) are derived from the
// interpreted runs themselves.  Codes are registered in src/lint/codes.hpp
// and documented in DESIGN.md section 9.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "consensus/bounds.hpp"
#include "consensus/registry.hpp"
#include "lint/diagnostic.hpp"

namespace ssvsp {

struct AnalysisOptions {
  /// Compare derived bounds against the golden table (cheap; default on).
  bool checkGolden = true;
  /// Compare an exhaustive measured profile against the declared bounds
  /// (expensive: runs measureLatency; RWS algorithms are spot-checked at
  /// t = 1 where the sweep is exhaustive within the script budget).
  bool checkMeasured = false;
  /// Worker threads for the measured sweep (0 = one per hardware thread).
  int threads = 0;
  /// Progress-line period for the measured sweep, forwarded to
  /// ExploreSpec::progressIntervalSec (-1 = SSVSP_PROGRESS env default).
  double progressIntervalSec = -1;
};

struct AnalysisReport {
  std::string algorithm;
  std::string paperRef;
  RoundConfig cfg;  ///< canonical analysis parameters
  RoundModel model = RoundModel::kRs;

  AbstractBounds derived;
  /// Closed-form fit of the derived Lat(A, f) row, when one of the paper's
  /// shapes matches exactly (display only; comparisons use the integers).
  std::optional<BoundExpr> closedForm;
  std::optional<DeclaredLatencyBounds> declared;

  bool goldenChecked = false;
  bool measuredChecked = false;
  RoundConfig measuredCfg;       ///< parameters of the measured sweep
  std::string measuredProfile;   ///< LatencyProfile::toString() for display

  DiagnosticSink sink;  ///< L400 mismatches + L401-L404 structural findings

  bool ok() const { return !sink.hasErrors(); }
  std::string toText() const;
  std::string toJson() const;
};

/// How checkLatencyDegrees words a mismatch: one error under `code` per
/// differing degree, "<subject> <degree> = <actual> diverges from
/// <against> <expected><where>", with `hint`.
struct DegreeCheck {
  std::string_view code;  ///< the caller's diagnostic code (codes.hpp)
  std::string subject;    ///< e.g. "derived", "FloodSet: measured"
  std::string against;    ///< e.g. "the declared bound"
  std::string where;      ///< appended context, e.g. " at n = 3, t = 1"
  std::string hint;
};

/// The one comparison of latency degrees (the analyzer's declared, golden
/// and measured checks, the certifier's window rows and its sweep
/// cross-check): reports lat, Lat, Lambda and Lat(A, f) for every f either
/// side lists — a missing entry reads kNoRound — wherever `actual` differs
/// from `expected`.
void checkLatencyDegrees(const LatencyDegrees& actual,
                         const LatencyDegrees& expected,
                         const DegreeCheck& check, DiagnosticSink& sink);

/// Fits `latByF` (index f = 0 .. t) to the paper's closed forms, trying the
/// most specific shape first: t + 1 everywhere, then a constant, then
/// min(f + c, t + 1).  nullopt when no shape matches exactly or a value is
/// kNoRound.
std::optional<BoundExpr> fitClosedForm(const std::vector<Round>& latByF,
                                       int t);

/// Analyzes one algorithm at its canonical parameters.
AnalysisReport analyzeAlgorithm(const AlgorithmEntry& entry,
                                const AnalysisOptions& options = {});

/// Analyzes every registry algorithm, registry order.
std::vector<AnalysisReport> analyzeAllAlgorithms(
    const AnalysisOptions& options = {});

}  // namespace ssvsp
