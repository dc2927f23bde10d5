// Symbolic latency bounds (paper Section 5).
//
// The paper states its efficiency results as closed forms over the crash
// budget f and the resilience t: Lat(FloodSet, f) = t + 1, Lat(EarlyFloodSet,
// f) = min(f + 2, t + 1), lat(C_OptFloodSet) = 1, Lambda(A1) = 1.  BoundExpr
// is that tiny expression language: enough shapes to write every theorem of
// Section 5, evaluable at concrete (f, t) so the static analyzer
// (src/analysis) and the measured sweeps (src/latency) can be diffed against
// the declared contract round-for-round.
//
// Each registry entry (consensus/registry.hpp) declares its expected bounds
// through DeclaredLatencyBounds; the analyzer reports code L400 when a
// derived bound diverges from the declaration.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace ssvsp {

/// One closed-form decision-round bound over (f, t).
struct BoundExpr {
  enum class Kind {
    kConst,        ///< c
    kTPlus,        ///< t + c
    kFPlusCapped,  ///< min(f + c, t + 1)
    kConstCapped,  ///< min(c, t + 1)
  };
  Kind kind = Kind::kConst;
  int c = 0;

  Round eval(int f, int t) const {
    switch (kind) {
      case Kind::kConst:
        return c;
      case Kind::kTPlus:
        return t + c;
      case Kind::kFPlusCapped:
        return std::min(f + c, t + 1);
      case Kind::kConstCapped:
        return std::min(c, t + 1);
    }
    return kNoRound;
  }

  /// The paper's notation: "t + 1", "min(f + 2, t + 1)", ...
  std::string toString() const {
    switch (kind) {
      case Kind::kConst:
        return std::to_string(c);
      case Kind::kTPlus:
        return c == 0 ? std::string("t") : "t + " + std::to_string(c);
      case Kind::kFPlusCapped:
        return "min(f + " + std::to_string(c) + ", t + 1)";
      case Kind::kConstCapped:
        return "min(" + std::to_string(c) + ", t + 1)";
    }
    return {};
  }

  friend bool operator==(const BoundExpr& a, const BoundExpr& b) {
    return a.kind == b.kind && a.c == b.c;
  }
};

constexpr BoundExpr boundConst(int c) { return {BoundExpr::Kind::kConst, c}; }
constexpr BoundExpr boundTPlus(int c) { return {BoundExpr::Kind::kTPlus, c}; }
constexpr BoundExpr boundFPlusCapped(int c) {
  return {BoundExpr::Kind::kFPlusCapped, c};
}
constexpr BoundExpr boundConstCapped(int c) {
  return {BoundExpr::Kind::kConstCapped, c};
}

/// The four latency degrees of Section 5.2 at one (n, t), as numbers:
///   lat(A)    = min |r| over all runs;
///   Lat(A)    = max over initial configurations C of lat(A, C);
///   Lambda(A) = Lat(A, 0), the worst failure-free run;
///   Lat(A, f) = max |r| over runs with at most f crashes, f = 0 .. t.
/// kNoRound marks a degree no run attains (a termination failure).  The
/// analyzer's derivation, a certificate's window row, the golden table and
/// the declared closed forms all produce this one value, and
/// checkLatencyDegrees (analysis/analysis.hpp) is the one comparison.
struct LatencyDegrees {
  Round lat = kNoRound;
  Round latMax = 0;
  Round lambda = kNoRound;
  std::vector<Round> latByF;

  friend bool operator==(const LatencyDegrees&,
                         const LatencyDegrees&) = default;
};

/// The latency contract a registry algorithm declares: one closed form per
/// degree of LatencyDegrees.
struct DeclaredLatencyBounds {
  BoundExpr lat;
  BoundExpr latMax;
  BoundExpr lambda;
  BoundExpr latByF;

  /// The degrees the closed forms predict at resilience t: lat and Lat at
  /// the full budget f = t, Lambda at f = 0, Lat(A, f) for f = 0 .. t.
  LatencyDegrees eval(int t) const {
    LatencyDegrees d;
    d.lat = lat.eval(t, t);
    d.latMax = latMax.eval(t, t);
    d.lambda = lambda.eval(0, t);
    for (int f = 0; f <= t; ++f) d.latByF.push_back(latByF.eval(f, t));
    return d;
  }

  friend bool operator==(const DeclaredLatencyBounds&,
                         const DeclaredLatencyBounds&) = default;
};

}  // namespace ssvsp
