// Golden latency bounds: the theorem table of paper Section 5, evaluated at
// the canonical analysis parameters (see canonicalAnalysisConfig).
//
// The values here are transcribed from the paper's statements by hand, NOT
// computed — the point is redundancy.  The analyzer derives the same
// quantities from the automata, the registry declares them as closed forms,
// and exhaustive sweeps measure them; analysis_golden_bounds (ctest) fails
// when any of the four sources diverge, so an accidental edit to an
// algorithm, to its declared bounds or to this table is caught no matter
// where it happens.
#pragma once

#include <string>
#include <vector>

#include "consensus/bounds.hpp"

namespace ssvsp {

/// The degrees {lat, Lat, Lambda, Lat(A, f) for f = 0 .. t} of one
/// algorithm at (n, t).
struct GoldenBoundsRow : LatencyDegrees {
  std::string name;  ///< registry name (consensus/registry.hpp)
  int n = 0;
  int t = 0;
};

/// One row per registry algorithm with a declared contract, paper order.
/// A1WS_candidate has no row: it is incorrect by design and claims nothing.
const std::vector<GoldenBoundsRow>& goldenBoundsTable();

/// Lookup by registry name; nullptr when the algorithm has no golden row.
const GoldenBoundsRow* findGoldenBounds(const std::string& name);

}  // namespace ssvsp
