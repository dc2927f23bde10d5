#include "analysis/golden.hpp"

namespace ssvsp {

const std::vector<GoldenBoundsRow>& goldenBoundsTable() {
  // Section 5.2 / 5.3 at the canonical parameters: n = 4, t = 2 (so t + 1 =
  // 3 and min(f + 2, t + 1) is distinguishable from both t + 1 and a
  // constant), except the t <= 1 algorithms at n = 3, t = 1.  Each row is
  // {{lat, Lat, Lambda, {Lat(A, f) for f = 0 .. t}}, name, n, t}.
  static const std::vector<GoldenBoundsRow> kTable = {
      // FloodSet pins every degree at t + 1: the decision round is fixed.
      {{3, 3, 3, {3, 3, 3}}, "FloodSet", 4, 2},
      {{3, 3, 3, {3, 3, 3}}, "FloodSetWS", 4, 2},
      // C_Opt: round-1 fast path on unanimity => lat = 1, everything else
      // stays t + 1 (a divergent configuration defeats the fast path).
      {{1, 3, 3, {3, 3, 3}}, "C_OptFloodSet", 4, 2},
      {{1, 3, 3, {3, 3, 3}}, "C_OptFloodSetWS", 4, 2},
      // F_Opt: round-1 fast path on n - t arrivals => lat = Lat = 1 (from
      // EVERY configuration some t-crash run decides in round 1), while the
      // failure-free worst case stays t + 1.
      {{1, 1, 3, {3, 3, 3}}, "F_OptFloodSet", 4, 2},
      {{1, 1, 3, {3, 3, 3}}, "F_OptFloodSetWS", 4, 2},
      // A1 (t = 1): Lambda = 1, Lat(A1, f) = min(f + 1, t + 1).
      {{1, 1, 1, {1, 2}}, "A1", 3, 1},
      // Early stopping: decide by round min(f + 2, t + 1); failure-free
      // runs take 2 rounds.  The WS variant needs one more round of grace.
      {{2, 2, 2, {2, 3, 3}}, "EarlyFloodSet", 4, 2},
      {{3, 3, 3, {3, 3, 3}}, "EarlyFloodSetWS", 4, 2},
      // Non-uniform spec: decide by round min(f + 1, t + 1).
      {{1, 1, 1, {1, 2, 3}}, "NonUniformEarlyFloodSet", 4, 2},
  };
  return kTable;
}

const GoldenBoundsRow* findGoldenBounds(const std::string& name) {
  for (const GoldenBoundsRow& row : goldenBoundsTable())
    if (row.name == name) return &row;
  return nullptr;
}

}  // namespace ssvsp
