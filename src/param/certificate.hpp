// ParamCertificate: the machine-checkable artifact of the cutoff certifier.
//
// A certificate packages everything needed to RE-CHECK a parametric claim
// without trusting the run that produced it:
//
//   * the claim (algorithm, resilience, cutoff n0, counter saturation,
//     declared closed forms, Lambda lower bound);
//   * the base-case window — the derived bound row at every n in
//     [t + 2, n0 + 1], each identical to what ssvsp_analyze derives;
//   * the inductive invariant — the abstract reach set at n0 — and the
//     abstract transition relation over it (edges as index pairs into the
//     sorted invariant);
//   * the Lambda witness: the worst failure-free run's initial 1-count and
//     latency;
//   * an FNV-1a fingerprint over the canonical compact rendering, so a
//     corrupted or hand-edited golden is distinguishable from a stale one.
//
// The JSON wire form follows the repo's versioned-document discipline
// (schema "ssvsp.cert.v1", kind "param_certificate", util/serde envelope);
// goldens live under certs/ and are regenerated + diffed by the CI
// param-certify leg.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "consensus/bounds.hpp"
#include "param/abstraction.hpp"
#include "rounds/failure_script.hpp"

namespace ssvsp {
namespace param {

/// Schema tag of certificate documents (bump on incompatible wire changes).
inline constexpr const char* kCertSchemaV1 = "ssvsp.cert.v1";

struct ParamCertificate {
  std::string algorithm;
  RoundModel model = RoundModel::kRs;
  int t = 0;                 ///< canonical resilience the claim is made at
  int cutoff = 0;            ///< n0; window covers [t + 2, n0 + 1]
  int countSaturation = 2;   ///< c0 of the counting abstraction
  bool declared = false;     ///< false: observation-only certificate
  bool boundsForAllN = false;
  std::optional<DeclaredLatencyBounds> bounds;
  std::optional<int> lambdaLowerBound;

  /// Derived bound rows, one per n in [t + 2, cutoff + 1], ascending.
  std::vector<ParamWindowRow> window;

  /// The inductive invariant: abstract reach set at n = cutoff, sorted.
  std::vector<std::string> invariant;
  /// Abstract transition relation at n = cutoff, as (from, to) index pairs
  /// into `invariant`, sorted.
  std::vector<std::pair<int, int>> transitions;

  /// Lambda witness at n = cutoff: the worst failure-free run.
  int lambdaWitnessOnes = 0;
  Round lambdaWitnessLatency = kNoRound;

  /// FNV-1a 64 over the compact JSON rendering with this field zeroed.
  std::uint64_t fingerprint = 0;

  friend bool operator==(const ParamCertificate&,
                         const ParamCertificate&) = default;
};

/// Canonical JSON rendering; indent = 0 compact (the fingerprint domain),
/// indent > 0 pretty (the golden files).
std::string certificateToJson(const ParamCertificate& cert, int indent = 0);

/// The fingerprint the certificate SHOULD carry: FNV-1a 64 of the compact
/// rendering with `fingerprint` zeroed.
std::uint64_t certificateFingerprint(const ParamCertificate& cert);

/// Parses a certificate document (envelope-checked).  Returns false and
/// fills `error` on malformed or wrong-schema input.
bool certificateFromJson(const JsonValue& doc, ParamCertificate* out,
                         std::string* error);

}  // namespace param
}  // namespace ssvsp
