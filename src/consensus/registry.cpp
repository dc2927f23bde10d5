#include "consensus/registry.hpp"

#include "consensus/a1.hpp"
#include "consensus/early_floodset.hpp"
#include "consensus/early_floodset_ws.hpp"
#include "consensus/floodset.hpp"
#include "consensus/nonuniform.hpp"
#include "consensus/opt_floodset.hpp"
#include "util/check.hpp"

namespace ssvsp {

namespace {

// The declared contracts restate Section 5's theorems (and the early-deciding
// results of [7]) as closed forms over (f, t); src/analysis re-derives each
// one from the automaton and trips L400 on any divergence.

/// FloodSet decides at round t+1 unconditionally: every degree is t + 1.
DeclaredLatencyBounds floodSetBounds() {
  return {boundTPlus(1), boundTPlus(1), boundTPlus(1), boundTPlus(1)};
}

/// C_Opt*: the round-1 unanimity fast path gives lat = 1, but any divergent
/// configuration falls back to the full t + 1 flood.
DeclaredLatencyBounds cOptBounds() {
  return {boundConst(1), boundTPlus(1), boundTPlus(1), boundTPlus(1)};
}

/// F_Opt*: the n-t-arrivals fast path fires from EVERY configuration in the
/// run with t initial crashes, so lat = Lat = 1; the worst case (including
/// failure-free divergent runs) stays t + 1.
DeclaredLatencyBounds fOptBounds() {
  return {boundConst(1), boundConst(1), boundTPlus(1), boundTPlus(1)};
}

/// A1 (t <= 1): round 1 while p1 lives, round 2 once it crashed.
DeclaredLatencyBounds a1Bounds() {
  return {boundConst(1), boundConst(1), boundConst(1), boundFPlusCapped(1)};
}

/// Early-deciding flood with rule f_r <= r - shift: decides by round
/// f + shift, capped by the t + 1 fallback.
DeclaredLatencyBounds earlyBounds(int shift) {
  return {boundConstCapped(shift), boundConstCapped(shift),
          boundConstCapped(shift), boundFPlusCapped(shift)};
}

/// Non-uniform rule f_r <= r - 1: round f + 1, i.e. round 1 failure-free.
DeclaredLatencyBounds nonUniformBounds() {
  return {boundConst(1), boundConst(1), boundConst(1), boundFPlusCapped(1)};
}

}  // namespace

const std::vector<AlgorithmEntry>& algorithmRegistry() {
  // symmetryFixedIds: only the A1 family hard-codes process roles (p0
  // broadcasts first, p1 is the fallback), so it pins ids {0, 1}; every
  // flooding algorithm is invariant under all of S_n.
  // Footprints: every flood-family member carries the structural
  // `rounds_ == t + 1` decision fallback, so its decisions are fixed by
  // round t + 1 in every admissible run (floodFootprint); the A1 family
  // reads p0/p1 by role and declares no decision-fix bound (a1Footprint) —
  // A1WS_candidate is incorrect by design, so pruning on a decision
  // horizon it does not honor would be exactly the unsoundness the L500
  // tripwire exists to catch.
  // Parametric claims: every entry with a latency contract asserts it for
  // ALL n >= cutoff (at its canonical resilience), certified by the cutoff
  // engine of src/param; RWS entries additionally carry the paper's
  // Lambda(A) >= 2 lower-bound witness obligation.  The cutoffs are the
  // smallest sizes at which the abstract reach sets close (verified by the
  // param_golden_cert_* tripwires); A1WS_candidate — incorrect by design —
  // declares nothing, and its certificate records the Lambda = 1 fast path
  // the lower bound forbids for CORRECT RWS algorithms.
  static const std::vector<AlgorithmEntry> kRegistry = {
      {"FloodSet", RoundModel::kRs, "Fig. 1", false, 0, makeFloodSet(),
       floodSetBounds(), floodFootprint(), paramClaimBounds(6)},
      {"FloodSetWS", RoundModel::kRws, "Fig. 2", false, 0, makeFloodSetWs(),
       floodSetBounds(), floodFootprint(), paramClaimBoundsRws(6)},
      {"C_OptFloodSet", RoundModel::kRs, "Sec. 5.2", false, 0,
       makeCOptFloodSet(), cOptBounds(), floodFootprint(),
       paramClaimBounds(6)},
      {"C_OptFloodSetWS", RoundModel::kRws, "Sec. 5.2", false, 0,
       makeCOptFloodSetWs(), cOptBounds(), floodFootprint(),
       paramClaimBoundsRws(6)},
      {"F_OptFloodSet", RoundModel::kRs, "Fig. 3", false, 0,
       makeFOptFloodSet(), fOptBounds(), floodFootprint(),
       paramClaimBounds(6, /*countSaturation=*/1)},
      {"F_OptFloodSetWS", RoundModel::kRws, "Fig. 3 (WS)", false, 0,
       makeFOptFloodSetWs(), fOptBounds(), floodFootprint(),
       paramClaimBoundsRws(6, /*countSaturation=*/1)},
      {"A1", RoundModel::kRs, "Fig. 4", true, 2, makeA1(), a1Bounds(),
       a1Footprint(), paramClaimBounds(5)},
      // Incorrect by design (the halt set does not repair A1 under RWS), so
      // it ships without a latency contract — and without a parametric
      // claim (L603 is the expected lint finding).
      {"A1WS_candidate", RoundModel::kRws, "Sec. 5.3 (candidate)", true, 2,
       makeA1WsCandidate(), std::nullopt, a1Footprint(), ParametricClaim{}},
      {"EarlyFloodSet", RoundModel::kRs, "ext ([7])", false, 0,
       makeEarlyFloodSet(), earlyBounds(2), floodFootprint(),
       paramClaimBounds(6)},
      {"EarlyFloodSetWS", RoundModel::kRws, "ext ([7], WS)", false, 0,
       makeEarlyFloodSetWs(), earlyBounds(3), floodFootprint(),
       paramClaimBoundsRws(6)},
      {"NonUniformEarlyFloodSet", RoundModel::kRs, "Sec. 5.1 (non-uniform)",
       false, 0, makeNonUniformEarlyFloodSet(), nonUniformBounds(),
       floodFootprint(), paramClaimBounds(6, /*countSaturation=*/1)},
  };
  return kRegistry;
}

const AlgorithmEntry* findAlgorithm(const std::string& name) {
  for (const auto& e : algorithmRegistry())
    if (e.name == name) return &e;
  return nullptr;
}

const AlgorithmEntry& algorithmByName(const std::string& name) {
  const AlgorithmEntry* entry = findAlgorithm(name);
  SSVSP_CHECK_MSG(entry != nullptr, "unknown algorithm '" << name << "'");
  return *entry;
}

}  // namespace ssvsp
