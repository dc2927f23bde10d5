// Latency-degree analyzers (paper Section 5.2).
//
// For a uniform consensus algorithm A in system S tolerating t crashes, and
// |r| the number of rounds until all correct processes decide in run r:
//
//   lat(A)    = min |r| over ALL runs                      (Schiper [18])
//   lat(A, C) = min |r| over runs starting from config C
//   Lat(A)    = max over C of lat(A, C)
//   Lat(A, f) = max |r| over runs with at most f crashes
//   Lambda(A) = min over f of Lat(A, f) = Lat(A, 0)
//               (the worst failure-free run — Lat(A, f) is monotone in f)
//
// The analyzer computes all of these by exhaustive enumeration over the
// script space of src/mc crossed with all initial configurations over a
// value domain, or by seeded sampling for larger systems.  Exhaustive mode
// decides the paper's equalities (e.g. Lat(F_OptFloodSet) = 1) exactly for
// the checked parameters.
//
// Both modes run on the sweep driver shared with modelCheckConsensus
// (src/mc/sweep.hpp) over the parallel exploration engine
// (src/explore/parallel_sweep.hpp); profiles are bit-identical for every
// ExploreSpec::threads value because per-shard min/max accumulators reduce
// commutatively in stream order.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "consensus/registry.hpp"
#include "explore/spec.hpp"
#include "mc/enumerator.hpp"
#include "rounds/engine.hpp"

namespace ssvsp {

/// ExploreSpec plus the analyzer's sampling knobs.  The sweep fields
/// (`enumeration`, `valueDomain`, `seed`, `threads`, ...) are the
/// inherited ExploreSpec members; pre-ExploreSpec code that assigned them
/// directly keeps compiling unchanged.
struct LatencyOptions : ExploreSpec {
  bool exhaustive = true;
  /// Sampling mode: number of scripts drawn (seeded by ExploreSpec::seed).
  int samples = 2000;
};

struct LatencyProfile {
  Round lat = kNoRound;     ///< lat(A)
  Round latMax = kNoRound;  ///< Lat(A) = max_C lat(A, C)
  Round lambda = kNoRound;  ///< Lambda(A) = Lat(A, 0)
  /// Lat(A, f): worst |r| over runs with at most f crashes; kNoRound marks a
  /// termination failure (an "infinite" latency).
  std::map<int, Round> latByMaxCrashes;
  std::int64_t runsExecuted = 0;

  std::string toString() const;
};

/// The run space of `entry` at `cfg`, the one whose Lat(A, f) the paper
/// defines: horizon t + 2 (every algorithm in the registry decides by
/// t + 1; the slack round exposes post-decision traffic), crash budget t,
/// and — in RWS — the pending-lag menu {1, 0} that realises weak round
/// synchrony, cut after `maxScripts` scripts (-1 = the whole stream).  The
/// reduction facts come from resolveReduction.  The in-memory latency
/// sweeps and every campaign shard (src/campaign) derive their sweep here,
/// so "measured" means the same space everywhere.
ExploreSpec canonicalSweep(const AlgorithmEntry& entry, const RoundConfig& cfg,
                           Reduction reduction, std::int64_t maxScripts);

/// canonicalSweep for profiling `entry` at `cfg`: symmetry_por, and in RWS,
/// whose spaces explode, capped at 200000 scripts.  Shared by the latency
/// explorer, the benchmark tables and the static analyzer's measured
/// cross-check.
LatencyOptions canonicalLatencyOptions(const AlgorithmEntry& entry,
                                       const RoundConfig& cfg,
                                       bool exhaustive = true);

LatencyProfile measureLatency(const RoundAutomatonFactory& factory,
                              const RoundConfig& cfg, RoundModel model,
                              const LatencyOptions& options);

/// Convenience overload: exhaustive profile for a plain sweep description.
LatencyProfile measureLatency(const RoundAutomatonFactory& factory,
                              const RoundConfig& cfg, RoundModel model,
                              const ExploreSpec& spec);

}  // namespace ssvsp
