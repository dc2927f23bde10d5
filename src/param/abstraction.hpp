// The counting abstraction behind the parametric cutoff certifier.
//
// A concrete configuration of n processes is projected, at every round
// boundary, onto a multiset of PROCESS CLASSES — what a process's observable
// situation looks like with the identity erased:
//
//   * crashed processes: crash round, plus the profile of their still
//     in-flight pending messages (send round, arrival round, receiver count);
//   * alive processes: the payload they broadcast in the round just ended
//     (their estimate, read off the self-delivery the engine traces),
//     whether they have decided and on what, and their pending profile.
//
// Class counts are tracked exactly up to a saturation bound c0 and as
// "c0 or more" beyond — the classic (0, 1, .., c0, many) counter
// abstraction of parameterized verification (Tran-Konnov-Widder for failure
// detectors; Emerson-Kahlon cutoffs) — except crashed classes, which stay
// exact: there are at most t <= 2 of them and the crash budget is the f the
// closed forms are indexed by.  Every ingredient of a class key is
// independent of n (payloads are value lists over the canonical {0, 1}
// domain, rounds are bounded by the horizon t + 3, crash budgets by t), so
// abstract states at DIFFERENT n live in one space and can be compared:
// that comparison is the cutoff argument of src/param/certifier.hpp.
//
// The abstraction rides on the quotient interpreter of src/analysis
// (interpretAutomaton): schedule cells x canonical value configurations,
// executed concretely, observed per run.  The derived bound row of each
// size is therefore IDENTICAL to what ssvsp_analyze derives — the
// certificate's base cases and the analyzer's L400 discipline are one and
// the same numbers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "consensus/registry.hpp"

namespace ssvsp {
namespace param {

/// Derived quantities at one system size — one base-case row of a
/// certificate's window: the latency degrees at this n, plus the size of
/// the interpreted and abstracted spaces.
struct ParamWindowRow : LatencyDegrees {
  int n = 0;
  std::int64_t cells = 0;     ///< schedule cells interpreted
  std::int64_t runs = 0;      ///< cells x canonical configs
  std::int64_t states = 0;    ///< |abstract reach set|
  std::int64_t edges = 0;     ///< |abstract transition relation|

  friend bool operator==(const ParamWindowRow&,
                         const ParamWindowRow&) = default;
};

/// The structured facts the certifier's entailment checks consume, per
/// abstract state (keyed by the state's canonical string).
struct AbstractStateInfo {
  int f = 0;    ///< total crashes of the runs this state occurs in
  Round r = 0;  ///< round boundary (0 = initial configuration)
  /// Some CORRECT process (alive and not doomed to crash later in the run)
  /// has not decided — the fact the Lat(A, f) entailment checks consume.
  bool aliveUndecided = false;
};

/// The abstraction of one (algorithm, n): reach set, transition relation,
/// derived bounds, and the worst failure-free witness.
struct AbstractionResult {
  ParamWindowRow row;
  /// Reach set: canonical state strings (sorted by std::set).
  std::set<std::string> states;
  /// Transition relation: consecutive-boundary state pairs.
  std::set<std::pair<std::string, std::string>> edges;
  /// Per-state facts for the entailment checks.
  std::map<std::string, AbstractStateInfo> info;
  /// The worst failure-free run: how many 1s its initial configuration
  /// holds, and its latency — the Lambda witness the certificate records.
  int lambdaWitnessOnes = 0;
  Round lambdaWitnessLatency = kNoRound;
};

/// Folds interpreted runs into one AbstractionResult: each run is projected
/// onto its abstract state sequence (one state per round boundary) and
/// merged into the reach set, the transition relation, the per-state facts
/// and the Lambda witness.  Process classes, states and edges are interned
/// as integers; a class or state is rendered to its canonical string only
/// the first time it is seen, so the per-run work is hashing small binary
/// keys.  Exposed for the white-box tests; abstractInterpret runs it.
class AbstractionFold {
 public:
  /// countSaturation is clamped to >= 1.  `out` must outlive the fold and
  /// change only through it while the fold lives: the tables point into it.
  AbstractionFold(int countSaturation, AbstractionResult& out);
  ~AbstractionFold();
  AbstractionFold(const AbstractionFold&) = delete;
  AbstractionFold& operator=(const AbstractionFold&) = delete;

  void add(const RoundRunResult& run);

  /// Distinct process classes seen so far.
  std::int64_t classes() const;

 private:
  struct Tables;
  std::unique_ptr<Tables> tables_;
};

/// Interprets `entry` at system size n (resilience = the entry's canonical
/// t) and abstracts every run.  The row's bound quantities are exactly
/// interpretAutomaton's.
AbstractionResult abstractInterpret(const AlgorithmEntry& entry, int n,
                                    int countSaturation);

}  // namespace param
}  // namespace ssvsp
