// Run traces: the executable counterpart of the paper's runs <F, C0, S, T>.
//
// The executor records every step it performs; checkers (synchrony, failure
// detector axioms, problem specifications) and the Theorem 3.1 driver then
// work on the trace rather than on live simulator state.  Two traces can be
// compared for indistinguishability from one process's viewpoint, which is
// exactly the relation used in the paper's impossibility proof.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/failure_pattern.hpp"
#include "runtime/message.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace ssvsp {

/// One executed step of the schedule S, together with its time in T and
/// everything the process observed and did.
struct StepRecord {
  std::int64_t globalStep = 0;  ///< 1-based index in the schedule S.
  Time time = 0;                ///< Entry of the time list T for this step.
  ProcessId pid = kNoProcess;
  std::int64_t localStep = 0;   ///< 1-based step count of `pid`.
  std::vector<Envelope> delivered;
  ProcessSet suspected;         ///< Failure-detector output (H(pid, time)).
  std::optional<Envelope> sent;
  std::optional<Value> outputAfter;  ///< Decision visible after the step.
};

class RunTrace {
 public:
  RunTrace(int n, FailurePattern pattern)
      : n_(n), pattern_(std::move(pattern)) {}

  int n() const { return n_; }
  const FailurePattern& pattern() const { return pattern_; }

  void append(StepRecord rec) { steps_.push_back(std::move(rec)); }
  const std::vector<StepRecord>& steps() const { return steps_; }
  std::int64_t numSteps() const {
    return static_cast<std::int64_t>(steps_.size());
  }

  /// The subsequence S_i of steps taken by process p.
  std::vector<StepRecord> stepsOf(ProcessId p) const;

  /// Number of steps taken by p.
  std::int64_t stepCount(ProcessId p) const;

  /// The "local view" of process p: for each of p's steps, the payloads it
  /// received (with senders), the suspicion set, and what it sent.  Two runs
  /// are indistinguishable to p up to step k iff their local views agree on
  /// the first k entries — the relation used in Theorem 3.1.
  struct LocalStepView {
    std::vector<std::pair<ProcessId, Payload>> received;
    ProcessSet suspected;
    std::optional<std::pair<ProcessId, Payload>> sent;
  };
  std::vector<LocalStepView> localView(ProcessId p) const;

  /// First global step index at which p's recorded output becomes a value,
  /// or nullopt if p never decides in this trace.
  std::optional<std::int64_t> decisionStep(ProcessId p) const;

  /// p's decision in this trace, if any.
  std::optional<Value> decision(ProcessId p) const;

  /// Sequence numbers of messages sent but never delivered in this trace.
  std::vector<std::int64_t> undeliveredSeqs() const;

  /// Multi-line rendering for diagnostics.
  std::string toString() const;

 private:
  int n_;
  FailurePattern pattern_;
  std::vector<StepRecord> steps_;
};

/// True iff the local views of p agree in r1 and r2 for the first k local
/// steps of p (k = min(steps of p in r1, r2) when k < 0).
bool indistinguishableTo(ProcessId p, const RunTrace& r1, const RunTrace& r2,
                         std::int64_t k = -1);

}  // namespace ssvsp
