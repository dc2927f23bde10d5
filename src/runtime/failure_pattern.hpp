// Failure patterns (paper Section 2.1).
//
// A failure pattern F is a function from T to 2^Pi where F(t) is the set of
// processes that have crashed by time t, monotone in t (no recovery).  We
// represent it compactly by each process's crash time.
#pragma once

#include <vector>

#include "util/process_set.hpp"
#include "util/types.hpp"

namespace ssvsp {

class FailurePattern {
 public:
  /// Pattern over n processes with no crashes.
  explicit FailurePattern(int n);

  /// The failure-free pattern.
  static FailurePattern noFailures(int n) { return FailurePattern(n); }

  int n() const { return static_cast<int>(crashTime_.size()); }

  /// Declares that p crashes at time t (p takes no step at time >= t).
  /// A process may be re-declared only with the same or an earlier time.
  void setCrash(ProcessId p, Time t);

  /// Crash time of p, kNever if p is correct.
  Time crashTime(ProcessId p) const;

  /// F(t): processes crashed by time t.
  ProcessSet crashedBy(Time t) const;

  bool alive(ProcessId p, Time t) const { return crashTime(p) > t; }

  /// Faulty(F) = union over t of F(t).
  ProcessSet faulty() const;

  /// Correct(F) = Pi \ Faulty(F).
  ProcessSet correct() const;

  /// A process "initially dead" in the paper's sense: it crashes before
  /// taking any step, i.e. its crash time is <= the first schedule time (1).
  bool initiallyDead(ProcessId p) const { return crashTime(p) <= 1; }

 private:
  void checkId(ProcessId p) const;

  std::vector<Time> crashTime_;
};

}  // namespace ssvsp
