// Non-blocking atomic commit on top of the round models (paper Section 3).
//
// The paper motivates SDD through atomic commit: in SS, "when all processes
// propose to commit and there is no initially dead process, processes may
// safely decide to commit despite failures".  The mechanism is bounded
// failure detection — in RS, silence in round 1 PROVES the vote was never
// sent, while in RWS a silent vote may merely be pending, and a protocol
// that must stay safe is forced to abort in strictly more runs.
//
// CommitFlood is a FloodSet-style vote-flooding protocol:
//   * every process broadcasts the vector of votes it knows for t+1 rounds;
//   * at the end of round t+1 it decides Commit iff it knows ALL n votes and
//     every one of them is Yes, otherwise Abort.
// The RS variant needs no halt set; the RWS variant (useHaltSet = true)
// ignores senders that were once silent, like FloodSetWS, to keep uniform
// agreement under pending messages.
//
// bench_commit_rate (experiment E8) runs both under matched adversary
// distributions and shows the RS protocol reaching Commit strictly more
// often — the paper's efficiency claim for atomic commit, quantified.
#pragma once

#include <optional>
#include <vector>

#include "rounds/engine.hpp"
#include "rounds/round_automaton.hpp"
#include "util/process_set.hpp"

namespace ssvsp {

/// Vote and decision encodings (these double as engine Values).
inline constexpr Value kVoteNo = 0;
inline constexpr Value kVoteYes = 1;
inline constexpr Value kDecideAbort = 0;
inline constexpr Value kDecideCommit = 1;

class CommitFlood : public RoundAutomaton {
 public:
  explicit CommitFlood(bool useHaltSet) : useHaltSet_(useHaltSet) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  std::optional<Payload> messageFor(ProcessId dst) const override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::optional<Value> decision() const override { return decision_; }
  std::string describeState() const override;

 private:
  bool useHaltSet_;
  ProcessId self_ = kNoProcess;
  RoundConfig cfg_;
  int rounds_ = 0;
  std::vector<Value> known_;  ///< known_[p] = p's vote, kUndecided if unknown
  ProcessSet halt_;
  std::optional<Value> decision_;
};

RoundAutomatonFactory makeCommitRs();   ///< for the RS model
RoundAutomatonFactory makeCommitRws();  ///< halt-set variant for RWS

struct NbacVerdict {
  bool agreement = true;
  bool commitValidity = true;  ///< Commit => every process voted Yes
  bool abortValidity = true;   ///< Abort  => a No vote or a failure occurred
  bool termination = true;
  std::string witness;
  bool ok() const {
    return agreement && commitValidity && abortValidity && termination;
  }
};

/// Checks the (uniform) NBAC specification on a finished run whose initial
/// values were the votes.
NbacVerdict checkNbac(const RoundRunResult& run);

}  // namespace ssvsp
