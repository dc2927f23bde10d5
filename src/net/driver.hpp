// RwsFromSpDriver: the paper's §4.2 emulation, run over real transport.
//
// "Keep executing steps of SP until, for every p_j, a message from p_j or a
// suspicion of p_j" is RoundBuffer (src/emul/round_buffer.hpp), the one
// receive guard the step-level simulator's RwsEmulator runs too: the same
// keep-first store, the same oldest-first FIFO consumption of late
// (pending) messages.  Here the SP primitives are realized by the transport
// stack: reliable channels by PerfectLink, the failure detector by
// HeartbeatMonitor, and "pending" messages arise from genuine network
// scheduling instead of an adversary script.  The inner RoundAutomaton is
// UNMODIFIED registry code; Lemma 4.1 carries over, so every finished
// execution is an RWS run and the analyzer's Lat(A, f) bounds apply to the
// observed decision rounds (the closed loop the replay harness checks).
//
// Scripted crashes: a CrashPlan makes the driver halt DURING a scripted
// round after sending that round's messages to exactly the scripted
// subset; the node then stops at once (no heartbeats, no acks) and the
// launch harness's child SIGKILLs its own process.  The process death is
// real; the plan only positions it within the round structure so
// scenarios/ scripts replay with their exact crash rounds and partial
// broadcasts.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "emul/round_buffer.hpp"
#include "net/link.hpp"
#include "rounds/round_automaton.hpp"
#include "util/process_set.hpp"

namespace ssvsp::net {

/// Halt during `round`, delivering that round's broadcast to exactly
/// `sendTo` (the FailureScript::CrashEvent vocabulary).
struct CrashPlan {
  Round round = kNoRound;  ///< kNoRound = never crash
  ProcessSet sendTo;
};

class RwsFromSpDriver {
 public:
  RwsFromSpDriver(std::unique_ptr<RoundAutomaton> inner, RoundConfig cfg,
                  ProcessId self, Value initial, Round maxRounds,
                  PerfectLink& link, CrashPlan plan = {});

  /// Feeds one link delivery.  Returns true if it was a round message
  /// (consumed); false hands it back (the node's DONE messages).
  bool onPayload(ProcessId from, std::string_view payload);

  /// Runs the emulation forward as far as the receive guard allows under
  /// the current suspicion set: sends the current round's messages if not
  /// yet sent, then completes every round whose guard is satisfied.
  /// Returns the number of rounds completed by this call.
  int advance(ProcessSet suspected);

  /// Crash plan reached: the node must fall silent and await its SIGKILL.
  bool halted() const { return halted_; }

  /// Rounds fully executed (transition applied).
  Round roundsCompleted() const { return roundsCompleted_; }

  /// True once maxRounds rounds completed (the emulation's horizon).
  bool finished() const { return roundsCompleted_ >= maxRounds_; }

  std::optional<Value> decision() const { return inner_->decision(); }
  /// Round in which the decision was first observed; kNoRound if none.
  Round decisionRound() const { return decisionRound_; }

  /// Senders heard (message consumed) per completed round — the Lemma 4.1
  /// raw material, exported into node reports as masks.
  const std::vector<ProcessSet>& heardPerRound() const {
    return heardPerRound_;
  }

  /// Messages consumed from a round older than the one they surfaced in —
  /// real-network "pending" deliveries, the RWS signature.
  std::int64_t lateDeliveries() const { return buffer_.lateDeliveries(); }

  const RoundAutomaton& inner() const { return *inner_; }

 private:
  void sendRound(Round round, ProcessSet dsts);

  std::unique_ptr<RoundAutomaton> inner_;
  RoundConfig cfg_;
  ProcessId self_;
  Round maxRounds_;
  PerfectLink& link_;
  CrashPlan plan_;

  Round roundsCompleted_ = 0;
  bool sentThisRound_ = false;
  bool halted_ = false;
  Round decisionRound_ = kNoRound;
  RoundBuffer buffer_;  ///< the receive guard, shared with the simulator
  std::vector<ProcessSet> heardPerRound_;
};

}  // namespace ssvsp::net
