// The §4.2 receive rule, shared by both RWS-on-SP substrates.
//
// "The reception of messages in round r is done as follows in SP: process
//  p_i keeps executing (possibly null) steps of model SP until, for every
//  process p_j, either p_i receives a message from p_j or p_i suspects p_j."
//
// RoundBuffer is that rule, owned once.  The step-level simulator
// (RwsEmulator) and the real-transport driver (net::RwsFromSpDriver) both
// store their round-message arrivals here, ask ready() whether the guard
// holds, and consume() a round's messages from it.  Lemma 4.1 — every
// finished execution is an RWS run — therefore rests on the same code on
// both substrates.  Framing stays with each caller: the simulator exchanges
// Payload words, the wire ChannelKind frames.
//
// The buffer keeps one slot per (round, sender) for rounds 1..maxRounds.  A
// slot is empty (nothing arrived), held (a message arrived; a bodiless one
// is the null message, heard all the same), or consumed.  store() keeps the
// first copy of a slot: a second frame for a held or consumed slot is a
// duplicate.  A frame outside [1, maxRounds] can never be consumed and is
// rejected, which bounds the buffer to maxRounds rounds.  A frame for an
// EMPTY slot of a finished round is not stale: its sender was suspected in
// that round, and the message surfaces late — the RWS pending semantics.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <vector>

#include "util/process_set.hpp"
#include "util/serde.hpp"
#include "util/types.hpp"

namespace ssvsp {

class RoundBuffer {
 public:
  enum class Stored { kNew, kDuplicate, kRejected };

  RoundBuffer(int n, Round maxRounds);

  /// Buffers `sender`'s round-`round` message; a nullopt body is the null
  /// message.  Rejects a round outside [1, maxRounds] or a sender outside
  /// [0, n); keeps the first copy of a (round, sender) slot.
  Stored store(Round round, ProcessId sender, std::optional<Payload> body);

  /// The guard of round `round`: for every process, a consumable message
  /// (one held for any round <= `round`) or a suspicion.
  bool ready(Round round, ProcessSet suspected) const;

  /// Consumes one message per sender, its oldest held round <= `round`
  /// first (FIFO: a late pending message surfaces before a fresher one),
  /// and returns the senders heard.  received() then holds the bodies by
  /// sender; nullopt = the null message or no message.
  ProcessSet consume(Round round);
  const std::vector<std::optional<Payload>>& received() const {
    return received_;
  }

  /// Messages consumed in a later round than the one they were sent in.
  std::int64_t lateDeliveries() const { return lateDeliveries_; }

 private:
  enum class State : std::uint8_t { kEmpty, kNull, kBody, kConsumed };
  struct Slot {
    State state = State::kEmpty;
    Payload body;
    bool held() const {
      return state == State::kNull || state == State::kBody;
    }
  };

  /// Sender q's oldest held round <= `round`, or kNoRound.
  Round oldest(ProcessId q, Round round) const;
  /// Rounds present in slots_ (grown on demand, up to maxRounds).
  Round roundsStored() const {
    return static_cast<Round>(slots_.size() / static_cast<std::size_t>(n_));
  }
  std::size_t index(Round round, ProcessId q) const {
    return static_cast<std::size_t>(round - 1) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(q);
  }

  int n_;
  Round maxRounds_;
  std::vector<Slot> slots_;  ///< index (round - 1) * n + sender
  Round first_ = 1;          ///< rounds below it hold no message
  std::vector<std::optional<Payload>> received_;
  std::int64_t lateDeliveries_ = 0;
};

}  // namespace ssvsp
