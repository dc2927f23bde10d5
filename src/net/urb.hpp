// Uniform reliable broadcast over perfect links, gated by the failure
// detector (the fail-stop URB of Chandra & Toueg; the majority-ack variant
// the shilangyu stack uses is unavailable here because the harness runs at
// the paper's resilience t, which may reach n - 2 — no majority survives).
//
// Protocol: a broadcast (origin, seq, body) is relayed by every process on
// first receipt; a process delivers the message once every peer it does NOT
// currently suspect has been seen relaying it (ackers ∪ suspected ⊇ Π).
//
//   * Validity: a correct origin's relay reaches every correct process
//     through the perfect link; completeness eventually removes crashed
//     peers from the wait set.
//   * Uniform agreement: if ANY process delivers m, every unsuspected peer
//     had relayed m; with an accurate detector those peers are correct, and
//     their relays reach every correct process, which therefore also
//     reaches the delivery condition.  A mistimed suspicion (premature
//     timeout) is exactly the hole through which uniformity can be lost —
//     observable by the harness, which is the point of the timeout knobs.
//   * No duplication / no creation: inherited from PerfectLink plus the
//     per-(origin, seq) delivered flag.
//
// The suspicion input comes from the owner (the node loop pushes its
// heartbeat monitor's current set via updateSuspected) so this layer stays
// transport-pure and unit-testable with scripted suspicion sets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "util/process_set.hpp"

namespace ssvsp::net {

/// First byte of every PerfectLink payload: the channel above the link the
/// message belongs to.
enum class ChannelKind : std::uint8_t {
  kRound = 1,  ///< RwsFromSpDriver round message
  kUrb = 2,    ///< UniformReliableBroadcast relay
  kDone = 3,   ///< NetNode exit handshake: this one byte, nothing else
};

struct UrbStats {
  std::int64_t broadcasts = 0;
  std::int64_t relays = 0;     ///< relay fan-outs sent (messages, not peers)
  std::int64_t delivered = 0;
};

class UniformReliableBroadcast {
 public:
  UniformReliableBroadcast(PerfectLink& link, ProcessId self, int n);

  /// urb-broadcasts `body` (opaque bytes).  The local copy is acked
  /// immediately; delivery still waits for the uniformity condition.
  void broadcast(std::string_view body);

  /// Feeds one link delivery into the broadcast layer.  Returns true if
  /// the payload was URB traffic (consumed); false means the caller owns
  /// it (round messages).
  bool onPayload(ProcessId from, std::string_view payload);

  /// Pushes the failure detector's current suspicion set and re-evaluates
  /// pending messages against it.
  void updateSuspected(ProcessSet suspected);

  struct Delivery {
    ProcessId origin;
    std::uint64_t seq;
    std::string body;
  };

  /// Moves out everything urb-delivered since the last drain, in delivery
  /// order.
  std::vector<Delivery> drainDeliveries();

  const UrbStats& stats() const { return stats_; }

 private:
  struct Pending {
    std::string body;
    ProcessSet ackers;
    bool haveBody = false;
    bool relayed = false;
    bool delivered = false;
  };
  using MsgId = std::pair<ProcessId, std::uint64_t>;  ///< (origin, seq)

  void relay(const MsgId& id, Pending& p);
  void maybeDeliver(const MsgId& id, Pending& p);

  PerfectLink& link_;
  ProcessId self_;
  int n_;
  std::uint64_t nextSeq_ = 1;
  ProcessSet suspected_;
  std::map<MsgId, Pending> pending_;
  std::vector<Delivery> deliveries_;
  UrbStats stats_;
};

}  // namespace ssvsp::net
