// PerfectLink: reliable point-to-point messaging over lossy datagrams.
//
// The paper's models assume reliable channels; on a real network that
// guarantee has to be manufactured.  PerfectLink implements the classic
// perfect-links abstraction (validity / no duplication / no creation) over
// any Transport with a stop-and-wait-window protocol:
//
//   * every message gets a per-(sender, receiver) sequence number;
//   * at most `window` messages per peer are in flight; the rest wait in a
//     FIFO send queue (the application-level congestion control the
//     shilangyu stack leaves to the caller — here it IS the caller);
//   * unacked messages are retransmitted with exponential backoff
//     (rtoMs * 2^k, capped), driven by pump(now);
//   * a transport kWouldBlock (EAGAIN / ENOBUFS) leaves the datagram
//     queued/in-flight and stops draining until the next pump — congestion
//     never drops a message, it only delays it;
//   * receivers ack every data datagram (acks are unreliable; a lost ack
//     just costs a retransmission) and deduplicate through a per-peer
//     delivered-watermark + above-watermark set, which stays bounded by
//     the sender's window.
//
// Deliveries are handed to the owner through drainDeliveries() so the node
// event loop controls reentrancy.  Single-threaded by design: one node owns
// one link and pumps it from its own loop.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "net/clock.hpp"
#include "net/transport.hpp"
#include "util/types.hpp"

namespace ssvsp::net {

/// Outer datagram kinds, shared by every layer that puts bytes on the wire.
/// One byte, first in every datagram.
enum class WireKind : std::uint8_t {
  kData = 1,       ///< PerfectLink data: src u32 | seq u64 | payload bytes
  kAck = 2,        ///< PerfectLink ack:  src u32 | seq u64
  kHeartbeat = 3,  ///< raw FD heartbeat: src u32 (not link-mediated)
};

/// First byte of every PerfectLink payload: the channel above the link the
/// message belongs to.
enum class ChannelKind : std::uint8_t {
  kRound = 1,  ///< RwsFromSpDriver round message
  kDone = 3,   ///< NetNode exit handshake: this one byte, nothing else
};

struct LinkStats {
  std::int64_t sent = 0;           ///< distinct messages accepted for send
  std::int64_t dataDatagrams = 0;  ///< data datagrams put on the wire
  std::int64_t retransmits = 0;    ///< dataDatagrams beyond first attempts
  std::int64_t acksSent = 0;
  std::int64_t acksReceived = 0;   ///< acks matching an in-flight message
  std::int64_t delivered = 0;      ///< messages handed up (post-dedup)
  std::int64_t duplicatesDropped = 0;
  std::int64_t wouldBlocks = 0;    ///< sends deferred by transport pushback
};

struct LinkOptions {
  int window = 32;        ///< max in-flight messages per peer
  NetTime rtoMs = 20;     ///< initial retransmission timeout
  NetTime rtoMaxMs = 500; ///< backoff cap
};

class PerfectLink {
 public:
  /// `self` stamps outgoing data datagrams; `n` sizes the per-peer state.
  PerfectLink(Transport& transport, ProcessId self, int n,
              const LinkOptions& options = {});

  /// Queues `payload` for reliable delivery to `dst` (!= self; local
  /// loopback is the caller's business).  Never blocks, never drops.
  void send(ProcessId dst, std::string_view payload);

  /// Feeds one received datagram into the link.  Returns true if the
  /// datagram was link traffic (data or ack); false means the caller owns
  /// it (heartbeats, control traffic).
  bool onDatagram(ProcessId from, std::string_view bytes, NetTime now);

  /// Drives retransmission and drains the send queues.  Call frequently
  /// (every event-loop iteration).
  void pump(NetTime now);

  /// A delivered message: who sent it and its payload bytes.
  struct Delivery {
    ProcessId src;
    std::string payload;
  };

  /// Moves out every message delivered since the last drain, in per-peer
  /// FIFO order of first receipt.
  std::vector<Delivery> drainDeliveries();

  /// True when nothing is queued or in flight towards anyone.
  bool quiescent() const;

  const LinkStats& stats() const { return stats_; }
  int window() const { return options_.window; }

 private:
  struct InFlight {
    std::uint64_t seq;
    std::string datagram;  ///< fully framed, ready to resend
    NetTime nextSendAt;    ///< 0 = not yet sent once
    NetTime rto;
  };
  struct PeerTx {
    std::uint64_t nextSeq = 1;
    std::deque<InFlight> inFlight;     ///< window-bounded, seq ascending
    std::deque<std::string> queued;    ///< framed datagrams awaiting window
  };
  struct PeerRx {
    std::uint64_t deliveredBelow = 1;  ///< all seq < this delivered
    std::set<std::uint64_t> aboveWatermark;
  };

  void pumpPeer(ProcessId dst, PeerTx& tx, NetTime now);

  Transport& transport_;
  ProcessId self_;
  int n_;
  LinkOptions options_;
  std::vector<PeerTx> tx_;
  std::vector<PeerRx> rx_;
  std::vector<Delivery> deliveries_;
  LinkStats stats_;
};

}  // namespace ssvsp::net
