// NetNode: one OS process of the real-transport backend.
//
// A node owns the whole per-process stack — UDP socket, PerfectLink,
// HeartbeatMonitor, RwsFromSpDriver — and turns them with a single-threaded
// event loop.  Two ways to turn it:
//
//   * step(): one non-blocking iteration (ingest datagrams, refresh the
//     suspicion set, advance the emulation, heartbeat, pump the link).
//     Tests run n nodes in ONE process by round-robining step() against a
//     FakeClock — fully deterministic, no sockets raced.
//
//   * run(): the production loop — step() + waitReadable() until the node
//     exits (or its crash plan halts it, or the deadline passes).  A node
//     halted by its crash plan returns at once; the launch harness's child
//     then SIGKILLs itself, so the crash is a real process death.
//
// Termination: nodes must keep executing rounds after deciding (a decided
// node that went silent would stall every peer's receive guard, since an
// accurate P never suspects the living).  So every node runs exactly
// maxRounds rounds, and it is DONE as soon as its driver has run them,
// decided or not: a node whose automaton never decided reports so, and the
// harness judges the report.
//
// Exit: at the done instant the node freezes its report and sends a
// one-byte DONE link message (ChannelKind::kDone) to every peer.  It keeps
// serving as step() does — ingest, ack, heartbeat, pump the link — and
// exits once every peer has announced DONE or is suspected.
//
//   * Safe: a peer that announced DONE has finished its rounds, so it
//     needs nothing more from this node; under an accurate P a suspected
//     peer has crashed.  A node never falls silent on a live, unfinished
//     peer, which could otherwise time it out and suspect a correct
//     process.
//   * Terminates: the link retransmits a DONE until it is acked or its
//     sender exits, and a sender exits only once every peer is DONE or
//     suspected.  A DONE can therefore go missing only when its sender left
//     after the receiver was already done (datagram loss); that receiver
//     then exits by suspicion within one FD timeout.
//   * The report describes the done instant: a suspicion raised while the
//     node waits (say, of a peer that exited first) is not a verdict on
//     the run and must not read as an accuracy violation.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/driver.hpp"
#include "net/heartbeat.hpp"

namespace ssvsp::net {

/// Everything a node knows about its own execution, serialized to JSON for
/// the harness (schema ssvsp.report.v1, kind "net.node").
struct NodeReport {
  ProcessId node = kNoProcess;
  std::string algo;
  int n = 0;
  int t = 0;
  bool decided = false;
  Value decision = kUndecided;
  Round decisionRound = kNoRound;
  Round roundsCompleted = 0;
  std::int64_t lateDeliveries = 0;
  bool halted = false;
  bool timedOut = false;
  std::uint64_t suspectedFinal = 0;          ///< ProcessSet mask at done/halt
  std::vector<std::uint64_t> heardMasks;     ///< per round, Lemma 4.1 data
  LinkStats link;
  HeartbeatStats fd;
  std::int64_t wallMs = 0;

  std::string toJson() const;
  static bool fromJson(const std::string& text, NodeReport* out,
                       std::string* error);
};

struct NodeOptions {
  ProcessId self = kNoProcess;
  RoundConfig cfg;
  Value initial = 0;
  Round maxRounds = 0;  ///< 0 = derive t + 2
  std::string algo;     ///< registry name, echoed into the report
  CrashPlan crashPlan;
  LinkOptions link;
  HeartbeatOptions heartbeat;
  NetTime deadlineMs = 30000;  ///< run(): hard wall-clock stop (timedOut)
};

class NetNode {
 public:
  enum class Status : std::uint8_t {
    kRunning,
    kHalted,  ///< crash plan executed; the process must now die
    kDone,    ///< rounds finished; the report is frozen, the node serves
              ///< peers until kExited
    kExited,  ///< done, and every peer announced DONE or is suspected
  };

  /// `transport` must already be bound (or adopted) with its peer table
  /// set; `clock` outlives the node.
  NetNode(UdpTransport& transport, std::unique_ptr<RoundAutomaton> automaton,
          const NodeOptions& options, NetClock& clock);

  /// One event-loop iteration.  Safe to call after kHalted/kExited (no-op
  /// returning the same status) so drivers can loop uniformly.
  Status step();

  /// The production event loop; returns the final report, at once when
  /// the crash plan halts the node (kHalted), after its partial broadcast
  /// is on the wire.
  NodeReport run();

  /// Snapshot of the report as of now (tests read this mid-run); from the
  /// done instant on, the report frozen then.
  NodeReport report() const;

  Status status() const { return status_; }
  HeartbeatMonitor& monitor() { return monitor_; }
  /// Peers whose DONE this node has received.
  ProcessSet donePeers() const { return donePeers_; }

 private:
  void broadcastHeartbeat();
  void becomeDone(NetTime now);

  UdpTransport& transport_;
  NetClock& clock_;
  NodeOptions options_;
  PerfectLink link_;
  HeartbeatMonitor monitor_;
  RwsFromSpDriver driver_;
  Status status_ = Status::kRunning;
  bool timedOut_ = false;
  ProcessSet donePeers_;
  NetTime startedAt_ = 0;
  std::optional<NetTime> endedAt_;  ///< done, halt or timeout instant
  std::optional<NodeReport> frozen_;  ///< the report as of kDone
};

}  // namespace ssvsp::net
