// NetNode: one OS process of the real-transport backend.
//
// A node owns the whole per-process stack — UDP socket, PerfectLink, URB,
// HeartbeatMonitor, RwsFromSpDriver — and turns them with a single-threaded
// event loop.  Two ways to turn it:
//
//   * step(): one non-blocking iteration (ingest datagrams, refresh the
//     suspicion set, advance the emulation, heartbeat, pump the link).
//     Tests run n nodes in ONE process by round-robining step() against a
//     FakeClock — fully deterministic, no sockets raced.
//
//   * run(): the production loop — step() + waitReadable() until the node
//     exits (or its crash plan halts it, or the deadline passes).
//
// Termination: nodes must keep executing rounds after deciding (a decided
// node that went silent would stall every peer's receive guard, since an
// accurate P never suspects the living).  So every node runs exactly
// maxRounds rounds; when it decides it urb-broadcasts a DECIDED record, and
// it is DONE once it has finished its rounds and urb-delivered a DECIDED
// from every peer it does not suspect.  URB's uniformity makes that safe:
// any decision this node saw will be seen by every correct peer.
//
// Exit: at the done instant the node freezes its report and sends a
// one-byte DONE link message (ChannelKind::kDone) to every peer.  It keeps
// serving as step() does — ingest, ack, relay URB, heartbeat, pump the
// link — and exits once every peer has announced DONE or is suspected.
//
//   * Safe: a peer that announced DONE has finished its rounds and has
//     delivered every DECIDED it was waiting for, so it needs nothing more
//     from this node; under an accurate P a suspected peer has crashed.  A
//     node never falls silent on a live, unfinished peer, which could
//     otherwise time it out and suspect a correct process.
//   * Terminates: the link retransmits a DONE until it is acked or its
//     sender exits, and a sender exits only once every peer is DONE or
//     suspected.  A DONE can therefore go missing only when its sender left
//     after the receiver was already done (datagram loss); that receiver
//     then exits by suspicion within one FD timeout.
//   * The report describes the done instant: a suspicion raised while the
//     node waits (say, of a peer that exited first) is not a verdict on
//     the run and must not read as an accuracy violation.
//
// Control plane: if a control endpoint is configured, the node sends tiny
// unreliable kProgress datagrams (decided / halted / done).  The launch
// harness uses `halted` as its cue to SIGKILL a scripted-crash node; all
// real results travel through report files, not the control plane.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/driver.hpp"
#include "net/heartbeat.hpp"
#include "net/urb.hpp"

namespace ssvsp::net {

/// Second byte of a kProgress control datagram.
enum class ProgressKind : std::uint8_t {
  kDecided = 1,
  kHalted = 2,
  kDone = 3,
};

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
  UrbStats urb;
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
  Endpoint control;            ///< port 0 = no control plane
};

class NetNode {
 public:
  enum class Status : std::uint8_t {
    kRunning,
    kHalted,  ///< crash plan executed; the process must now fall silent
    kDone,    ///< rounds finished and every unsuspected peer decided; the
              ///< report is frozen, the node serves peers until kExited
    kExited,  ///< done, and every peer announced DONE or is suspected
  };

  /// `transport` must already be bound (or adopted) with its peer table
  /// set; `clock` outlives the node.
  NetNode(UdpTransport& transport, std::unique_ptr<RoundAutomaton> automaton,
          const NodeOptions& options, NetClock& clock);

  /// One event-loop iteration.  Safe to call after kHalted/kExited (no-op
  /// returning the same status) so drivers can loop uniformly.
  Status step();

  /// The production event loop; returns the final report.  On kHalted the
  /// loop keeps emitting `halted` control pings while awaiting the
  /// harness's SIGKILL, bounded by the deadline.
  NodeReport run();

  /// Snapshot of the report as of now (tests read this mid-run); from the
  /// done instant on, the report frozen then.
  NodeReport report() const;

  Status status() const { return status_; }
  const RwsFromSpDriver& driver() const { return driver_; }
  HeartbeatMonitor& monitor() { return monitor_; }
  UniformReliableBroadcast& urb() { return urb_; }
  PerfectLink& link() { return link_; }
  /// Peers whose DECIDED this node has urb-delivered.
  ProcessSet decidedPeers() const { return decided_; }
  /// Decision value urb-delivered from `q` (kUndecided if none yet).
  Value peerDecision(ProcessId q) const;
  /// Peers whose DONE this node has received.
  ProcessSet donePeers() const { return donePeers_; }

 private:
  void sendControl(ProgressKind kind, std::int32_t arg);
  void broadcastHeartbeat();
  void becomeDone(NetTime now);

  UdpTransport& transport_;
  NetClock& clock_;
  NodeOptions options_;
  PerfectLink link_;
  UniformReliableBroadcast urb_;
  HeartbeatMonitor monitor_;
  RwsFromSpDriver driver_;
  Status status_ = Status::kRunning;
  bool decideAnnounced_ = false;
  bool timedOut_ = false;
  ProcessSet decided_;
  ProcessSet donePeers_;
  std::vector<Value> peerDecisions_;
  NetTime startedAt_ = 0;
  std::optional<NetTime> endedAt_;  ///< done, halt or timeout instant
  std::optional<NodeReport> frozen_;  ///< the report as of kDone
};

}  // namespace ssvsp::net
