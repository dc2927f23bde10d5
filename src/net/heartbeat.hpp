// Timeout-based failure detection: P and ◇P from heartbeats and timers.
//
// Everywhere else in this library the failure detector is an ORACLE — a
// history generator parameterized by the failure pattern (src/fd).  Here it
// is a PROGRAM: each node broadcasts a heartbeat every `periodMs` and
// suspects any peer silent for `timeoutMs`.  Whether that program actually
// implements P is a bet on the network:
//
//   * kPerfect — suspicion is STICKY: once a peer times out it stays
//     suspected forever, exactly P's "suspicion is crash evidence"
//     semantics.  The implementation is a correct P iff timeoutMs exceeds
//     the worst heartbeat gap (period + delivery delay + scheduling
//     jitter); a mistimed suspicion of a live peer is an accuracy
//     violation that the harness can OBSERVE (weak-synchrony breaks,
//     uniform agreement can be lost) — which is why the timeout is a knob
//     and not a constant.
//
//   * kEventuallyPerfect — the Kumar–Welch-style adaptive variant: a
//     heartbeat from a currently-suspected peer refutes the suspicion and
//     grows that peer's timeout by timeoutIncrementMs, so after finitely
//     many mistakes the timeout exceeds the real bound and accuracy holds
//     eventually (◇P on channels whose delays are bounded but unknown).
//
// HeartbeatHistory bridges the live module back to the oracle world: it
// records (observer, time) -> suspicion-set samples during a run and
// serves them through FailureDetectorSource, so the finite-horizon axiom
// checkers of src/fd (checkStrongAccuracy, checkStrongCompleteness,
// checkEventualStrongAccuracy) judge a recorded real execution with the
// same code that judges the simulated oracles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/clock.hpp"
#include "net/link.hpp"
#include "runtime/executor.hpp"
#include "util/process_set.hpp"

namespace ssvsp::net {

enum class FdMode : std::uint8_t {
  kPerfect,            ///< sticky suspicion, fixed timeout
  kEventuallyPerfect,  ///< refutable suspicion, adaptive timeout
};

std::string toString(FdMode mode);

struct HeartbeatOptions {
  NetTime periodMs = 20;    ///< heartbeat broadcast period
  NetTime timeoutMs = 200;  ///< initial silence threshold
  FdMode mode = FdMode::kPerfect;
  NetTime timeoutIncrementMs = 100;  ///< ◇P: growth per refuted suspicion
};

struct HeartbeatStats {
  std::int64_t heartbeatsSent = 0;
  std::int64_t heartbeatsReceived = 0;
  std::int64_t suspicions = 0;   ///< transitions alive -> suspected
  std::int64_t refutations = 0;  ///< ◇P: suspected -> alive
};

class HeartbeatMonitor {
 public:
  /// Peers start in a grace period: "last heard" is initialized to the
  /// construction-time `now`, so nothing is suspected before timeoutMs of
  /// genuine silence.
  HeartbeatMonitor(ProcessId self, int n, const HeartbeatOptions& options,
                   NetTime now);

  /// True once per period: time to put a heartbeat on the wire.  The
  /// caller sends heartbeatFrame() to every peer (raw datagrams — the
  /// detector must not depend on the reliable layer it helps unblock).
  bool heartbeatDue(NetTime now);

  /// The framed heartbeat datagram (WireKind::kHeartbeat | self).
  std::string heartbeatFrame() const;

  /// Feeds one received heartbeat.  Returns false if `bytes` is not a
  /// heartbeat datagram (caller keeps it).
  bool onDatagram(ProcessId from, std::string_view bytes, NetTime now);

  /// H(self, now): the current suspicion set.  Recomputed from timers, so
  /// call it with a fresh `now` each loop.
  ProcessSet suspected(NetTime now);

  const HeartbeatStats& stats() const { return stats_; }
  const HeartbeatOptions& options() const { return options_; }
  /// ◇P: the adapted timeout currently applied to `p`.
  NetTime timeoutFor(ProcessId p) const;

 private:
  ProcessId self_;
  int n_;
  HeartbeatOptions options_;
  NetTime lastBeatAt_;
  std::vector<NetTime> lastHeard_;
  std::vector<NetTime> timeout_;   ///< per-peer (◇P adapts them)
  ProcessSet suspected_;
  HeartbeatStats stats_;
};

/// Recorded suspicion histories, sampled from live monitors, replayed
/// through the oracle interface of src/fd so the axiom checkers apply
/// verbatim.  suspectedAt(p, t) returns p's most recent sample at or before
/// t (empty before the first sample).
class HeartbeatHistory : public FailureDetectorSource {
 public:
  explicit HeartbeatHistory(int n) : n_(n) {}

  void sample(ProcessId observer, Time t, ProcessSet suspected);

  ProcessSet suspectedAt(ProcessId p, Time t) override;

  int n() const { return n_; }

 private:
  int n_;
  /// Per observer: time -> suspicion set, sparse.
  std::vector<std::map<Time, ProcessSet>> samples_{
      static_cast<std::size_t>(n_)};
};

}  // namespace ssvsp::net
