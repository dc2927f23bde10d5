// Real-transport backend tests (src/net), all in one process:
//
//   * PerfectLink's perfect-links axioms (validity, no duplication, no
//     creation) over real loopback sockets, clean and behind the seeded
//     drop/duplicate/reorder injector;
//   * URB's uniformity gate: nobody delivers until ackers ∪ suspected
//     covers Π, and a killed sender's broadcast still reaches every
//     survivor exactly once;
//   * the heartbeat failure detector: P's sticky suspicion and ◇P's
//     refutation/adaptive timeout against scripted clocks, plus recorded
//     HeartbeatHistory judged by the src/fd axiom checkers verbatim;
//   * a full in-process cluster: n NetNodes round-robined on a FakeClock
//     reach consensus within the analyzer's Lat(A, f), with and without a
//     scripted crash, and exit on the DONE exchange: within one FD timeout
//     of the last done node, by suspicion when a DONE is lost, and with
//     the report frozen at the done instant;
//   * a malformed DONE link message is ignored;
//   * RwsFromSpDriver keeps the first copy of a duplicate round frame;
//   * NodeReport JSON round trip (the harness's child-to-parent channel).
//
// The fork/SIGKILL half of the harness is exercised by the ssvsp_net CLI
// and the transport-smoke CI leg, not here — gtest and fork() make poor
// roommates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "consensus/registry.hpp"
#include "fd/axioms.hpp"
#include "net/driver.hpp"
#include "net/harness.hpp"
#include "net/node.hpp"
#include "runtime/failure_pattern.hpp"

namespace ssvsp::net {
namespace {

/// A bound loopback transport pair/fleet with a shared peer table.
std::vector<std::unique_ptr<UdpTransport>> boundFleet(int n) {
  std::vector<std::unique_ptr<UdpTransport>> fleet;
  std::vector<Endpoint> peers;
  for (int i = 0; i < n; ++i) {
    std::string error;
    auto t = UdpTransport::bind(0, &error);
    EXPECT_NE(t, nullptr) << error;
    peers.push_back(t->localEndpoint());
    fleet.push_back(std::move(t));
  }
  for (auto& t : fleet) t->setPeers(peers);
  return fleet;
}

TEST(PerfectLinkTest, ValidityAndNoDuplicationOnCleanLoopback) {
  auto fleet = boundFleet(2);
  PerfectLink a(*fleet[0], 0, 2);
  PerfectLink b(*fleet[1], 1, 2);
  FakeClock clock;

  constexpr int kCount = 300;
  for (int i = 0; i < kCount; ++i)
    a.send(1, "msg-" + std::to_string(i));

  std::map<std::string, int> got;
  std::string bytes;
  ProcessId from = kNoProcess;
  for (int iter = 0; iter < 20000 && got.size() < kCount; ++iter) {
    clock.advance(1);
    const NetTime now = clock.nowMs();
    a.pump(now);
    while (fleet[1]->tryRecv(&bytes, &from)) b.onDatagram(from, bytes, now);
    b.pump(now);
    while (fleet[0]->tryRecv(&bytes, &from)) a.onDatagram(from, bytes, now);
    for (const auto& d : b.drainDeliveries()) {
      EXPECT_EQ(d.src, 0);
      ++got[d.payload];
    }
  }

  // Validity: everything sent was delivered.  No duplication: once each.
  ASSERT_EQ(got.size(), kCount);
  for (int i = 0; i < kCount; ++i) {
    const auto it = got.find("msg-" + std::to_string(i));
    ASSERT_NE(it, got.end()) << "msg-" << i << " lost";
    EXPECT_EQ(it->second, 1) << "msg-" << i << " duplicated";
  }
  EXPECT_EQ(b.stats().delivered, kCount);
  EXPECT_EQ(a.stats().retransmits, 0);  // loopback lost nothing
  EXPECT_TRUE(a.quiescent());
}

TEST(PerfectLinkTest, ExactlyOnceUnderDropDuplicateReorder) {
  auto fleet = boundFleet(2);
  FaultSpec faults;
  faults.pDrop = 0.25;
  faults.pDup = 0.2;
  faults.pDelay = 0.3;
  faults.seed = 42;
  FaultInjector lossy(*fleet[0], faults);
  PerfectLink a(lossy, 0, 2);
  PerfectLink b(*fleet[1], 1, 2);
  FakeClock clock;

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i)
    a.send(1, "msg-" + std::to_string(i));

  std::map<std::string, int> got;
  std::string bytes;
  ProcessId from = kNoProcess;
  for (int iter = 0; iter < 40000 && got.size() < kCount; ++iter) {
    clock.advance(2);  // fake ms drive the retransmission timers
    const NetTime now = clock.nowMs();
    a.pump(now);
    while (fleet[1]->tryRecv(&bytes, &from)) b.onDatagram(from, bytes, now);
    b.pump(now);
    while (lossy.tryRecv(&bytes, &from)) a.onDatagram(from, bytes, now);
    for (const auto& d : b.drainDeliveries()) ++got[d.payload];
  }
  lossy.flushDelayed();

  // No creation: only sent payloads surface.  No duplication: exactly once
  // each, despite injected duplicates and retransmissions.
  ASSERT_EQ(got.size(), kCount);
  for (const auto& [payload, times] : got) {
    EXPECT_EQ(payload.rfind("msg-", 0), 0u) << "created: " << payload;
    EXPECT_EQ(times, 1) << payload << " duplicated";
  }
  EXPECT_GT(lossy.dropped(), 0) << "injector inert: test proves nothing";
  EXPECT_GT(a.stats().retransmits, 0);
  EXPECT_GT(b.stats().duplicatesDropped, 0);
}

TEST(UrbTest, UniformityGateAndKilledSenderAgreement) {
  auto fleet = boundFleet(3);
  PerfectLink link0(*fleet[0], 0, 3);
  PerfectLink link1(*fleet[1], 1, 3);
  PerfectLink link2(*fleet[2], 2, 3);
  UniformReliableBroadcast urb0(link0, 0, 3);
  UniformReliableBroadcast urb1(link1, 1, 3);
  UniformReliableBroadcast urb2(link2, 2, 3);
  FakeClock clock;

  // p0 broadcasts and "crashes": its relay reaches p1 but the copy to p2
  // is lost with it (we discard p2's inbound and never pump link0 again).
  urb0.broadcast("the-payload");
  link0.pump(clock.nowMs());
  std::string bytes;
  ProcessId from = kNoProcess;
  while (fleet[2]->tryRecv(&bytes, &from)) {
  }  // datagram from p0 to p2: lost in the crash

  const auto pumpSurvivors = [&] {
    clock.advance(5);
    const NetTime now = clock.nowMs();
    for (int i = 1; i <= 2; ++i) {
      PerfectLink& link = i == 1 ? link1 : link2;
      UniformReliableBroadcast& urb = i == 1 ? urb1 : urb2;
      while (fleet[i]->tryRecv(&bytes, &from))
        if (link.onDatagram(from, bytes, now))
          for (const auto& d : link.drainDeliveries())
            urb.onPayload(d.src, d.payload);
      link.pump(now);
    }
  };
  for (int iter = 0; iter < 200; ++iter) pumpSurvivors();

  // p1 heard p0's own relay plus p2's: ackers cover Π, it delivers.  p2
  // heard only itself and p1 — without suspecting p0 the uniformity gate
  // must hold the message back.
  const auto d1 = urb1.drainDeliveries();
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0].origin, 0);
  EXPECT_EQ(d1[0].body, "the-payload");
  EXPECT_TRUE(urb2.drainDeliveries().empty())
      << "p2 delivered before ackers ∪ suspected covered Π";

  // The failure detector catches up: suspecting p0 completes p2's gate.
  urb2.updateSuspected(ProcessSet::single(0));
  const auto d2 = urb2.drainDeliveries();
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].origin, 0);
  EXPECT_EQ(d2[0].body, "the-payload");
  EXPECT_EQ(urb2.stats().delivered, 1);
}

TEST(HeartbeatTest, PerfectModeSuspicionIsSticky) {
  HeartbeatOptions options;
  options.periodMs = 20;
  options.timeoutMs = 100;
  options.mode = FdMode::kPerfect;
  HeartbeatMonitor monitor(0, 3, options, /*now=*/0);
  HeartbeatMonitor peer1(1, 3, options, 0);
  HeartbeatMonitor peer2(2, 3, options, 0);

  // Both peers beat until t=60; then p2 falls silent.
  for (NetTime t = 20; t <= 60; t += 20) {
    ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), t));
    ASSERT_TRUE(monitor.onDatagram(2, peer2.heartbeatFrame(), t));
  }
  for (NetTime t = 80; t <= 400; t += 20)
    ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), t));

  EXPECT_TRUE(monitor.suspected(150).empty());  // 60 + 100 not yet exceeded
  const ProcessSet late = monitor.suspected(200);
  EXPECT_TRUE(late.contains(2));
  EXPECT_FALSE(late.contains(1));

  // Sticky: a late heartbeat from a suspected peer changes nothing under P.
  ASSERT_TRUE(monitor.onDatagram(2, peer2.heartbeatFrame(), 210));
  EXPECT_TRUE(monitor.suspected(211).contains(2));
  EXPECT_EQ(monitor.stats().refutations, 0);
  EXPECT_EQ(monitor.stats().suspicions, 1);

  // Non-heartbeat datagrams are not the monitor's business.
  EXPECT_FALSE(monitor.onDatagram(1, "not a heartbeat", 220));
}

TEST(HeartbeatTest, EventuallyPerfectRefutesAndGrowsTimeout) {
  HeartbeatOptions options;
  options.periodMs = 20;
  options.timeoutMs = 100;
  options.timeoutIncrementMs = 150;
  options.mode = FdMode::kEventuallyPerfect;
  HeartbeatMonitor monitor(0, 2, options, /*now=*/0);
  HeartbeatMonitor peer1(1, 2, options, 0);

  ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), 20));
  EXPECT_TRUE(monitor.suspected(300).contains(1));  // silent past 120

  // The slow heartbeat arrives: suspicion refuted, timeout adapted.
  ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), 310));
  EXPECT_FALSE(monitor.suspected(311).contains(1));
  EXPECT_EQ(monitor.stats().refutations, 1);
  EXPECT_EQ(monitor.timeoutFor(1), 250);  // 100 + 150

  // The grown timeout tolerates the same gap the old one called a crash.
  ASSERT_TRUE(monitor.onDatagram(1, peer1.heartbeatFrame(), 510));
  EXPECT_FALSE(monitor.suspected(540).contains(1));
}

TEST(HeartbeatTest, RecordedHistorySatisfiesFdAxioms) {
  // Two correct observers, p2 crashes at t=300.  The recorded histories
  // must pass the SAME strong completeness / strong accuracy checkers that
  // judge the simulated oracles of src/fd.
  HeartbeatOptions options;
  options.periodMs = 20;
  options.timeoutMs = 100;
  options.mode = FdMode::kPerfect;
  HeartbeatMonitor m0(0, 3, options, 0);
  HeartbeatMonitor m1(1, 3, options, 0);
  HeartbeatMonitor m2(2, 3, options, 0);

  constexpr Time kCrash = 300;
  constexpr Time kHorizon = 800;
  HeartbeatHistory history(3);
  for (Time t = 0; t <= kHorizon; t += 10) {
    if (t > 0 && t % 20 == 0) {
      const std::string f0 = m0.heartbeatFrame();
      const std::string f1 = m1.heartbeatFrame();
      ASSERT_TRUE(m0.onDatagram(1, f1, t));
      ASSERT_TRUE(m1.onDatagram(0, f0, t));
      if (t < kCrash) {
        // p2 is alive: it both beats and listens (it is an observer too,
        // and a deaf observer would falsely suspect the others).
        const std::string f2 = m2.heartbeatFrame();
        ASSERT_TRUE(m0.onDatagram(2, f2, t));
        ASSERT_TRUE(m1.onDatagram(2, f2, t));
        ASSERT_TRUE(m2.onDatagram(0, f0, t));
        ASSERT_TRUE(m2.onDatagram(1, f1, t));
      }
    }
    history.sample(0, t, m0.suspected(t));
    history.sample(1, t, m1.suspected(t));
    history.sample(2, t, t < kCrash ? m2.suspected(t) : ProcessSet{});
  }

  FailurePattern pattern(3);
  pattern.setCrash(2, kCrash);
  EXPECT_TRUE(checkStrongCompleteness(history, pattern, kHorizon).ok)
      << checkStrongCompleteness(history, pattern, kHorizon).witness;
  EXPECT_TRUE(checkStrongAccuracy(history, pattern, kHorizon).ok)
      << checkStrongAccuracy(history, pattern, kHorizon).witness;
}

TEST(HeartbeatTest, MistimedSuspicionViolatesAccuracyButDiamondPRecovers) {
  // The same schedule — one heartbeat gap longer than the timeout, then
  // regular beats forever — judged under both modes.  No process crashes.
  const auto record = [](FdMode mode, Time horizon) {
    HeartbeatOptions options;
    options.periodMs = 20;
    options.timeoutMs = 50;  // deliberately mistimed: the gap is 200
    options.timeoutIncrementMs = 300;
    options.mode = mode;
    HeartbeatMonitor m0(0, 2, options, 0);
    HeartbeatMonitor m1(1, 2, options, 0);
    HeartbeatHistory history(2);
    for (Time t = 0; t <= horizon; t += 10) {
      const bool inGap = t > 40 && t < 240;
      if (t > 0 && t % 20 == 0 && !inGap)
        m0.onDatagram(1, m1.heartbeatFrame(), t);
      history.sample(0, t, m0.suspected(t));
      history.sample(1, t, ProcessSet{});
    }
    return history;
  };

  constexpr Time kHorizon = 600;
  const FailurePattern pattern = FailurePattern::noFailures(2);

  HeartbeatHistory sticky = record(FdMode::kPerfect, kHorizon);
  EXPECT_FALSE(checkStrongAccuracy(sticky, pattern, kHorizon).ok)
      << "a 200ms silence against a 50ms timeout must look like a crash";

  HeartbeatHistory adaptive = record(FdMode::kEventuallyPerfect, kHorizon);
  EXPECT_FALSE(checkStrongAccuracy(adaptive, pattern, kHorizon).ok);
  EXPECT_TRUE(checkEventualStrongAccuracy(adaptive, pattern, kHorizon).ok)
      << checkEventualStrongAccuracy(adaptive, pattern, kHorizon).witness;
}

/// The FD timeout runInProcessCluster gives its nodes (heartbeat every 5).
constexpr NetTime kClusterFdTimeoutMs = 60;

/// One in-process cluster run.  Every node starts at t = 0, so a report's
/// wallMs is the instant its node became done.
struct ClusterRun {
  std::vector<NodeReport> reports;  ///< read after one more FD timeout
  std::vector<NetTime> exitedAt;    ///< per node; -1: never exited
  std::vector<std::int64_t> suspicionsAtExit;  ///< live, not the report's
};

/// One NetNode of `algo` per socket of `fleet`, all on `clock`, with a
/// 5 ms heartbeat and the kClusterFdTimeoutMs timeout; p0 follows `crash0`.
std::vector<std::unique_ptr<NetNode>> makeCluster(
    const std::string& algo, RoundConfig cfg, const std::vector<Value>& values,
    const CrashPlan& crash0,
    std::vector<std::unique_ptr<UdpTransport>>& fleet, FakeClock& clock) {
  const AlgorithmEntry* entry = findAlgorithm(algo);
  EXPECT_NE(entry, nullptr);
  std::vector<std::unique_ptr<NetNode>> nodes;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    NodeOptions options;
    options.self = p;
    options.cfg = cfg;
    options.initial = values[static_cast<std::size_t>(p)];
    options.algo = algo;
    if (p == 0) options.crashPlan = crash0;
    options.heartbeat.periodMs = 5;
    options.heartbeat.timeoutMs = kClusterFdTimeoutMs;
    nodes.push_back(std::make_unique<NetNode>(
        *fleet[p], entry->factory(p), options, clock));
  }
  return nodes;
}

/// Builds an in-process cluster of NetNodes on one FakeClock and runs
/// step() round-robin until every non-halted node has exited (or the
/// iteration budget runs out).  Then the clock runs one more FD timeout and
/// the reports are read.
ClusterRun runInProcessCluster(const std::string& algo, RoundConfig cfg,
                               const std::vector<Value>& values,
                               const CrashPlan& crash0) {
  auto fleet = boundFleet(cfg.n);
  FakeClock clock;
  const auto nodes = makeCluster(algo, cfg, values, crash0, fleet, clock);

  ClusterRun run;
  run.exitedAt.assign(nodes.size(), -1);
  for (int iter = 0; iter < 5000; ++iter) {
    clock.advance(2);
    bool allSettled = true;
    for (std::size_t p = 0; p < nodes.size(); ++p) {
      const NetNode::Status status = nodes[p]->step();
      if (status == NetNode::Status::kExited && run.exitedAt[p] < 0)
        run.exitedAt[p] = clock.nowMs();
      if (status == NetNode::Status::kRunning ||
          status == NetNode::Status::kDone)
        allSettled = false;
    }
    if (allSettled) break;
  }

  clock.advance(kClusterFdTimeoutMs + 1);
  for (auto& node : nodes) {
    run.reports.push_back(node->report());
    run.suspicionsAtExit.push_back(node->monitor().stats().suspicions);
  }
  return run;
}

TEST(NetNodeTest, InProcessClusterReachesConsensusWithinLat) {
  const RoundConfig cfg{4, 2};
  const std::vector<Value> values{0, 1, 1, 0};
  const ClusterRun run =
      runInProcessCluster("FloodSetWS", cfg, values, CrashPlan{});
  const auto& reports = run.reports;
  const Round bound = analyzerLatBound(*findAlgorithm("FloodSetWS"), cfg, 0);
  ASSERT_NE(bound, kNoRound);

  ASSERT_EQ(reports.size(), 4u);
  NetTime lastDone = 0;
  for (const NodeReport& r : reports) {
    EXPECT_FALSE(r.halted);
    ASSERT_TRUE(r.decided) << "p" << r.node << " undecided";
    EXPECT_EQ(r.decision, reports[0].decision) << "agreement violated";
    EXPECT_NE(std::find(values.begin(), values.end(), r.decision),
              values.end())
        << "validity violated";
    EXPECT_LE(r.decisionRound, bound) << "p" << r.node << " beyond Lat(A, 0)";
    EXPECT_EQ(r.suspectedFinal, 0u) << "failure-free run suspected someone";
    EXPECT_EQ(r.roundsCompleted, cfg.t + 2);
    lastDone = std::max(lastDone, r.wallMs);
  }
  // The DONE exchange, not a suspicion of a finished peer, ends the run.
  for (std::size_t p = 0; p < reports.size(); ++p) {
    ASSERT_GE(run.exitedAt[p], 0) << "p" << p << " never exited";
    EXPECT_LT(run.exitedAt[p] - lastDone, kClusterFdTimeoutMs)
        << "p" << p << " exited at " << run.exitedAt[p]
        << ", the last node was done at " << lastDone;
    EXPECT_EQ(run.suspicionsAtExit[p], 0) << "p" << p;
    EXPECT_EQ(reports[p].fd.suspicions, 0) << "p" << p;
  }
}

TEST(NetNodeTest, ScriptedCrashSurvivorsAgreeWithinLatAndSuspectOnlyIt) {
  const RoundConfig cfg{4, 2};
  const std::vector<Value> values{0, 1, 1, 0};
  CrashPlan crash0;
  crash0.round = 1;
  crash0.sendTo = ProcessSet{};  // final broadcast reaches nobody
  const ClusterRun run = runInProcessCluster("FloodSetWS", cfg, values, crash0);
  const auto& reports = run.reports;
  const Round bound = analyzerLatBound(*findAlgorithm("FloodSetWS"), cfg, 1);
  ASSERT_NE(bound, kNoRound);

  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[0].halted);
  EXPECT_FALSE(reports[0].decided);
  for (std::size_t p = 1; p < reports.size(); ++p) {
    const NodeReport& r = reports[p];
    EXPECT_GE(run.exitedAt[p], 0) << "survivor p" << p << " never exited";
    ASSERT_TRUE(r.decided) << "survivor p" << r.node << " undecided";
    EXPECT_EQ(r.decision, reports[1].decision) << "agreement violated";
    EXPECT_LE(r.decisionRound, bound) << "p" << r.node << " beyond Lat(A, 1)";
    // Completeness caught the crash; accuracy spared the survivors, also
    // one FD timeout after every survivor had exited.
    EXPECT_EQ(r.suspectedFinal, ProcessSet::single(0).mask())
        << "p" << r.node << " suspected " << r.suspectedFinal;
    EXPECT_EQ(r.fd.suspicions, 1) << "p" << r.node;
  }
}

TEST(NetNodeTest, LostDoneEndsTheWaitBySuspicionAndLeavesTheReportAlone) {
  // p1 exits after p0's DONE reaches it, but p1's own DONE to p0 is lost
  // and p1 is gone before the link retransmits it.  p0 must still exit,
  // by suspecting p1, and its report must not show that suspicion.
  const RoundConfig cfg{2, 1};
  auto fleet = boundFleet(cfg.n);
  FakeClock clock;
  const auto nodes =
      makeCluster("FloodSetWS", cfg, {0, 1}, CrashPlan{}, fleet, clock);
  NetNode& p0 = *nodes[0];
  NetNode& p1 = *nodes[1];

  // Round-robin until p0 is done; then only p1 runs, until it exits.
  for (int iter = 0; iter < 1000 && p0.status() == NetNode::Status::kRunning;
       ++iter) {
    clock.advance(2);
    p0.step();
    if (p0.status() == NetNode::Status::kRunning) p1.step();
  }
  ASSERT_EQ(p0.status(), NetNode::Status::kDone);
  for (int iter = 0; iter < 1000 && p1.status() != NetNode::Status::kExited;
       ++iter) {
    clock.advance(2);
    p1.step();
  }
  ASSERT_EQ(p1.status(), NetNode::Status::kExited);
  EXPECT_EQ(p1.monitor().stats().suspicions, 0);

  // The network loses everything p1 sent since p0 last stepped.
  std::string bytes;
  ProcessId from = kNoProcess;
  while (fleet[0]->tryRecv(&bytes, &from)) {
  }

  const NodeReport atDone = p0.report();
  for (int iter = 0; iter < 1000 && p0.step() != NetNode::Status::kExited;
       ++iter)
    clock.advance(2);
  ASSERT_EQ(p0.status(), NetNode::Status::kExited);
  // p0 last heard p1 within a heartbeat period of its done instant.
  EXPECT_LE(clock.nowMs() - atDone.wallMs, kClusterFdTimeoutMs + 2 * 5);
  EXPECT_FALSE(p0.donePeers().contains(1));
  EXPECT_EQ(p0.monitor().stats().suspicions, 1);  // the wait ended by it

  const NodeReport report = p0.report();
  EXPECT_EQ(report.suspectedFinal, 0u);
  EXPECT_EQ(report.fd.suspicions, 0);
  EXPECT_EQ(report.wallMs, atDone.wallMs);
  EXPECT_TRUE(report.decided);
}

TEST(NetNodeTest, NodeEndedInItsFirstMillisecondReportsZeroWall) {
  // A one-node cluster ends in its first step at t = 0: done (and, with no
  // peers, exited at once), or halted by its crash plan.
  CrashPlan halt;
  halt.round = 1;
  for (const CrashPlan& plan : {CrashPlan{}, halt}) {
    const RoundConfig cfg{1, 0};
    auto fleet = boundFleet(cfg.n);
    FakeClock clock;
    NodeOptions options;
    options.self = 0;
    options.cfg = cfg;
    options.initial = 1;
    options.algo = "FloodSet";
    options.crashPlan = plan;
    NetNode node(*fleet[0], findAlgorithm("FloodSet")->factory(0), options,
                 clock);
    const NetNode::Status ended = node.step();
    ASSERT_EQ(ended, plan.round == kNoRound ? NetNode::Status::kExited
                                            : NetNode::Status::kHalted);
    clock.advance(500);
    const NodeReport report = node.report();
    EXPECT_EQ(report.decided, plan.round == kNoRound);
    EXPECT_EQ(report.wallMs, 0) << "halted: " << report.halted;
  }
}

TEST(NetNodeTest, MalformedDoneIsIgnored) {
  const RoundConfig cfg{2, 1};
  auto fleet = boundFleet(cfg.n);
  FakeClock clock;
  NodeOptions options;
  options.self = 0;
  options.cfg = cfg;
  NetNode node(*fleet[0], findAlgorithm("FloodSetWS")->factory(0), options,
               clock);
  PerfectLink peer(*fleet[1], 1, cfg.n);

  const auto deliver = [&](const std::string& payload) {
    peer.send(0, payload);
    peer.pump(clock.nowMs());
    ASSERT_NO_THROW(node.step());
  };
  std::string trailing;
  RecordWriter w(trailing);
  w.putU8(static_cast<std::uint8_t>(ChannelKind::kDone));
  w.putU8(0);
  deliver(trailing);
  deliver("");
  EXPECT_FALSE(node.donePeers().contains(1));

  deliver(std::string(1, static_cast<char>(ChannelKind::kDone)));
  EXPECT_TRUE(node.donePeers().contains(1));
}

/// What p0's driver saw after p1's round-1 frame arrived `copies` times:
/// round 1 under no suspicion, then round 2 with p1 suspected.
struct DriverView {
  int firstAdvance = 0;
  int secondAdvance = 0;
  std::vector<ProcessSet> heardPerRound;
  std::int64_t lateDeliveries = 0;
};

DriverView feedRoundFrame(int copies) {
  const RoundConfig cfg{2, 1};
  const AlgorithmEntry* entry = findAlgorithm("FloodSet");
  EXPECT_NE(entry, nullptr);
  auto fleet = boundFleet(cfg.n);
  PerfectLink link(*fleet[0], 0, cfg.n);
  RwsFromSpDriver driver(entry->factory(0), cfg, 0, /*initial=*/0,
                         /*maxRounds=*/2, link);

  // p1's round-1 frame as its driver puts it on the link:
  // kind | round | hasBody | body words.
  auto sender = entry->factory(1);
  sender->begin(1, cfg, 1);
  const std::optional<Payload> body = sender->messageFor(0);
  EXPECT_TRUE(body.has_value());
  std::string frame;
  RecordWriter w(frame);
  w.putU8(static_cast<std::uint8_t>(ChannelKind::kRound));
  w.putI32(1);
  w.putU8(1);
  for (std::int32_t word : *body) w.putI32(word);

  for (int i = 0; i < copies; ++i) EXPECT_TRUE(driver.onPayload(1, frame));
  DriverView view;
  view.firstAdvance = driver.advance(ProcessSet{});
  view.secondAdvance = driver.advance(ProcessSet{1});
  view.heardPerRound = driver.heardPerRound();
  view.lateDeliveries = driver.lateDeliveries();
  return view;
}

TEST(RwsFromSpDriverTest, DuplicateRoundFrameKeepsTheFirstCopy) {
  const DriverView once = feedRoundFrame(1);
  ASSERT_EQ(once.firstAdvance, 1);
  ASSERT_EQ(once.secondAdvance, 1);
  ASSERT_EQ(once.heardPerRound.size(), 2u);
  EXPECT_EQ(once.heardPerRound[0], (ProcessSet{0, 1}));
  EXPECT_EQ(once.heardPerRound[1], ProcessSet{0});  // p1 silent, suspected

  // The duplicate neither kills the node nor surfaces as a second (late)
  // round-1 message from p1 in round 2.
  DriverView twice;
  ASSERT_NO_THROW(twice = feedRoundFrame(2));
  EXPECT_EQ(twice.firstAdvance, once.firstAdvance);
  EXPECT_EQ(twice.secondAdvance, once.secondAdvance);
  EXPECT_EQ(twice.heardPerRound, once.heardPerRound);
  EXPECT_EQ(twice.lateDeliveries, once.lateDeliveries);
  EXPECT_EQ(twice.lateDeliveries, 0);
}

TEST(NodeReportTest, JsonRoundTrip) {
  NodeReport report;
  report.node = 2;
  report.algo = "FloodSetWS";
  report.n = 4;
  report.t = 2;
  report.decided = true;
  report.decision = 1;
  report.decisionRound = 3;
  report.roundsCompleted = 4;
  report.lateDeliveries = 7;
  report.halted = false;
  report.timedOut = false;
  report.suspectedFinal = 0x1;
  report.heardMasks = {0xF, 0xE, 0xE, 0xE};
  report.link.sent = 123;
  report.link.retransmits = 4;
  report.urb.broadcasts = 1;
  report.urb.delivered = 3;
  report.fd.heartbeatsSent = 55;
  report.fd.suspicions = 1;
  report.wallMs = 321;

  NodeReport back;
  std::string error;
  ASSERT_TRUE(NodeReport::fromJson(report.toJson(), &back, &error)) << error;
  EXPECT_EQ(back.node, report.node);
  EXPECT_EQ(back.algo, report.algo);
  EXPECT_EQ(back.n, report.n);
  EXPECT_EQ(back.t, report.t);
  EXPECT_EQ(back.decided, report.decided);
  EXPECT_EQ(back.decision, report.decision);
  EXPECT_EQ(back.decisionRound, report.decisionRound);
  EXPECT_EQ(back.roundsCompleted, report.roundsCompleted);
  EXPECT_EQ(back.lateDeliveries, report.lateDeliveries);
  EXPECT_EQ(back.suspectedFinal, report.suspectedFinal);
  EXPECT_EQ(back.heardMasks, report.heardMasks);
  EXPECT_EQ(back.link.sent, report.link.sent);
  EXPECT_EQ(back.link.retransmits, report.link.retransmits);
  EXPECT_EQ(back.urb.broadcasts, report.urb.broadcasts);
  EXPECT_EQ(back.urb.delivered, report.urb.delivered);
  EXPECT_EQ(back.fd.heartbeatsSent, report.fd.heartbeatsSent);
  EXPECT_EQ(back.fd.suspicions, report.fd.suspicions);
  EXPECT_EQ(back.wallMs, report.wallMs);

  NodeReport undecided;
  undecided.node = 0;
  undecided.algo = "A1";
  undecided.n = 3;
  undecided.t = 1;
  undecided.halted = true;
  ASSERT_TRUE(NodeReport::fromJson(undecided.toJson(), &back, &error))
      << error;
  EXPECT_FALSE(back.decided);
  EXPECT_EQ(back.decision, kUndecided);
  EXPECT_EQ(back.decisionRound, kNoRound);
  EXPECT_TRUE(back.halted);

  EXPECT_FALSE(NodeReport::fromJson("{\"schema\": \"bogus\"}", &back, &error));
}

}  // namespace
}  // namespace ssvsp::net
