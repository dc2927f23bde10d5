#include "net/harness.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/abstract_interp.hpp"
#include "rounds/spec.hpp"
#include "util/check.hpp"

namespace ssvsp::net {

namespace {

std::string reportPath(const std::string& dir, ProcessId node) {
  return dir + "/node_" + std::to_string(node) + ".json";
}

/// Child body: adopt the inherited socket, run the node, write the report,
/// _exit.  No destructors, no stdio races with the parent, and no exception
/// unwinds into the forked copy of the caller's stack: it is printed, and
/// the child exits non-zero.
[[noreturn]] void runChild(int fd, const std::vector<Endpoint>& peers,
                           const LaunchSpec& spec, ProcessId self) try {
  std::string error;
  auto transport = UdpTransport::adopt(fd, &error);
  if (transport == nullptr) ::_exit(10);
  transport->setPeers(peers);

  NodeOptions options;
  options.self = self;
  options.cfg = spec.cfg;
  options.initial = spec.values[static_cast<std::size_t>(self)];
  options.maxRounds = spec.maxRounds;
  options.algo = spec.entry->name;
  options.crashPlan.round = spec.script.crashRound(self);
  options.crashPlan.sendTo = spec.script.sendSubset(self, spec.cfg.n);
  options.link = spec.link;
  options.heartbeat = spec.heartbeat;
  options.deadlineMs = spec.deadlineMs;

  SteadyClock clock;
  NetNode node(*transport, spec.entry->factory(self), options, clock);
  const NodeReport report = node.run();

  // The scripted crash: the partial broadcast is on the wire, so die the
  // hard way, with no report, as a crashed process does.
  if (node.status() == NetNode::Status::kHalted) {
    ::kill(::getpid(), SIGKILL);
    ::_exit(127);  // unreachable
  }

  std::ofstream out(reportPath(spec.reportDir, self),
                    std::ios::binary | std::ios::trunc);
  out << report.toJson() << "\n";
  out.flush();
  if (!out.good()) ::_exit(12);
  ::_exit(0);
} catch (const std::exception& e) {
  std::fprintf(stderr, "[node %d] %s\n", self, e.what());
  ::_exit(13);
}

}  // namespace

Round analyzerLatBound(const AlgorithmEntry& entry, const RoundConfig& cfg,
                       int f) {
  if (f < 0 || f > cfg.t) return kNoRound;
  // latByF[f] joins only cells with at most f crashes, so the cells beyond
  // that budget cannot move it.
  const AbstractBounds bounds = interpretAutomaton(entry, cfg, {}, f);
  const Round latest = bounds.latByF[static_cast<std::size_t>(f)];
  return latest == 0 ? kNoRound : latest;
}

bool launchSpecFromScenario(const Scenario& scenario, LaunchSpec* out,
                            std::string* error) {
  auto fail = [&](const std::string& why) {
    *error = why;
    return false;
  };
  const AlgorithmEntry* entry = findAlgorithm(scenario.algorithm);
  if (entry == nullptr)
    return fail("unknown algorithm '" + scenario.algorithm + "'");
  if (scenario.model != RoundModel::kRws)
    return fail("transport replay implements RWS; scenario declares model "
                "rs (the transport cannot guarantee same-round delivery)");
  if (static_cast<int>(scenario.values.size()) != scenario.cfg.n)
    return fail("scenario has no initial values for every process");
  LaunchSpec spec;
  spec.entry = entry;
  spec.cfg = scenario.cfg;
  spec.values = scenario.values;
  spec.maxRounds =
      scenario.horizon > 0 ? scenario.horizon : scenario.cfg.t + 2;
  spec.script = scenario.script;
  *out = std::move(spec);
  return true;
}

LaunchResult launchCluster(const LaunchSpec& spec) {
  SSVSP_CHECK(spec.entry != nullptr);
  SSVSP_CHECK(spec.cfg.n >= 1 && spec.cfg.n <= kMaxProcs);
  SSVSP_CHECK(static_cast<int>(spec.values.size()) == spec.cfg.n);
  SSVSP_CHECK(!spec.reportDir.empty());
  const int n = spec.cfg.n;

  LaunchResult result;
  auto fail = [&](const std::string& why) { result.failures.push_back(why); };

  if (::mkdir(spec.reportDir.c_str(), 0755) != 0 && errno != EEXIST) {
    fail("mkdir '" + spec.reportDir + "': " + std::strerror(errno));
    return result;
  }

  // Phase 1: bind everything in the parent.  The address book is complete
  // and race-free before any child exists.
  std::string error;
  std::vector<std::unique_ptr<UdpTransport>> sockets;
  std::vector<Endpoint> peers;
  for (ProcessId p = 0; p < n; ++p) {
    auto s = UdpTransport::bind(&error);
    if (s == nullptr) {
      fail("bind node " + std::to_string(p) + ": " + error);
      return result;
    }
    peers.push_back(s->localEndpoint());
    sockets.push_back(std::move(s));
  }

  LaunchSpec childSpec = spec;
  if (childSpec.maxRounds <= 0) childSpec.maxRounds = spec.cfg.t + 2;

  // The exit pipe: every child holds its write end until it dies, so the
  // read end hangs up the moment the last child is gone.
  int exitPipe[2];
  if (::pipe(exitPipe) != 0) {
    fail(std::string("pipe: ") + std::strerror(errno));
    return result;
  }

  // Phase 2: fork the nodes.  Each child keeps exactly its own socket.
  result.nodes.assign(static_cast<std::size_t>(n), NodeOutcome{});
  for (ProcessId p = 0; p < n; ++p) {
    NodeOutcome& outcome = result.nodes[static_cast<std::size_t>(p)];
    outcome.node = p;
    outcome.scriptedCrash = spec.script.crashRound(p) != kNoRound;
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail(std::string("fork: ") + std::strerror(errno));
      ::close(exitPipe[0]);
      ::close(exitPipe[1]);
      for (ProcessId q = 0; q < p; ++q) {
        const pid_t child = result.nodes[static_cast<std::size_t>(q)].pid;
        ::kill(child, SIGKILL);
        ::waitpid(child, nullptr, 0);
      }
      return result;
    }
    if (pid == 0) {
      const int fd = sockets[static_cast<std::size_t>(p)]->fd();
      for (ProcessId q = 0; q < n; ++q)
        if (q != p) ::close(sockets[static_cast<std::size_t>(q)]->fd());
      ::close(exitPipe[0]);
      runChild(fd, peers, childSpec, p);
    }
    outcome.pid = pid;
    if (spec.verbose)
      std::cerr << "[harness] node " << p << " -> pid " << pid << "\n";
  }
  ::close(exitPipe[1]);
  // The parent's copies of the node sockets must close, or a SIGKILLed
  // node's port would stay "alive" (datagrams buffered by the kernel
  // against the parent's fd, no ICMP refusals for the survivors).
  sockets.clear();

  // Phase 3: supervise.  Sleep until the exit pipe hangs up, that is until
  // every child is dead or dying; past the deadline, kill the children that
  // still run (a dead one ignores it).  Then reap each child by its pid.
  SteadyClock clock;
  const NetTime deadline = spec.deadlineMs + 5000;  // children stop first
  pollfd exitEnd{exitPipe[0], POLLIN, 0};
  const auto hungUp = [&] {
    return (exitEnd.revents & (POLLHUP | POLLERR)) != 0;
  };
  for (NetTime now = clock.nowMs(); !hungUp() && now < deadline;
       now = clock.nowMs())
    ::poll(&exitEnd, 1, static_cast<int>(deadline - now));
  ::close(exitPipe[0]);
  if (!hungUp()) {
    fail("harness deadline exceeded; the nodes still running were killed");
    for (const NodeOutcome& o : result.nodes) ::kill(o.pid, SIGKILL);
  }
  for (NodeOutcome& o : result.nodes) {
    while (::waitpid(o.pid, &o.waitStatus, 0) < 0 && errno == EINTR) {
    }
    if (spec.verbose && WIFSIGNALED(o.waitStatus))
      std::cerr << "[harness] node " << o.node << " killed by signal "
                << WTERMSIG(o.waitStatus) << "\n";
  }

  // Phase 4: collect reports and render the verdict.
  result.observedCrashes = spec.script.numCrashes();
  result.latBound =
      analyzerLatBound(*spec.entry, spec.cfg, result.observedCrashes);

  for (NodeOutcome& o : result.nodes) {
    if (o.scriptedCrash) {
      if (!WIFSIGNALED(o.waitStatus) || WTERMSIG(o.waitStatus) != SIGKILL)
        fail("node " + std::to_string(o.node) +
             " was scripted to crash but never reached its crash round "
             "(status " + std::to_string(o.waitStatus) + ")");
      continue;
    }
    if (!WIFEXITED(o.waitStatus) || WEXITSTATUS(o.waitStatus) != 0) {
      fail("node " + std::to_string(o.node) + " exited abnormally (status " +
           std::to_string(o.waitStatus) + ")");
      continue;
    }
    std::ifstream in(reportPath(spec.reportDir, o.node), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      o.reportError = "report unreadable";
      fail("node " + std::to_string(o.node) + ": report unreadable");
      continue;
    }
    o.reportOk = NodeReport::fromJson(buf.str(), &o.report, &o.reportError);
    if (!o.reportOk)
      fail("node " + std::to_string(o.node) + ": bad report: " +
           o.reportError);
  }

  // The consensus contract over the survivors' reports is the simulator's
  // (checkUniformConsensus): the survivors with a report are the run's
  // correct processes and their decisions its decisions.  A crashed node
  // reports nothing, so agreement is judged among the survivors.
  RoundRunResult run;
  run.cfg = spec.cfg;
  run.initial = spec.values;
  run.roundsExecuted = childSpec.maxRounds;
  run.decision.assign(static_cast<std::size_t>(n), std::nullopt);
  const ProcessSet scriptedFaulty =
      spec.script.faultyWithin(childSpec.maxRounds + 1, n);
  for (const NodeOutcome& o : result.nodes) {
    if (o.scriptedCrash || !o.reportOk) continue;
    const NodeReport& r = o.report;
    run.correct.insert(o.node);
    if (r.decided) run.decision[static_cast<std::size_t>(o.node)] = r.decision;
    // The wire-only checks: node timeouts, the analyzer's Lat(A, f) and,
    // under P, accuracy.
    if (r.timedOut)
      fail("node " + std::to_string(o.node) + " timed out undecided");
    if (!r.decided) continue;
    result.worstDecisionRound =
        std::max(result.worstDecisionRound, r.decisionRound);
    if (result.latBound != kNoRound && r.decisionRound > result.latBound)
      fail("node " + std::to_string(o.node) + " decided in round " +
           std::to_string(r.decisionRound) + " > Lat(A, f) = " +
           std::to_string(result.latBound) +
           " (emulation assumption broken; check the FD timeout)");
    // Suspecting a scripted-correct process is a mistimed timeout, the
    // observable failure mode the knobs exist for.
    if (spec.heartbeat.mode == FdMode::kPerfect) {
      const ProcessSet suspected = ProcessSet::fromMask(r.suspectedFinal);
      const ProcessSet mistimed = suspected - scriptedFaulty;
      if (!mistimed.empty())
        fail("node " + std::to_string(o.node) +
             " suspected correct process(es) " + mistimed.toString() +
             " — mistimed P timeout (raise --timeout-ms)");
    }
  }
  const UcVerdict verdict = checkUniformConsensus(run);
  if (!verdict.ok()) {
    std::string witness = verdict.witness;
    witness.erase(witness.find_last_not_of("; ") + 1);
    fail("uniform consensus violated: " + witness);
  }

  result.ok = result.failures.empty();
  return result;
}

}  // namespace ssvsp::net
