// wire-n4: FloodSetWS at n = 4, t = 2 as four forked processes on UDP
// loopback (net::launchCluster), FD mode P with the CLI defaults (timeout
// 200 ms, heartbeat 20 ms, RTO 20 ms, linger 200 ms), closed loop, one
// cluster at a time, no injected delay or loss (FaultInjector is not
// reachable through launchCluster).  op_s is the time from launchCluster to
// the verified verdict of a failure-free cluster; op_variant_s the same
// with one process SIGKILLed in round 1 before it sends anything, which
// puts FD detection on the blocking path.  The seed draws the initial
// values and the victim; seed 36 (the default) gives the
// scenarios/floodsetws_net_replay.txt script: values 0 1 1 0, p0 crashes
// in round 1 sending to nobody.
#include <algorithm>
#include <bit>
#include <filesystem>
#include <iostream>

#include "harness.hpp"
#include "net/harness.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ssvsp;

namespace {

struct Launch {
  double seconds = 0;
  net::LaunchResult result;
};

/// Survivor totals of one launch.
struct NodeTotals {
  std::int64_t rounds = 0;
  std::int64_t suspicions = 0;
  std::int64_t retransmits = 0;
  std::int64_t dataDatagrams = 0;
  std::int64_t slowestMs = 0;  ///< slowest survivor's NodeReport::wallMs
};

NodeTotals totals(const net::LaunchResult& result) {
  NodeTotals t;
  for (const net::NodeOutcome& o : result.nodes) {
    if (o.scriptedCrash || !o.reportOk) continue;
    t.rounds += o.report.roundsCompleted;
    t.suspicions += o.report.fd.suspicions;
    t.retransmits += o.report.link.retransmits;
    t.dataDatagrams += o.report.link.dataDatagrams;
    t.slowestMs = std::max(t.slowestMs, o.report.wallMs);
  }
  return t;
}

}  // namespace

double runWire(const Args& args, Report& report) {
  const AlgorithmEntry& entry = algorithmByName("FloodSetWS");
  const RoundConfig cfg{4, 2};
  Rng rng(args.seed);
  net::LaunchSpec failureFree;
  failureFree.entry = &entry;
  failureFree.cfg = cfg;
  for (int p = 0; p < cfg.n; ++p)
    failureFree.values.push_back(static_cast<Value>(rng.uniformInt(0, 1)));
  const auto victim = static_cast<ProcessId>(rng.uniformInt(0, cfg.n - 1));
  failureFree.reportDir = args.workDir + "/wire";
  net::LaunchSpec crash = failureFree;
  crash.script.crashes.push_back(CrashEvent{victim, 1, ProcessSet{}});
  const double setup = setupSeconds(args);
  if (args.setupOnly) return setup;

  std::cout << "wire-n4: seed " << args.seed << " values";
  for (Value v : failureFree.values) std::cout << " " << v;
  std::cout << ", victim p" << victim << "\n";

  // One cluster, checked: LaunchResult.ok (agreement, validity,
  // termination, decision round <= Lat(A, f), no mistimed suspicion) and
  // every survivor suspecting exactly the crashed set.
  const auto launch = [&](const net::LaunchSpec& spec) {
    removeTree(spec.reportDir);
    Launch l;
    l.seconds = timeSeconds([&] { l.result = net::launchCluster(spec); });
    bool ok = l.result.ok;
    const std::uint64_t crashed =
        spec.script.faultyWithin(cfg.t + 3, spec.cfg.n).mask();
    for (const net::NodeOutcome& o : l.result.nodes)
      if (!o.scriptedCrash)
        ok = ok && o.reportOk && o.report.suspectedFinal == crashed &&
             o.report.fd.suspicions == std::popcount(crashed);
    std::string why;
    for (const std::string& f : l.result.failures) why += " " + f;
    report.op(ok, "wire-n4 cluster (" +
                      std::to_string(spec.script.numCrashes()) +
                      " crash):" + why);
    return l;
  };

  std::filesystem::create_directories(args.workDir);
  std::vector<double> ff, cr;
  std::vector<double> ffDone, crDone;  ///< slowest survivor per cluster
  NodeTotals firstFf, firstCrash, all;
  const auto record = [&](const Launch& l, std::vector<double>& secs,
                          std::vector<double>& done, NodeTotals& first) {
    const NodeTotals t = totals(l.result);
    if (secs.empty()) first = t;
    report.check(t.rounds == first.rounds && t.suspicions == first.suspicions,
                 "wire-n4: clusters of one kind disagree on rounds or "
                 "suspicions");
    secs.push_back(l.seconds);
    done.push_back(static_cast<double>(t.slowestMs) / 1000.0);
    all.retransmits += t.retransmits;
    all.dataDatagrams += t.dataDatagrams;
  };
  const Budget budget(args.seconds);
  do {
    record(launch(failureFree), ff, ffDone, firstFf);
    record(launch(crash), cr, crDone, firstCrash);
  } while (report.correct() &&
           budget.allows(median(ff) + median(cr)));

  const std::int64_t rounds = firstFf.rounds + firstCrash.rounds;
  const std::int64_t suspicions = firstFf.suspicions + firstCrash.suspicions;
  report.exact("net.rounds", rounds);
  report.exact("net.suspicions", suspicions);
  std::cout << "wire-n4: op_s = decide_s, op_variant_s = decide_crash_s, "
            << ff.size() << " clusters each\n";
  if (!args.trace) {
    removeTree(args.workDir);
    report.metric("op_s", median(ff), "s");
    report.metric("op_variant_s", median(cr), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    return setup;
  }

  // Traced: one cluster of each kind, one span each; then the parts of the
  // verdict path that are not the protocol, three times each — the
  // analyzer bound launchCluster computes after reaping, and a one-process
  // cluster for the fixed cost of fork, linger and reaping.
  beginTrace();
  double traced = 0;
  {
    obs::ScopedSpan root("wire-n4");
    {
      obs::ScopedSpan span("net.launch");
      traced += launch(failureFree).seconds;
    }
    {
      obs::ScopedSpan span("net.launch_crash");
      traced += launch(crash).seconds;
    }
  }
  std::vector<double> latBound, single;
  {
    obs::ScopedSpan root("wire-n4.decompose");
    net::LaunchSpec one = failureFree;
    one.cfg = RoundConfig{1, 0};
    one.values.resize(1);
    for (int i = 0; i < 3; ++i) {
      latBound.push_back(timeSeconds([&] {
        obs::ScopedSpan span("analysis.lat_bound");
        report.check(net::analyzerLatBound(entry, cfg, 0) != kNoRound,
                     "wire-n4: no analyzer bound");
      }));
      single.push_back(timeSeconds([&] {
        obs::ScopedSpan span("net.single_node");
        launch(one);
      }));
    }
  }
  const SpanSeconds spans = endTrace(args);

  report.metric("analysis.lat_bound_s", median(latBound), "s");
  report.metric("net.node_done_s", median(ffDone), "s");
  report.metric("net.node_done_crash_s", median(crDone), "s");
  report.metric("net.harness_s",
                median(ff) - median(ffDone) - median(latBound),
                "s");
  report.metric("net.single_node_s", median(single), "s");
  report.metric("net.crash_penalty_s", median(cr) - median(ff), "s");
  report.metric("net.retransmit_ratio",
                static_cast<double>(all.retransmits) /
                    static_cast<double>(all.dataDatagrams),
                "ratio");
  report.metric("net.rounds", static_cast<double>(rounds), "count");
  report.metric("net.suspicions", static_cast<double>(suspicions), "count");
  report.metric("unattributed_s", spans.unattributed, "s");
  report.metric("trace_overhead_s",
                traced - median(ff) - median(cr), "s");
  removeTree(args.workDir);
  return setup;
}

}  // namespace perfbench
