// ssvsp_net — the real-transport backend CLI.
//
//   ssvsp_net launch --algo NAME --n N --t T [--values V,V,...] [options]
//   ssvsp_net replay <scenario.txt> [options]
//
// `launch` runs one consensus instance as n forked node processes on UDP
// loopback and checks the verdict: uniform agreement, validity, termination,
// and every decision round within the static analyzer's Lat(A, f).
// `replay` does the same for a scenarios/ crash script — the scripted
// crashes become real SIGKILLs at the scripted round — after a lint
// preflight (L311: crash beyond the replayable horizon is a hard reject;
// L312: pendings are advisory, the network schedules arrivals).

#include <signal.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "consensus/registry.hpp"
#include "lint/lint.hpp"
#include "net/harness.hpp"
#include "util/argspec.hpp"

namespace {

using namespace ssvsp;
using namespace ssvsp::net;

/// Registry lookup, forgiving about case ("floodsetws" = "FloodSetWS").
const AlgorithmEntry* findAlgorithmInsensitive(const std::string& name) {
  if (const AlgorithmEntry* exact = findAlgorithm(name)) return exact;
  auto lower = [](const std::string& s) {
    std::string out = s;
    for (char& c : out)
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    return out;
  };
  const std::string want = lower(name);
  for (const AlgorithmEntry& entry : algorithmRegistry())
    if (lower(entry.name) == want) return &entry;
  return nullptr;
}

void printRegistry() {
  std::fprintf(stderr, "registered algorithms:\n");
  for (const AlgorithmEntry& entry : algorithmRegistry())
    std::fprintf(stderr, "  %-20s (%s, %s)\n", entry.name.c_str(),
                 toString(entry.intendedModel).c_str(), entry.paperRef.c_str());
}

bool parseFdMode(const std::string& text, FdMode* out) {
  if (text == "P" || text == "p") {
    *out = FdMode::kPerfect;
    return true;
  }
  if (text == "diamond-P" || text == "diamond-p" || text == "dP" ||
      text == "dp") {
    *out = FdMode::kEventuallyPerfect;
    return true;
  }
  return false;
}

bool parseValueList(const std::string& text, int n, std::vector<Value>* out) {
  out->clear();
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ','))
    out->push_back(static_cast<Value>(std::atoi(item.c_str())));
  return static_cast<int>(out->size()) == n;
}

/// Shared knobs of launch/replay, registered onto one ArgSpec.
struct TransportKnobs {
  std::string reportDir = "net_reports";
  std::int64_t timeoutMs = 200;
  std::int64_t periodMs = 20;
  std::string fdName = "P";
  std::int64_t deadlineMs = 30000;
  bool verbose = false;

  void attach(ArgSpec& args) {
    args.value("report-dir", &reportDir,
               "directory for node reports (default net_reports)")
        .value("timeout-ms", &timeoutMs,
               "FD suspicion timeout (default 200; mistimed = observable)")
        .value("period-ms", &periodMs, "heartbeat period (default 20)")
        .value("fd", &fdName, "failure detector: P or diamond-P (default P)")
        .value("deadline-ms", &deadlineMs,
               "per-node wall-clock stop (default 30000)")
        .flag("verbose", &verbose, "narrate forks, kills and decisions");
  }

  bool apply(LaunchSpec* spec) {
    spec->reportDir = reportDir;
    spec->heartbeat.timeoutMs = timeoutMs;
    spec->heartbeat.periodMs = periodMs;
    spec->deadlineMs = deadlineMs;
    spec->verbose = verbose;
    return parseFdMode(fdName, &spec->heartbeat.mode);
  }
};

int reportVerdict(const LaunchResult& result) {
  for (const NodeOutcome& o : result.nodes) {
    if (o.scriptedCrash) {
      const bool killed =
          WIFSIGNALED(o.waitStatus) && WTERMSIG(o.waitStatus) == SIGKILL;
      std::printf("  node %d: crashed (scripted, %s)\n", o.node,
                  killed ? "SIGKILL delivered" : "KILL MISSED");
      continue;
    }
    if (!o.reportOk) {
      std::printf("  node %d: NO REPORT (%s)\n", o.node,
                  o.reportError.c_str());
      continue;
    }
    const std::string outcome =
        o.report.decided ? "decided " + std::to_string(o.report.decision) +
                               " in round " +
                               std::to_string(o.report.decisionRound)
                         : std::string("undecided");
    std::printf("  node %d: %s  (rounds=%d, "
                "retransmits=%lld, late=%lld, suspectedFinal=%#llx)\n",
                o.node, outcome.c_str(), o.report.roundsCompleted,
                static_cast<long long>(o.report.link.retransmits),
                static_cast<long long>(o.report.lateDeliveries),
                static_cast<unsigned long long>(o.report.suspectedFinal));
  }
  if (result.latBound != kNoRound)
    std::printf("analyzer bound: Lat(A, %d) = %d; worst observed decision "
                "round = %d\n",
                result.observedCrashes, result.latBound,
                result.worstDecisionRound);
  if (result.ok) {
    std::printf("verdict: OK — consensus reached, every decision within "
                "Lat(A, f)\n");
    return 0;
  }
  std::printf("verdict: FAILED\n");
  for (const std::string& failure : result.failures)
    std::printf("  ! %s\n", failure.c_str());
  return 1;
}

int cmdLaunch(int argc, char** argv) {
  std::string algo;
  int n = 0, t = -1;
  std::string valuesText;
  int maxRounds = 0;
  TransportKnobs knobs;
  ArgSpec args("ssvsp_net launch --algo NAME --n N --t T [options]",
               "Run one consensus instance as n real processes on UDP "
               "loopback and check the verdict against the analyzer.");
  args.value("algo", &algo, "registry name (case-insensitive)")
      .value("n", &n, "number of processes")
      .value("t", &t, "crash-resilience bound")
      .value("values", &valuesText,
             "comma-separated initial values (default: i mod 2)")
      .value("max-rounds", &maxRounds, "rounds each node runs (default t+2)");
  knobs.attach(args);
  args.parse(&argc, argv);

  const AlgorithmEntry* entry = findAlgorithmInsensitive(algo);
  if (entry == nullptr) {
    std::fprintf(stderr, "ssvsp_net launch: unknown algorithm '%s'\n",
                 algo.c_str());
    printRegistry();
    return 2;
  }
  if (n < 1 || n > kMaxProcs || t < 0 || t >= n) {
    std::fprintf(stderr,
                 "ssvsp_net launch: need 1 <= n <= %d and 0 <= t < n\n",
                 kMaxProcs);
    return 2;
  }
  LaunchSpec spec;
  spec.entry = entry;
  spec.cfg = RoundConfig{n, t};
  spec.maxRounds = maxRounds;
  if (valuesText.empty())
    for (int i = 0; i < n; ++i) spec.values.push_back(i % 2);
  else if (!parseValueList(valuesText, n, &spec.values)) {
    std::fprintf(stderr, "ssvsp_net launch: --values must list exactly %d "
                         "comma-separated integers\n", n);
    return 2;
  }
  if (!knobs.apply(&spec)) {
    std::fprintf(stderr, "ssvsp_net launch: unknown --fd '%s' (want P or "
                         "diamond-P)\n", knobs.fdName.c_str());
    return 2;
  }
  std::printf("launching %s n=%d t=%d over UDP loopback...\n",
              entry->name.c_str(), n, t);
  return reportVerdict(launchCluster(spec));
}

int cmdReplay(int argc, char** argv) {
  std::string path;
  int maxRounds = 0;
  TransportKnobs knobs;
  ArgSpec args("ssvsp_net replay <scenario.txt> [options]",
               "Replay a scenarios/ crash script on the real transport: "
               "scripted crashes become SIGKILLs at the scripted round.");
  args.positional("scenario", &path, "scenario file (scenarios/*.txt)")
      .value("max-rounds", &maxRounds,
             "override the replayable horizon (default: scenario horizon)");
  knobs.attach(args);
  args.parse(&argc, argv);

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "ssvsp_net replay: cannot read '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  // Preflight: the standard scenario lint, then the replay-specific pass.
  DiagnosticSink sink;
  const ScenarioLintResult lint = lintScenarioText(buf.str(), sink);
  if (lint.parsed)
    lintScenarioForReplay(lint.scenario, maxRounds, sink);
  if (!sink.empty())
    std::fprintf(stderr, "%s", renderText(sink.diagnostics(), path).c_str());
  if (!lint.parsed || sink.hasErrors()) {
    std::fprintf(stderr, "ssvsp_net replay: preflight rejected '%s'\n",
                 path.c_str());
    return 1;
  }

  LaunchSpec spec;
  std::string error;
  if (!launchSpecFromScenario(lint.scenario, &spec, &error)) {
    std::fprintf(stderr, "ssvsp_net replay: %s\n", error.c_str());
    return 1;
  }
  if (maxRounds > 0) spec.maxRounds = maxRounds;
  if (!knobs.apply(&spec)) {
    std::fprintf(stderr, "ssvsp_net replay: unknown --fd '%s'\n",
                 knobs.fdName.c_str());
    return 2;
  }
  std::printf("replaying %s: %s n=%d t=%d, %d scripted crash(es)...\n",
              path.c_str(), spec.entry->name.c_str(), spec.cfg.n, spec.cfg.t,
              spec.script.numCrashes());
  return reportVerdict(launchCluster(spec));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ssvsp_net <launch|replay> ...\n"
                 "       (each subcommand takes --help)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  argv[1] = argv[0];
  if (cmd == "launch") return cmdLaunch(argc - 1, argv + 1);
  if (cmd == "replay") return cmdReplay(argc - 1, argv + 1);
  std::fprintf(stderr, "ssvsp_net: unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
