// ssvsp_campaign — the campaign orchestrator CLI.
//
//   ssvsp_campaign run <algorithm> <n> <t> --dir=DIR [--workers=W] ...
//   ssvsp_campaign resume --dir=DIR [--workers=W]
//   ssvsp_campaign status --dir=DIR
//   ssvsp_campaign query --dir=DIR <f>...
//   ssvsp_campaign compact --dir=DIR | --store=PATH [--force]
//
// `run` creates (or resumes) a sharded, multi-process exhaustive sweep of
// one algorithm cell; the campaign directory holds the manifest ledger and
// the shared memo store, and survives kill -9 of any process involved.
// `query` answers Lat(A, f) / verdict lookups from the finished campaign
// without executing a single run.  `compact` rewrites the memo store's
// multi-writer segments into one deduplicated, footer-sealed segment.

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/store.hpp"
#include "consensus/registry.hpp"
#include "util/argspec.hpp"

namespace {

using namespace ssvsp;

std::string roundText(Round r) {
  return r == kNoRound ? "unbounded" : std::to_string(r);
}

void printRegistry() {
  std::fprintf(stderr, "registered algorithms:\n");
  for (const AlgorithmEntry& entry : algorithmRegistry())
    std::fprintf(stderr, "  %-20s (%s, %s)\n", entry.name.c_str(),
                 toString(entry.intendedModel).c_str(), entry.paperRef.c_str());
}

int reportCampaign(const CampaignResult& result) {
  if (!result.ok) {
    std::fprintf(stderr, "ssvsp_campaign: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("campaign complete: %d shards (%d skipped as done, %d run)\n",
              result.shardsTotal, result.shardsSkipped, result.shardsRun);
  std::printf(
      "  workers forked %d, worker deaths survived %d\n"
      "  memo: %lld entries replayed, %lld appended, %lld torn bytes "
      "repaired\n",
      result.workersForked, result.workerDeaths,
      static_cast<long long>(result.memoEntriesLoaded),
      static_cast<long long>(result.memoEntriesAppended),
      static_cast<long long>(result.memoBytesRepaired));
  if (result.shardsRun > 0)
    std::printf("  this invocation: %lld runs requested, %lld from memo, "
                "%lld executed\n",
                static_cast<long long>(result.stats.runsRequested),
                static_cast<long long>(result.stats.runsFromMemo),
                static_cast<long long>(result.stats.runsExecuted));
  std::printf("%s\n", result.report.summary().c_str());
  return result.report.ok() ? 0 : 1;
}

int cmdRun(int argc, char** argv) {
  CampaignSpec spec;
  CampaignOptions options;
  std::string algorithm, nText, tText;
  std::string reductionName(toString(spec.reduction));
  ArgSpec args("ssvsp_campaign run <algorithm> <n> <t> --dir=DIR [options]",
               "Start (or resume) a sharded multi-process sweep campaign.");
  args.positional("algorithm", &algorithm, "registry name (see --help)")
      .positional("n", &nText, "number of processes")
      .positional("t", &tText, "crash-resilience bound")
      .value("dir", &options.dir, "campaign directory (created if absent)")
      .value("workers", &options.workers,
             "lanes, one long-lived forked worker each; 0 = in-process "
             "(default 2)")
      .value("shard-scripts", &spec.shardScripts,
             "scripts per shard (default 2048)")
      .value("max-scripts", &spec.maxScripts,
             "cap on the script stream (-1 = full space)")
      .value("max-violations", &spec.maxViolations,
             "violation witnesses kept (default 4)")
      .value("reduction", &reductionName,
             "none, symmetry or symmetry_por (default symmetry)")
      .value("chaos-kill-shard", &options.chaosKillShard,
             "TEST HOOK: SIGKILL the worker of this shard index once");
  args.parse(&argc, argv);
  const std::optional<Reduction> reduction =
      reductionFromString(reductionName);
  if (!reduction) {
    std::fprintf(stderr,
                 "ssvsp_campaign run: unknown reduction '%s' (want none, "
                 "symmetry or symmetry_por)\n",
                 reductionName.c_str());
    return 2;
  }
  spec.reduction = *reduction;
  if (findAlgorithm(algorithm) == nullptr) {
    std::fprintf(stderr, "ssvsp_campaign: unknown algorithm '%s'\n",
                 algorithm.c_str());
    printRegistry();
    return 2;
  }
  spec.algorithm = algorithm;
  spec.n = std::atoi(nText.c_str());
  spec.t = std::atoi(tText.c_str());
  if (options.dir.empty()) {
    std::fprintf(stderr, "ssvsp_campaign run: --dir is required\n");
    return 2;
  }
  return reportCampaign(runCampaign(spec, options));
}

int cmdResume(int argc, char** argv) {
  CampaignOptions options;
  ArgSpec args("ssvsp_campaign resume --dir=DIR [--workers=W]",
               "Resume a campaign from its manifest (spec read from disk).");
  args.value("dir", &options.dir, "campaign directory")
      .value("workers", &options.workers,
             "lanes, one long-lived forked worker each; 0 = in-process "
             "(default 2)")
      .value("chaos-kill-shard", &options.chaosKillShard,
             "TEST HOOK: SIGKILL the worker of this shard index once");
  args.parse(&argc, argv);
  std::string error;
  const std::optional<CampaignManifest> manifest =
      campaignStatus(options.dir, &error);
  if (!manifest) {
    std::fprintf(stderr, "ssvsp_campaign resume: %s\n", error.c_str());
    return 1;
  }
  // The manifest IS the spec.
  const CampaignSpec& spec = *manifest;
  return reportCampaign(runCampaign(spec, options));
}

int cmdStatus(int argc, char** argv) {
  std::string dir;
  ArgSpec args("ssvsp_campaign status --dir=DIR",
               "Print the campaign manifest's progress.");
  args.value("dir", &dir, "campaign directory");
  args.parse(&argc, argv);
  std::string error;
  const std::optional<CampaignManifest> manifest =
      campaignStatus(dir, &error);
  if (!manifest) {
    std::fprintf(stderr, "ssvsp_campaign status: %s\n", error.c_str());
    return 1;
  }
  const int pending = manifest->pendingCount();
  std::printf("%s n=%d t=%d model=%s: %zu shards (%lld scripts, grain "
              "%lld), %d pending\n",
              manifest->algorithm.c_str(), manifest->n, manifest->t,
              toString(manifest->model).c_str(), manifest->shards.size(),
              static_cast<long long>(manifest->totalScripts),
              static_cast<long long>(manifest->shardScripts), pending);
  for (std::size_t i = 0; i < manifest->shards.size(); ++i) {
    const ShardEntry& shard = manifest->shards[i];
    std::printf("  shard %3zu  [%lld, +%lld)  %s\n", i,
                static_cast<long long>(shard.range.firstScript),
                static_cast<long long>(
                    shard.range.countWithin(manifest->totalScripts)),
                shard.done ? "done" : "pending");
  }
  if (pending == 0)
    std::printf("%s\n", manifest->mergedReport().summary().c_str());
  return 0;
}

int cmdQuery(int argc, char** argv) {
  std::string dir;
  std::vector<std::string> budgetText;
  ArgSpec args("ssvsp_campaign query --dir=DIR <f>...",
               "Answer Lat(A, f) / verdict lookups from a finished "
               "campaign (batched; executes nothing).");
  args.value("dir", &dir, "campaign directory")
      .rest("f", &budgetText, "crash budgets to query");
  args.parse(&argc, argv);
  if (budgetText.empty()) {
    std::fprintf(stderr, "ssvsp_campaign query: give at least one f\n");
    return 2;
  }
  std::vector<int> budgets;
  for (const std::string& text : budgetText)
    budgets.push_back(std::atoi(text.c_str()));
  std::string error;
  const std::vector<CampaignAnswer> answers =
      queryCampaign(dir, budgets, &error);
  if (answers.empty()) {
    std::fprintf(stderr, "ssvsp_campaign query: %s\n", error.c_str());
    return 1;
  }
  bool allAdmitted = true;
  for (const CampaignAnswer& answer : answers) {
    if (answer.admitted) {
      std::printf("Lat(A, %d) = %s  consensus=%s\n", answer.f,
                  roundText(answer.latency).c_str(),
                  answer.consensusOk ? "ok" : "VIOLATED");
    } else {
      std::printf("f=%d REJECTED: %s\n", answer.f, answer.reason.c_str());
      allAdmitted = false;
    }
  }
  return allAdmitted ? 0 : 1;
}

int cmdCompact(int argc, char** argv) {
  std::string dir, storePath;
  bool force = false;
  ArgSpec args("ssvsp_campaign compact --dir=DIR | --store=PATH [--force]",
               "Rewrite the memo store as one deduplicated, footer-sealed "
               "segment.  Run it only when no campaign is appending.");
  args.value("dir", &dir, "campaign directory (compacts DIR/memo.log)")
      .value("store", &storePath, "memo store path (overrides --dir)")
      .flag("force", &force,
            "compact even if the last segment is unsealed (records past "
            "the final footer)");
  args.parse(&argc, argv);
  if (storePath.empty() && !dir.empty()) storePath = dir + "/memo.log";
  if (storePath.empty()) {
    std::fprintf(stderr, "ssvsp_campaign compact: give --dir or --store\n");
    return 2;
  }
  CompactStats stats;
  std::string error;
  if (!compactMemoStore(storePath, force, &stats, &error)) {
    std::fprintf(stderr, "ssvsp_campaign compact: %s\n", error.c_str());
    return 1;
  }
  std::printf(
      "compacted %s\n"
      "  %lld records (%lld footers%s) -> %lld deduplicated, 1 footer\n"
      "  %lld bytes -> %lld bytes\n",
      storePath.c_str(), static_cast<long long>(stats.entriesBefore),
      static_cast<long long>(stats.footersBefore),
      stats.entriesUnfooted > 0
          ? (", " + std::to_string(stats.entriesUnfooted) + " unsealed")
                .c_str()
          : "",
      static_cast<long long>(stats.entriesAfter),
      static_cast<long long>(stats.bytesBefore),
      static_cast<long long>(stats.bytesAfter));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ssvsp_campaign <run|resume|status|query|compact> "
                 "...\n"
                 "       (each subcommand takes --help)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  // Shift the subcommand out so each ArgSpec sees argv[0] + its own args.
  argv[1] = argv[0];
  if (cmd == "run") return cmdRun(argc - 1, argv + 1);
  if (cmd == "resume") return cmdResume(argc - 1, argv + 1);
  if (cmd == "status") return cmdStatus(argc - 1, argv + 1);
  if (cmd == "query") return cmdQuery(argc - 1, argv + 1);
  if (cmd == "compact") return cmdCompact(argc - 1, argv + 1);
  std::fprintf(stderr, "ssvsp_campaign: unknown subcommand '%s'\n",
               cmd.c_str());
  return 2;
}
