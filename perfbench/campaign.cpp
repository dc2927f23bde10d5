// campaign-rws4: `ssvsp_campaign run FloodSetWS 4 2 --max-scripts=200000
// --reduction=symmetry_por` (2 forked workers, 2048-script shards) on the
// ordinary filesystem, then the Lat(A, f) query for f = 0, 1, 2.  op_s is
// the cold pass from an empty directory; op_variant_s the warm pass, with
// manifest.json removed and memo.log kept, which must execute no engine
// run.  The only workload on the campaign store, the modelCheckConsensus
// fold and the sweep layers (mc, indep, explore, rounds), which its traced
// run splits with replaySweep.  --seed is unused (the sweep is exhaustive).
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "campaign/campaign.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace ssvsp;

namespace {

struct Pass {
  double seconds = 0;
  CampaignResult result;
  std::vector<CampaignAnswer> answers;
};

}  // namespace

double runCampaign(const Args& args, Report& report) {
  CampaignSpec spec;
  spec.algorithm = "FloodSetWS";
  spec.n = 4;
  spec.t = 2;
  spec.maxScripts = 200000;
  spec.reduction = Reduction::kSymmetryPor;
  CampaignOptions options;
  options.dir = args.workDir + "/campaign";
  options.workers = 2;
  const std::vector<int> budgets = {0, 1, 2};
  const double setup = setupSeconds(args);
  if (args.setupOnly) return setup;

  const std::string manifestPath = options.dir + "/manifest.json";
  const std::string storePath = options.dir + "/memo.log";
  const auto run = [&] {
    Pass p;
    p.seconds = timeSeconds([&] {
      p.result = ssvsp::runCampaign(spec, options);
      p.answers = queryCampaign(options.dir, budgets);
    });
    return p;
  };

  // The oracle, computed once after the first cold pass created the
  // manifest: the same spec swept in memory over the whole stream.  One
  // thread: a multi-threaded sweep leaves per-thread allocator arenas
  // behind, and the forked workers' peak RSS would vary with them.
  McReport reference;
  SweepRunStats referenceStats;
  bool haveReference = false;
  const auto checkPass = [&](const Pass& p, bool warm) {
    const std::string what = warm ? "warm" : "cold";
    bool ok = p.result.ok;
    if (ok && !haveReference) {
      std::string error;
      const std::optional<CampaignManifest> manifest =
          campaignStatus(options.dir, &error);
      report.check(manifest.has_value(), "campaign-rws4 manifest: " + error);
      if (manifest) {
        McCheckOptions ref = manifest->shardOptions(0);
        ref.shard = ShardRange{};  // the whole stream
        ref.runStats = &referenceStats;
        reference = modelCheckConsensus(
            algorithmByName(spec.algorithm).factory,
            RoundConfig{spec.n, spec.t}, manifest->model, ref);
        haveReference = true;
      }
    }
    ok = ok && haveReference &&
         p.result.report.toJsonString() == reference.toJsonString();
    ok = ok && p.answers.size() == budgets.size();
    for (std::size_t i = 0; ok && i < p.answers.size(); ++i)
      ok = p.answers[i].admitted &&
           p.answers[i].latency == reference.latUpToCrashes(budgets[i]) &&
           p.answers[i].consensusOk == reference.ok();
    if (warm)
      ok = ok && p.result.stats.runsExecuted == 0 &&
           p.result.memoEntriesAppended == 0;
    report.op(ok, "campaign-rws4 " + what + " pass: " +
                      (p.result.ok ? "wrong answer" : p.result.error));
  };

  std::filesystem::create_directories(args.workDir);
  std::vector<double> cold, warm;
  Pass firstCold;
  double logMb = 0;  ///< memo.log after the first cold pass
  const Budget budget(args.seconds);
  do {
    removeTree(options.dir);
    Pass c = run();
    checkPass(c, false);
    if (cold.empty() && c.result.ok)
      logMb = static_cast<double>(std::filesystem::file_size(storePath)) /
              1048576.0;
    std::filesystem::remove(manifestPath);
    Pass w = run();
    checkPass(w, true);
    report.check(w.result.memoEntriesLoaded == c.result.memoEntriesAppended,
                 "campaign-rws4: warm pass loaded a different record count");
    cold.push_back(c.seconds);
    warm.push_back(w.seconds);
    if (cold.size() == 1) {
      firstCold = std::move(c);
    } else {
      report.check(c.result.memoEntriesAppended ==
                       firstCold.result.memoEntriesAppended,
                   "campaign-rws4: cold passes appended different counts");
    }
  } while (report.correct() &&
           budget.allows(median(cold) + median(warm)));

  const std::int64_t appended = firstCold.result.memoEntriesAppended;
  report.exact("campaign.records_appended", appended);
  report.exact("campaign.records_distinct", referenceStats.memoEntries);
  report.exact("campaign.workers_forked", firstCold.result.workersForked);

  std::cout << "campaign-rws4: op_s = cold_s, op_variant_s = warm_s, "
            << cold.size() << " pairs\n";
  if (!args.trace) {
    removeTree(args.workDir);
    report.metric("op_s", median(cold), "s");
    report.metric("op_variant_s", median(warm), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    return setup;
  }

  // Decomposition of the pass, in this process: replay the store the cold
  // pass wrote, run every shard job, merge and answer; then the same
  // sweep chunk by chunk through the layers.  Run once untraced and once
  // traced, so the difference is the tracing overhead.
  std::string error;
  const std::optional<CampaignManifest> manifest =
      campaignStatus(options.dir, &error);
  report.check(manifest.has_value(), "campaign-rws4 manifest: " + error);
  if (!manifest) return setup;
  McCheckOptions sweepSpec = manifest->shardOptions(0);
  sweepSpec.shard = ShardRange{};
  const AlgorithmEntry& entry = algorithmByName(spec.algorithm);
  const RoundConfig cfg{spec.n, spec.t};

  std::vector<double> shardSecs;
  std::int64_t distinct = 0;
  ReplayResult replay;
  const auto decompose = [&] {
    obs::ScopedSpan root("campaign-rws4");
    {
      obs::ScopedSpan span("campaign.store_open");
      const std::unique_ptr<MemoStore> store =
          MemoStore::open(storePath, &error);
      distinct = store != nullptr ? store->size() : -1;
    }
    std::vector<McReport> reports;
    shardSecs.clear();
    for (std::size_t i = 0; i < manifest->shards.size(); ++i)
      shardSecs.push_back(timeSeconds([&] {
        obs::ScopedSpan span("campaign.shard");
        reports.push_back(runShard(ShardJob{*manifest, i}, nullptr).report);
      }));
    {
      obs::ScopedSpan span("campaign.merge_query");
      const McReport merged =
          mergeShards(std::move(reports), manifest->maxViolations);
      const std::vector<CampaignAnswer> answers =
          queryCampaign(options.dir, budgets);
      report.check(merged.toJsonString() == reference.toJsonString() &&
                       answers.size() == budgets.size(),
                   "campaign-rws4: merged shard jobs differ from the oracle");
    }
    replay = replaySweep(entry, cfg, sweepSpec);
  };
  const double untraced = timeSeconds(decompose);
  beginTrace();
  decompose();
  const SpanSeconds spans = endTrace(args);
  report.check(distinct == referenceStats.memoEntries,
               "campaign-rws4: memo.log holds " + std::to_string(distinct) +
                   " distinct orbits, the oracle " +
                   std::to_string(referenceStats.memoEntries));
  report.check(replay.memoEntries == referenceStats.memoEntries &&
                   replay.runsRequested == referenceStats.runsRequested &&
                   replay.violations == 0,
               "campaign-rws4: the traced replay did different work than "
               "the in-memory sweep");

  reportReplay(replay, spans, report);
  report.metric("campaign.store_open_s",
                spans.self.at("campaign.store_open"), "s");
  report.metric("campaign.records_appended", static_cast<double>(appended),
                "count");
  report.metric("campaign.records_distinct", static_cast<double>(distinct),
                "count");
  report.metric("campaign.append_waste_ratio",
                static_cast<double>(appended) / static_cast<double>(distinct),
                "ratio");
  report.metric("campaign.log_mb", logMb, "MB");
  report.metric("campaign.shard_s", median(shardSecs), "s");
  report.metric("campaign.merge_query_s",
                spans.self.at("campaign.merge_query"), "s");
  report.metric("campaign.workers_forked",
                firstCold.result.workersForked, "count");
  report.metric("unattributed_s", spans.unattributed, "s");
  report.metric("trace_overhead_s",
                spans.total.at("campaign-rws4") - untraced, "s");
  std::cout << "campaign-rws4: decomposition " << untraced
            << " s untraced, " << spans.total.at("campaign-rws4")
            << " s traced\n";
  removeTree(args.workDir);
  return setup;
}

}  // namespace perfbench
