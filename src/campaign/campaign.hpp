// Campaign orchestrator: multi-process sharded sweeps with a persistent
// memo store and a cached Lat(A, f) query front-end.
//
// A campaign turns one cell's exhaustive sweep — algorithm x (n, t) x model
// — into durable, addressable work:
//
//   * the script stream is cut into ShardRange slices (the manifest's shard
//     plan); each shard sweep keeps GLOBAL script indices, so shard reports
//     merge bit-identically into the whole-stream McReport;
//   * runShard() executes one slice against the campaign's MemoStore, in
//     this process or in a forked worker — the ShardJob is the same either
//     way;
//   * the request (CampaignSpec, campaign/manifest.hpp) is validated —
//     registered algorithm, sane (n, t) and grain, a sweep that passes
//     preflightSweep — before the manifest is written and before any fork;
//   * the orchestrator deals the pending shards, in plan order, round-robin
//     into W = min(workers, pending) static lanes and forks one long-lived
//     worker per lane.  The worker keeps the memo it inherited — the orbits
//     loaded at open — and adds every orbit it executes, so a worker never
//     executes an orbit twice; what a lane appends depends only on the plan
//     and W.  A straggling lane is not rebalanced;
//   * the orchestrator orders each shard over the lane's socket and records
//     it (report + manifest save, tmp + rename) once the worker reports it
//     durable.  A worker killed by a signal is replaced by a new one, which
//     holds only the orbits loaded at open and takes over the rest of the
//     lane from the killed shard.  Killing ANY process — SIGKILL included —
//     costs at most the in-flight shards: `resume` (the same runCampaign
//     call) reruns only shards not recorded done.  A worker that EXITS
//     non-zero reported a failure (a tripwire, an unpublishable result)
//     that a rerun would repeat: the orchestrator orders nothing more,
//     records what the other lanes finish, reaps every worker and returns
//     the failure;
//   * queryCampaign() answers Lat(A, f) / verdict lookups from the merged
//     manifest reports without executing anything, with admission control:
//     an incomplete campaign or an f outside the swept crash budget is
//     rejected with a reason pointing at the manifest entry to fix.
//
// Layout of a campaign directory: manifest.json (ledger, orchestrator-only
// writer), memo.log (MemoStore; each lane's worker appends the orbits it
// executes, one sealed segment per shard), shard-<first>.json (transient
// worker -> orchestrator handoff, deleted once recorded).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/store.hpp"
#include "explore/reduction.hpp"
#include "mc/checker.hpp"

namespace ssvsp {

struct CampaignOptions {
  /// Campaign directory (created if absent): manifest.json + memo.log.
  std::string dir;
  /// Lanes, each run by one long-lived forked worker that keeps its memo
  /// across the lane's shards (min(workers, pending shards) of them);
  /// 0 = run shards in THIS process (no fork — the mode tests and
  /// single-machine debugging use).
  int workers = 2;
  /// Test hook: the worker ordered this shard-plan index kills itself
  /// (SIGKILL) mid-shard, once; -1 = off.  The orchestrator survives, a
  /// replacement worker reruns the shard and the rest of its lane, and the
  /// campaign completes.
  int chaosKillShard = -1;
};

/// One addressable unit of campaign work: the manifest's sweep spec
/// restricted to the shard at `index`.  Stable across execution modes —
/// in-process, forked worker, and resume all run the same job.
struct ShardJob {
  const CampaignManifest& manifest;
  std::size_t index = 0;
};

struct ShardResult {
  McReport report;
  SweepRunStats stats;
  /// Memo records the executing worker appended while running this shard:
  /// the orbits its memo had not yet met (0 when run without a MemoStore).
  /// Summed into CampaignResult::memoEntriesAppended.
  std::int64_t memoAppended = 0;
};

/// Executes one shard job against `memo` (nullable: cold, unshared run).
/// Pure: no filesystem side effects beyond what `memo` itself stages.
ShardResult runShard(const ShardJob& job, RunMemo* memo);

/// Folds per-shard reports (range order) into the whole-sweep report —
/// the other half of the runShard()/mergeShards() contract.
McReport mergeShards(std::vector<McReport>&& reports, int maxViolations);

struct CampaignResult {
  bool ok = false;
  std::string error;
  McReport report;  ///< merged over ALL shards (valid when ok)
  int shardsTotal = 0;
  int shardsSkipped = 0;  ///< already done in the manifest (resume path)
  int shardsRun = 0;      ///< executed by this invocation
  int workersForked = 0;  ///< one per lane, plus one per replacement
  int workerDeaths = 0;   ///< workers killed by a signal, then replaced
  std::int64_t memoEntriesLoaded = 0;    ///< replayed from memo.log
  std::int64_t memoEntriesAppended = 0;  ///< new orbits this invocation
  std::int64_t memoBytesRepaired = 0;    ///< torn tail truncated on open
  /// Aggregated execution counters of the shards THIS invocation ran.
  SweepRunStats stats;
};

/// Runs (or resumes) the campaign: creates dir + manifest on first call,
/// refuses a `spec` that differs from the existing manifest's otherwise,
/// then drains pending shards.  Returns the merged report once every shard
/// is done.
CampaignResult runCampaign(const CampaignSpec& spec,
                           const CampaignOptions& options);

/// The manifest, for status display; nullopt (with `error`) when absent or
/// unreadable.
std::optional<CampaignManifest> campaignStatus(const std::string& dir,
                                               std::string* error = nullptr);

/// One Lat(A, f) / verdict answer from the query front-end.
struct CampaignAnswer {
  int f = 0;
  bool admitted = false;
  std::string reason;  ///< why not admitted (points at the manifest entry)
  Round latency = kNoRound;  ///< Lat(A, f); kNoRound = unbounded (when admitted)
  bool consensusOk = false;  ///< no violations over the swept space
};

/// Answers every f in `crashBudgets` with ONE manifest read and ONE report
/// merge (the batched read path).  Admission control rejects — per query,
/// with a reason — campaigns that are incomplete and budgets outside the
/// swept space, instead of answering from partial data.
std::vector<CampaignAnswer> queryCampaign(const std::string& dir,
                                          const std::vector<int>& crashBudgets,
                                          std::string* error = nullptr);

}  // namespace ssvsp
