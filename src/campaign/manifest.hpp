// Campaign manifest: the durable ledger of one sharded sweep campaign.
//
// A campaign decomposes the exhaustive sweep of one cell — an algorithm at
// (n, t) in its model — into ShardRange slices of the canonical script
// stream (see explore/spec.hpp).  The manifest records the request
// (CampaignSpec), the stream's script count and, per shard, whether it is
// done and (if so) its McReport.  Everything else — the model, the
// enumeration, the reduction facts — is derived from the request through
// the registry (canonicalSweep), when the manifest is built and every time
// it is loaded, so a manifest cannot disagree with the sweep it names.
// Because shard sweeps keep GLOBAL script indices, folding the per-shard
// reports in range order with mergeMcReports reproduces the single-process
// sweep's report bit for bit.
//
// The orchestrator (campaign.hpp) is the only writer: it saves the manifest
// atomically (tmp + rename) after every shard completion, so a campaign
// killed at ANY point — including SIGKILL — resumes by rerunning only the
// shards not yet recorded as done.  Shard workers never touch the manifest;
// they hand their report to the orchestrator through a result file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explore/spec.hpp"
#include "mc/checker.hpp"
#include "rounds/failure_script.hpp"

namespace ssvsp {

struct ShardEntry {
  ShardRange range;
  bool done = false;
  /// The shard's sweep report (global script indices); meaningful only when
  /// done.
  McReport report;
};

/// What a campaign sweeps: the request, and all a manifest persists of the
/// sweep.  The enumeration and the reduction facts are derived from the
/// registry entry exactly like the canonical latency sweeps
/// (canonicalSweep), so "campaign result" and "in-memory sweep result" are
/// reports over the same space.
struct CampaignSpec {
  std::string algorithm;  ///< registry name (consensus/registry.hpp)
  int n = 4;
  int t = 2;
  /// Cap on the script stream (-1 = the full space).
  std::int64_t maxScripts = -1;
  /// Scripts per shard — the campaign's scheduling grain.
  std::int64_t shardScripts = 2048;
  int maxViolations = 4;
  /// State-space reduction the shards sweep under.  Reports are
  /// bit-identical across modes, and the persistent memo store stays valid
  /// across modes (every key maps to the true summary of the script it
  /// canonicalizes).
  Reduction reduction = Reduction::kSymmetry;

  bool operator==(const CampaignSpec&) const = default;
};

struct CampaignManifest : CampaignSpec {
  /// The algorithm's intended model, looked up in the registry by
  /// resolve(); not persisted.
  RoundModel model = RoundModel::kRs;
  /// Scripts in the whole stream.  Persisted: counting enumerates the
  /// stream, and status and query must not pay for that.
  std::int64_t totalScripts = 0;
  std::vector<ShardEntry> shards;

  /// The one validation of a request, run on every built and every loaded
  /// manifest before anything is counted, written or forked: the algorithm
  /// is registered (which sets `model`), n >= 2, 0 <= t < n,
  /// shardScripts >= 1, and the derived sweep passes preflightSweep.
  bool resolve(std::string* error = nullptr);

  int pendingCount() const;
  bool complete() const { return pendingCount() == 0; }

  /// Folds the done shards' reports in range order; requires complete().
  McReport mergedReport() const;

  /// The McCheckOptions of shard `index`'s slice: the canonical sweep of the
  /// request, one thread — campaign parallelism is across processes.
  McCheckOptions shardOptions(std::size_t index) const;

  std::string toJsonString() const;
  static std::optional<CampaignManifest> fromJsonString(
      std::string_view text, std::string* error = nullptr);

  /// Atomic save: write to `path`.tmp, fsync, rename over `path`.
  bool save(const std::string& path, std::string* error = nullptr) const;
  static std::optional<CampaignManifest> load(const std::string& path,
                                              std::string* error = nullptr);
};

}  // namespace ssvsp
