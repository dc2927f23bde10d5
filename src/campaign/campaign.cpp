#include "campaign/campaign.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "consensus/registry.hpp"
#include "latency/latency.hpp"
#include "mc/enumerator.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {

namespace {

bool setError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// mkdir -p for the campaign directory.
bool makeDirs(const std::string& dir, std::string* error) {
  std::string prefix;
  std::size_t start = 0;
  while (start <= dir.size()) {
    const std::size_t slash = dir.find('/', start);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    start = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
      return setError(error, "campaign mkdir '" + prefix +
                                 "': " + std::strerror(errno));
  }
  return true;
}

std::string manifestPath(const std::string& dir) {
  return dir + "/manifest.json";
}
std::string storePath(const std::string& dir) { return dir + "/memo.log"; }
std::string shardResultPath(const std::string& dir,
                            const ShardRange& range) {
  return dir + "/shard-" + std::to_string(range.firstScript) + ".json";
}

/// Builds a fresh manifest for `spec`: validated first, then the stream
/// counted and cut into shards.
bool buildManifest(const CampaignSpec& spec, CampaignManifest* m,
                   std::string* error) {
  static_cast<CampaignSpec&>(*m) = spec;
  if (!m->resolve(error)) return false;
  const RoundConfig cfg{m->n, m->t};
  m->totalScripts = countScripts(
      cfg, m->model,
      canonicalSweep(algorithmByName(m->algorithm), cfg, m->reduction,
                     m->maxScripts)
          .enumeration);
  for (const ShardRange& range :
       planShardRanges(m->totalScripts, m->shardScripts))
    m->shards.push_back(ShardEntry{range, false, McReport{}});
  return true;
}

/// Worker -> orchestrator handoff document.
std::string shardResultToJson(const ShardResult& result) {
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.kv("schema", kReportSchemaV1);
  w.kv("kind", "shard_result");
  w.key("report");
  result.report.toJson(w);
  w.key("stats");
  result.stats.toJson(w);
  w.kv("memo_appended", result.memoAppended);
  w.endObject();
  return os.str();
}

std::optional<ShardResult> shardResultFromFile(const std::string& path,
                                               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    setError(error, "shard result '" + path + "': cannot open");
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parseError;
  const std::optional<JsonValue> doc = parseJson(text.str(), &parseError);
  if (!doc) {
    setError(error, "shard result '" + path + "': " + parseError);
    return std::nullopt;
  }
  if (!checkJsonEnvelope(*doc, kReportSchemaV1, "shard_result", error))
    return std::nullopt;
  const JsonValue* report = doc->find("report");
  const JsonValue* stats = doc->find("stats");
  if (report == nullptr || stats == nullptr) {
    setError(error, "shard result '" + path + "': missing members");
    return std::nullopt;
  }
  ShardResult result;
  std::optional<McReport> parsedReport = McReport::fromJson(*report, error);
  if (!parsedReport) return std::nullopt;
  std::optional<SweepRunStats> parsedStats =
      SweepRunStats::fromJson(*stats, error);
  if (!parsedStats) return std::nullopt;
  result.report = std::move(*parsedReport);
  result.stats = *parsedStats;
  if (!readJsonI64(doc->find("memo_appended"), &result.memoAppended)) {
    setError(error, "shard result '" + path + "': bad memo_appended");
    return std::nullopt;
  }
  return result;
}

/// Shard worker body (forked child).  Runs the job, makes the memo batch
/// durable, publishes the result file, and _exit()s — no destructors, no
/// shared stdio flushing with the parent.  Every failure it can report
/// (an exception such as the L500/L501 tripwire, a memo or result write
/// error) is printed and ends the worker with a non-zero exit status.
[[noreturn]] void shardWorker(const CampaignManifest& manifest,
                              std::size_t index, MemoStore* store,
                              const std::string& dir, bool chaosKill) try {
  if (chaosKill) {
    // Chaos hook: do HALF the slice's work (so the memo log gains a real,
    // footerless partial segment), then die the hard way.  The
    // orchestrator must survive, reassign the slice, and still produce the
    // bit-identical merged report.
    CampaignManifest half = manifest;
    half.shards[index].range.numScripts =
        manifest.shards[index].range.countWithin(manifest.totalScripts) / 2;
    if (half.shards[index].range.numScripts > 0)
      runShard(ShardJob{half, index}, store);
    if (store != nullptr) store->flush(/*sync=*/true);
    ::kill(::getpid(), SIGKILL);
    ::_exit(127);  // unreachable
  }
  ShardResult result = runShard(ShardJob{manifest, index}, store);
  std::string error;
  if (store != nullptr) {
    if (!store->appendFooter(&error)) {
      std::fprintf(stderr, "[campaign worker] %s\n", error.c_str());
      ::_exit(3);
    }
    result.memoAppended = store->entriesAppended();
  }
  const std::string path =
      shardResultPath(dir, manifest.shards[index].range);
  if (!writeFileAtomic(path, shardResultToJson(result), /*sync=*/false,
                       &error)) {
    std::fprintf(stderr, "[campaign worker] %s\n", error.c_str());
    ::_exit(4);
  }
  ::_exit(0);
} catch (const std::exception& e) {
  std::fprintf(stderr, "[campaign worker] %s\n", e.what());
  ::_exit(5);
}

}  // namespace

ShardResult runShard(const ShardJob& job, RunMemo* memo) {
  const CampaignManifest& m = job.manifest;
  const AlgorithmEntry& entry = algorithmByName(m.algorithm);
  const RoundConfig cfg{m.n, m.t};
  McCheckOptions options = m.shardOptions(job.index);
  options.memo = memo;
  ShardResult result;
  options.runStats = &result.stats;
  result.report = modelCheckConsensus(entry.factory, cfg, m.model, options);
  return result;
}

McReport mergeShards(std::vector<McReport>&& reports, int maxViolations) {
  McReport merged;
  for (McReport& report : reports)
    mergeMcReports(merged, std::move(report), maxViolations);
  return merged;
}

CampaignResult runCampaign(const CampaignSpec& spec,
                           const CampaignOptions& options) {
  CampaignResult result;
  std::string error;
  if (options.dir.empty()) {
    result.error = "campaign needs a directory (--dir)";
    return result;
  }

  // Load-or-create the ledger.  A new request is validated and counted
  // before the directory or the manifest is written.
  CampaignManifest manifest;
  const std::string mpath = manifestPath(options.dir);
  if (std::ifstream(mpath).good()) {
    std::optional<CampaignManifest> loaded =
        CampaignManifest::load(mpath, &error);
    if (!loaded) {
      result.error = error;
      return result;
    }
    manifest = std::move(*loaded);
    // A resumed campaign must be THE SAME campaign: refuse a dir whose
    // manifest was built from a different spec instead of silently mixing
    // sweeps.
    if (spec != manifest) {
      result.error =
          "campaign dir holds a different spec (algorithm/n/t/max_scripts/"
          "shard_scripts/max_violations/reduction mismatch); use a fresh "
          "--dir or matching flags";
      return result;
    }
  } else if (!buildManifest(spec, &manifest, &error) ||
             !makeDirs(options.dir, &error) ||
             !manifest.save(mpath, &error)) {
    result.error = error;
    return result;
  }
  result.shardsTotal = static_cast<int>(manifest.shards.size());

  // Open the shared memo store: replay + torn-tail repair happen HERE,
  // before any worker exists, so appenders never race the repair.
  std::unique_ptr<MemoStore> store =
      MemoStore::open(storePath(options.dir), &error);
  if (store == nullptr) {
    result.error = error;
    return result;
  }
  result.memoEntriesLoaded = store->openStats().entriesLoaded;
  result.memoBytesRepaired = store->openStats().bytesTruncated;

  // Pending slices, largest remaining first (LPT): a straggler keeps its
  // one slice while the rest of the plan drains through other workers.
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    if (manifest.shards[i].done)
      ++result.shardsSkipped;
    else
      queue.push_back(i);
  }
  std::stable_sort(queue.begin(), queue.end(),
                   [&](std::size_t a, std::size_t b) {
                     return manifest.shards[a].range.countWithin(
                                manifest.totalScripts) >
                            manifest.shards[b].range.countWithin(
                                manifest.totalScripts);
                   });

  auto recordDone = [&](std::size_t index, ShardResult&& shard) -> bool {
    manifest.shards[index].done = true;
    manifest.shards[index].report = std::move(shard.report);
    result.stats.add(shard.stats);
    result.memoEntriesAppended += shard.memoAppended;
    ++result.shardsRun;
    return manifest.save(mpath, &error);
  };

  if (options.workers <= 0) {
    // In-process mode: same jobs, no forks.
    for (std::size_t index : queue) {
      const std::int64_t before = store->entriesAppended();
      ShardResult shard = runShard(ShardJob{manifest, index}, store.get());
      shard.memoAppended = store->entriesAppended() - before;
      if (!store->appendFooter(&error) || !recordDone(index, std::move(shard))) {
        result.error = error;
        return result;
      }
    }
  } else {
    // Each worker holds the write end of its own exit pipe, so the read end
    // hangs up the moment that worker is gone.  The orchestrator then waits
    // for exactly that pid: a child the caller forked keeps its status.
    struct Running {
      pid_t pid;
      std::size_t index;
      int exitFd;  ///< read end of the worker's exit pipe
    };
    std::vector<Running> running;
    std::size_t next = 0;
    bool chaosArmed = options.chaosKillShard >= 0;
    const auto fail = [&](const std::string& what) {
      for (const Running& r : running) ::close(r.exitFd);
      result.error = what;
      return result;
    };

    auto dispatch = [&](std::size_t index) -> bool {
      const bool chaos =
          chaosArmed && static_cast<int>(index) == options.chaosKillShard;
      if (chaos) chaosArmed = false;  // fire once, complete on reassignment
      int exitPipe[2];
      if (::pipe(exitPipe) != 0)
        return setError(&error,
                        std::string("campaign pipe: ") + std::strerror(errno));
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(exitPipe[0]);
        ::close(exitPipe[1]);
        return setError(&error,
                        std::string("campaign fork: ") + std::strerror(errno));
      }
      if (pid == 0) {
        ::close(exitPipe[0]);
        shardWorker(manifest, index, store.get(), options.dir,
                    chaos);  // never returns
      }
      ::close(exitPipe[1]);
      ++result.workersForked;
      running.push_back({pid, index, exitPipe[0]});
      return true;
    };

    // A worker that exits non-zero reported a failure a rerun would repeat:
    // the first such failure stops dispatch, and the campaign returns it
    // once the running workers are reaped and recorded.
    std::vector<pollfd> fds;
    while ((result.error.empty() && next < queue.size()) || !running.empty()) {
      while (result.error.empty() && next < queue.size() &&
             running.size() < static_cast<std::size_t>(options.workers)) {
        if (!dispatch(queue[next])) return fail(error);
        ++next;
      }
      fds.clear();
      for (const Running& r : running) fds.push_back({r.exitFd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), -1) < 0) {
        if (errno == EINTR) continue;
        return fail(std::string("campaign poll: ") + std::strerror(errno));
      }
      std::size_t k = 0;
      while (k < fds.size() && fds[k].revents == 0) ++k;
      if (k == fds.size()) continue;
      const Running exited = running[k];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
      ::close(exited.exitFd);
      int status = 0;
      while (::waitpid(exited.pid, &status, 0) < 0)
        if (errno != EINTR)
          return fail(std::string("campaign waitpid: ") +
                      std::strerror(errno));
      const std::size_t index = exited.index;

      const std::string rpath =
          shardResultPath(options.dir, manifest.shards[index].range);
      if (WIFSIGNALED(status)) {
        // Killed (the chaos hook's SIGKILL, the OOM killer): the slice goes
        // back in the queue.  The shard is still marked pending in the
        // manifest, so even an orchestrator kill here loses nothing.
        ++result.workerDeaths;
        std::remove(rpath.c_str());
        queue.push_back(index);
        continue;
      }
      std::optional<ShardResult> shard;
      if (WEXITSTATUS(status) != 0)
        error = "worker exited with status " +
                std::to_string(WEXITSTATUS(status));
      else
        shard = shardResultFromFile(rpath, &error);
      if (shard) {
        if (!recordDone(index, std::move(*shard))) return fail(error);
        std::remove(rpath.c_str());
      } else if (result.error.empty()) {
        result.error = "shard " + std::to_string(index) + ": " + error;
      }
    }
    if (!result.error.empty()) return result;
  }

  SSVSP_CHECK(manifest.complete());
  result.report = manifest.mergedReport();
  // A clean sweep must have covered the whole plan; a saturated one (the
  // violation cap hit) legitimately cuts shards short.
  if (result.report.ok())
    SSVSP_CHECK(result.report.scriptsVisited == manifest.totalScripts);
  result.ok = true;
  return result;
}

std::optional<CampaignManifest> campaignStatus(const std::string& dir,
                                               std::string* error) {
  return CampaignManifest::load(manifestPath(dir), error);
}

std::vector<CampaignAnswer> queryCampaign(const std::string& dir,
                                          const std::vector<int>& crashBudgets,
                                          std::string* error) {
  std::vector<CampaignAnswer> answers;
  std::optional<CampaignManifest> manifest = campaignStatus(dir, error);
  if (!manifest) return answers;

  // One manifest read, one merge — every budget in the batch is answered
  // from the same merged report.
  std::string pendingReason;
  McReport merged;
  if (manifest->complete()) {
    merged = manifest->mergedReport();
  } else {
    for (std::size_t i = 0; i < manifest->shards.size(); ++i) {
      if (manifest->shards[i].done) continue;
      const ShardRange& range = manifest->shards[i].range;
      std::ostringstream os;
      os << "campaign incomplete: " << manifest->pendingCount() << " of "
         << manifest->shards.size() << " shards pending (first: manifest "
         << "shard " << i << ", scripts [" << range.firstScript << ", "
         << range.firstScript + range.countWithin(manifest->totalScripts)
         << ")); resume the campaign before querying";
      pendingReason = os.str();
      break;
    }
  }

  for (int f : crashBudgets) {
    CampaignAnswer answer;
    answer.f = f;
    if (!pendingReason.empty()) {
      answer.reason = pendingReason;
    } else if (f < 0 || f > manifest->t) {
      std::ostringstream os;
      os << "crash budget f=" << f << " was never swept: the campaign "
         << "sweeps 0..t crashes (manifest algorithm " << manifest->algorithm
         << ", n=" << manifest->n << ", t=" << manifest->t
         << "); start a campaign covering it";
      answer.reason = os.str();
    } else {
      answer.admitted = true;
      answer.latency = merged.latUpToCrashes(f);
      answer.consensusOk = merged.ok();
    }
    answers.push_back(std::move(answer));
  }
  return answers;
}

}  // namespace ssvsp
