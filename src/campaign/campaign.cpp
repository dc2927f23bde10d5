#include "campaign/campaign.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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

// A lane's channel is a SOCK_SEQPACKET socketpair carrying one plan index
// per message: the orchestrator orders a shard, the worker sends the index
// back once the shard is durable.  MSG_NOSIGNAL: a dead peer costs EPIPE,
// never a SIGPIPE.
bool sendIndex(int fd, std::uint64_t index) {
  while (::send(fd, &index, sizeof index, MSG_NOSIGNAL) !=
         static_cast<ssize_t>(sizeof index))
    if (errno != EINTR) return false;
  return true;
}

/// 1: `*index` received; 0: end of file; -1: error.
int receiveIndex(int fd, std::uint64_t* index) {
  for (;;) {
    const ssize_t n = ::recv(fd, index, sizeof *index, 0);
    if (n == static_cast<ssize_t>(sizeof *index)) return 1;
    if (n == 0) return 0;
    if (n > 0 || errno != EINTR) return -1;
  }
}

/// Lane worker body (forked child).  Runs every shard ordered on `channel`
/// against `store`, which keeps the orbits loaded at open plus every orbit
/// this worker has executed since; seals each shard's memo batch, publishes
/// its result file and sends its index back.  End of file ends the lane.
/// _exit()s — no destructors, no shared stdio flushing with the parent.
/// Every failure it can report (an exception such as the L500/L501
/// tripwire, a memo, result or channel error) is printed and ends the
/// worker with a non-zero exit status.
[[noreturn]] void laneWorker(const CampaignManifest& manifest,
                             MemoStore& store, const std::string& dir,
                             int channel, int chaosKillShard) try {
  std::uint64_t index = 0;
  int got = 0;
  while ((got = receiveIndex(channel, &index)) == 1) {
    if (static_cast<std::int64_t>(index) == chaosKillShard) {
      // Chaos hook: do HALF the slice's work (so the memo log gains a real,
      // footerless partial segment), then die the hard way.  The
      // orchestrator must survive, hand the rest of the lane to a new
      // worker, and still produce the bit-identical merged report.
      CampaignManifest half = manifest;
      half.shards[index].range.numScripts =
          manifest.shards[index].range.countWithin(manifest.totalScripts) / 2;
      if (half.shards[index].range.numScripts > 0)
        runShard(ShardJob{half, index}, &store);
      store.flush(/*sync=*/true);
      ::kill(::getpid(), SIGKILL);
      ::_exit(127);  // unreachable
    }
    const std::int64_t before = store.entriesAppended();
    ShardResult result = runShard(ShardJob{manifest, index}, &store);
    std::string error;
    if (!store.appendFooter(&error)) {
      std::fprintf(stderr, "[campaign worker] %s\n", error.c_str());
      ::_exit(3);
    }
    result.memoAppended = store.entriesAppended() - before;
    const std::string path =
        shardResultPath(dir, manifest.shards[index].range);
    if (!writeFileAtomic(path, shardResultToJson(result), /*sync=*/false,
                         &error)) {
      std::fprintf(stderr, "[campaign worker] %s\n", error.c_str());
      ::_exit(4);
    }
    if (!sendIndex(channel, index)) break;
  }
  if (got == 0) ::_exit(0);
  std::fprintf(stderr, "[campaign worker] channel: %s\n",
               std::strerror(errno));
  ::_exit(6);
} catch (const std::exception& e) {
  std::fprintf(stderr, "[campaign worker] %s\n", e.what());
  ::_exit(5);
}

/// One lane of a forked campaign: its shards and the worker running them.
/// Destruction SIGKILLs and reaps a worker still live — the campaign ended
/// early, on an orchestrator-side error or an exception, and the worker's
/// shard stays pending in the ledger — so runCampaign never returns with a
/// worker unreaped.
struct Lane {
  std::vector<std::size_t> shards;  ///< plan indices, in run order
  std::size_t ordered = 0;  ///< shards[0, ordered) have been sent
  bool busy = false;        ///< shards[ordered - 1] not yet reported
  pid_t pid = -1;           ///< the lane's live worker; -1 = none
  int fd = -1;              ///< the orchestrator's end of its channel

  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() {
    if (fd >= 0) ::close(fd);
    if (pid < 0) return;
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) continue;
  }
};

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

  // Pending slices in plan order.
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    if (manifest.shards[i].done)
      ++result.shardsSkipped;
    else
      queue.push_back(i);
  }

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
    // One long-lived worker per lane: lane w runs the queue's positions
    // w, w + W, w + 2W, ... in order, against the memo its worker keeps
    // across its shards.  The lanes are static: in this mode the
    // orchestrator never writes its own memo, so what a lane executes and
    // appends depends only on the plan and W, never on which worker
    // finishes first.
    const std::size_t laneCount =
        std::min(static_cast<std::size_t>(options.workers), queue.size());
    std::vector<Lane> lanes(laneCount);
    for (std::size_t k = 0; k < queue.size(); ++k)
      lanes[k % laneCount].shards.push_back(queue[k]);
    bool chaosArmed = options.chaosKillShard >= 0;

    // Forks the lane's worker.  Its channel's hang-up tells the
    // orchestrator which worker is gone, and the orchestrator waits for
    // exactly that pid, so a child the caller forked keeps its status.
    const auto spawn = [&](Lane& lane) -> bool {
      int channel[2];
      if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, channel) != 0)
        return setError(&error, std::string("campaign socketpair: ") +
                                    std::strerror(errno));
      const int chaos = chaosArmed ? options.chaosKillShard : -1;
      const pid_t pid = ::fork();
      if (pid < 0) {
        ::close(channel[0]);
        ::close(channel[1]);
        return setError(&error,
                        std::string("campaign fork: ") + std::strerror(errno));
      }
      if (pid == 0) {
        // A worker holds only its own channel, so every worker reads end
        // of file as soon as the orchestrator is gone.
        for (const Lane& other : lanes)
          if (other.fd >= 0) ::close(other.fd);
        ::close(channel[0]);
        laneWorker(manifest, *store, options.dir, channel[1],
                   chaos);  // never returns
      }
      ::close(channel[1]);
      ++result.workersForked;
      lane.pid = pid;
      lane.fd = channel[0];
      return true;
    };
    // Sends the lane's next shard.  A worker already gone costs EPIPE here,
    // and the poll loop then sees its hang-up.
    const auto order = [&](Lane& lane) -> bool {
      const std::size_t index = lane.shards[lane.ordered++];
      lane.busy = true;
      if (static_cast<int>(index) == options.chaosKillShard)
        chaosArmed = false;  // fire once, complete on the replacement
      if (sendIndex(lane.fd, index) || errno == EPIPE || errno == ECONNRESET)
        return true;
      return setError(&error,
                      std::string("campaign send: ") + std::strerror(errno));
    };
    // A lane ends with shutdown(SHUT_WR): its worker reads end of file
    // once it has reported its current shard, and exits.  A worker failure
    // a rerun would repeat ends every lane that way, so the other lanes
    // stop after their current shard, which is still recorded.
    const auto stopAll = [&](const std::string& what) {
      result.error = what;
      for (Lane& lane : lanes)
        if (lane.pid >= 0) ::shutdown(lane.fd, SHUT_WR);
    };
    // An orchestrator-side failure: returning destroys `lanes`, which
    // SIGKILLs and reaps every live worker.
    const auto fail = [&](const std::string& what) {
      result.error = what;
      return result;
    };

    for (Lane& lane : lanes)
      if (!spawn(lane) || !order(lane)) return fail(error);
    std::vector<pollfd> fds;
    std::vector<Lane*> polled;
    for (;;) {
      fds.clear();
      polled.clear();
      for (Lane& lane : lanes) {
        if (lane.pid < 0) continue;
        fds.push_back({lane.fd, POLLIN, 0});
        polled.push_back(&lane);
      }
      if (fds.empty()) break;
      if (::poll(fds.data(), fds.size(), -1) < 0) {
        if (errno == EINTR) continue;
        return fail(std::string("campaign poll: ") + std::strerror(errno));
      }
      for (std::size_t k = 0; k < fds.size(); ++k) {
        if (fds[k].revents == 0) continue;
        Lane& lane = *polled[k];
        const std::size_t index = lane.shards[lane.ordered - 1];
        const std::string rpath =
            shardResultPath(options.dir, manifest.shards[index].range);
        std::uint64_t reported = 0;
        if (receiveIndex(lane.fd, &reported) == 1 && reported == index) {
          // The shard is durable.  Order the next one before recording
          // this one, so the worker never waits on the manifest save.
          lane.busy = false;
          if (!result.error.empty() || lane.ordered == lane.shards.size())
            ::shutdown(lane.fd, SHUT_WR);
          else if (!order(lane))
            return fail(error);
          std::optional<ShardResult> shard = shardResultFromFile(rpath, &error);
          if (!shard) {
            if (result.error.empty())
              stopAll("shard " + std::to_string(index) + ": " + error);
          } else if (!recordDone(index, std::move(*shard))) {
            return fail(error);
          } else {
            std::remove(rpath.c_str());
          }
          continue;
        }
        // The worker is gone (or broke the protocol, and exits on the end
        // of file the close gives it).
        ::close(lane.fd);
        lane.fd = -1;
        int status = 0;
        while (::waitpid(lane.pid, &status, 0) < 0) {
          if (errno == EINTR) continue;
          lane.pid = -1;
          return fail(std::string("campaign waitpid: ") +
                      std::strerror(errno));
        }
        lane.pid = -1;
        if (WIFSIGNALED(status)) {
          // Killed (the chaos hook's SIGKILL, the OOM killer): the shard is
          // still pending in the ledger, so even an orchestrator kill here
          // loses nothing.  A new worker, holding only the orbits loaded at
          // open, takes over the rest of the lane from the killed shard.
          ++result.workerDeaths;
          if (!lane.busy) continue;
          std::remove(rpath.c_str());
          if (!result.error.empty()) continue;
          --lane.ordered;
          if (!spawn(lane) || !order(lane)) return fail(error);
        } else if ((WEXITSTATUS(status) != 0 || lane.busy) &&
                   result.error.empty()) {
          stopAll("shard " + std::to_string(index) +
                  ": worker exited with status " +
                  std::to_string(WEXITSTATUS(status)));
        }
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
