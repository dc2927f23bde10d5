// Campaign-layer tests (src/campaign): the persistent memo store's
// durability contract (round trip, torn-tail repair on open, refusal of
// mid-log damage), the manifest ledger's serde and resume semantics, and
// the headline guarantee — a 2-process campaign that loses a worker to
// SIGKILL mid-shard still produces a merged report bit-identical to the
// single-process in-memory sweep.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/store.hpp"
#include "consensus/registry.hpp"
#include "mc/checker.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace {

/// Fresh scratch directory per test.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/ssvsp_campaign_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    // Best-effort scrub; files first, then the directory.
    for (const char* name : {"/manifest.json", "/manifest.json.tmp",
                             "/memo.log", "/memo.log.compact.tmp"}) {
      std::remove((dir_ + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  std::string storePath() const { return dir_ + "/memo.log"; }

  std::string dir_;
};

std::int64_t fileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

void appendRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A synthetic but well-formed packed key: distinct tags give distinct keys.
MemoKey testKey(std::uint64_t tag) {
  MemoKey k;
  k.used = 2;
  k.words[0] = (std::uint64_t{2} << 56) | (std::uint64_t{3} << 48);
  k.words[1] = tag;
  return k;
}

/// Frames one record body exactly like the store's appender.
std::string framed(const std::string& body) {
  std::string out;
  RecordWriter w(out);
  w.putU32(static_cast<std::uint32_t>(body.size()));
  out.append(body);
  RecordWriter tail(out);
  tail.putU64(fnv1a64(body));
  return out;
}

TEST_F(CampaignTest, StoreRoundTripsAcrossReopen) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->openStats().entriesLoaded, 0);
    store->insert(testKey(1), RunSummary{3, true});
    store->insert(testKey(2), RunSummary{kNoRound, false});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
    EXPECT_EQ(store->entriesAppended(), 2);
  }
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 2);
  EXPECT_EQ(store->openStats().footersSeen, 1);
  EXPECT_EQ(store->openStats().bytesTruncated, 0);
  const std::optional<RunSummary> a = store->find(testKey(1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->latency, 3);
  EXPECT_TRUE(a->consensusOk);
  const std::optional<RunSummary> b = store->find(testKey(2));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->latency, kNoRound);
  EXPECT_FALSE(b->consensusOk);
  EXPECT_FALSE(store->find(testKey(3)).has_value());
}

TEST_F(CampaignTest, StoreRepairsTornTailOnOpen) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    ASSERT_TRUE(store->flush(/*sync=*/true, &error)) << error;
  }
  const std::int64_t intact = fileSize(storePath());
  // A worker died mid-write: half a record's worth of garbage at the tail.
  appendRaw(storePath(), std::string("\x13\x00\x00\x00partial", 11));

  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 1);
  EXPECT_EQ(store->openStats().bytesTruncated, 11);
  EXPECT_EQ(fileSize(storePath()), intact);  // ftruncate'd back
  EXPECT_TRUE(store->find(testKey(1)).has_value());
}

TEST_F(CampaignTest, StoreRejectsCorruptChecksumTailButKeepsPrefix) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    store->flush(/*sync=*/false);
    store->insert(testKey(2), RunSummary{4, true});
    store->flush(/*sync=*/false);
  }
  // Flip a byte inside the LAST record's body: its checksum fails, so
  // replay keeps the first record and truncates from the damaged one on.
  std::ifstream in(storePath(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() - 12] ^= 0x40;
  std::ofstream out(storePath(), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 1);
  EXPECT_GT(store->openStats().bytesTruncated, 0);
  EXPECT_TRUE(store->find(testKey(1)).has_value());
  EXPECT_FALSE(store->find(testKey(2)).has_value());
}

TEST_F(CampaignTest, StoreRefusesFooterCountMismatch) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
  }
  // Forge a checksum-VALID footer claiming 7 records for a writer that
  // appended none: valid frame, inconsistent ledger — records were lost in
  // the middle of the log, so open() must refuse rather than repair.
  std::string body;
  RecordWriter w(body);
  w.putU8(2).putU32(0xDEAD).putI64(7);
  std::string frame;
  RecordWriter f(frame);
  f.putU32(static_cast<std::uint32_t>(body.size()));
  frame.append(body);
  {
    RecordWriter tail(frame);
    tail.putU64(fnv1a64(body));
  }
  appendRaw(storePath(), frame);

  auto store = MemoStore::open(storePath(), &error);
  EXPECT_EQ(store, nullptr);
  EXPECT_NE(error.find("footer count mismatch"), std::string::npos) << error;
}

TEST_F(CampaignTest, StoreRefusesV1LogAndLeavesItUntouched) {
  // A log under the retired v1 magic is refused as a bad header, and the
  // refusal must not repair (truncate) or append to it.
  appendRaw(storePath(), std::string("SSVSPML1", 8));
  {
    std::string body;
    RecordWriter w(body);
    w.putU8(1);  // the retired v1 summary record type
    w.putBytes(std::string(16, '\0'));
    w.putU32(77).putI32(2).putU8(1);
    appendRaw(storePath(), framed(body));
  }
  std::ifstream before(storePath(), std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(before)),
                          std::istreambuf_iterator<char>());

  std::string error;
  EXPECT_EQ(MemoStore::open(storePath(), &error), nullptr);
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::ifstream after(storePath(), std::ios::binary);
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(after)),
                        std::istreambuf_iterator<char>()),
            bytes);
}

TEST_F(CampaignTest, StoreRefusesUndecodableSummaryKey) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{2, true});
    ASSERT_TRUE(store->flush(/*sync=*/true, &error)) << error;
  }
  // A checksum-valid v2 summary whose key is not a whole number of words:
  // well-formed frame, malformed key — mid-log damage, not a torn tail.
  std::string body;
  RecordWriter w(body);
  w.putU8(3);  // kRecSummaryV2
  w.putBytes(std::string("abcd", 4));
  w.putU32(1).putI32(1).putU8(1);
  appendRaw(storePath(), framed(body));

  auto store = MemoStore::open(storePath(), &error);
  EXPECT_EQ(store, nullptr);
  EXPECT_NE(error.find("undecodable summary key"), std::string::npos) << error;
}

TEST_F(CampaignTest, CompactDeduplicatesAndSealsOneSegment) {
  std::string error;
  // Two writer sessions, overlapping keys — the multi-segment, duplicated
  // shape a sharded campaign leaves behind.
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{3, true});
    store->insert(testKey(2), RunSummary{2, true});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
  }
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(2), RunSummary{2, true});  // duplicate orbit
    store->insert(testKey(3), RunSummary{kNoRound, false});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
  }
  const std::int64_t before = fileSize(storePath());

  CompactStats stats;
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/false, &stats, &error))
      << error;
  EXPECT_EQ(stats.entriesBefore, 4);
  EXPECT_EQ(stats.footersBefore, 2);
  EXPECT_EQ(stats.entriesUnfooted, 0);
  EXPECT_EQ(stats.entriesAfter, 3);
  EXPECT_EQ(stats.bytesBefore, before);
  EXPECT_LT(stats.bytesAfter, stats.bytesBefore);
  EXPECT_EQ(fileSize(storePath()), stats.bytesAfter);

  // The compacted log replays to the same memo, sealed by a single footer.
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 3);
  EXPECT_EQ(store->openStats().footersSeen, 1);
  EXPECT_EQ(store->openStats().entriesUnfooted, 0);
  const std::optional<RunSummary> a = store->find(testKey(1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->latency, 3);
  const std::optional<RunSummary> c = store->find(testKey(3));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->latency, kNoRound);
  EXPECT_FALSE(c->consensusOk);
  store.reset();

  // Compacting a compacted store is byte-idempotent (sorted keys, fixed
  // writer id).
  std::ifstream in1(storePath(), std::ios::binary);
  std::string snap1((std::istreambuf_iterator<char>(in1)),
                    std::istreambuf_iterator<char>());
  CompactStats again;
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/false, &again, &error))
      << error;
  EXPECT_EQ(again.entriesBefore, 3);
  EXPECT_EQ(again.entriesAfter, 3);
  std::ifstream in2(storePath(), std::ios::binary);
  std::string snap2((std::istreambuf_iterator<char>(in2)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(snap1, snap2);
}

TEST_F(CampaignTest, CompactRefusesUnsealedStoreUnlessForced) {
  std::string error;
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    store->insert(testKey(1), RunSummary{3, true});
    ASSERT_TRUE(store->appendFooter(&error)) << error;
    // A second batch flushed but never sealed: the shape a SIGKILLed (or
    // still-running) worker leaves.
    store->insert(testKey(2), RunSummary{2, true});
    ASSERT_TRUE(store->flush(/*sync=*/true, &error)) << error;
  }
  {
    auto store = MemoStore::open(storePath(), &error);
    ASSERT_NE(store, nullptr) << error;
    EXPECT_EQ(store->openStats().entriesUnfooted, 1);
  }
  const std::int64_t before = fileSize(storePath());

  CompactStats stats;
  EXPECT_FALSE(compactMemoStore(storePath(), /*force=*/false, &stats, &error));
  EXPECT_NE(error.find("--force"), std::string::npos) << error;
  EXPECT_EQ(stats.entriesUnfooted, 1);
  EXPECT_EQ(fileSize(storePath()), before);  // refused = untouched

  // --force compacts anyway; the unsealed record is kept and sealed.
  ASSERT_TRUE(compactMemoStore(storePath(), /*force=*/true, &stats, &error))
      << error;
  EXPECT_EQ(stats.entriesBefore, 2);
  EXPECT_EQ(stats.entriesAfter, 2);
  auto store = MemoStore::open(storePath(), &error);
  ASSERT_NE(store, nullptr) << error;
  EXPECT_EQ(store->openStats().entriesLoaded, 2);
  EXPECT_EQ(store->openStats().footersSeen, 1);
  EXPECT_EQ(store->openStats().entriesUnfooted, 0);
}

TEST_F(CampaignTest, ManifestJsonRoundTrip) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult result = runCampaign(spec, options);
  ASSERT_TRUE(result.ok) << result.error;

  std::string error;
  const auto loaded = campaignStatus(dir_, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const auto reparsed =
      CampaignManifest::fromJsonString(loaded->toJsonString(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->toJsonString(), loaded->toJsonString());
  EXPECT_TRUE(reparsed->complete());
  EXPECT_EQ(reparsed->mergedReport().toJsonString(),
            result.report.toJsonString());
  EXPECT_TRUE(spec == *reparsed);
  EXPECT_EQ(reparsed->model, RoundModel::kRs);  // from the registry

  // The manifest persists the request, the stream size and the shards —
  // nothing derived from the registry.
  const std::optional<JsonValue> doc = parseJson(loaded->toJsonString());
  ASSERT_TRUE(doc.has_value());
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc->members) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "schema", "kind", "algorithm", "n", "t", "max_scripts",
                      "shard_scripts", "max_violations", "reduction",
                      "total_scripts", "shards"}));
}

/// The headline durability guarantee: 2 forked workers, one SIGKILLed
/// mid-shard (chaos hook), slice reassigned — and the merged report is
/// bit-identical to the single-process in-memory sweep of the same spec.
TEST_F(CampaignTest, KilledWorkerCampaignMatchesInMemorySweepBitForBit) {
  CampaignSpec spec;
  spec.algorithm = "FloodSetWS";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 2;
  options.chaosKillShard = 1;
  const CampaignResult fromCampaign = runCampaign(spec, options);
  ASSERT_TRUE(fromCampaign.ok) << fromCampaign.error;
  EXPECT_GE(fromCampaign.workerDeaths, 1);  // the chaos kill registered

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  McCheckOptions whole = manifest->shardOptions(0);
  whole.shard = ShardRange{};  // the full stream, one process, in memory
  const McReport inMemory = modelCheckConsensus(
      algorithmByName(spec.algorithm).factory, RoundConfig{spec.n, spec.t},
      manifest->model, whole);
  EXPECT_EQ(fromCampaign.report.toJsonString(), inMemory.toJsonString());
}

/// The orchestrator reaps only the workers it forked: a child of the caller
/// that exited before the campaign started keeps its exit status.
TEST_F(CampaignTest, ForeignChildKeepsItsExitStatus) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(7);
  // Wait until the child is a zombie, without reaping it.
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(child), &info,
                     WEXITED | WNOWAIT),
            0);

  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 2;
  const CampaignResult result = runCampaign(spec, options);
  EXPECT_TRUE(result.ok) << result.error;

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);
}

TEST_F(CampaignTest, ResumeRerunsOnlyPendingShardsAndMatches) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult first = runCampaign(spec, options);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.shardsTotal, 4);

  // Simulate an orchestrator killed before recording shard 2: the ledger
  // says pending, so resume must rerun exactly that shard.
  std::string error;
  auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  manifest->shards[2].done = false;
  manifest->shards[2].report = McReport{};
  ASSERT_TRUE(manifest->save(dir_ + "/manifest.json", &error)) << error;

  const CampaignResult resumed = runCampaign(spec, options);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.shardsSkipped, 3);
  EXPECT_EQ(resumed.shardsRun, 1);
  EXPECT_EQ(resumed.report.toJsonString(), first.report.toJsonString());

  // A different spec against the same dir is refused, not silently mixed.
  CampaignSpec other = spec;
  other.shardScripts = 20;
  const CampaignResult mixed = runCampaign(other, options);
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("different spec"), std::string::npos)
      << mixed.error;
}

TEST_F(CampaignTest, WarmStoreSweepExecutesZeroEngineRuns) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult cold = runCampaign(spec, options);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_GT(cold.memoEntriesAppended, 0);
  EXPECT_GT(cold.stats.runsExecuted, 0);

  // Drop the ledger, keep the store: every shard re-sweeps, every orbit
  // hits, the engine never runs — and the report does not change.
  ASSERT_EQ(std::remove((dir_ + "/manifest.json").c_str()), 0);
  const CampaignResult warm = runCampaign(spec, options);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_GT(warm.memoEntriesLoaded, 0);
  EXPECT_EQ(warm.stats.runsExecuted, 0);
  EXPECT_EQ(warm.stats.runsFromMemo, warm.stats.runsRequested);
  EXPECT_EQ(warm.report.toJsonString(), cold.report.toJsonString());
}

TEST_F(CampaignTest, QueryAdmissionControl) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  ASSERT_TRUE(runCampaign(spec, options).ok);

  // Complete campaign: in-budget queries answer, out-of-budget rejected.
  auto answers = queryCampaign(dir_, {0, 1, 2});
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_TRUE(answers[0].admitted);
  EXPECT_EQ(answers[0].latency, 2);  // Lat(FloodSet, 0) = t + 1
  EXPECT_TRUE(answers[0].consensusOk);
  EXPECT_TRUE(answers[1].admitted);
  EXPECT_FALSE(answers[2].admitted);
  EXPECT_NE(answers[2].reason.find("never swept"), std::string::npos);

  // Incomplete campaign: every query is rejected with a resume hint.
  std::string error;
  auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  manifest->shards[1].done = false;
  ASSERT_TRUE(manifest->save(dir_ + "/manifest.json", &error)) << error;
  answers = queryCampaign(dir_, {0});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_FALSE(answers[0].admitted);
  EXPECT_NE(answers[0].reason.find("incomplete"), std::string::npos);
  EXPECT_NE(answers[0].reason.find("shard 1"), std::string::npos);

  // Missing campaign dir: empty answer set plus an error.
  error.clear();
  EXPECT_TRUE(queryCampaign(dir_ + "/nope", {0}, &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST_F(CampaignTest, SymmetryPorCampaignMatchesUnreducedSweepBitForBit) {
  // A campaign swept under symmetry_por must merge to the same report as
  // the unreduced single-process in-memory sweep — the campaign edition of
  // the POR acceptance contract.
  CampaignSpec spec;
  spec.algorithm = "EarlyFloodSetWS";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  spec.reduction = Reduction::kSymmetryPor;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult fromCampaign = runCampaign(spec, options);
  ASSERT_TRUE(fromCampaign.ok) << fromCampaign.error;

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ(manifest->reduction, Reduction::kSymmetryPor);
  // The flood footprint, resolved for every shard: D = t + 1.
  EXPECT_EQ(manifest->shardOptions(0).decisionFixRound, spec.t + 1);

  McCheckOptions whole = manifest->shardOptions(0);
  whole.shard = ShardRange{};
  whole.reduction = Reduction::kNone;
  const McReport inMemory = modelCheckConsensus(
      algorithmByName(spec.algorithm).factory, RoundConfig{spec.n, spec.t},
      manifest->model, whole);
  EXPECT_EQ(fromCampaign.report.toJsonString(), inMemory.toJsonString());

  // The manifest string survives a serde round trip with the reduction.
  const auto reparsed =
      CampaignManifest::fromJsonString(manifest->toJsonString(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_EQ(reparsed->toJsonString(), manifest->toJsonString());
  EXPECT_EQ(reparsed->reduction, Reduction::kSymmetryPor);

  // Resuming with a different reduction is a spec mismatch, not a silent
  // remix of two pruning disciplines over one memo.
  CampaignSpec other = spec;
  other.reduction = Reduction::kSymmetry;
  const CampaignResult mixed = runCampaign(other, options);
  EXPECT_FALSE(mixed.ok);
  EXPECT_NE(mixed.error.find("different spec"), std::string::npos)
      << mixed.error;
}

TEST_F(CampaignTest, PrePorManifestIsRefused) {
  // An older manifest shape — the sweep spec persisted beside the request,
  // max_scripts inside an "enumeration" object — is refused with an error
  // rather than guessed at.  Its memo.log stays valid: removing the
  // manifest and rerunning the same request recovers the campaign warm.
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  ASSERT_TRUE(runCampaign(spec, options).ok);

  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  std::string text = manifest->toJsonString();
  const std::string current = "\"max_scripts\": -1,";
  const std::size_t at = text.find(current);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, current.size(),
               "\"model\": \"RS\", \"enumeration\": {\"horizon\": 3, "
               "\"max_crashes\": 1, \"pending_lags\": [], "
               "\"max_scripts\": -1}, \"value_domain\": 2, "
               "\"horizon_slack\": 2,");
  ASSERT_TRUE(parseJson(text).has_value()) << text;
  EXPECT_FALSE(CampaignManifest::fromJsonString(text, &error).has_value());
  EXPECT_NE(error.find("manifest: bad"), std::string::npos) << error;
}

TEST_F(CampaignTest, UnknownAlgorithmManifestIsRefusedOnLoad) {
  // A well-formed manifest naming an algorithm the registry lacks is
  // refused when it is loaded — by resume, status and query alike — not
  // handed to shard workers that cannot run it.
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  ASSERT_TRUE(runCampaign(spec, options).ok);

  std::string error;
  auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  manifest->algorithm = "NoSuchAlgo";
  ASSERT_TRUE(manifest->save(dir_ + "/manifest.json", &error)) << error;

  EXPECT_FALSE(campaignStatus(dir_, &error).has_value());
  EXPECT_EQ(error, "manifest: unknown algorithm 'NoSuchAlgo'");
  error.clear();
  EXPECT_TRUE(queryCampaign(dir_, {0}, &error).empty());
  EXPECT_EQ(error, "manifest: unknown algorithm 'NoSuchAlgo'");
  spec.algorithm = "NoSuchAlgo";
  const CampaignResult resumed = runCampaign(spec, options);
  EXPECT_FALSE(resumed.ok);
  EXPECT_EQ(resumed.error, "manifest: unknown algorithm 'NoSuchAlgo'");
}

TEST_F(CampaignTest, UnrunnableSpecIsRefusedBeforeAnyManifestOrFork) {
  // Requests no sweep can run fail with a structured error before the
  // stream is counted, before the manifest is written and before any
  // worker exists.  In-process mode (workers = 0): a request that slipped
  // through would throw from the sweep instead.
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const auto refused = [&](CampaignSpec spec, const std::string& why) {
    const CampaignResult result = runCampaign(spec, options);
    EXPECT_FALSE(result.ok) << why;
    EXPECT_NE(result.error.find(why), std::string::npos) << result.error;
    EXPECT_EQ(fileSize(dir_ + "/manifest.json"), -1) << why;
  };
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.t = 1;
  spec.maxScripts = 100;
  spec.n = 10;  // a 10! symmetry group
  refused(spec, "L213");
  spec.n = 80;  // past kMaxProcs
  refused(spec, "L200");
  spec.n = 3;
  spec.t = 3;
  refused(spec, "0 <= t < n");
  spec.t = 1;
  spec.shardScripts = 0;
  refused(spec, "shard_scripts >= 1");
  spec.shardScripts = 10;
  spec.algorithm = "NoSuchAlgo";
  refused(spec, "unknown algorithm 'NoSuchAlgo'");
}

/// A directory squatting on the manifest path is named as such, not read as
/// an empty document.
TEST_F(CampaignTest, ManifestLoadRefusesADirectory) {
  const std::string path = dir_ + "/manifest.json";
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((path + "/x").c_str(), 0755), 0);
  std::string error;
  EXPECT_FALSE(CampaignManifest::load(path, &error).has_value());
  const std::string expected = "manifest '" + path + "': not a regular file";
  EXPECT_EQ(error, expected);

  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 1;
  const CampaignResult result = runCampaign(spec, options);
  ::rmdir((path + "/x").c_str());
  ::rmdir(path.c_str());
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, expected);
}

/// A failed manifest save (here its rename onto a non-empty directory)
/// leaves no temporary file behind.
TEST_F(CampaignTest, FailedManifestSaveLeavesNoTempFile) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  ASSERT_TRUE(runCampaign(spec, options).ok);
  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;

  const std::string blocked = dir_ + "/blocked";
  ASSERT_EQ(::mkdir(blocked.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((blocked + "/x").c_str(), 0755), 0);
  const bool saved = manifest->save(blocked, &error);
  const std::int64_t leftover = fileSize(blocked + ".tmp");
  std::remove((blocked + ".tmp").c_str());
  ::rmdir((blocked + "/x").c_str());
  ::rmdir(blocked.c_str());
  EXPECT_FALSE(saved);
  EXPECT_NE(error.find("rename"), std::string::npos) << error;
  EXPECT_EQ(leftover, -1);
}

/// A worker that exits non-zero reported a failure a rerun would repeat —
/// here, a directory squatting on its result path makes every publish
/// fail.  The campaign ends with that failure instead of requeueing the
/// slice forever.
TEST_F(CampaignTest, FailingWorkerEndsTheCampaign) {
  const std::string blocked = dir_ + "/shard-0.json";
  ASSERT_EQ(::mkdir(blocked.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((blocked + "/x").c_str(), 0755), 0);
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 1;
  const CampaignResult result = runCampaign(spec, options);
  ::rmdir((blocked + "/x").c_str());
  ::rmdir(blocked.c_str());
  // The failed handoff leaves no temporary file behind.
  EXPECT_EQ(fileSize(blocked + ".tmp"), -1);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "shard 0: worker exited with status 4");
  EXPECT_EQ(result.workerDeaths, 0);

  // The failed shard is still pending in the ledger: a rerun with the path
  // cleared completes the campaign.
  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_FALSE(manifest->shards[0].done);
  const CampaignResult rerun = runCampaign(spec, options);
  ASSERT_TRUE(rerun.ok) << rerun.error;
  EXPECT_EQ(rerun.shardsRun, manifest->pendingCount());
}

TEST_F(CampaignTest, RunShardMergeShardsContract) {
  CampaignSpec spec;
  spec.algorithm = "FloodSet";
  spec.n = 3;
  spec.t = 1;
  spec.shardScripts = 10;
  CampaignOptions options;
  options.dir = dir_;
  options.workers = 0;
  const CampaignResult reference = runCampaign(spec, options);
  ASSERT_TRUE(reference.ok) << reference.error;

  // The public shard API reproduces the campaign result without any
  // orchestrator: run every ShardJob (no memo), merge in range order.
  std::string error;
  const auto manifest = campaignStatus(dir_, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  std::vector<McReport> reports;
  for (std::size_t i = 0; i < manifest->shards.size(); ++i)
    reports.push_back(runShard(ShardJob{*manifest, i}, nullptr).report);
  const McReport merged =
      mergeShards(std::move(reports), manifest->maxViolations);
  EXPECT_EQ(merged.toJsonString(), reference.report.toJsonString());
}

}  // namespace
}  // namespace ssvsp
