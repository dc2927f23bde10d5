#include "campaign/manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/serde.hpp"

namespace ssvsp {

namespace {

bool setError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

std::optional<RoundModel> modelFromString(std::string_view s) {
  if (s == "RS") return RoundModel::kRs;
  if (s == "RWS") return RoundModel::kRws;
  return std::nullopt;
}

}  // namespace

int CampaignManifest::pendingCount() const {
  int pending = 0;
  for (const ShardEntry& shard : shards)
    if (!shard.done) ++pending;
  return pending;
}

McReport CampaignManifest::mergedReport() const {
  SSVSP_CHECK_MSG(complete(), "mergedReport on incomplete campaign");
  McReport merged;
  for (const ShardEntry& shard : shards)
    mergeMcReports(merged, McReport(shard.report), maxViolations);
  return merged;
}

McCheckOptions CampaignManifest::shardOptions(std::size_t index) const {
  SSVSP_CHECK(index < shards.size());
  McCheckOptions options;
  options.enumeration = enumeration;
  options.valueDomain = valueDomain;
  options.horizonSlack = horizonSlack;
  options.reduction = reduction;
  options.symmetryFixedIds = symmetryFixedIds;
  options.decisionFixRound = decisionFixRound;
  options.porReplayEvery = porReplayEvery;
  options.porReadsAllSenders = porReadsAllSenders;
  options.porReadIdsMask = porReadIdsMask;
  options.maxViolations = maxViolations;
  options.threads = 1;
  options.shard = shards[index].range;
  return options;
}

std::string CampaignManifest::toJsonString() const {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.beginObject();
  w.kv("schema", kReportSchemaV1);
  w.kv("kind", "campaign_manifest");
  w.kv("algorithm", algorithm);
  w.kv("n", std::int64_t{n});
  w.kv("t", std::int64_t{t});
  w.kv("model", toString(model));
  w.key("enumeration").beginObject();
  w.kv("horizon", std::int64_t{enumeration.horizon});
  w.kv("max_crashes", std::int64_t{enumeration.maxCrashes});
  w.key("pending_lags").beginArray();
  for (int lag : enumeration.pendingLags) w.value(std::int64_t{lag});
  w.endArray();
  w.kv("max_scripts", enumeration.maxScripts);
  w.endObject();
  w.kv("value_domain", std::int64_t{valueDomain});
  w.kv("horizon_slack", std::int64_t{horizonSlack});
  w.kv("reduction", std::string(toString(reduction)));
  w.kv("symmetry_fixed_ids", std::int64_t{symmetryFixedIds});
  w.kv("decision_fix_round",
       decisionFixRound == kNoRound ? std::int64_t{-1}
                                    : std::int64_t{decisionFixRound});
  w.kv("por_replay_every", std::int64_t{porReplayEvery});
  w.kv("por_reads_all_senders", porReadsAllSenders);
  w.kv("por_read_ids_mask", static_cast<std::int64_t>(porReadIdsMask));
  w.kv("max_violations", std::int64_t{maxViolations});
  w.kv("total_scripts", totalScripts);
  w.kv("shard_scripts", shardScripts);
  w.key("shards").beginArray();
  for (const ShardEntry& shard : shards) {
    w.beginObject();
    w.kv("first_script", shard.range.firstScript);
    w.kv("num_scripts", shard.range.numScripts);
    w.kv("done", shard.done);
    w.key("report");
    if (shard.done)
      shard.report.toJson(w);
    else
      w.null();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return os.str();
}

std::optional<CampaignManifest> CampaignManifest::fromJsonString(
    std::string_view text, std::string* error) {
  std::string parseError;
  const std::optional<JsonValue> doc = parseJson(text, &parseError);
  if (!doc) {
    setError(error, "manifest: " + parseError);
    return std::nullopt;
  }
  if (!checkJsonEnvelope(*doc, kReportSchemaV1, "campaign_manifest", error))
    return std::nullopt;

  CampaignManifest m;
  std::string modelName;
  const JsonValue* enumeration = doc->find("enumeration");
  bool ok = readJsonString(doc->find("algorithm"), &m.algorithm) &&
            readJsonInt(doc->find("n"), &m.n) &&
            readJsonInt(doc->find("t"), &m.t) &&
            readJsonString(doc->find("model"), &modelName) &&
            enumeration != nullptr && enumeration->isObject() &&
            readJsonInt(enumeration->find("horizon"),
                        &m.enumeration.horizon) &&
            readJsonInt(enumeration->find("max_crashes"),
                        &m.enumeration.maxCrashes) &&
            readJsonI64(enumeration->find("max_scripts"),
                        &m.enumeration.maxScripts) &&
            readJsonInt(doc->find("value_domain"), &m.valueDomain) &&
            readJsonInt(doc->find("horizon_slack"), &m.horizonSlack) &&
            readJsonInt(doc->find("symmetry_fixed_ids"),
                        &m.symmetryFixedIds) &&
            readJsonInt(doc->find("max_violations"), &m.maxViolations) &&
            readJsonI64(doc->find("total_scripts"), &m.totalScripts) &&
            readJsonI64(doc->find("shard_scripts"), &m.shardScripts);
  const std::optional<RoundModel> model = modelFromString(modelName);
  const JsonValue* lags =
      enumeration != nullptr ? enumeration->find("pending_lags") : nullptr;
  const JsonValue* shards = doc->find("shards");
  ok = ok && model.has_value() && lags != nullptr && lags->isArray() &&
       shards != nullptr && shards->isArray();
  if (!ok) {
    setError(error, "manifest: bad fields");
    return std::nullopt;
  }
  m.model = *model;
  std::string reductionName;
  std::optional<Reduction> reduction;
  if (readJsonString(doc->find("reduction"), &reductionName))
    reduction = reductionFromString(reductionName);
  if (!reduction) {
    setError(error, "manifest: bad reduction");
    return std::nullopt;
  }
  m.reduction = *reduction;
  int fixRound = 0;
  std::int64_t readIdsMask = 0;
  if (!readJsonInt(doc->find("decision_fix_round"), &fixRound) ||
      !readJsonInt(doc->find("por_replay_every"), &m.porReplayEvery) ||
      !readJsonBool(doc->find("por_reads_all_senders"),
                    &m.porReadsAllSenders) ||
      !readJsonI64(doc->find("por_read_ids_mask"), &readIdsMask) ||
      readIdsMask < 0) {
    setError(error, "manifest: bad POR fields");
    return std::nullopt;
  }
  m.decisionFixRound = fixRound < 0 ? kNoRound : fixRound;
  m.porReadIdsMask = static_cast<std::uint64_t>(readIdsMask);
  for (const JsonValue& lag : lags->items) {
    int value = 0;
    if (!readJsonInt(&lag, &value)) {
      setError(error, "manifest: bad pending lag");
      return std::nullopt;
    }
    m.enumeration.pendingLags.push_back(value);
  }
  for (const JsonValue& entry : shards->items) {
    ShardEntry shard;
    const JsonValue* report =
        entry.isObject() ? entry.find("report") : nullptr;
    if (!entry.isObject() ||
        !readJsonI64(entry.find("first_script"), &shard.range.firstScript) ||
        !readJsonI64(entry.find("num_scripts"), &shard.range.numScripts) ||
        !readJsonBool(entry.find("done"), &shard.done) || report == nullptr) {
      setError(error, "manifest: bad shard entry");
      return std::nullopt;
    }
    if (shard.done) {
      std::optional<McReport> parsed = McReport::fromJson(*report, error);
      if (!parsed) return std::nullopt;
      shard.report = std::move(*parsed);
    }
    m.shards.push_back(std::move(shard));
  }
  return m;
}

bool CampaignManifest::save(const std::string& path,
                            std::string* error) const {
  const std::string tmp = path + ".tmp";
  const std::string text = toJsonString();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return setError(error,
                    "manifest open '" + tmp + "': " + std::strerror(errno));
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string what = std::strerror(errno);
      ::close(fd);
      return setError(error, "manifest write: " + what);
    }
    done += static_cast<std::size_t>(n);
  }
  // fsync BEFORE rename: the rename must never publish an empty file.
  if (::fsync(fd) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    return setError(error, "manifest sync: " + what);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return setError(error, "manifest rename: " + std::string(std::strerror(errno)));
  return true;
}

std::optional<CampaignManifest> CampaignManifest::load(
    const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    setError(error, "manifest '" + path + "': cannot open");
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return fromJsonString(text.str(), error);
}

}  // namespace ssvsp
