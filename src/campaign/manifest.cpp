#include "campaign/manifest.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "consensus/registry.hpp"
#include "latency/latency.hpp"
#include "lint/lint.hpp"
#include "util/serde.hpp"

namespace ssvsp {

namespace {

bool setError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool CampaignManifest::resolve(std::string* error) {
  const AlgorithmEntry* entry = findAlgorithm(algorithm);
  if (entry == nullptr)
    return setError(error, "manifest: unknown algorithm '" + algorithm + "'");
  if (n < 2 || t < 0 || t >= n)
    return setError(error, "manifest: campaign needs n >= 2 and 0 <= t < n");
  if (shardScripts < 1)
    return setError(error, "manifest: campaign needs shard_scripts >= 1");
  model = entry->intendedModel;
  const RoundConfig cfg{n, t};
  try {
    preflightSweep(cfg, model,
                   canonicalSweep(*entry, cfg, reduction, maxScripts));
  } catch (const PreflightError& e) {
    std::string what = e.what();  // one line per error, newline-terminated
    what.erase(what.find_last_not_of('\n') + 1);
    return setError(error, "manifest: " + what);
  }
  return true;
}

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
  static_cast<ExploreSpec&>(options) = canonicalSweep(
      algorithmByName(algorithm), RoundConfig{n, t}, reduction, maxScripts);
  options.maxViolations = maxViolations;
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
  w.kv("max_scripts", maxScripts);
  w.kv("shard_scripts", shardScripts);
  w.kv("max_violations", std::int64_t{maxViolations});
  w.kv("reduction", std::string(toString(reduction)));
  w.kv("total_scripts", totalScripts);
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
  const JsonValue* shards = doc->find("shards");
  const bool ok = readJsonString(doc->find("algorithm"), &m.algorithm) &&
                  readJsonInt(doc->find("n"), &m.n) &&
                  readJsonInt(doc->find("t"), &m.t) &&
                  readJsonI64(doc->find("max_scripts"), &m.maxScripts) &&
                  readJsonI64(doc->find("shard_scripts"), &m.shardScripts) &&
                  readJsonInt(doc->find("max_violations"),
                              &m.maxViolations) &&
                  readJsonI64(doc->find("total_scripts"), &m.totalScripts) &&
                  shards != nullptr && shards->isArray();
  if (!ok) {
    setError(error, "manifest: bad fields");
    return std::nullopt;
  }
  std::string reductionName;
  std::optional<Reduction> reduction;
  if (readJsonString(doc->find("reduction"), &reductionName))
    reduction = reductionFromString(reductionName);
  if (!reduction) {
    setError(error, "manifest: bad reduction");
    return std::nullopt;
  }
  m.reduction = *reduction;
  if (!m.resolve(error)) return std::nullopt;
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
  std::string why;
  if (writeFileAtomic(path, toJsonString(), /*sync=*/true, &why)) return true;
  return setError(error, "manifest " + why);
}

std::optional<CampaignManifest> CampaignManifest::load(
    const std::string& path, std::string* error) {
  // An open of a directory succeeds and reads nothing, which would pass
  // for an empty document.
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    setError(error, "manifest '" + path + "': not a regular file");
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    setError(error, "manifest '" + path + "': cannot open");
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return fromJsonString(text.str(), error);
}

bool writeFileAtomic(const std::string& path, const std::string& text,
                     bool sync, std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return setError(error, "open '" + tmp + "': " + std::strerror(errno));
  const auto failed = [&tmp](const char* step) {
    return std::string(step) + " '" + tmp + "': " + std::strerror(errno);
  };
  std::string why;
  for (std::size_t done = 0; why.empty() && done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n >= 0)
      done += static_cast<std::size_t>(n);
    else if (errno != EINTR)
      why = failed("write");
  }
  if (why.empty() && sync && ::fsync(fd) != 0) why = failed("sync");
  if (::close(fd) != 0 && why.empty()) why = failed("close");
  if (why.empty() && std::rename(tmp.c_str(), path.c_str()) != 0)
    why = failed("rename");
  if (why.empty()) return true;
  ::unlink(tmp.c_str());  // a failed handoff leaves nothing behind
  return setError(error, why);
}

}  // namespace ssvsp
