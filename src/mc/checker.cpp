#include "mc/checker.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "explore/reduction.hpp"
#include "mc/sweep.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {

namespace {

void foldBest(std::map<int, Round>& into, int crashes, Round lat) {
  auto [it, inserted] = into.try_emplace(crashes, lat);
  if (!inserted) it->second = std::min(it->second, lat);
}

}  // namespace

void mergeMcReports(McReport& into, McReport&& from, int maxViolations) {
  into.scriptsVisited += from.scriptsVisited;
  into.runsExecuted += from.runsExecuted;
  for (McViolation& v : from.violations) {
    if (static_cast<int>(into.violations.size()) >= maxViolations) break;
    into.violations.push_back(std::move(v));
  }
  for (const auto& [crashes, lat] : from.worstLatencyByCrashes)
    foldWorst(into.worstLatencyByCrashes, crashes, lat);
  for (const auto& [crashes, lat] : from.bestLatencyByCrashes)
    foldBest(into.bestLatencyByCrashes, crashes, lat);
}

Round McReport::latUpToCrashes(int f) const {
  Round worst = 0;
  for (const auto& [crashes, lat] : worstLatencyByCrashes) {
    if (crashes > f) continue;
    if (lat == kNoRound) return kNoRound;
    worst = std::max(worst, lat);
  }
  return worst;
}

std::string McReport::summary() const {
  std::ostringstream os;
  os << "scripts=" << scriptsVisited << " runs=" << runsExecuted
     << " violations=" << violations.size();
  for (const auto& [crashes, lat] : worstLatencyByCrashes) {
    os << " Lat(f=" << crashes << ")=";
    if (lat == kNoRound)
      os << "inf";
    else
      os << lat;
  }
  return os.str();
}

// -- ssvsp.report.v1 wire form ----------------------------------------------

namespace {

void writeScript(JsonWriter& w, const FailureScript& script) {
  w.beginObject();
  w.key("crashes").beginArray();
  for (const CrashEvent& c : script.crashes) {
    w.beginArray()
        .value(std::int64_t{c.p})
        .value(std::int64_t{c.round})
        .value(c.sendTo.mask())
        .endArray();
  }
  w.endArray();
  w.key("pendings").beginArray();
  for (const PendingChoice& p : script.pendings) {
    w.beginArray()
        .value(std::int64_t{p.src})
        .value(std::int64_t{p.dst})
        .value(std::int64_t{p.round});
    writeJsonRound(w, p.arrival);
    w.endArray();
  }
  w.endArray();
  w.endObject();
}

bool readScript(const JsonValue* v, FailureScript* out) {
  if (v == nullptr || !v->isObject()) return false;
  const JsonValue* crashes = v->find("crashes");
  const JsonValue* pendings = v->find("pendings");
  if (crashes == nullptr || !crashes->isArray() || pendings == nullptr ||
      !pendings->isArray())
    return false;
  for (const JsonValue& entry : crashes->items) {
    if (!entry.isArray() || entry.items.size() != 3) return false;
    CrashEvent c;
    std::int64_t mask = 0;
    if (!readJsonInt(&entry.items[0], &c.p) ||
        !readJsonInt(&entry.items[1], &c.round) ||
        !readJsonI64(&entry.items[2], &mask))
      return false;
    c.sendTo = ProcessSet::fromMask(static_cast<std::uint64_t>(mask));
    out->crashes.push_back(c);
  }
  for (const JsonValue& entry : pendings->items) {
    if (!entry.isArray() || entry.items.size() != 4) return false;
    PendingChoice p;
    if (!readJsonInt(&entry.items[0], &p.src) ||
        !readJsonInt(&entry.items[1], &p.dst) ||
        !readJsonInt(&entry.items[2], &p.round) ||
        !readJsonRound(entry.items[3], &p.arrival))
      return false;
    out->pendings.push_back(p);
  }
  return true;
}

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void McReport::toJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("schema", kReportSchemaV1);
  w.kv("kind", "mc_report");
  w.kv("scripts_visited", scriptsVisited);
  w.kv("runs_executed", runsExecuted);
  w.key("worst_latency_by_crashes");
  writeJsonLatencyMap(w, worstLatencyByCrashes);
  w.key("best_latency_by_crashes");
  writeJsonLatencyMap(w, bestLatencyByCrashes);
  w.key("violations").beginArray();
  for (const McViolation& v : violations) {
    w.beginObject();
    w.kv("script_index", v.scriptIndex);
    w.kv("config_index", std::int64_t{v.configIndex});
    w.key("initial").beginArray();
    for (Value val : v.initial) w.value(std::int64_t{val});
    w.endArray();
    w.key("script");
    writeScript(w, v.script);
    w.key("verdict").beginObject();
    w.kv("uniform_agreement", v.verdict.uniformAgreement);
    w.kv("uniform_validity", v.verdict.uniformValidity);
    w.kv("decision_in_proposals", v.verdict.decisionInProposals);
    w.kv("termination", v.verdict.termination);
    w.kv("within_latency_bound", v.verdict.withinLatencyBound);
    w.kv("witness", v.verdict.witness);
    w.endObject();
    w.kv("run_dump", v.runDump);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

std::string McReport::toJsonString() const {
  std::ostringstream os;
  JsonWriter w(os);
  toJson(w);
  return os.str();
}

std::optional<McReport> McReport::fromJson(const JsonValue& doc,
                                           std::string* error) {
  if (!checkJsonEnvelope(doc, kReportSchemaV1, "mc_report", error))
    return std::nullopt;
  McReport report;
  if (!readJsonI64(doc.find("scripts_visited"), &report.scriptsVisited) ||
      !readJsonI64(doc.find("runs_executed"), &report.runsExecuted)) {
    fail(error, "mc_report: bad counters");
    return std::nullopt;
  }
  if (!readJsonLatencyMap(doc.find("worst_latency_by_crashes"),
                          &report.worstLatencyByCrashes) ||
      !readJsonLatencyMap(doc.find("best_latency_by_crashes"),
                          &report.bestLatencyByCrashes)) {
    fail(error, "mc_report: bad latency maps");
    return std::nullopt;
  }
  const JsonValue* violations = doc.find("violations");
  if (violations == nullptr || !violations->isArray()) {
    fail(error, "mc_report: bad violations");
    return std::nullopt;
  }
  for (const JsonValue& entry : violations->items) {
    McViolation v;
    const JsonValue* initial = entry.find("initial");
    const JsonValue* verdict = entry.find("verdict");
    const JsonValue* dump =
        entry.isObject() ? entry.find("run_dump") : nullptr;
    bool ok = entry.isObject() &&
              readJsonI64(entry.find("script_index"), &v.scriptIndex) &&
              readJsonInt(entry.find("config_index"), &v.configIndex) &&
              initial != nullptr && initial->isArray() &&
              readScript(entry.find("script"), &v.script) &&
              verdict != nullptr && verdict->isObject() && dump != nullptr &&
              dump->kind == JsonValue::Kind::kString;
    if (ok) {
      for (const JsonValue& val : initial->items) {
        int value = 0;
        ok = ok && readJsonInt(&val, &value);
        v.initial.push_back(static_cast<Value>(value));
      }
      ok = ok &&
           readJsonBool(verdict->find("uniform_agreement"),
                        &v.verdict.uniformAgreement) &&
           readJsonBool(verdict->find("uniform_validity"),
                        &v.verdict.uniformValidity) &&
           readJsonBool(verdict->find("decision_in_proposals"),
                        &v.verdict.decisionInProposals) &&
           readJsonBool(verdict->find("termination"),
                        &v.verdict.termination) &&
           readJsonBool(verdict->find("within_latency_bound"),
                        &v.verdict.withinLatencyBound);
      const JsonValue* witness = verdict->find("witness");
      ok = ok && witness != nullptr &&
           witness->kind == JsonValue::Kind::kString;
      if (ok) {
        v.verdict.witness = witness->text;
        v.runDump = dump->text;
      }
    }
    if (!ok) {
      fail(error, "mc_report: bad violation entry");
      return std::nullopt;
    }
    report.violations.push_back(std::move(v));
  }
  return report;
}

namespace {

/// One shard of the model-checking sweep: an McReport restricted to a
/// contiguous range of the script stream.  mergeFrom appends the later
/// range, so violations stay sorted by the canonical run key and the
/// latency maps reduce commutatively (min/max with kNoRound = infinity).
///
/// Runs execute through the worker's RunExecutor arena (pooled engines,
/// prefix resume, symmetry memo — see explore/reduction.hpp); the shard
/// only consumes RunSummary values, which are symmetry-invariant, so the
/// report is bit-identical whether or not reduction is on.  Violations are
/// the exception: their dumps are NOT invariant, so a violating pair is
/// re-executed fresh to produce its exact witness.
class McShard : public SweepShard {
 public:
  McShard(const SweepContext& ctx, const McCheckOptions& options,
          RunExecutor* executor)
      : ctx_(ctx), options_(options), executor_(executor) {}

  void visit(const FailureScript& script, std::int64_t scriptIndex) override {
    const int crashes = script.numCrashes();
    for (std::size_t ci = 0; ci < ctx_.configs.size(); ++ci) {
      const RunSummary summary = executor_->run(script, scriptIndex, ci);
      ++report_.runsExecuted;

      const Round runLatency = summary.latency;
      const bool boundExceeded =
          options_.latencyBound != kNoRound &&
          (runLatency == kNoRound || runLatency > options_.latencyBound);
      if ((!summary.consensusOk || boundExceeded) &&
          static_cast<int>(report_.violations.size()) <
              options_.maxViolations) {
        const RoundRunResult run =
            runRounds(ctx_.cfg, ctx_.model, ctx_.factory, ctx_.configs[ci],
                      script, ctx_.engineOpt);
        UcVerdict verdict = checkUniformConsensus(run);
        if (boundExceeded) {
          verdict.withinLatencyBound = false;
          std::ostringstream os;
          os << verdict.witness << "[latency-bound] |r|="
             << (runLatency == kNoRound ? std::string("inf")
                                        : std::to_string(runLatency))
             << " exceeds the asserted bound " << options_.latencyBound
             << "; ";
          verdict.witness = os.str();
        }
        report_.violations.push_back({scriptIndex, static_cast<int>(ci),
                                      ctx_.configs[ci], script, verdict,
                                      run.toString()});
      }

      foldWorst(report_.worstLatencyByCrashes, crashes, runLatency);
      if (runLatency != kNoRound)
        foldBest(report_.bestLatencyByCrashes, crashes, runLatency);
    }
    ++report_.scriptsVisited;
  }

  void mergeFrom(SweepShard& from) override {
    mergeMcReports(report_, std::move(static_cast<McShard&>(from).report_),
                   options_.maxViolations);
  }

  bool saturated() const override {
    return static_cast<int>(report_.violations.size()) >=
           options_.maxViolations;
  }

  McReport takeReport() { return std::move(report_); }

 private:
  const SweepContext& ctx_;
  const McCheckOptions& options_;
  RunExecutor* executor_;  ///< the owning worker's arena; visit()-only
  McReport report_;
};

}  // namespace

McReport modelCheckConsensus(const RoundAutomatonFactory& factory,
                             const RoundConfig& cfg, RoundModel model,
                             const McCheckOptions& options) {
  const SweepContext ctx(factory, cfg, model, options);
  SweepOutcome outcome;
  {
    OBS_SPAN("mc.sweep");
    outcome = sweepRuns(
        ctx, "mc",
        [&](RunExecutor* executor) {
          return std::make_unique<McShard>(ctx, options, executor);
        },
        /*scripts=*/nullptr, options.memo, options.runStats);
  }

  McReport report = static_cast<McShard&>(*outcome.merged).takeReport();
  SSVSP_CHECK(report.scriptsVisited == outcome.scriptsMerged);
  obs::metrics().counter("mc.scripts").add(report.scriptsVisited);
  obs::metrics().counter("mc.runs").add(report.runsExecuted);
  obs::metrics()
      .counter("mc.violations")
      .add(static_cast<std::int64_t>(report.violations.size()));
  return report;
}

McReport modelCheckConsensus(const RoundAutomatonFactory& factory,
                             const RoundConfig& cfg, RoundModel model,
                             const ExploreSpec& spec) {
  McCheckOptions options;
  static_cast<ExploreSpec&>(options) = spec;
  return modelCheckConsensus(factory, cfg, model, options);
}

}  // namespace ssvsp
