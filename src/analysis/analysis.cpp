#include "analysis/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/golden.hpp"
#include "consensus/messages.hpp"
#include "latency/latency.hpp"
#include "lint/codes.hpp"
#include "util/serde.hpp"

namespace ssvsp {

namespace {

std::string fmtRound(Round r) {
  return r == kNoRound ? std::string("inf") : std::to_string(r);
}

/// Evidence for the structural findings, joined over all interpreted runs.
struct StructuralEvidence {
  int n = 0;
  int t = 0;
  // L401: some process decides having heard from fewer than n - t senders.
  std::optional<std::string> belowQuorum;
  // L402: rounds whose W broadcasts repeat the previous round verbatim,
  // in a failure-free run, before the last decision.
  int deadRounds = 0;
  Round deadFrom = 0;
  Round deadDecision = 0;
  // L403: messages emitted after every correct process has decided.
  std::optional<std::string> postDecision;
  // L404: pending backlog above the 2 f (n - 1) model bound.
  std::optional<std::string> pendingOverBound;

  void observe(const RoundRunResult& run);
};

void StructuralEvidence::observe(const RoundRunResult& run) {
  const Round latency = run.latency();

  // L401 — cumulative distinct senders heard by each decider, up to and
  // including its decision round.
  if (!belowQuorum.has_value()) {
    for (ProcessId p = 0; p < n; ++p) {
      const Round d = run.decisionRound[static_cast<std::size_t>(p)];
      if (d == kNoRound) continue;
      ProcessSet heard;
      for (const RoundDelivery& del : run.deliveries)
        if (del.dst == p && del.deliveredRound <= d) heard.insert(del.src);
      if (heard.size() < n - t) {
        std::ostringstream os;
        os << "p" << p << " decides in round " << d << " having heard from "
           << heard.size() << " process(es), below the n - t = " << (n - t)
           << " quorum (run: " << run.script.toString() << ")";
        belowQuorum = os.str();
        break;
      }
    }
  }

  // L402 — dead estimate rounds, judged on failure-free runs with a
  // divergent initial configuration (unanimous runs would make even the
  // early-stopping rules look wasteful): a round r >= 2 whose per-sender W
  // broadcasts all equal the round r-1 ones contributed no information,
  // yet the decision rule waited past it.
  const bool divergent =
      !run.initial.empty() &&
      !std::all_of(run.initial.begin(), run.initial.end(),
                   [&](Value v) { return v == run.initial.front(); });
  if (deadRounds == 0 && divergent && run.script.numCrashes() == 0 &&
      latency != kNoRound) {
    std::map<std::pair<ProcessId, Round>, ValueSet> wOf;
    for (const RoundDelivery& del : run.deliveries) {
      if (del.src != del.dst) continue;  // self-delivery: one sample/sender
      if (auto w = wire::decodeW(del.payload))
        wOf[{del.src, del.sentRound}] = *w;
    }
    for (Round r = 2; r <= latency; ++r) {
      bool allStable = true;
      for (ProcessId p = 0; p < n && allStable; ++p) {
        const auto cur = wOf.find({p, r});
        const auto prev = wOf.find({p, r - 1});
        if (cur == wOf.end() || prev == wOf.end() ||
            cur->second != prev->second)
          allStable = false;
      }
      if (allStable) {
        if (deadRounds == 0) deadFrom = r - 1;
        ++deadRounds;
        deadDecision = latency;
      }
    }
  }

  // L403 — traffic after the last decision of a correct process.
  if (!postDecision.has_value() && latency != kNoRound) {
    for (std::size_t r = static_cast<std::size_t>(latency);
         r < run.sentPerRound.size(); ++r) {
      if (run.sentPerRound[r] == 0) continue;
      std::ostringstream os;
      os << run.sentPerRound[r] << " message(s) still sent in round "
         << (r + 1) << " after every correct process decided by round "
         << latency << " (run: " << run.script.toString() << ")";
      postDecision = os.str();
      break;
    }
  }

  // L404 — the RWS in-flight bound: a dying sender can pend at most its
  // last two rounds of broadcasts, n - 1 messages each.
  const int bound = 2 * run.script.numCrashes() * (n - 1);
  if (!pendingOverBound.has_value() && run.peakPendingInFlight > bound) {
    std::ostringstream os;
    os << "peak pending backlog " << run.peakPendingInFlight
       << " exceeds 2 * f * (n - 1) = " << bound
       << " (run: " << run.script.toString() << ")";
    pendingOverBound = os.str();
  }
}

void reportStructural(const StructuralEvidence& ev, DiagnosticSink& sink) {
  if (ev.belowQuorum.has_value()) {
    sink.report(kDiagDecideBelowQuorum, Severity::kNote,
                *ev.belowQuorum,
                "sound only under round synchrony, where silence proves a "
                "crash; an RWS port must re-justify the rule");
  }
  if (ev.deadRounds > 0) {
    std::ostringstream os;
    os << "estimates are stable from round " << ev.deadFrom
       << " but the failure-free decision waits until round "
       << ev.deadDecision << " (" << ev.deadRounds << " dead round(s))";
    sink.report(kDiagDeadEstimateRounds, Severity::kNote,
                os.str(),
                "an early-stopping rule (f_r <= r - 2) removes the wait");
  }
  if (ev.postDecision.has_value()) {
    sink.report(kDiagMessageAfterDecision, Severity::kNote,
                *ev.postDecision,
                "halting msgs_i once decided saves the traffic; the paper "
                "keeps it for uniformity of the round structure");
  }
  if (ev.pendingOverBound.has_value()) {
    sink.report(kDiagPendingBoundExceeded, Severity::kError,
                *ev.pendingOverBound,
                "the engine or the cell enumeration violates weak round "
                "synchrony — this is a model soundness bug");
  }
}

}  // namespace

void checkLatencyDegrees(const LatencyDegrees& actual,
                         const LatencyDegrees& expected,
                         const DegreeCheck& check, DiagnosticSink& sink) {
  const auto compare = [&](const std::string& degree, Round got, Round want) {
    if (got == want) return;
    sink.report(check.code, Severity::kError,
                check.subject + " " + degree + " = " + fmtRound(got) +
                    " diverges from " + check.against + " " +
                    fmtRound(want) + check.where,
                check.hint);
  };
  compare("lat(A)", actual.lat, expected.lat);
  compare("Lat(A)", actual.latMax, expected.latMax);
  compare("Lambda(A)", actual.lambda, expected.lambda);
  const auto at = [](const std::vector<Round>& byF, std::size_t f) {
    return f < byF.size() ? byF[f] : kNoRound;
  };
  for (std::size_t f = 0;
       f < std::max(actual.latByF.size(), expected.latByF.size()); ++f)
    compare("Lat(A, f=" + std::to_string(f) + ")", at(actual.latByF, f),
            at(expected.latByF, f));
}

std::optional<BoundExpr> fitClosedForm(const std::vector<Round>& latByF,
                                       int t) {
  if (latByF.empty()) return std::nullopt;
  for (Round r : latByF)
    if (r == kNoRound) return std::nullopt;
  if (std::all_of(latByF.begin(), latByF.end(),
                  [&](Round r) { return r == t + 1; }))
    return boundTPlus(1);
  if (std::all_of(latByF.begin(), latByF.end(),
                  [&](Round r) { return r == latByF.front(); }))
    return boundConst(latByF.front());
  const int c = latByF.front();
  bool fits = true;
  for (std::size_t f = 0; f < latByF.size(); ++f)
    if (latByF[f] != std::min(static_cast<Round>(f) + c, t + 1)) fits = false;
  if (fits) return boundFPlusCapped(c);
  return std::nullopt;
}

AnalysisReport analyzeAlgorithm(const AlgorithmEntry& entry,
                                const AnalysisOptions& options) {
  AnalysisReport report;
  report.algorithm = entry.name;
  report.paperRef = entry.paperRef;
  report.cfg = canonicalAnalysisConfig(entry);
  report.model = entry.intendedModel;
  report.declared = entry.declaredBounds;

  StructuralEvidence evidence;
  evidence.n = report.cfg.n;
  evidence.t = report.cfg.t;
  report.derived = interpretAutomaton(
      entry, report.cfg,
      [&evidence](const RoundRunResult& run) { evidence.observe(run); });
  reportStructural(evidence, report.sink);

  report.closedForm = fitClosedForm(report.derived.latByF, report.cfg.t);

  const std::string hint =
      "either the automaton, the declared bounds, the golden table or the "
      "schedule-cell abstraction is wrong; they must agree";
  if (report.declared.has_value()) {
    checkLatencyDegrees(report.derived, report.declared->eval(report.cfg.t),
                        {kDiagBoundMismatch, "derived", "the declared bound",
                         "", hint},
                        report.sink);
  }

  if (options.checkGolden && report.declared.has_value()) {
    report.goldenChecked = true;
    const GoldenBoundsRow* row = findGoldenBounds(entry.name);
    if (row == nullptr) {
      report.sink.report(
          kDiagBoundMismatch, Severity::kError,
          "algorithm declares bounds but has no golden table row",
          "add the theorem values to analysis/golden.cpp");
    } else if (row->n != report.cfg.n || row->t != report.cfg.t) {
      report.sink.report(
          kDiagBoundMismatch, Severity::kError,
          "golden row parameters diverge from the canonical analysis config",
          "keep golden.cpp in sync with canonicalAnalysisConfig");
    } else {
      checkLatencyDegrees(report.derived, *row,
                          {kDiagBoundMismatch, "derived", "the golden bound",
                           "", hint},
                          report.sink);
    }
  }

  if (options.checkMeasured && report.declared.has_value()) {
    report.measuredChecked = true;
    // RS sweeps are exhaustive at the canonical parameters; RWS script
    // spaces explode at t = 2, so the theorem is spot-checked at t = 1
    // (the declared bounds are symbolic in t, so the comparison is exact).
    report.measuredCfg = report.cfg;
    if (entry.intendedModel == RoundModel::kRws)
      report.measuredCfg = RoundConfig{3, 1};
    LatencyOptions lo =
        canonicalLatencyOptions(entry, report.measuredCfg, /*exhaustive=*/true);
    lo.threads = options.threads;
    lo.progressIntervalSec = options.progressIntervalSec;
    const LatencyProfile profile = measureLatency(
        entry.factory, report.measuredCfg, entry.intendedModel, lo);
    report.measuredProfile = profile.toString();

    const int t = report.measuredCfg.t;
    checkLatencyDegrees(
        profile.degrees(t), report.declared->eval(t),
        {kDiagBoundMismatch, "measured", "the declared bound",
         " at n = " + std::to_string(report.measuredCfg.n) +
             ", t = " + std::to_string(t),
         "the exhaustive sweep disagrees with the theorem: suspect the "
         "automaton or the declared bounds"},
        report.sink);
  }

  return report;
}

std::vector<AnalysisReport> analyzeAllAlgorithms(
    const AnalysisOptions& options) {
  std::vector<AnalysisReport> reports;
  for (const AlgorithmEntry& entry : algorithmRegistry())
    reports.push_back(analyzeAlgorithm(entry, options));
  return reports;
}

std::string AnalysisReport::toText() const {
  std::ostringstream os;
  os << algorithm << " (" << paperRef << ") in " << ssvsp::toString(model)
     << ", n = " << cfg.n << ", t = " << cfg.t << "  [" << derived.cells
     << " cells, " << derived.runs << " runs]\n";
  os << "  derived:  lat=" << fmtRound(derived.lat)
     << " Lat=" << fmtRound(derived.latMax)
     << " Lambda=" << fmtRound(derived.lambda) << " Lat(A,f)=[";
  for (std::size_t f = 0; f < derived.latByF.size(); ++f)
    os << (f ? " " : "") << fmtRound(derived.latByF[f]);
  os << "]";
  if (closedForm.has_value()) os << " ~ " << closedForm->toString();
  os << "\n";
  const PerBudgetBounds& worst = derived.byMaxCrashes.back();
  os << "  traffic:  msgs/round <= " << worst.maxMsgsPerRound
     << ", quiescent after round " << worst.quiescence
     << ", peak pending " << worst.peakPendingInFlight << "\n";
  if (declared.has_value()) {
    os << "  declared: lat=" << declared->lat.toString()
       << " Lat=" << declared->latMax.toString()
       << " Lambda=" << declared->lambda.toString()
       << " Lat(A,f)=" << declared->latByF.toString() << "\n";
  } else {
    os << "  declared: (no contract)\n";
  }
  if (goldenChecked) os << "  golden:   checked\n";
  if (measuredChecked)
    os << "  measured: " << measuredProfile << "  (n = " << measuredCfg.n
       << ", t = " << measuredCfg.t << ")\n";
  os << renderText(sink.diagnostics(), algorithm);
  return os.str();
}

std::string AnalysisReport::toJson() const {
  // Compact serde JsonWriter, same "key":value byte format as the
  // hand-rolled emitter this replaced.
  std::ostringstream os;
  JsonWriter w(os);
  const auto roundValue = [&w](Round r) {
    if (r == kNoRound)
      w.null();
    else
      w.value(r);
  };
  w.beginObject();
  w.kv("algorithm", algorithm);
  w.kv("paperRef", paperRef);
  w.kv("model", ssvsp::toString(model));
  w.kv("n", cfg.n);
  w.kv("t", cfg.t);

  w.key("derived").beginObject();
  w.key("lat");
  roundValue(derived.lat);
  w.key("Lat");
  roundValue(derived.latMax);
  w.key("Lambda");
  roundValue(derived.lambda);
  w.key("LatByF").beginArray();
  for (Round r : derived.latByF) roundValue(r);
  w.endArray();
  w.key("closedForm");
  if (closedForm.has_value())
    w.value(closedForm->toString());
  else
    w.null();
  const PerBudgetBounds& worst = derived.byMaxCrashes.back();
  w.kv("maxMsgsPerRound", worst.maxMsgsPerRound);
  w.key("quiescence");
  roundValue(worst.quiescence);
  w.kv("peakPending", worst.peakPendingInFlight);
  w.kv("cells", derived.cells);
  w.kv("runs", derived.runs);
  w.endObject();

  if (declared.has_value()) {
    w.key("declared").beginObject();
    w.kv("lat", declared->lat.toString());
    w.kv("Lat", declared->latMax.toString());
    w.kv("Lambda", declared->lambda.toString());
    w.kv("LatByF", declared->latByF.toString());
    w.endObject();
  } else {
    w.key("declared").null();
  }
  w.kv("goldenChecked", goldenChecked);
  if (measuredChecked) {
    w.key("measured").beginObject();
    w.kv("n", measuredCfg.n);
    w.kv("t", measuredCfg.t);
    w.kv("profile", measuredProfile);
    w.endObject();
  } else {
    w.key("measured").null();
  }
  w.key("report").raw(renderJson(sink.diagnostics(), algorithm));
  w.endObject();
  return os.str();
}

}  // namespace ssvsp
