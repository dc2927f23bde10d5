#include "lint/lint.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "consensus/registry.hpp"
#include "explore/reduction.hpp"

namespace ssvsp {

namespace {

// The estimate's arithmetic lives in util/saturating.hpp (satMul / satAdd /
// satPow, saturating at kSatI64Max == kScriptSpaceSaturated): the closed
// form below overflows int64 long before n reaches kMaxProcs, and a wrapped
// estimate could land back UNDER the budget and admit an impossible sweep.

std::string showCount(std::int64_t count) {
  return count == kScriptSpaceSaturated ? std::string("more than 2^63")
                                        : std::to_string(count);
}

}  // namespace

std::int64_t estimateScriptSpace(const RoundConfig& cfg, RoundModel model,
                                 const EnumOptions& options) {
  if (!configInRange(cfg) || options.horizon < 1) return 0;
  const int maxCrashes = std::clamp(options.maxCrashes, 0, cfg.t);

  // Per crashed process: a crash round times a partial-send subset of the
  // OTHER processes (the enumerator skips the unobservable self bit).
  const std::int64_t perCrasher =
      satMul(options.horizon, satPow(2, cfg.n - 1));
  // Per pending slot (RWS only): "not pending" or one lag from the menu.
  const std::int64_t radix =
      model == RoundModel::kRws && !options.pendingLags.empty()
          ? 1 + static_cast<std::int64_t>(options.pendingLags.size())
          : 1;

  std::int64_t total = 0;
  std::int64_t choose = 1;  // C(n, k), updated incrementally
  for (int k = 0; k <= maxCrashes; ++k) {
    if (k > 0) {
      choose = satMul(choose, cfg.n - k + 1);
      if (choose != kScriptSpaceSaturated) choose /= k;
    }
    std::int64_t term = satMul(choose, satPow(perCrasher, k));
    // Each dying sender exposes at most 2*(n-1) pending slots (its crash
    // round and the one before, towards every other process).
    term = satMul(term, satPow(radix, static_cast<std::int64_t>(2) * k *
                                          (cfg.n - 1)));
    total = satAdd(total, term);
    if (total == kScriptSpaceSaturated) break;
  }
  if (options.maxScripts >= 0) total = std::min(total, options.maxScripts);
  return total;
}

void lintExploreSpec(const ExploreSpec& spec, const RoundConfig& cfg,
                     RoundModel model, DiagnosticSink& sink,
                     const SweepLintOptions& options) {
  // The remaining bounds are judged against n and t.
  if (!lintRoundConfig(cfg, sink)) return;

  const EnumOptions& e = spec.enumeration;
  if (e.horizon < 1) {
    sink.report(kDiagHorizonOutOfRange, Severity::kError,
                "enumeration horizon " + std::to_string(e.horizon) + " < 1");
  }
  if (e.maxCrashes < 0 || e.maxCrashes > cfg.t) {
    std::ostringstream os;
    os << "crash bound maxCrashes=" << e.maxCrashes << " outside [0, t="
       << cfg.t << "] for n=" << cfg.n;
    sink.report(
        kDiagCrashBoundVsConfig, Severity::kError, os.str(),
        "the enumerator walks crash sets of size 0..maxCrashes <= t < n");
  }

  if (spec.valueDomain < 1) {
    sink.report(kDiagEmptyValueDomain, Severity::kError,
                "value domain of size " + std::to_string(spec.valueDomain) +
                    ": no initial configuration exists");
  } else if (spec.valueDomain == 1) {
    sink.report(kDiagDegenerateValueDomain, Severity::kWarning,
                "value domain of size 1: every process proposes the same "
                "value, agreement holds trivially",
                "use valueDomain >= 2 to exercise agreement");
  }

  for (std::size_t i = 0; i < e.pendingLags.size(); ++i) {
    const int lag = e.pendingLags[i];
    if (lag < 0) {
      sink.report(kDiagNegativePendingLag, Severity::kError,
                  "pending lag " + std::to_string(lag) +
                      " < 0: a message cannot surface before it is sent",
                  "use lag 0 for 'never surfaces within the horizon'");
    } else if (lag > 0 && e.horizon >= 1 && lag >= e.horizon) {
      sink.report(kDiagLagPastHorizon, Severity::kWarning,
                  "pending lag " + std::to_string(lag) + " >= horizon " +
                      std::to_string(e.horizon) +
                      ": every arrival lands past the horizon",
                  "lag 0 already encodes 'never surfaces within the horizon'");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (e.pendingLags[j] == lag) {
        sink.report(kDiagDuplicatePendingLag, Severity::kWarning,
                    "pending lag " + std::to_string(lag) +
                        " listed twice: the same scripts enumerate twice");
        break;
      }
    }
  }
  if (model == RoundModel::kRs && !e.pendingLags.empty()) {
    sink.report(kDiagPendingLagsInRs, Severity::kWarning,
                "pending-lag menu has no effect under RS: round synchrony "
                "forbids pending messages");
  }

  if (spec.reduction != Reduction::kNone &&
      cfg.n - spec.symmetryFixedIds > SymmetryGroup::kMaxMovableIds) {
    std::ostringstream os;
    os << "reduction " << toString(spec.reduction) << " over "
       << cfg.n - spec.symmetryFixedIds << " movable ids (n=" << cfg.n
       << ", symmetryFixedIds=" << spec.symmetryFixedIds
       << "): the symmetry group is capped at "
       << SymmetryGroup::kMaxMovableIds << " movable ids";
    sink.report(kDiagSymmetryGroupTooLarge, Severity::kError, os.str(),
                "sweep with reduction=none, or at a smaller n");
  }

  if (spec.chunkScripts < 1) {
    sink.report(kDiagChunkScriptsClamped, Severity::kWarning,
                "chunkScripts " + std::to_string(spec.chunkScripts) +
                    " < 1 (the sweep engine clamps it to 1)");
  }
  if (spec.threads < 0) {
    sink.report(kDiagThreadsNegative, Severity::kWarning,
                "threads " + std::to_string(spec.threads) +
                    " < 0 (treated as 'one worker per hardware thread')");
  }

  if (!sink.hasErrors()) {
    const std::int64_t estimate = estimateScriptSpace(cfg, model, e);
    if (estimate > options.scriptBudget) {
      std::ostringstream os;
      os << "script space bounded by " << showCount(estimate)
         << " scripts, over the sweep budget of " << options.scriptBudget;
      sink.report(kDiagScriptSpaceOverBudget, Severity::kWarning, os.str(),
                  "lower horizon/maxCrashes/pendingLags, or set maxScripts to "
                  "cap the sweep");
    }
  }
}

ScenarioLintResult lintScenarioText(const std::string& text,
                                    DiagnosticSink& sink) {
  const ScenarioParseResult parsed = parseScenario(text);
  ScenarioLintResult out;
  out.parsed = parsed.structureOk;
  out.scenario = parsed.scenario;

  // Forward the parse diagnostics, but replace the coarse script-invalid
  // wrapper with the per-condition codes of lintFailureScript.
  for (const Diagnostic& d : parsed.diagnostics)
    if (d.code != kDiagScriptInvalid) sink.add(d);

  if (!parsed.structureOk) return out;
  const Scenario& sc = out.scenario;
  const Round horizon = sc.horizon > 0 ? sc.horizon : sc.cfg.t + 2;
  lintFailureScript(sc.script, sc.cfg, sc.model, horizon, sink);

  if (const AlgorithmEntry* entry = findAlgorithm(sc.algorithm)) {
    if (entry->intendedModel != sc.model) {
      sink.report(
          kDiagAlgorithmModelMismatch, Severity::kNote,
          sc.algorithm + " is designed for " + toString(entry->intendedModel) +
              " but this scenario runs it in " + toString(sc.model),
          "expected for counterexample scenarios; ignore if intentional");
    }
    if (entry->requiresTLe1 && sc.cfg.t > 1) {
      sink.report(kDiagAlgorithmResilience, Severity::kWarning,
                  sc.algorithm +
                      " is only proved for t <= 1 but the scenario sets t = " +
                      std::to_string(sc.cfg.t));
    }
  }
  return out;
}

void lintScenarioForReplay(const Scenario& scenario, Round maxRounds,
                           DiagnosticSink& sink) {
  const Round scenarioHorizon =
      scenario.horizon > 0 ? scenario.horizon : scenario.cfg.t + 2;
  const Round horizon = maxRounds > 0 ? maxRounds : scenarioHorizon;
  for (const CrashEvent& crash : scenario.script.crashes) {
    if (crash.round == kNoRound || crash.round <= horizon) continue;
    sink.report(kDiagCrashBeyondReplayHorizon, Severity::kError,
                "p" + std::to_string(crash.p) + " crashes in round " +
                    std::to_string(crash.round) +
                    ", beyond the replayable horizon of " +
                    std::to_string(horizon) + " rounds",
                "raise the scenario horizon (or --max-rounds) to at least the "
                "crash round, or move the crash earlier");
  }
  if (!scenario.script.pendings.empty()) {
    sink.report(kDiagPendingAdvisoryInReplay, Severity::kNote,
                std::to_string(scenario.script.pendings.size()) +
                    " pending choice(s) are not enforced by the transport "
                    "harness: real network scheduling decides arrivals",
                "crashes replay exactly; drop the pendings or accept that the "
                "wire run realizes some other admissible RWS schedule");
  }
}

bool parseSweepSpecText(const std::string& text, RoundConfig* cfg,
                        RoundModel* model, ExploreSpec* spec,
                        std::string* problem) {
  // Strip '#' comments per line, then flatten separators to spaces so the
  // same parser accepts a one-line --spec argument and a .spec file.
  std::string norm;
  std::istringstream rawLines(text);
  std::string line;
  while (std::getline(rawLines, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    norm += line;
    norm += ' ';
  }
  for (char& c : norm)
    if (c == ',' || c == '\r' || c == '\t') c = ' ';
  std::istringstream in(norm);
  std::string tok;
  bool haveN = false, haveT = false;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      *problem = "expected key=value, got '" + tok + "'";
      return false;
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    try {
      if (key == "n") {
        cfg->n = std::stoi(value);
        haveN = true;
      } else if (key == "t") {
        cfg->t = std::stoi(value);
        haveT = true;
      } else if (key == "model") {
        if (value == "rs" || value == "RS") {
          *model = RoundModel::kRs;
        } else if (value == "rws" || value == "RWS") {
          *model = RoundModel::kRws;
        } else {
          *problem = "unknown model '" + value + "' (want rs or rws)";
          return false;
        }
      } else if (key == "horizon") {
        spec->enumeration.horizon = std::stoi(value);
      } else if (key == "maxCrashes") {
        spec->enumeration.maxCrashes = std::stoi(value);
      } else if (key == "lags") {
        spec->enumeration.pendingLags.clear();
        std::istringstream lags(value);
        std::string lag;
        while (std::getline(lags, lag, ':'))
          spec->enumeration.pendingLags.push_back(std::stoi(lag));
      } else if (key == "maxScripts") {
        spec->enumeration.maxScripts = std::stoll(value);
      } else if (key == "reduction") {
        const std::optional<Reduction> reduction = reductionFromString(value);
        if (!reduction.has_value()) {
          *problem = "unknown reduction '" + value +
                     "' (want none, symmetry or symmetry_por)";
          return false;
        }
        spec->reduction = *reduction;
      } else if (key == "domain") {
        spec->valueDomain = std::stoi(value);
      } else if (key == "threads") {
        spec->threads = std::stoi(value);
      } else if (key == "chunk") {
        spec->chunkScripts = std::stoi(value);
      } else {
        *problem = "unknown spec key '" + key + "'";
        return false;
      }
    } catch (const std::exception&) {
      *problem = "bad value for '" + key + "': '" + value + "'";
      return false;
    }
  }
  if (!haveN || !haveT) {
    *problem = "a spec needs both n= and t=";
    return false;
  }
  return true;
}

void lintSpecText(const std::string& text, DiagnosticSink& sink,
                  const SweepLintOptions& options) {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  ExploreSpec spec;
  std::string problem;
  if (!parseSweepSpecText(text, &cfg, &model, &spec, &problem)) {
    sink.report(kDiagSpecParseError, Severity::kError, problem,
                "write space/comma-separated k=v pairs; see ssvsp_lint --help");
    return;
  }
  lintExploreSpec(spec, cfg, model, sink, options);
}

void preflightSweep(const RoundConfig& cfg, RoundModel model,
                    const ExploreSpec& spec, const SweepLintOptions& options,
                    DiagnosticSink* sink) {
  DiagnosticSink local;
  lintExploreSpec(spec, cfg, model, local, options);
  if (sink != nullptr)
    for (const Diagnostic& d : local.diagnostics()) sink->add(d);
  if (local.hasErrors()) throw PreflightError(local.diagnostics());
}

}  // namespace ssvsp
