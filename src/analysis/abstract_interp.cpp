#include "analysis/abstract_interp.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "explore/reduction.hpp"
#include "util/check.hpp"

namespace ssvsp {

RoundConfig canonicalAnalysisConfig(const AlgorithmEntry& entry) {
  const int t = entry.requiresTLe1 ? 1 : 2;
  return RoundConfig{t + 2, t};
}

std::vector<std::vector<Value>> canonicalConfigs(int n) {
  // One canonicalizer for the whole repo: the reduction layer owns the
  // definition, the analyzer (and its golden tables) just consume it.
  return canonicalValueConfigs(n);
}

namespace {

/// The canonical partial-broadcast shapes of a crasher's final round.
enum class SendShape { kSilent, kFull, kOneWitness, kAllButOne };

/// The canonical pending shapes of a dying sender under RWS: its crash-round
/// messages may lag one round, and its previous-round messages may lag one
/// round or be lost past the horizon (weak round synchrony allows both only
/// because the sender crashes in time).
enum class PendShape { kNone, kCrashLag, kPrevLag, kPrevNever };

ProcessSet shapeToSet(SendShape shape, int n, ProcessId witness) {
  switch (shape) {
    case SendShape::kSilent:
      return ProcessSet();
    case SendShape::kFull:
      return ProcessSet::full(n);
    case SendShape::kOneWitness:
      return ProcessSet::single(witness);
    case SendShape::kAllButOne:
      return ProcessSet::full(n) - ProcessSet::single(witness);
  }
  return ProcessSet();
}

/// Crasher identity sets: every subset of {p1, p2} padded with top ids.  The
/// registered automata distinguish at most ids 0 and 1 (A1's p1/p2), so any
/// other crasher choice is behaviourally equivalent to a top-id one.
std::vector<std::vector<ProcessId>> crasherSets(int n, int k) {
  std::set<std::vector<ProcessId>> dedup;
  for (int mask = 0; mask < 4; ++mask) {
    std::vector<ProcessId> ids;
    if (mask & 1) ids.push_back(0);
    if ((mask & 2) && n > 1) ids.push_back(1);
    if (static_cast<int>(ids.size()) > k) continue;
    for (ProcessId p = static_cast<ProcessId>(n - 1);
         static_cast<int>(ids.size()) < k && p >= 0; --p) {
      if (std::find(ids.begin(), ids.end(), p) == ids.end()) ids.push_back(p);
    }
    if (static_cast<int>(ids.size()) != k) continue;
    std::sort(ids.begin(), ids.end());
    dedup.insert(std::move(ids));
  }
  return {dedup.begin(), dedup.end()};
}

/// The crash budget a caller asked for, defaulted and capped at cfg.t.
int crashBudget(const RoundConfig& cfg, std::optional<int> maxCrashes) {
  const int budget = std::min(maxCrashes.value_or(cfg.t), cfg.t);
  SSVSP_CHECK(budget >= 0);
  return budget;
}

/// Per-crasher plan: one point of the per-crasher choice lattice.
struct CrasherPlan {
  Round round = 1;
  SendShape send = SendShape::kSilent;
  PendShape pend = PendShape::kNone;
};

void appendCell(const RoundConfig& cfg, RoundModel model,
                const std::vector<ProcessId>& ids,
                const std::vector<CrasherPlan>& plans,
                std::set<std::string>& seen, std::vector<FailureScript>& out) {
  FailureScript script;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ProcessId p = ids[i];
    const CrasherPlan& plan = plans[i];
    // The witness receiving (or missing) the final partial broadcast: the
    // lowest surviving id, so witness chains reinforce the same process.
    ProcessId witness = 0;
    while (std::find(ids.begin(), ids.end(), witness) != ids.end()) ++witness;
    CrashEvent crash;
    crash.p = p;
    crash.round = plan.round;
    crash.sendTo = shapeToSet(plan.send, cfg.n, witness);
    script.crashes.push_back(crash);

    if (plan.pend == PendShape::kCrashLag) {
      for (ProcessId dst = 0; dst < cfg.n; ++dst) {
        if (dst == p || !crash.sendTo.contains(dst)) continue;
        script.pendings.push_back({p, dst, plan.round, plan.round + 1});
      }
    } else if (plan.pend == PendShape::kPrevLag ||
               plan.pend == PendShape::kPrevNever) {
      const Round arrival =
          plan.pend == PendShape::kPrevLag ? plan.round : kNoRound;
      for (ProcessId dst = 0; dst < cfg.n; ++dst) {
        if (dst == p) continue;
        script.pendings.push_back({p, dst, plan.round - 1, arrival});
      }
    }
  }
  if (!validateScript(script, cfg, model).ok) return;
  if (!seen.insert(script.toString()).second) return;
  out.push_back(std::move(script));
}

}  // namespace

std::vector<FailureScript> enumerateScheduleCells(
    const RoundConfig& cfg, RoundModel model, std::optional<int> maxCrashes) {
  const int budget = crashBudget(cfg, maxCrashes);
  std::vector<FailureScript> cells;
  std::set<std::string> seen;
  cells.push_back(FailureScript{});  // the failure-free cell
  seen.insert(cells.back().toString());

  // Per-crasher choice lattice.  Crash rounds stop at t + 1: every
  // registered algorithm decides and quiesces by then, so later crashes
  // cannot change any derived quantity.
  std::vector<CrasherPlan> menu;
  for (Round r = 1; r <= cfg.t + 1; ++r) {
    for (SendShape send : {SendShape::kSilent, SendShape::kFull,
                           SendShape::kOneWitness, SendShape::kAllButOne}) {
      menu.push_back({r, send, PendShape::kNone});
      if (model != RoundModel::kRws) continue;
      if (send != SendShape::kSilent)
        menu.push_back({r, send, PendShape::kCrashLag});
      if (r > 1) {
        menu.push_back({r, send, PendShape::kPrevLag});
        menu.push_back({r, send, PendShape::kPrevNever});
      }
    }
  }

  for (int k = 1; k <= budget; ++k) {
    for (const std::vector<ProcessId>& ids : crasherSets(cfg.n, k)) {
      // Cartesian product of per-crasher plans, odometer style.
      std::vector<std::size_t> pick(static_cast<std::size_t>(k), 0);
      while (true) {
        std::vector<CrasherPlan> plans;
        for (std::size_t i = 0; i < pick.size(); ++i)
          plans.push_back(menu[pick[i]]);
        appendCell(cfg, model, ids, plans, seen, cells);
        std::size_t i = 0;
        for (; i < pick.size(); ++i) {
          if (++pick[i] < menu.size()) break;
          pick[i] = 0;
        }
        if (i == pick.size()) break;
      }
    }
  }
  return cells;
}

AbstractBounds interpretAutomaton(const AlgorithmEntry& entry,
                                  const RoundConfig& cfg,
                                  const RunObserver& observer,
                                  std::optional<int> maxCrashes) {
  const std::vector<FailureScript> cells = enumerateScheduleCells(
      cfg, entry.intendedModel, maxCrashes);
  const int budget = crashBudget(cfg, maxCrashes);
  const std::vector<std::vector<Value>> configs = canonicalConfigs(cfg.n);

  RoundEngineOptions engineOpt;
  engineOpt.horizon = cfg.t + 3;
  engineOpt.traceDeliveries = true;
  engineOpt.stopWhenAllDecided = false;

  AbstractBounds bounds;
  bounds.cfg = cfg;
  bounds.model = entry.intendedModel;
  bounds.cells = static_cast<std::int64_t>(cells.size());

  // Joined per exact crash count first; prefixes give the <= f semantics.
  std::vector<PerBudgetBounds> byExact(static_cast<std::size_t>(budget) + 1);
  std::vector<Round> minPerConfig(configs.size(), kNoRound);

  // One pooled engine, configs outer: consecutive runs share their initial
  // configuration, so each cell resumes from the previous cell's
  // checkpoints wherever the two scripts agree.
  RoundEngine engine(cfg, entry.intendedModel, entry.factory, engineOpt);
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    for (const FailureScript& script : cells) {
      engine.execute(configs[ci], script);
      const RoundRunResult& run = engine.result();
      ++bounds.runs;
      if (observer) observer(run);

      const Round lr = run.latency();
      PerBudgetBounds& agg =
          byExact[static_cast<std::size_t>(script.numCrashes())];
      if (lr != kNoRound &&
          (agg.earliest == kNoRound || lr < agg.earliest))
        agg.earliest = lr;
      if (lr == kNoRound || agg.latest == kNoRound)
        agg.latest = kNoRound;
      else
        agg.latest = std::max(agg.latest, lr);

      Round& cmin = minPerConfig[ci];
      if (lr != kNoRound && (cmin == kNoRound || lr < cmin)) cmin = lr;

      for (std::size_t r = 0; r < run.sentPerRound.size(); ++r) {
        agg.maxMsgsPerRound =
            std::max(agg.maxMsgsPerRound, run.sentPerRound[r]);
        if (run.sentPerRound[r] > 0)
          agg.quiescence =
              std::max(agg.quiescence, static_cast<Round>(r + 1));
      }
      agg.peakPendingInFlight =
          std::max(agg.peakPendingInFlight, run.peakPendingInFlight);
    }
  }

  // Prefix-join: every quantity is monotone in the crash budget.
  bounds.byMaxCrashes.resize(byExact.size());
  PerBudgetBounds running;
  for (std::size_t f = 0; f < byExact.size(); ++f) {
    const PerBudgetBounds& e = byExact[f];
    if (e.earliest != kNoRound &&
        (running.earliest == kNoRound || e.earliest < running.earliest))
      running.earliest = e.earliest;
    if (e.latest == kNoRound || running.latest == kNoRound)
      running.latest = kNoRound;
    else
      running.latest = std::max(running.latest, e.latest);
    running.maxMsgsPerRound =
        std::max(running.maxMsgsPerRound, e.maxMsgsPerRound);
    running.quiescence = std::max(running.quiescence, e.quiescence);
    running.peakPendingInFlight =
        std::max(running.peakPendingInFlight, e.peakPendingInFlight);
    bounds.byMaxCrashes[f] = running;
  }

  bounds.lat = bounds.byMaxCrashes.back().earliest;
  bounds.lambda = bounds.byMaxCrashes.front().latest;
  bounds.latMax = 0;
  for (Round cmin : minPerConfig) {
    if (cmin == kNoRound)
      bounds.latMax = kNoRound;
    else if (bounds.latMax != kNoRound)
      bounds.latMax = std::max(bounds.latMax, cmin);
  }
  return bounds;
}

}  // namespace ssvsp
