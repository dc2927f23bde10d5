// Experiment E8: the sweep engine's state-space reduction stack.
//
// Each cell sweeps one (algorithm, n, t, model) space three ways:
//
//   pooled  — modelCheckConsensus with Reduction::kNone: per-worker engine
//             arenas, pooled automata, checkpoint/prefix resume;
//   reduced — modelCheckConsensus with Reduction::kSymmetry on top: orbit
//             memoization over the algorithm's process-id symmetry group;
//   por     — Reduction::kSymmetryPor: the static independence analysis
//             (src/indep) collapsing observationally-equivalent schedules
//             onto one memo entry, composed with the orbit memo.
//
// Reports must be bit-identical across all three (the reduction contract,
// see DESIGN.md §10/§13); the table and BENCH_sweep.json record wall-clock,
// scripts/s, runs/s, the memo reduction factor and peak RSS.  Full mode
// gates three cells: rws-n4's POR acceptance (>= 5x fewer executed engine
// runs than symmetry alone), rws-n5's reduced sweep against the recorded
// time of the retired legacy loop (>= 5x faster), and rws-n6's hotpath
// throughput.
//
// Flags:
//   --smoke          one small RS cell only; exits non-zero unless the
//                    reduced sweep is >= 2x faster than the pooled one
//                    (the CI gate).
//   --out=PATH       where to write the JSON report (default
//                    BENCH_sweep.json).
//   --threads=N      worker count for the sweeps (default 1, so speedups
//                    measure the reduction stack, not parallelism).
//   --cell=NAME      run only the named cell and skip the pass/fail gates —
//                    a profiling aid, so obs traces of e.g. rws-n6 are not
//                    diluted by other cells.
#include "bench_common.hpp"

#include <sys/resource.h>

#include <array>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "consensus/registry.hpp"
#include "explore/reduction.hpp"
#include "mc/checker.hpp"
#include "rounds/spec.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace {

/// Peak resident set size of this process, in KiB (ru_maxrss unit on Linux).
long peakRssKb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

struct Cell {
  std::string name;
  std::string algo;
  int n = 3;
  int t = 2;
  RoundModel model = RoundModel::kRs;
  std::int64_t maxScripts = -1;
  /// Recorded wall time of the retired legacy loop on this cell; when
  /// set, the reduced sweep must beat it by kRequiredSpeedupVsLegacy.
  double recordedLegacySecs = 0;
  /// POR acceptance: executed engine runs under symmetry alone must be at
  /// least this many times the executed engine runs under symmetry_por.
  double requiredPorRunsFactor = 0;
};

// The rws-n5 acceptance: the reduced sweep must run >= 5x faster than the
// legacy loop, one fresh single-use runRounds per (script, config) pair.
// That loop is no longer timed (tests/test_reduction.cpp checks that pooled
// runs equal fresh ones); its last time on rws-n5 is recorded here: the
// median of 3 full-mode runs (4.038, 4.295, 4.864 s), --threads 1,
// Release + LTO, g++ 12.2, 4-vCPU VM.
constexpr double kRecordedRwsN5LegacySecs = 4.295;
constexpr double kRequiredSpeedupVsLegacy = 5.0;

McCheckOptions cellOptions(const Cell& cell, int threads) {
  McCheckOptions o;
  o.enumeration.horizon = cell.t + 2;
  o.enumeration.maxCrashes = cell.t;
  if (cell.model == RoundModel::kRws) o.enumeration.pendingLags = {1, 0};
  o.enumeration.maxScripts = cell.maxScripts;
  o.maxViolations = 1000000000;  // count everything: keeps reports comparable
  o.threads = threads;
  return o;
}

/// Executed engine runs of a sweep: fresh executions plus prefix-covered
/// reuses — the work the memo failed to avoid.
std::int64_t engineRuns(const SweepRunStats& stats) {
  return stats.runsExecuted + stats.runsReusedInEngine;
}

struct CellResult {
  Cell cell;
  std::int64_t scripts = 0;
  std::int64_t runs = 0;
  double pooledSecs = 0;
  double reducedSecs = 0;
  double porSecs = 0;
  SweepRunStats stats;     ///< from the reduced (symmetry) sweep
  SweepRunStats porStats;  ///< from the symmetry_por sweep
  bool identicalReports = false;

  double speedupVsRecordedLegacy() const {
    return reducedSecs > 0 ? cell.recordedLegacySecs / reducedSecs : 0;
  }
  double speedupReducedVsPooled() const {
    return reducedSecs > 0 ? pooledSecs / reducedSecs : 0;
  }
  /// (script, config) pairs per engine execution: the memo's dedup factor.
  double reductionFactor() const {
    const std::int64_t executed = engineRuns(stats);
    return executed > 0
               ? static_cast<double>(stats.runsRequested) / executed
               : 0;
  }
  double porReductionFactor() const {
    const std::int64_t executed = engineRuns(porStats);
    return executed > 0
               ? static_cast<double>(porStats.runsRequested) / executed
               : 0;
  }
  /// The POR acceptance metric: engine runs under symmetry alone per engine
  /// run under symmetry_por.
  double porRunsFactor() const {
    const std::int64_t por = engineRuns(porStats);
    return por > 0 ? static_cast<double>(engineRuns(stats)) / por : 0;
  }
};

CellResult runCell(const Cell& cell, int threads) {
  const AlgorithmEntry& entry = algorithmByName(cell.algo);
  const RoundConfig cfg{cell.n, cell.t};
  const McCheckOptions base = cellOptions(cell, threads);

  CellResult res;
  res.cell = cell;

  McReport pooled;
  res.pooledSecs = bench::wallSeconds([&] {
    pooled = modelCheckConsensus(entry.factory, cfg, cell.model, base);
  });

  McCheckOptions reducedOpt = base;
  reducedOpt.reduction = Reduction::kSymmetry;
  resolveReduction(reducedOpt, entry, cfg);
  reducedOpt.runStats = &res.stats;
  McReport reduced;
  res.reducedSecs = bench::wallSeconds([&] {
    reduced = modelCheckConsensus(entry.factory, cfg, cell.model, reducedOpt);
  });

  McCheckOptions porOpt = reducedOpt;
  porOpt.reduction = Reduction::kSymmetryPor;
  resolveReduction(porOpt, entry, cfg);
  // Best-of-3: por is the gated mode (the hotpath gate anchors rws-n6 por
  // runs/s to a fixed baseline) and also the cheapest of the three, so the
  // standard min-of-N answer to scheduler noise costs almost nothing here.
  McReport por;
  res.porSecs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    SweepRunStats repStats;
    porOpt.runStats = &repStats;
    McReport repReport;
    const double secs = bench::wallSeconds([&] {
      repReport =
          modelCheckConsensus(entry.factory, cfg, cell.model, porOpt);
    });
    if (rep == 0 || secs < res.porSecs) {
      res.porSecs = secs;
      res.porStats = repStats;
      por = std::move(repReport);
    }
  }

  res.scripts = reduced.scriptsVisited;
  res.runs = reduced.runsExecuted;
  res.identicalReports =
      pooled.summary() == reduced.summary() &&
      pooled.toJsonString() == por.toJsonString();
  return res;
}

std::string fmtSecs(double s) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << s;
  return os.str();
}

std::string fmtX(double x) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << x << "x";
  return os.str();
}

void printTable(const std::vector<CellResult>& results) {
  Table table({"cell", "algorithm", "n", "t", "model", "scripts", "runs",
               "pooled s", "reduced s", "por s", "vs pooled", "dedup",
               "por dedup", "por runs x", "identical report"});
  for (const CellResult& r : results) {
    table.addRowValues(
        r.cell.name, r.cell.algo, r.cell.n, r.cell.t, toString(r.cell.model),
        r.scripts, r.runs, fmtSecs(r.pooledSecs), fmtSecs(r.reducedSecs),
        fmtSecs(r.porSecs), fmtX(r.speedupReducedVsPooled()),
        fmtX(r.reductionFactor()), fmtX(r.porReductionFactor()),
        fmtX(r.porRunsFactor()),
        bench::checkMark(r.identicalReports));
  }
  table.print(std::cout);
}

// ----------------------------- hotpath section ---------------------------
//
// The ISSUE-9 microarchitecture pass (bitset state, packed memo keys, arena
// snapshots) is gated here.  Full mode: the rws-n6 por sweep must at least
// double the PR 8 baseline runs/s on the reference machine without growing
// peak RSS.  Smoke mode: a same-run A/B — the retired string-key
// canonicalizer (kept verbatim below) against the packed-key one over the
// smoke cell's script stream — must show >= 1.3x; being same-run, it is
// machine-independent and safe for CI.

// PR 8 baseline for rws-n6 (por, --threads 1, release LTO, the reference
// machine): 512000 runs in 1.022 s, whole-bench peak RSS 85860 KiB.
constexpr double kBaselineRwsN6PorRunsPerS = 500952.9;
constexpr std::int64_t kBaselineRwsN6PeakRssKb = 85860;
constexpr double kRequiredHotpathSpeedup = 2.0;
constexpr double kRequiredHotpathMicroSpeedup = 1.3;

/// The pre-ISSUE-9 PairCanonicalizer, preserved as the micro-benchmark
/// baseline: int64-tuple script encodings minimized as std::vector
/// comparisons, keys materialized as std::string.
class LegacyStringCanonicalizer {
 public:
  explicit LegacyStringCanonicalizer(const SymmetryGroup& group)
      : group_(group) {}

  void setScript(const FailureScript& script) {
    argmin_.clear();
    bestScript_.clear();
    for (int g = 0; g < group_.size(); ++g) {
      encodeScript(g, script, candidate_);
      if (argmin_.empty() || candidate_ < bestScript_) {
        std::swap(bestScript_, candidate_);
        argmin_.assign(1, g);
      } else if (candidate_ == bestScript_) {
        argmin_.push_back(g);
      }
    }
  }

  const std::string& key(const std::vector<Value>& config) {
    bestConfig_.clear();
    for (std::size_t i = 0; i < argmin_.size(); ++i) {
      const std::vector<ProcessId>& inv = group_.inverse(argmin_[i]);
      candidateConfig_.clear();
      for (int q = 0; q < group_.n(); ++q)
        candidateConfig_.push_back(
            config[static_cast<std::size_t>(inv[static_cast<std::size_t>(q)])]);
      if (i == 0 || candidateConfig_ < bestConfig_)
        std::swap(bestConfig_, candidateConfig_);
    }
    keyBuffer_.assign(reinterpret_cast<const char*>(bestScript_.data()),
                      bestScript_.size() * sizeof(std::int64_t));
    keyBuffer_.append(reinterpret_cast<const char*>(bestConfig_.data()),
                      bestConfig_.size() * sizeof(Value));
    return keyBuffer_;
  }

 private:
  void encodeScript(int g, const FailureScript& script,
                    std::vector<std::int64_t>& out) {
    const std::vector<ProcessId>& perm = group_.perm(g);
    crashTuples_.clear();
    for (const CrashEvent& c : script.crashes)
      crashTuples_.push_back(
          {std::int64_t{perm[static_cast<std::size_t>(c.p)]},
           std::int64_t{c.round},
           static_cast<std::int64_t>(group_.applyToMask(g, c.sendTo.mask()))});
    std::sort(crashTuples_.begin(), crashTuples_.end());
    pendingTuples_.clear();
    for (const PendingChoice& pc : script.pendings)
      pendingTuples_.push_back(
          {std::int64_t{perm[static_cast<std::size_t>(pc.src)]},
           std::int64_t{perm[static_cast<std::size_t>(pc.dst)]},
           std::int64_t{pc.round}, std::int64_t{pc.arrival}});
    std::sort(pendingTuples_.begin(), pendingTuples_.end());
    out.clear();
    out.push_back(static_cast<std::int64_t>(crashTuples_.size()));
    out.push_back(static_cast<std::int64_t>(pendingTuples_.size()));
    for (const auto& t : crashTuples_)
      out.insert(out.end(), t.begin(), t.end());
    for (const auto& t : pendingTuples_)
      out.insert(out.end(), t.begin(), t.end());
  }

  const SymmetryGroup& group_;
  std::vector<int> argmin_;
  std::vector<std::int64_t> bestScript_, candidate_;
  std::vector<std::array<std::int64_t, 3>> crashTuples_;
  std::vector<std::array<std::int64_t, 4>> pendingTuples_;
  std::vector<Value> bestConfig_, candidateConfig_;
  std::string keyBuffer_;
};

struct HotpathMicro {
  std::int64_t keys = 0;  ///< (script, config) keys computed per side
  double legacySecs = 0;
  double packedSecs = 0;
  bool identicalDedup = false;  ///< both sides memoize to the same orbit count
  double speedup() const {
    return packedSecs > 0 ? legacySecs / packedSecs : 0;
  }
};

/// A/B over one cell's full (script, config) stream: canonicalize + memo
/// probe with the legacy string keys, then with packed MemoKeys.  Both
/// sides do identical canonical-minimization work; only the key
/// representation (and therefore hashing, equality, allocation) differs.
HotpathMicro runHotpathMicro(const Cell& cell) {
  const AlgorithmEntry& entry = algorithmByName(cell.algo);
  const RoundConfig cfg{cell.n, cell.t};
  const McCheckOptions o = cellOptions(cell, 1);
  const SymmetryGroup group(cell.n, entry.symmetryFixedIds);
  const auto configs = allInitialConfigs(cell.n, o.valueDomain);

  HotpathMicro micro;
  std::size_t legacyOrbits = 0;
  micro.legacySecs = bench::wallSeconds([&] {
    LegacyStringCanonicalizer canon(group);
    std::unordered_map<std::string, RunSummary> memo;
    forEachScript(cfg, cell.model, o.enumeration,
                  [&](const FailureScript& script) {
                    canon.setScript(script);
                    for (const auto& config : configs) {
                      memo.try_emplace(canon.key(config), RunSummary{1, true});
                      ++micro.keys;
                    }
                    return true;
                  });
    legacyOrbits = memo.size();
  });

  std::size_t packedOrbits = 0;
  micro.packedSecs = bench::wallSeconds([&] {
    PairCanonicalizer canon(group);
    std::unordered_map<MemoKey, RunSummary, MemoKeyHash> memo;
    forEachScript(cfg, cell.model, o.enumeration,
                  [&](const FailureScript& script) {
                    canon.setScript(script);
                    for (const auto& config : configs)
                      memo.try_emplace(canon.key(config), RunSummary{1, true});
                    return true;
                  });
    packedOrbits = memo.size();
  });
  micro.identicalDedup = legacyOrbits == packedOrbits && legacyOrbits > 0;
  return micro;
}

void writeJson(const std::vector<CellResult>& results, int threads,
               bool smoke, const HotpathMicro* micro,
               const std::string& path) {
  const auto perSec = [](std::int64_t count, double secs) {
    return secs > 0 ? static_cast<double>(count) / secs : 0.0;
  };

  std::ofstream out(path);
  JsonWriter w(out, 2);
  w.beginObject();
  w.kv("bench", "sweep_reduction");
  w.kv("smoke", smoke);
  w.kv("threads", threads);
  w.kv("peak_rss_kb", static_cast<std::int64_t>(peakRssKb()));
  w.key("cells").beginArray();
  for (const CellResult& r : results) {
    w.beginObject();
    w.kv("name", r.cell.name);
    w.kv("algorithm", r.cell.algo);
    w.kv("n", r.cell.n);
    w.kv("t", r.cell.t);
    w.kv("model", toString(r.cell.model));
    w.kv("max_scripts", r.cell.maxScripts);
    w.kv("scripts", r.scripts);
    w.kv("runs", r.runs);
    w.kv("identical_reports", r.identicalReports);

    w.key("pooled").beginObject();
    w.kv("wall_s", r.pooledSecs);
    w.kv("runs_per_s", perSec(r.runs, r.pooledSecs));
    w.endObject();

    w.key("reduced").beginObject();
    w.kv("wall_s", r.reducedSecs);
    w.kv("runs_per_s", perSec(r.runs, r.reducedSecs));
    w.kv("speedup_vs_pooled", r.speedupReducedVsPooled());
    w.kv("reduction_factor", r.reductionFactor());
    w.key("stats");
    r.stats.toJson(w);  // the ssvsp.report.v1 sweep_run_stats document
    w.endObject();

    w.key("por").beginObject();
    w.kv("wall_s", r.porSecs);
    w.kv("runs_per_s", perSec(r.runs, r.porSecs));
    w.kv("reduction_factor", r.porReductionFactor());
    w.kv("engine_runs", engineRuns(r.porStats));
    w.kv("engine_runs_symmetry", engineRuns(r.stats));
    w.kv("engine_runs_factor_vs_symmetry", r.porRunsFactor());
    w.key("stats");
    r.porStats.toJson(w);
    w.endObject();

    if (r.cell.recordedLegacySecs > 0) {
      w.key("acceptance").beginObject();
      w.kv("recorded_legacy_wall_s", r.cell.recordedLegacySecs);
      w.kv("required_speedup_vs_legacy", kRequiredSpeedupVsLegacy);
      w.kv("measured", r.speedupVsRecordedLegacy());
      w.kv("pass", r.speedupVsRecordedLegacy() >= kRequiredSpeedupVsLegacy);
      w.endObject();
    }
    if (r.cell.requiredPorRunsFactor > 0) {
      w.key("por_acceptance").beginObject();
      w.kv("required_engine_runs_factor", r.cell.requiredPorRunsFactor);
      w.kv("measured", r.porRunsFactor());
      w.kv("pass", r.porRunsFactor() >= r.cell.requiredPorRunsFactor);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();

  // The ISSUE-9 hotpath record: full mode anchors the rws-n6 por sweep to
  // the PR 8 baseline; smoke mode records the same-run key-representation
  // A/B.  `pass` is informational here — run() turns it into the exit code.
  for (const CellResult& r : results) {
    if (r.cell.name != "rws-n6") continue;
    const double runsPerS = perSec(r.runs, r.porSecs);
    w.key("hotpath").beginObject();
    w.kv("cell", r.cell.name);
    w.kv("mode", "por");
    w.kv("wall_s", r.porSecs);
    w.kv("runs_per_s", runsPerS);
    w.kv("peak_rss_kb", static_cast<std::int64_t>(peakRssKb()));
    w.kv("rounds_executed", r.porStats.roundsExecuted);
    w.kv("rounds_resumed", r.porStats.roundsResumed);
    w.kv("baseline_runs_per_s", kBaselineRwsN6PorRunsPerS);
    w.kv("baseline_peak_rss_kb", kBaselineRwsN6PeakRssKb);
    w.kv("speedup_vs_baseline", runsPerS / kBaselineRwsN6PorRunsPerS);
    w.kv("required_speedup", kRequiredHotpathSpeedup);
    w.kv("pass", runsPerS >= kRequiredHotpathSpeedup *
                                 kBaselineRwsN6PorRunsPerS &&
                     peakRssKb() <= kBaselineRwsN6PeakRssKb);
    w.endObject();
  }
  if (micro != nullptr) {
    w.key("hotpath").beginObject();
    w.kv("mode", "micro");
    w.kv("keys", micro->keys);
    w.kv("legacy_key_wall_s", micro->legacySecs);
    w.kv("packed_key_wall_s", micro->packedSecs);
    w.kv("identical_dedup", micro->identicalDedup);
    w.kv("speedup", micro->speedup());
    w.kv("required_speedup", kRequiredHotpathMicroSpeedup);
    w.kv("pass", micro->identicalDedup &&
                     micro->speedup() >= kRequiredHotpathMicroSpeedup);
    w.endObject();
  }

  w.endObject();
  out << "\n";
  std::cout << "\nwrote " << path << " (peak RSS " << peakRssKb()
            << " KiB)\n";
}

std::vector<Cell> fullCells() {
  return {
      {"rs-n3", "FloodSet", 3, 2, RoundModel::kRs, -1, 0, 0},
      {"rs-n4", "FloodSet", 4, 2, RoundModel::kRs, -1, 0, 0},
      // The POR acceptance cell: symmetry_por must execute >= 5x fewer
      // engine runs than symmetry alone.
      {"rws-n4", "FloodSetWS", 4, 2, RoundModel::kRws, 20000, 0, 5.0},
      // The ISSUE-6 acceptance cell: n=5, f=2, FloodSetWS under RWS.
      {"rws-n5", "FloodSetWS", 5, 2, RoundModel::kRws, 20000,
       kRecordedRwsN5LegacySecs, 0},
      {"rws-n6", "FloodSetWS", 6, 2, RoundModel::kRws, 8000, 0, 0},
  };
}

std::vector<Cell> smokeCells() {
  // Big enough that the 2x CI gate is safely above timer noise, small
  // enough to finish in seconds.
  return {{"smoke-rs-n5", "FloodSet", 5, 2, RoundModel::kRs, 20000, 0}};
}

int run(int threads, bool smoke, const std::string& outPath,
        const std::string& onlyCell) {
  bench::printHeader(
      smoke ? "E8 (smoke) — sweep reduction stack"
            : "E8 — sweep reduction stack (pooled vs reduced vs por)",
      "reduced sweeps are bit-identical to unreduced ones and strictly "
      "cheaper");

  std::vector<Cell> cells = smoke ? smokeCells() : fullCells();
  // --cell: profiling aid — run one named cell and skip the pass/fail
  // gates (a single cell is not an acceptance run; it exists so obs traces
  // of e.g. rws-n6 are not diluted by the other cells).
  const bool profileOnly = !onlyCell.empty();
  if (profileOnly) {
    std::vector<Cell> filtered;
    for (const Cell& cell : cells)
      if (cell.name == onlyCell) filtered.push_back(cell);
    if (filtered.empty()) {
      std::cerr << "unknown cell '" << onlyCell << "'\n";
      return 1;
    }
    cells = std::move(filtered);
  }
  std::vector<CellResult> results;
  for (const Cell& cell : cells) results.push_back(runCell(cell, threads));
  if (profileOnly) {
    printTable(results);
    writeJson(results, threads, smoke, nullptr, outPath);
    return 0;
  }

  // Smoke-mode hotpath A/B: machine-independent because both sides run in
  // this very process, back to back, over the same stream.
  HotpathMicro micro;
  if (smoke) {
    micro = runHotpathMicro(cells.front());
    std::cout << "\nhotpath key A/B (" << micro.keys << " keys): legacy "
              << fmtSecs(micro.legacySecs) << "s, packed "
              << fmtSecs(micro.packedSecs) << "s — "
              << fmtX(micro.speedup()) << "\n";
  }

  printTable(results);
  writeJson(results, threads, smoke, smoke ? &micro : nullptr, outPath);

  int rc = 0;
  for (const CellResult& r : results) {
    if (!r.identicalReports) {
      std::cerr << "FAIL: cell " << r.cell.name
                << " reports differ across modes\n";
      rc = 1;
    }
    if (r.cell.recordedLegacySecs > 0 &&
        r.speedupVsRecordedLegacy() < kRequiredSpeedupVsLegacy) {
      std::cerr << "FAIL: cell " << r.cell.name << " reduced sweep "
                << fmtX(r.speedupVsRecordedLegacy())
                << " faster than the recorded legacy "
                << fmtSecs(r.cell.recordedLegacySecs) << " s (need >= "
                << fmtX(kRequiredSpeedupVsLegacy) << ")\n";
      rc = 1;
    }
    if (r.cell.requiredPorRunsFactor > 0 &&
        r.porRunsFactor() < r.cell.requiredPorRunsFactor) {
      std::cerr << "FAIL: cell " << r.cell.name << " symmetry_por executed "
                << engineRuns(r.porStats) << " engine runs vs "
                << engineRuns(r.stats) << " under symmetry ("
                << fmtX(r.porRunsFactor()) << ", need >= "
                << fmtX(r.cell.requiredPorRunsFactor) << ")\n";
      rc = 1;
    }
    if (smoke && r.speedupReducedVsPooled() < 2.0) {
      std::cerr << "FAIL: smoke gate: reduced sweep only "
                << fmtX(r.speedupReducedVsPooled())
                << " faster than unreduced (need >= 2x)\n";
      rc = 1;
    }
    if (smoke && r.porRunsFactor() < 2.0) {
      std::cerr << "FAIL: smoke gate: symmetry_por executed only "
                << fmtX(r.porRunsFactor())
                << " fewer engine runs than symmetry (need >= 2x)\n";
      rc = 1;
    }
    // The ISSUE-9 hotpath gate, full mode: the rws-n6 por sweep must at
    // least double the PR 8 baseline without growing peak RSS.
    if (!smoke && r.cell.name == "rws-n6") {
      const double runsPerS =
          r.porSecs > 0 ? static_cast<double>(r.runs) / r.porSecs : 0;
      if (runsPerS < kRequiredHotpathSpeedup * kBaselineRwsN6PorRunsPerS) {
        std::cerr << "FAIL: hotpath gate: rws-n6 por at "
                  << static_cast<std::int64_t>(runsPerS)
                  << " runs/s, below "
                  << fmtX(kRequiredHotpathSpeedup) << " the PR 8 baseline of "
                  << static_cast<std::int64_t>(kBaselineRwsN6PorRunsPerS)
                  << " runs/s\n";
        rc = 1;
      }
      if (peakRssKb() > kBaselineRwsN6PeakRssKb) {
        std::cerr << "FAIL: hotpath gate: peak RSS " << peakRssKb()
                  << " KiB above the PR 8 baseline of "
                  << kBaselineRwsN6PeakRssKb << " KiB\n";
        rc = 1;
      }
    }
  }
  if (smoke &&
      (!micro.identicalDedup ||
       micro.speedup() < kRequiredHotpathMicroSpeedup)) {
    std::cerr << "FAIL: hotpath smoke gate: packed keys only "
              << fmtX(micro.speedup())
              << " faster than legacy string keys (need >= "
              << fmtX(kRequiredHotpathMicroSpeedup) << ", identical dedup: "
              << (micro.identicalDedup ? "yes" : "NO") << ")\n";
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace ssvsp

int main(int argc, char** argv) {
  ssvsp::bench::BenchArgs args("bench_sweep_reduction [options]",
                               "E8: the sweep engine's reduction stack.");
  args.threads = 1;  // speedups measure the stack, not parallelism
  bool smoke = false;
  std::string outPath = "BENCH_sweep.json";
  std::string onlyCell;
  args.spec()
      .flag("smoke", &smoke, "one small RS cell + the 2x CI gates")
      .value("out", &outPath, "JSON report path")
      .value("cell", &onlyCell,
             "run only this cell, skip the gates (profiling aid)");
  args.parse(&argc, argv);
  int rc = 1;
  if (const int guard = ssvsp::bench::guarded([&] {
        rc = ssvsp::run(args.threads, smoke, outPath, onlyCell);
      }))
    return guard;
  return rc;
}
