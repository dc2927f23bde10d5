#include "explore/reduction.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "explore/spec.hpp"
#include "indep/independence.hpp"
#include "lint/codes.hpp"
#include "obs/obs.hpp"
#include "rounds/spec.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {

std::vector<std::vector<Value>> canonicalValueConfigs(int n) {
  SSVSP_CHECK(n >= 1 && n <= kMaxProcs);
  std::vector<std::vector<Value>> configs;
  const int rest = n - 1;
  configs.reserve(std::size_t{1} << rest);
  for (int mask = 0; mask < (1 << rest); ++mask) {
    std::vector<Value> config(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < rest; ++i)
      config[static_cast<std::size_t>(i + 1)] = (mask >> i) & 1;
    configs.push_back(std::move(config));
  }
  return configs;
}

SymmetryGroup::SymmetryGroup(int n, int fixedIds) : n_(n) {
  SSVSP_CHECK_MSG(n >= 1 && n <= kMaxProcs, "n = " << n);
  SSVSP_CHECK_MSG(fixedIds >= 0 && fixedIds <= n, "fixedIds = " << fixedIds);
  SSVSP_CHECK_MSG(n - fixedIds <= kMaxMovableIds,
                  "symmetry group over " << (n - fixedIds)
                                         << " movable ids is too large");
  std::vector<ProcessId> tail;
  for (ProcessId p = fixedIds; p < n; ++p) tail.push_back(p);
  do {
    std::vector<ProcessId> perm(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < fixedIds; ++p)
      perm[static_cast<std::size_t>(p)] = p;
    for (std::size_t i = 0; i < tail.size(); ++i)
      perm[static_cast<std::size_t>(fixedIds) + i] = tail[i];
    std::vector<ProcessId> inv(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p)
      inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(p)])] = p;
    perms_.push_back(std::move(perm));
    inverses_.push_back(std::move(inv));
  } while (std::next_permutation(tail.begin(), tail.end()));
}

std::uint64_t SymmetryGroup::applyToMask(int g, std::uint64_t mask) const {
  const std::vector<ProcessId>& perm = perms_[static_cast<std::size_t>(g)];
  std::uint64_t out = 0;
  while (mask != 0) {
    const int p = __builtin_ctzll(mask);
    mask &= mask - 1;
    out |= std::uint64_t{1} << perm[static_cast<std::size_t>(p)];
  }
  return out;
}

std::optional<RunSummary> RunMemo::find(const MemoKey& key) const {
  const Shard& shard = shards_[shardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  return it->second;
}

void RunMemo::insert(const MemoKey& key, const RunSummary& summary) {
  Shard& shard = shards_[shardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.map.emplace(key, summary);
}

std::int64_t RunMemo::size() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += static_cast<std::int64_t>(shard.map.size());
  }
  return total;
}

void RunMemo::forEach(
    const std::function<void(const MemoKey&, const RunSummary&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, summary] : shard.map) fn(key, summary);
  }
}

std::uint64_t packCrashWord(std::int64_t p, std::int64_t round,
                            std::uint64_t sendToMask) {
  SSVSP_CHECK_MSG(p >= 0 && p < 64, "crash process " << p);
  SSVSP_CHECK_MSG(round >= 0 && round < 1024, "crash round " << round);
  SSVSP_CHECK_MSG(sendToMask < (std::uint64_t{1} << 48),
                  "crash sendTo mask needs n <= 48");
  return (static_cast<std::uint64_t>(p) << 58) |
         (static_cast<std::uint64_t>(round) << 48) | sendToMask;
}

std::uint32_t packPendingHalf(std::int64_t src, std::int64_t dst,
                              std::int64_t round, std::int64_t arrival) {
  SSVSP_CHECK_MSG(src >= 0 && src < 64 && dst >= 0 && dst < 64,
                  "pending src/dst " << src << "/" << dst);
  SSVSP_CHECK_MSG(round >= 0 && round < 1024, "pending round " << round);
  // kNoRound ("surfaces after the horizon") packs as the all-ones 1023,
  // which compares greater than every real arrival — exactly its int64
  // ordering in the v1 tuple stream.
  const std::uint32_t arr =
      arrival == kNoRound ? 1023u : static_cast<std::uint32_t>(arrival);
  SSVSP_CHECK_MSG(arrival == kNoRound || (arrival >= 0 && arrival < 1023),
                  "pending arrival " << arrival);
  return (static_cast<std::uint32_t>(src) << 26) |
         (static_cast<std::uint32_t>(dst) << 20) |
         (static_cast<std::uint32_t>(round) << 10) | arr;
}

namespace {

/// memcmp over words would compare byte-wise (wrong on little-endian);
/// this is the word-lexicographic compare the key order is defined by.
int compareWords(const std::uint64_t* a, const std::uint64_t* b,
                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Insertion sort — the tuple counts are single-digit to low-double-digit,
/// where this beats std::sort's dispatch overhead and stays branch-light.
template <typename T>
void sortSmall(T* first, std::size_t count) {
  for (std::size_t i = 1; i < count; ++i) {
    const T v = first[i];
    std::size_t j = i;
    while (j > 0 && first[j - 1] > v) {
      first[j] = first[j - 1];
      --j;
    }
    first[j] = v;
  }
}

}  // namespace

bool MemoKey::fromBytes(std::string_view bytes, MemoKey* out) {
  if (bytes.size() % sizeof(std::uint64_t) != 0) return false;
  const std::size_t used = bytes.size() / sizeof(std::uint64_t);
  if (used == 0 || used > kMaxWords) return false;
  out->used = static_cast<std::uint32_t>(used);
  out->words.fill(0);
  std::memcpy(out->words.data(), bytes.data(), bytes.size());
  return true;
}

void PairCanonicalizer::encodeScript(int g, const FailureScript& script,
                                     std::uint64_t* crash,
                                     std::uint64_t* pending) {
  const std::vector<ProcessId>& perm = group_.perm(g);

  std::size_t nc = 0;
  for (const CrashEvent& c : script.crashes)
    crash[nc++] = packCrashWord(perm[static_cast<std::size_t>(c.p)], c.round,
                                group_.applyToMask(g, c.sendTo.mask()));
  sortSmall(crash, nc);

  std::size_t np = 0;
  for (const PendingChoice& pc : script.pendings)
    pendingHalves_[np++] =
        packPendingHalf(perm[static_cast<std::size_t>(pc.src)],
                        perm[static_cast<std::size_t>(pc.dst)], pc.round,
                        pc.arrival);
  sortSmall(pendingHalves_.data(), np);
  // Two tuples per word, earlier tuple in the high half; an odd tail leaves
  // the low half zero, which no real tuple encodes (pending rounds are >= 1).
  for (std::size_t i = 0; i < pendingWords_; ++i) {
    const std::uint64_t hi = pendingHalves_[2 * i];
    const std::uint64_t lo =
        2 * i + 1 < np ? pendingHalves_[2 * i + 1] : 0;
    pending[i] = (hi << 32) | lo;
  }
}

void PairCanonicalizer::setScript(const FailureScript& script) {
  OBS_SPAN("reduction.canonicalize");
  crashCount_ = script.crashes.size();
  pendingCount_ = script.pendings.size();
  pendingWords_ = (pendingCount_ + 1) / 2;
  const std::size_t configWords =
      (static_cast<std::size_t>(group_.n()) + 7) / 8;
  SSVSP_CHECK_MSG(
      1 + crashCount_ + pendingWords_ + configWords <= MemoKey::kMaxWords,
      "script with " << crashCount_ << " crashes and " << pendingCount_
                     << " pendings overflows MemoKey::kMaxWords — raise the "
                        "capacity in explore/reduction.hpp");

  argmin_.clear();
  std::uint64_t* const bestCrash = bestScript_.data();
  std::uint64_t* const bestPending = bestScript_.data() + crashCount_;
  std::uint64_t* const candCrash = candidate_.data();
  std::uint64_t* const candPending = candidate_.data() + crashCount_;
  for (int g = 0; g < group_.size(); ++g) {
    encodeScript(g, script, candCrash, candPending);
    if (argmin_.empty()) {
      std::swap(bestScript_, candidate_);
      argmin_.assign(1, g);
      continue;
    }
    // Crash words first: a candidate already losing on its crash prefix is
    // decided without looking at its pending words.
    int cmp = compareWords(candCrash, bestCrash, crashCount_);
    if (cmp == 0) cmp = compareWords(candPending, bestPending, pendingWords_);
    if (cmp < 0) {
      std::swap(bestScript_, candidate_);
      argmin_.assign(1, g);
    } else if (cmp == 0) {
      argmin_.push_back(g);
    }
  }
}

const MemoKey& PairCanonicalizer::key(const std::vector<Value>& config) {
  SSVSP_CHECK_MSG(!argmin_.empty(), "key() before setScript()");
  const int n = group_.n();
  SSVSP_CHECK(static_cast<int>(config.size()) == n);
  const std::size_t configWords = (static_cast<std::size_t>(n) + 7) / 8;

  // One range check per call instead of one per (coset element, process).
  std::uint32_t acc = 0;
  for (Value v : config) acc |= static_cast<std::uint32_t>(v);
  SSVSP_CHECK_MSG(acc <= 0xff, "config values must fit one byte");

  // Minimize the packed config over the argmin coset.  8 values per word,
  // earlier process in the higher byte, so the word compare IS the
  // process-lexicographic compare of the permuted configs.
  std::array<std::uint64_t, 8> best{};
  std::array<std::uint64_t, 8> cand{};
  for (std::size_t i = 0; i < argmin_.size(); ++i) {
    const std::vector<ProcessId>& inv = group_.inverse(argmin_[i]);
    for (std::size_t w = 0; w < configWords; ++w) cand[w] = 0;
    for (int q = 0; q < n; ++q) {
      const auto v = static_cast<std::uint64_t>(
          config[static_cast<std::size_t>(inv[static_cast<std::size_t>(q)])]);
      cand[static_cast<std::size_t>(q) >> 3] |=
          v << ((7 - (static_cast<std::size_t>(q) & 7)) * 8);
    }
    if (i == 0 || compareWords(cand.data(), best.data(), configWords) < 0)
      best = cand;
  }

  const std::size_t scriptWords = crashCount_ + pendingWords_;
  key_.used = static_cast<std::uint32_t>(1 + scriptWords + configWords);
  key_.words[0] = (std::uint64_t{2} << 56) |
                  (static_cast<std::uint64_t>(n) << 48) |
                  (static_cast<std::uint64_t>(crashCount_) << 32) |
                  static_cast<std::uint64_t>(pendingCount_);
  std::memcpy(key_.words.data() + 1, bestScript_.data(),
              scriptWords * sizeof(std::uint64_t));
  std::memcpy(key_.words.data() + 1 + scriptWords, best.data(),
              configWords * sizeof(std::uint64_t));
  return key_;
}

void SweepRunStats::add(const SweepRunStats& o) {
  runsRequested += o.runsRequested;
  runsFromMemo += o.runsFromMemo;
  runsExecuted += o.runsExecuted;
  runsReusedInEngine += o.runsReusedInEngine;
  roundsExecuted += o.roundsExecuted;
  roundsResumed += o.roundsResumed;
  memoEntries += o.memoEntries;
}

void SweepRunStats::publish(obs::MetricsRegistry& registry) const {
  registry.counter("sweep.runs_requested").add(runsRequested);
  registry.counter("sweep.runs_from_memo").add(runsFromMemo);
  registry.counter("sweep.runs_executed").add(runsExecuted);
  registry.counter("sweep.runs_reused_in_engine").add(runsReusedInEngine);
  registry.counter("sweep.rounds_executed").add(roundsExecuted);
  registry.counter("sweep.rounds_resumed").add(roundsResumed);
  registry.counter("sweep.memo_entries").add(memoEntries);
  registry.counter("sweep.memo_hits").add(runsFromMemo);
  registry.counter("sweep.memo_misses").add(runsRequested - runsFromMemo);
}

void SweepRunStats::toJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("schema", kReportSchemaV1);
  w.kv("kind", "sweep_run_stats");
  w.kv("runs_requested", runsRequested);
  w.kv("runs_from_memo", runsFromMemo);
  w.kv("runs_executed", runsExecuted);
  w.kv("runs_reused_in_engine", runsReusedInEngine);
  w.kv("rounds_executed", roundsExecuted);
  w.kv("rounds_resumed", roundsResumed);
  w.kv("memo_entries", memoEntries);
  w.endObject();
}

std::string SweepRunStats::toJsonString() const {
  std::ostringstream os;
  JsonWriter w(os);
  toJson(w);
  return os.str();
}

std::optional<SweepRunStats> SweepRunStats::fromJson(const JsonValue& doc,
                                                     std::string* error) {
  if (!checkJsonEnvelope(doc, kReportSchemaV1, "sweep_run_stats", error))
    return std::nullopt;
  SweepRunStats s;
  const bool ok =
      readJsonI64(doc.find("runs_requested"), &s.runsRequested) &&
      readJsonI64(doc.find("runs_from_memo"), &s.runsFromMemo) &&
      readJsonI64(doc.find("runs_executed"), &s.runsExecuted) &&
      readJsonI64(doc.find("runs_reused_in_engine"), &s.runsReusedInEngine) &&
      readJsonI64(doc.find("rounds_executed"), &s.roundsExecuted) &&
      readJsonI64(doc.find("rounds_resumed"), &s.roundsResumed) &&
      readJsonI64(doc.find("memo_entries"), &s.memoEntries);
  if (!ok) {
    if (error != nullptr) *error = "sweep_run_stats: bad fields";
    return std::nullopt;
  }
  return s;
}

void resolveReduction(ExploreSpec& spec, const AlgorithmEntry& entry,
                      const RoundConfig& cfg) {
  spec.symmetryFixedIds = entry.symmetryFixedIds;
  if (spec.reduction != Reduction::kSymmetryPor) return;
  const indep::PorSpec por = indep::porSpecFor(
      entry, cfg, spec.enumeration.horizon + spec.horizonSlack);
  spec.decisionFixRound = por.decisionFixRound;
  spec.porReadsAllSenders = por.readsAllSenders;
  spec.porReadIdsMask = por.readIdsMask;
  spec.porReplayEvery = indep::replayEveryFromEnv();
}

indep::PorSpec porSpecFromExplore(const ExploreSpec& spec) {
  indep::PorSpec por;
  por.decisionFixRound = spec.decisionFixRound;
  por.engineHorizon = spec.enumeration.horizon + spec.horizonSlack;
  por.readsAllSenders = spec.porReadsAllSenders;
  por.readIdsMask = spec.porReadIdsMask;
  por.replayEvery = spec.porReplayEvery;
  return por;
}

RunExecutor::RunExecutor(const RoundConfig& cfg, RoundModel model,
                         RoundAutomatonFactory factory,
                         std::vector<std::vector<Value>> configs,
                         const RoundEngineOptions& engineOptions,
                         const SymmetryGroup* group, RunMemo* memo,
                         const indep::PorSpec* por)
    : configs_(std::move(configs)) {
  SSVSP_CHECK(!configs_.empty());
  engines_.reserve(configs_.size());
  for (std::size_t i = 0; i < configs_.size(); ++i)
    engines_.push_back(
        std::make_unique<RoundEngine>(cfg, model, factory, engineOptions));
  // POR alone still collapses distinct enumerated scripts onto one class
  // representative, so the memo pays off even over a trivial group; plain
  // symmetry over a trivial group never sees a repeated key and skips it.
  if (group != nullptr && memo != nullptr &&
      (!group->trivial() || por != nullptr)) {
    memo_ = memo;
    canon_ = std::make_unique<PairCanonicalizer>(*group);
    if (por != nullptr)
      normalizer_ = std::make_unique<indep::ScriptNormalizer>(cfg, *por);
  }
}

RunSummary RunExecutor::run(const FailureScript& script,
                            std::int64_t scriptIndex,
                            std::size_t configIndex) {
  SSVSP_CHECK(configIndex < configs_.size());
  runsRequested_.fetch_add(1, std::memory_order_relaxed);

  const MemoKey* key = nullptr;
  if (canon_ != nullptr) {
    if (scriptIndex < 0 || scriptIndex != lastScriptIndex_) {
      if (normalizer_ != nullptr) {
        canon_->setScript(normalizer_->normalize(script));
        lastCollapsed_ = normalizer_->lastCollapsed();
      } else {
        canon_->setScript(script);
      }
      lastScriptIndex_ = scriptIndex;
    }
    key = &canon_->key(configs_[configIndex]);
    if (std::optional<RunSummary> hit = memo_->find(*key)) {
      runsFromMemo_.fetch_add(1, std::memory_order_relaxed);
      if (normalizer_ != nullptr && lastCollapsed_) {
        const int every = normalizer_->spec().replayEvery;
        if (every > 0 && ++collapsedHits_ % every == 0)
          replayCheck(script, configIndex, *hit);
      }
      return *hit;
    }
  }

  const RunSummary summary = execute(script, configIndex);
  if (key != nullptr) memo_->insert(*key, summary);
  return summary;
}

RunSummary RunExecutor::execute(const FailureScript& script,
                                std::size_t configIndex) {
  RoundEngine& engine = *engines_[configIndex];
  engine.execute(configs_[configIndex], script);
  const RoundRunResult& run = engine.result();
  const RunSummary summary{run.latency(), checkUniformConsensus(run).ok()};
  if (normalizer_ != nullptr) {
    // L500: every executed run dynamically re-validates the footprint's
    // decision-fix claim — a decision AFTER the declared round D would void
    // the F1 pruning rules for this whole sweep.
    const Round fixBy = normalizer_->spec().decisionFixRound;
    if (fixBy != kNoRound) {
      for (std::size_t p = 0; p < run.decisionRound.size(); ++p) {
        const Round dr = run.decisionRound[p];
        if (dr != kNoRound && dr > fixBy) {
          std::ostringstream msg;
          msg << "process " << p << " decided in round " << dr
              << ", after the declared decision-fix round " << fixBy
              << " (script " << script.toString() << ")";
          std::vector<Diagnostic> ds;
          ds.push_back({std::string(kDiagPorDecisionPastFix), Severity::kError,
                        {}, msg.str(),
                        "fix the algorithm's ObservationalFootprint::"
                        "decisionFixBy or run with reduction=symmetry"});
          throw indep::PorTripwireError(std::move(ds));
        }
      }
    }
  }
  return summary;
}

void RunExecutor::replayCheck(const FailureScript& script,
                              std::size_t configIndex,
                              const RunSummary& memoized) {
  const RunSummary fresh = execute(script, configIndex);
  if (fresh.latency == memoized.latency &&
      fresh.consensusOk == memoized.consensusOk)
    return;
  std::ostringstream msg;
  msg << "replayed pruned schedule disagrees with its class representative: "
      << "fresh (latency " << fresh.latency << ", consensusOk "
      << fresh.consensusOk << ") vs memoized (latency " << memoized.latency
      << ", consensusOk " << memoized.consensusOk << ") for script "
      << script.toString();
  std::vector<Diagnostic> ds;
  ds.push_back({std::string(kDiagPorReplayMismatch), Severity::kError, {},
                msg.str(),
                "the independence analysis collapsed two observably different "
                "schedules; fix the footprint declaration or the normalizer"});
  throw indep::PorTripwireError(std::move(ds));
}

SweepRunStats RunExecutor::stats() const {
  SweepRunStats s;
  s.runsRequested = runsRequestedNow();
  s.runsFromMemo = runsFromMemoNow();
  for (const auto& engine : engines_) {
    const RoundEngine::Stats& es = engine->stats();
    s.runsExecuted += es.runsExecuted;
    s.runsReusedInEngine += es.runsReused;
    s.roundsExecuted += es.roundsExecuted;
    s.roundsResumed += es.roundsResumed;
  }
  return s;
}

}  // namespace ssvsp
