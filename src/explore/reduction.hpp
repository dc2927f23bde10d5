// State-space reduction for sweep engines: symmetry-canonical run
// memoization plus the per-worker execution arena that owns the pooled
// RoundEngines.
//
// The registered algorithms are invariant under permuting process ids —
// entirely (the FloodSet family) or above the ids they hard-code
// (AlgorithmEntry::symmetryFixedIds; A1 pins p0/p1).  Two (script, initial
// config) pairs related by such a permutation therefore produce runs with
// the same latency degree and the same uniform-consensus verdict.  The
// sweep still VISITS every pair — per-config minima, per-crash-count worst
// cases and violation order are untouched, so McReport / LatencyProfile
// stay bit-identical to unreduced mode by construction — but only one pair
// per orbit pays for an engine execution; the rest recall the memoized
// RunSummary by canonical key.
//
// Orbits are keyed by a canonical form computed in two steps: (1) minimize
// the script's encoding over the group, keeping the argmin coset, then
// (2) minimize the config's encoding over that coset only.  Pairs map to
// the same key iff they are in the same orbit (the usual
// minimize-then-stabilize argument, spelled out in DESIGN.md §10).
//
// Violating runs are the one place a summary is not enough — the checker
// needs the exact witness text — so callers re-execute those runs fresh;
// summaries only ever SKIP work, never replace a dump.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "indep/normalizer.hpp"
#include "obs/metrics.hpp"
#include "rounds/engine.hpp"
#include "rounds/failure_script.hpp"
#include "rounds/round_automaton.hpp"

namespace ssvsp {

class JsonWriter;  // util/serde.hpp
struct JsonValue;  // util/serde.hpp

/// All binary initial configurations over n processes with process 0 pinned
/// to value 0 — the canonical config set modulo value relabeling that the
/// abstract-interpretation analyzer sweeps.  (Value symmetry, distinct from
/// the process-id symmetry below; the analyzer composes both.)
std::vector<std::vector<Value>> canonicalValueConfigs(int n);

/// The permutations of [0, n) acting as the identity on [0, fixedIds) —
/// the symmetries of an algorithm that treats the first `fixedIds` ids
/// specially and no others.
class SymmetryGroup {
 public:
  /// The most ids a group may permute: 8! = 40320 permutations.  A reduced
  /// sweep over more is refused before it starts (lint code L213).
  static constexpr int kMaxMovableIds = 8;

  /// Requires 0 <= fixedIds <= n and n - fixedIds <= kMaxMovableIds.
  SymmetryGroup(int n, int fixedIds);

  int n() const { return n_; }
  int size() const { return static_cast<int>(perms_.size()); }
  /// Only the identity — reduction degenerates to plain memoization of
  /// exact repeats, which never happens in an enumerated stream, so
  /// callers skip the memo entirely.
  bool trivial() const { return perms_.size() <= 1; }

  /// perm(g)[p] = image of process p under the g-th permutation.
  const std::vector<ProcessId>& perm(int g) const {
    return perms_[static_cast<std::size_t>(g)];
  }
  /// inverse(g)[q] = the process the g-th permutation maps to q.
  const std::vector<ProcessId>& inverse(int g) const {
    return inverses_[static_cast<std::size_t>(g)];
  }
  /// Image of a process-id bit mask under the g-th permutation.
  std::uint64_t applyToMask(int g, std::uint64_t mask) const;

 private:
  int n_;
  std::vector<std::vector<ProcessId>> perms_;
  std::vector<std::vector<ProcessId>> inverses_;
};

/// Everything the sweep analyzers consume per run, and nothing more.  Both
/// fields are invariant under the algorithm's symmetry group, which is what
/// makes memoizing them sound; anything richer (witness text, per-process
/// decisions) is NOT invariant and must come from a fresh execution.
struct RunSummary {
  Round latency = kNoRound;  ///< RoundRunResult::latency()
  bool consensusOk = true;   ///< checkUniformConsensus(run).ok()
};

/// The canonical memo key of a (script, config) orbit, as a fixed-width
/// packed word sequence — trivially copyable, hashable without touching the
/// heap, and comparable a word at a time.
///
/// Word layout (all fields big-endian within their word so that unsigned
/// word comparison equals the field-lexicographic comparison the
/// minimization needs — see PairCanonicalizer):
///
///   word 0              header: version(8) | n(8) | crashCount(16) |
///                       pendingCount(32)
///   crashCount words    one crash event each, sorted ascending:
///                       p(6, bits 63..58) | round(10, bits 57..48) |
///                       sendTo mask(48, bits 47..0)
///   ceil(pc/2) words    pending choices, two 32-bit halves per word,
///                       earlier tuple in the HIGH half, sorted ascending:
///                       src(6) | dst(6) | round(10) | arrival(10), with
///                       kNoRound arrivals encoded as the all-ones 1023
///   ceil(n/8) words     the initial config, 8 values per word, earlier
///                       process in the HIGHER byte, zero-padded
///
/// The packing bounds (n <= 48 so crash masks fit 48 bits, rounds and
/// arrivals < 1023, values < 256) are far above anything the enumerators
/// produce and are enforced with SSVSP_CHECK at pack time.  Equality and
/// hashing visit only the `used` prefix (one memcmp / one short FNV loop);
/// the words beyond it are kept zero so whole-struct copies stay cheap and
/// deterministic.
struct MemoKey {
  static constexpr std::size_t kMaxWords = 32;

  std::uint32_t used = 0;  ///< words actually encoding the key
  std::array<std::uint64_t, kMaxWords> words{};

  friend bool operator==(const MemoKey& a, const MemoKey& b) {
    return a.used == b.used &&
           std::memcmp(a.words.data(), b.words.data(),
                       sizeof(std::uint64_t) * a.used) == 0;
  }

  /// The key bytes as stored on disk by the campaign MemoStore (v2 frames):
  /// the used words, little-endian, nothing else.
  std::string_view bytes() const {
    return {reinterpret_cast<const char*>(words.data()),
            sizeof(std::uint64_t) * used};
  }

  /// Inverse of bytes(); false if `bytes` is not a whole number of words or
  /// overflows the fixed capacity.
  static bool fromBytes(std::string_view bytes, MemoKey* out);
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const {
    // FNV-1a over the used words; word-at-a-time keeps the hot path free of
    // byte loops.
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t i = 0; i < k.used; ++i) {
      h ^= k.words[i];
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Packs one crash event (already permuted) into its key word.
std::uint64_t packCrashWord(std::int64_t p, std::int64_t round,
                            std::uint64_t sendToMask);
/// Packs one pending choice (already permuted) into its 32-bit half.
std::uint32_t packPendingHalf(std::int64_t src, std::int64_t dst,
                              std::int64_t round, std::int64_t arrival);

/// Thread-safe canonical-key -> RunSummary store, shared by every worker of
/// a sweep.  Mutex-sharded by key hash; values are pure functions of the
/// key (class invariants of the orbit), so the first-writer race between
/// workers cannot change what any reader observes.
///
/// The accessors are virtual so a persistent store can stand in for the
/// in-memory memo: src/campaign's MemoStore overrides insert() to also
/// append the (key, summary) record to its on-disk log, making every sweep
/// that runs against it warm-startable across processes and invocations.
class RunMemo {
 public:
  virtual ~RunMemo() = default;

  virtual std::optional<RunSummary> find(const MemoKey& key) const;
  virtual void insert(const MemoKey& key, const RunSummary& summary);
  virtual std::int64_t size() const;

  /// Visits every memoized (key, summary) pair.  Iteration order is shard
  /// internals — callers needing determinism must sort what they collect.
  /// Not safe concurrently with insert() from the same visit.
  void forEach(
      const std::function<void(const MemoKey&, const RunSummary&)>& fn) const;

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<MemoKey, RunSummary, MemoKeyHash> map;
  };
  static std::size_t shardOf(const MemoKey& key) {
    return MemoKeyHash{}(key) % kShards;
  }

  std::array<Shard, kShards> shards_;
};

/// Computes the canonical memo key of a (script, config) pair.  Stateful so
/// the expensive half — minimizing the script over the whole group — is
/// paid once per script and shared by every config swept under it.
/// Single-threaded (one instance per worker); all buffers are reused.
///
/// Minimization runs directly over the packed words: each permutation image
/// is encoded as crash words + pending words and compared a word at a time,
/// crash prefix first (a candidate losing there is rejected without its
/// pending words ever being read).  The per-field packings are
/// order-preserving, so the argmin coset — and hence the canonical
/// representative — is IDENTICAL to what a field-by-field tuple comparison
/// would choose.
class PairCanonicalizer {
 public:
  explicit PairCanonicalizer(const SymmetryGroup& group) : group_(group) {}

  /// Minimizes the script encoding over the group and records the argmin
  /// coset.  Call whenever the script changes.
  void setScript(const FailureScript& script);

  /// Canonical key of (current script, config): the minimal script words
  /// followed by the config words minimized over the argmin coset.  The
  /// returned reference is invalidated by the next call.
  const MemoKey& key(const std::vector<Value>& config);

 private:
  /// Encodes the g-image of `script` into crash[0..crashCount) and
  /// pending[0..pendingWords); both arrays are sorted per the key order.
  void encodeScript(int g, const FailureScript& script, std::uint64_t* crash,
                    std::uint64_t* pending);

  const SymmetryGroup& group_;
  std::vector<int> argmin_;  ///< perm indices achieving the script minimum
  std::size_t crashCount_ = 0;    ///< crash words per candidate
  std::size_t pendingCount_ = 0;  ///< pending tuples per candidate
  std::size_t pendingWords_ = 0;  ///< ceil(pendingCount_ / 2)
  std::array<std::uint64_t, MemoKey::kMaxWords> bestScript_{};
  std::array<std::uint64_t, MemoKey::kMaxWords> candidate_{};
  std::array<std::uint32_t, 2 * MemoKey::kMaxWords> pendingHalves_{};
  MemoKey key_;
};

/// Counters surfaced by the perf layers (bench_sweep_reduction and the
/// McCheckOptions::runStats out-param).  Deliberately NOT part of McReport:
/// reports stay bit-identical across reduction modes and thread counts,
/// while these numbers legitimately vary with both.
///
/// Sweeps publish() their aggregated totals under the sweep.* counter names
/// at sweep end, so --metrics-out and the exporters see the same numbers.
struct SweepRunStats {
  std::int64_t runsRequested = 0;  ///< (script, config) pairs visited
  std::int64_t runsFromMemo = 0;   ///< served by a memoized summary
  std::int64_t runsExecuted = 0;   ///< engine executions (>= 1 round run)
  std::int64_t runsReusedInEngine = 0;  ///< fully covered by the prior run
  std::int64_t roundsExecuted = 0;
  std::int64_t roundsResumed = 0;  ///< rounds skipped via checkpoints
  std::int64_t memoEntries = 0;    ///< distinct orbits executed

  void add(const SweepRunStats& o);

  /// Adds every field to `registry` as sweep.* counters, plus the derived
  /// sweep.memo_hits / sweep.memo_misses pair.  Called once per sweep on
  /// the aggregated totals (counters accumulate across sweeps).
  void publish(obs::MetricsRegistry& registry) const;

  /// Versioned wire form (schema ssvsp.report.v1, kind "sweep_run_stats") —
  /// how bench_sweep_reduction and the campaign manifest persist counters.
  void toJson(JsonWriter& w) const;
  std::string toJsonString() const;
  static std::optional<SweepRunStats> fromJson(const JsonValue& doc,
                                               std::string* error = nullptr);
};

struct AlgorithmEntry;  // consensus/registry.hpp
struct ExploreSpec;     // explore/spec.hpp

/// Fills `spec`'s reduction facts for sweeping `entry` at `cfg`: the
/// symmetry group's fixed ids and, under kSymmetryPor, the footprint's POR
/// facts (indep::porSpecFor) plus the SSVSP_CHECK replay period.  The one
/// place a sweep's reduction is resolved against the registry.
void resolveReduction(ExploreSpec& spec, const AlgorithmEntry& entry,
                      const RoundConfig& cfg);

/// The indep::PorSpec a kSymmetryPor sweep over `spec` hands its executors:
/// the spec's resolved POR fields plus the ENGINE horizon (enumeration
/// horizon + slack) for S3.  Pure repackaging of what resolveReduction
/// filled in.
indep::PorSpec porSpecFromExplore(const ExploreSpec& spec);

/// The per-worker execution arena: one pooled, checkpoint-resuming
/// RoundEngine per initial configuration, plus the canonicalizer feeding
/// the shared memo.  A sweep creates one executor per worker thread (see
/// the parallelSweep factory) and keeps it alive across chunks, so
/// automata, inboxes and buffers are allocated once per worker for the
/// whole sweep.  Not thread-safe; the shared RunMemo is.
class RunExecutor {
 public:
  /// `group`/`memo` may be null (or the group trivial) to disable symmetry
  /// reduction; pooling and prefix-resume still apply.  `configs` is
  /// copied.  All referenced objects must outlive the executor.
  ///
  /// `por` non-null composes the POR collapse on top (kSymmetryPor): scripts
  /// are mapped through an indep::ScriptNormalizer before canonicalization,
  /// so independence classes share one memo entry even when the symmetry
  /// group is trivial.  The TRUE script is what executes on a miss; the
  /// normalized form is only ever the key.
  RunExecutor(const RoundConfig& cfg, RoundModel model,
              RoundAutomatonFactory factory,
              std::vector<std::vector<Value>> configs,
              const RoundEngineOptions& engineOptions,
              const SymmetryGroup* group, RunMemo* memo,
              const indep::PorSpec* por = nullptr);

  /// The summary of running configs[configIndex] under `script` — recalled
  /// from the memo when the pair's orbit already executed, freshly executed
  /// (and published) otherwise.  `scriptIndex` keys the per-script
  /// canonicalization cache: pass the stream index, identical across the
  /// config loop of one script; a negative index disables the cache.
  RunSummary run(const FailureScript& script, std::int64_t scriptIndex,
                 std::size_t configIndex);

  const std::vector<std::vector<Value>>& configs() const { return configs_; }

  /// Aggregated counters (memoEntries left 0 — only the sweep owner can
  /// read the shared memo's final size).
  SweepRunStats stats() const;

  /// Live counter reads, safe from any thread mid-sweep (relaxed atomics) —
  /// the progress meter samples these for its memo-hit-rate figure.
  std::int64_t runsRequestedNow() const {
    return runsRequested_.load(std::memory_order_relaxed);
  }
  std::int64_t runsFromMemoNow() const {
    return runsFromMemo_.load(std::memory_order_relaxed);
  }

 private:
  /// Fresh engine execution of `script` on configs_[configIndex], plus the
  /// L500 tripwire (no decision past the declared fix round) when POR is on.
  RunSummary execute(const FailureScript& script, std::size_t configIndex);
  /// L501 tripwire: re-execute the TRUE script of a collapsed memo hit and
  /// compare with the memoized class summary.
  void replayCheck(const FailureScript& script, std::size_t configIndex,
                   const RunSummary& memoized);

  std::vector<std::vector<Value>> configs_;
  std::vector<std::unique_ptr<RoundEngine>> engines_;  ///< one per config
  RunMemo* memo_ = nullptr;
  std::unique_ptr<PairCanonicalizer> canon_;  ///< null = reduction off
  std::unique_ptr<indep::ScriptNormalizer> normalizer_;  ///< null = POR off
  bool lastCollapsed_ = false;  ///< normalize() changed the cached script
  std::int64_t collapsedHits_ = 0;  ///< memo hits on collapsed scripts
  std::int64_t lastScriptIndex_ = -1;
  std::atomic<std::int64_t> runsRequested_{0};
  std::atomic<std::int64_t> runsFromMemo_{0};
};

}  // namespace ssvsp
