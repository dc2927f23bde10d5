// Persistent, symmetry-canonical run-memo store — the disk half of the
// campaign layer (see campaign.hpp for the orchestrator that shares one
// store across forked shard workers).
//
// The store is an append-only log of (PairCanonicalizer key -> RunSummary)
// records.  It subclasses RunMemo, so any sweep accepts it through
// McCheckOptions::memo unchanged: find() recalls summaries replayed from
// disk plus those inserted this run, insert() additionally stages an
// append-log record.  A sweep against a warm store executes zero engine
// runs — every orbit key hits — which is what makes repeated Lat(A, f)
// queries against a finished campaign cheap.
//
// Durability model:
//   * Records are framed (length prefix + FNV-1a checksum) and staged in
//     memory; flush() appends the whole batch with ONE write() on an
//     O_APPEND descriptor, so concurrent writers (forked shard workers)
//     interleave at batch granularity, never mid-record.
//   * appendFooter() writes an fsync'd segment footer carrying the writer
//     id and its cumulative record count — a worker's "this batch is
//     durable" marker, written after each completed shard.
//   * open() replays the log via a read-only mmap and REPAIRS a torn tail:
//     the first incomplete or checksum-failing record and everything after
//     it is ftruncate'd away.  A worker killed mid-write therefore costs
//     the tail batch, never the store.  Call open() only while no other
//     process is appending (the orchestrator opens before forking).
//
// Store version: logs carry the "SSVSPML2" magic and summary records hold
// the packed MemoKey words directly (kRecSummaryV2).  open() refuses any
// other magic as a bad header and leaves the file untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "explore/reduction.hpp"

namespace ssvsp {

class MemoStore : public RunMemo {
 public:
  struct OpenStats {
    std::int64_t entriesLoaded = 0;   ///< summary records replayed
    std::int64_t footersSeen = 0;     ///< segment footers replayed
    std::int64_t bytesTruncated = 0;  ///< torn tail repaired away
    /// Summary records after their writer's last footer — a non-zero count
    /// means some writer never sealed its segment: either a campaign is
    /// still appending, or one died mid-shard.  Compaction refuses such
    /// stores without --force.
    std::int64_t entriesUnfooted = 0;
  };

  /// Opens (creating if absent) the log at `path`, replays every intact
  /// record into the in-memory memo and truncates any torn tail.  Returns
  /// null and fills `error` on I/O failure or header/footer corruption.
  /// Exclusive: no other process may be appending during open().
  static std::unique_ptr<MemoStore> open(const std::string& path,
                                         std::string* error);

  /// Flushes staged records (without a footer) and closes the descriptor.
  ~MemoStore() override;

  MemoStore(const MemoStore&) = delete;
  MemoStore& operator=(const MemoStore&) = delete;

  /// RunMemo::insert plus staging the record for the next flush().
  void insert(const MemoKey& key, const RunSummary& summary) override;

  /// Appends every staged record with one write(); `sync` additionally
  /// fdatasync()s.  Safe to call with other processes appending to the
  /// same log (O_APPEND keeps batches contiguous).
  bool flush(bool sync, std::string* error = nullptr);

  /// flush() + an fsync'd segment footer for this writer.  Call at shard
  /// completion, before reporting the shard done.
  bool appendFooter(std::string* error = nullptr);

  const OpenStats& openStats() const { return openStats_; }
  const std::string& path() const { return path_; }
  /// Records inserted through THIS handle (not replayed ones).
  std::int64_t entriesAppended() const { return entriesAppended_; }

 private:
  MemoStore(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::uint32_t currentWriterId();

  std::string path_;
  int fd_ = -1;  ///< O_APPEND descriptor
  std::uint32_t writerId_ = 0;  ///< lazily derived (fork-safe); 0 = unset
  OpenStats openStats_;

  std::mutex pendingMu_;
  std::string pending_;  ///< framed records staged for the next flush()
  std::int64_t entriesAppended_ = 0;
  std::int64_t entriesInSegment_ = 0;  ///< since this writer's last footer
};

/// What compactMemoStore did, for reporting.
struct CompactStats {
  std::int64_t entriesBefore = 0;   ///< summary records in the old log
  std::int64_t entriesAfter = 0;    ///< deduplicated records written
  std::int64_t footersBefore = 0;   ///< segment footers in the old log
  std::int64_t entriesUnfooted = 0; ///< unsealed records (force only)
  std::int64_t bytesBefore = 0;     ///< old log size (post tail repair)
  std::int64_t bytesAfter = 0;      ///< compacted log size
};

/// Rewrites the memo log at `path` into a single deduplicated v2 segment:
/// one header, every distinct (key, summary) once (sorted by key, so the
/// output is byte-deterministic), one fsync'd footer.  Duplicate keys —
/// the same orbit discovered by several shards or writers — collapse to
/// one record.  The rewrite goes through
/// a temp file + fsync + rename, so a crash mid-compaction leaves the old
/// log untouched.
///
/// Refuses a store whose last segment is unsealed (OpenStats::
/// entriesUnfooted > 0 — a campaign may still be appending, and rename
/// would yank the log out from under its O_APPEND descriptors) unless
/// `force` is set.  Exclusive for the same reason open() is.
bool compactMemoStore(const std::string& path, bool force,
                      CompactStats* stats, std::string* error);

}  // namespace ssvsp
