#include "campaign/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <map>
#include <utility>
#include <vector>

#include "util/serde.hpp"

namespace ssvsp {

namespace {

// Log layout: 8-byte magic, then records.  Record frame:
//   u32 bodyLen | body | u64 fnv1a64(body)
// body = u8 type | type-specific payload (RecordWriter encoding).
constexpr char kMagicV2[8] = {'S', 'S', 'V', 'S', 'P', 'M', 'L', '2'};
constexpr std::uint8_t kRecFooter = 2;
constexpr std::uint8_t kRecSummaryV2 = 3;  ///< packed MemoKey words

bool setError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Frames one record body into `out`.
void frame(std::string& out, const std::string& body) {
  RecordWriter w(out);
  w.putU32(static_cast<std::uint32_t>(body.size()));
  out.append(body);
  w.putU64(fnv1a64(body));
}

/// write() the whole buffer, retrying partial writes.  O_APPEND makes each
/// write() an atomic append; a batch is one call in the common case, so
/// concurrent writers interleave between batches, never inside records.
bool writeAll(int fd, std::string_view bytes, std::string* error) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return setError(error, std::string("memo store write: ") +
                                 std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::unique_ptr<MemoStore> MemoStore::open(const std::string& path,
                                           std::string* error) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    setError(error, "memo store open '" + path + "': " + std::strerror(errno));
    return nullptr;
  }
  std::unique_ptr<MemoStore> store(new MemoStore(path, fd));

  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    setError(error, "memo store stat: " + std::string(std::strerror(errno)));
    return nullptr;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // Fresh log: write the header now so readers can always demand it.
    if (!writeAll(fd, std::string_view(kMagicV2, sizeof(kMagicV2)), error))
      return nullptr;
    return store;
  }
  if (size < sizeof(kMagicV2)) {
    setError(error, "memo store '" + path + "': truncated header");
    return nullptr;
  }

  // Replay through a read-only mapping; record data is only trusted after
  // its frame checksum verifies.
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    setError(error, "memo store mmap: " + std::string(std::strerror(errno)));
    return nullptr;
  }
  const std::string_view bytes(static_cast<const char*>(map), size);
  bool corrupt = false;
  std::size_t good = 0;  ///< offset just past the last intact record
  if (bytes.substr(0, sizeof(kMagicV2)) !=
      std::string_view(kMagicV2, sizeof(kMagicV2))) {
    corrupt = true;
    setError(error, "memo store '" + path + "': bad magic");
  } else {
    good = sizeof(kMagicV2);
    // Summary records since the writer's last footer; a footer closes its
    // writer's segment by asserting this count.
    std::map<std::uint32_t, std::int64_t> openSegment;
    std::size_t off = sizeof(kMagicV2);
    while (off < size) {
      RecordReader probe(bytes.substr(off));
      const std::string_view body = probe.getBytes();
      const std::uint64_t checksum = probe.getU64();
      if (!probe.ok() || checksum != fnv1a64(body)) break;  // torn tail
      RecordReader rec(body);
      const std::uint8_t type = rec.getU8();
      if (type == kRecSummaryV2) {
        const std::string_view keyBytes = rec.getBytes();
        const std::uint32_t writer = rec.getU32();
        RunSummary summary;
        summary.latency = rec.getI32();
        summary.consensusOk = rec.getU8() != 0;
        if (!rec.ok() || !rec.exhausted()) break;  // torn tail
        MemoKey key;
        if (!MemoKey::fromBytes(keyBytes, &key)) {
          // The frame checksum verified, so this is not a torn write: the
          // record is well-formed bytes holding a malformed key.  Like a
          // footer-count mismatch, that is damage we must not repair away.
          corrupt = true;
          setError(error, "memo store '" + path +
                              "': undecodable summary key (log damaged)");
          break;
        }
        store->RunMemo::insert(key, summary);
        ++openSegment[writer];
        ++store->openStats_.entriesLoaded;
      } else if (type == kRecFooter) {
        const std::uint32_t writer = rec.getU32();
        const std::int64_t count = rec.getI64();
        if (!rec.ok() || !rec.exhausted()) break;
        if (openSegment[writer] != count) {
          // A checksum-valid footer disagreeing with the replayed count is
          // damage in the MIDDLE of the log, not a torn tail — records
          // before it were silently lost, so refuse the store.
          corrupt = true;
          setError(error, "memo store '" + path +
                              "': footer count mismatch (log damaged)");
          break;
        }
        openSegment[writer] = 0;
        ++store->openStats_.footersSeen;
      } else {
        break;  // unknown type: treat as torn tail
      }
      off += probe.pos();
      good = off;
    }
    // Whatever each writer replayed past its last footer is unsealed.
    // (Torn-tail records never count: the loop breaks before tallying
    // them, and the truncation below removes them.)
    for (const auto& [writer, open] : openSegment)
      store->openStats_.entriesUnfooted += open;
  }
  ::munmap(map, size);
  if (corrupt) return nullptr;

  if (good < size) {
    store->openStats_.bytesTruncated = static_cast<std::int64_t>(size - good);
    if (::ftruncate(fd, static_cast<off_t>(good)) != 0) {
      setError(error,
               "memo store repair: " + std::string(std::strerror(errno)));
      return nullptr;
    }
  }
  return store;
}

MemoStore::~MemoStore() {
  flush(/*sync=*/false);
  if (fd_ >= 0) ::close(fd_);
}

std::uint32_t MemoStore::currentWriterId() {
  // Derived lazily, at first use, so a handle inherited across fork() stamps
  // records with the CHILD's identity, not the parent's.  The time mix keeps
  // recycled pids from colliding across invocations (a collision would only
  // risk a false footer-count mismatch, never bad data).
  if (writerId_ == 0)
    writerId_ = static_cast<std::uint32_t>(::getpid()) ^
                (static_cast<std::uint32_t>(::time(nullptr)) << 16);
  return writerId_;
}

void MemoStore::insert(const MemoKey& key, const RunSummary& summary) {
  RunMemo::insert(key, summary);
  std::string body;
  RecordWriter w(body);
  w.putU8(kRecSummaryV2).putBytes(key.bytes()).putU32(currentWriterId());
  w.putI32(summary.latency).putU8(summary.consensusOk ? 1 : 0);
  std::lock_guard<std::mutex> lock(pendingMu_);
  frame(pending_, body);
  ++entriesAppended_;
  ++entriesInSegment_;
}

bool MemoStore::flush(bool sync, std::string* error) {
  std::string batch;
  {
    std::lock_guard<std::mutex> lock(pendingMu_);
    batch.swap(pending_);
  }
  if (!batch.empty() && !writeAll(fd_, batch, error)) return false;
  if (sync && ::fdatasync(fd_) != 0)
    return setError(error,
                    "memo store sync: " + std::string(std::strerror(errno)));
  return true;
}

bool MemoStore::appendFooter(std::string* error) {
  if (!flush(/*sync=*/true, error)) return false;
  std::string body;
  RecordWriter w(body);
  std::int64_t count = 0;
  {
    std::lock_guard<std::mutex> lock(pendingMu_);
    count = entriesInSegment_;
    entriesInSegment_ = 0;
  }
  w.putU8(kRecFooter).putU32(currentWriterId()).putI64(count);
  std::string batch;
  frame(batch, body);
  if (!writeAll(fd_, batch, error)) return false;
  if (::fdatasync(fd_) != 0)
    return setError(error,
                    "memo store sync: " + std::string(std::strerror(errno)));
  return true;
}

namespace {

/// Writer id stamped on every record of a compacted segment.  A constant —
/// not pid-derived — so compacting the same store twice produces identical
/// bytes.  Collision with a live writer id is harmless (writer ids only
/// scope footer counts, and a compacted log has exactly one footer).
constexpr std::uint32_t kCompactedWriterId = 1;

bool fsyncPath(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return setError(error, "compact open '" + path + "' for fsync: " +
                               std::strerror(errno));
  const bool ok = ::fsync(fd) == 0;
  const int saved = errno;
  ::close(fd);
  if (!ok)
    return setError(error,
                    "compact fsync '" + path + "': " + std::strerror(saved));
  return true;
}

}  // namespace

bool compactMemoStore(const std::string& path, bool force,
                      CompactStats* stats, std::string* error) {
  std::string bytes(kMagicV2, sizeof(kMagicV2));
  CompactStats out;
  {
    // open() replays (repairing any torn tail in place) and deduplicates:
    // RunMemo keeps one summary per canonical key no matter how many
    // writers logged it.
    std::unique_ptr<MemoStore> store = MemoStore::open(path, error);
    if (store == nullptr) return false;
    out.entriesBefore = store->openStats().entriesLoaded;
    out.footersBefore = store->openStats().footersSeen;
    out.entriesUnfooted = store->openStats().entriesUnfooted;
    if (out.entriesUnfooted > 0 && !force) {
      if (stats != nullptr) *stats = out;
      return setError(
          error, "memo store '" + path + "': " +
                     std::to_string(out.entriesUnfooted) +
                     " record(s) past the last footer — a campaign may "
                     "still be appending, or a writer died mid-shard; "
                     "pass --force to compact anyway");
    }

    struct Entry {
      MemoKey key;
      RunSummary summary;
    };
    std::vector<Entry> entries;
    entries.reserve(static_cast<std::size_t>(store->size()));
    store->forEach([&](const MemoKey& key, const RunSummary& summary) {
      entries.push_back({key, summary});
    });
    // Sort by key bytes: shard iteration order is hash-table internals, and
    // a deterministic log means compacting twice is byte-idempotent.
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.key.bytes() < b.key.bytes();
              });

    for (const Entry& e : entries) {
      std::string body;
      RecordWriter w(body);
      w.putU8(kRecSummaryV2).putBytes(e.key.bytes());
      w.putU32(kCompactedWriterId);
      w.putI32(e.summary.latency).putU8(e.summary.consensusOk ? 1 : 0);
      frame(bytes, body);
    }
    std::string footer;
    RecordWriter w(footer);
    w.putU8(kRecFooter).putU32(kCompactedWriterId);
    w.putI64(static_cast<std::int64_t>(entries.size()));
    frame(bytes, footer);
    out.entriesAfter = static_cast<std::int64_t>(entries.size());
  }  // close the store's descriptor before swapping the file under it

  struct stat st{};
  if (::stat(path.c_str(), &st) != 0)
    return setError(error,
                    "compact stat '" + path + "': " + std::strerror(errno));
  out.bytesBefore = static_cast<std::int64_t>(st.st_size);
  out.bytesAfter = static_cast<std::int64_t>(bytes.size());

  // Temp + fsync + rename: the old log stays intact until the new one is
  // durable, and readers never observe a half-written store.
  const std::string tmp = path + ".compact.tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return setError(error,
                    "compact open '" + tmp + "': " + std::strerror(errno));
  if (!writeAll(fd, bytes, error)) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    setError(error, "compact fsync: " + std::string(std::strerror(errno)));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    setError(error, "compact rename '" + tmp + "' -> '" + path +
                        "': " + std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  // Make the rename itself durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  if (!fsyncPath(dir, error)) return false;

  if (stats != nullptr) *stats = out;
  return true;
}

}  // namespace ssvsp
