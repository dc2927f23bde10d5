// Serialization substrate: payload encoding for simulated messages, and the
// shared JSON writer/reader every machine-readable artifact goes through.
//
// Messages in the step-level simulators carry an opaque sequence of int32
// words; algorithms encode their fields through PayloadWriter and decode
// them through PayloadReader.  Keeping payloads as plain ints makes traces
// printable and run comparison (indistinguishability arguments!) a plain
// word compare.
//
// JsonWriter is the one JSON emitter in the tree (lint diagnostics, analysis
// reports, bench reports, obs trace/metrics exports all render through it);
// JsonValue/parseJson is the matching reader, used by tests and the obs
// artifact validator to round-trip what the writers emit.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/process_set.hpp"
#include "util/types.hpp"

namespace ssvsp {

/// A message payload: a sequence of int32 words with the value semantics of
/// std::vector<std::int32_t> (copy, move, ==, lexicographic <, iteration,
/// push_back/clear).  Up to kInlineWords words live inside the object; a
/// longer payload moves its words to one heap buffer, which then grows by
/// doubling like a vector's.
///
/// The inline capacity is what makes the round engine allocation-free: every
/// registry consensus message fits (a W set is 3 words, tagged messages 2),
/// and so does the RWS-from-SP emulation wrapper around the largest of them
/// (round + hasBody flag + 3 body words = 5).  The sixth word is free: a
/// 4-byte size and capacity over a union of 6 words and a heap pointer is
/// 32 bytes, the same as 5 words padded to the pointer's alignment.  The
/// broadcast/ and commit/ messages (2 + 2n words) take the heap path.
class Payload {
 public:
  using iterator = std::int32_t*;
  using const_iterator = const std::int32_t*;

  static constexpr std::size_t kInlineWords = 6;

  Payload() noexcept = default;
  Payload(std::initializer_list<std::int32_t> words) {
    assign(words.begin(), words.size());
  }
  template <std::input_iterator It>
  Payload(It first, It last) {
    if constexpr (std::forward_iterator<It>)
      reserve(static_cast<std::size_t>(std::distance(first, last)));
    for (; first != last; ++first) push_back(*first);
  }
  Payload(const Payload& other) { *this = other; }
  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(const Payload& other) {
    if (this == &other) return *this;
    if (!onHeap() && !other.onHeap())
      copyInline(other);
    else
      assign(other.data(), other.size());
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    if (this == &other) return *this;
    if (other.onHeap()) {
      release();
      steal(other);
      return *this;
    }
    // Inline source: copy its words, keeping any buffer of our own.
    if (onHeap()) {
      std::copy_n(other.inline_, other.size_, heap_);
      size_ = other.size_;
    } else {
      copyInline(other);
    }
    other.size_ = 0;
    return *this;
  }
  ~Payload() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  std::int32_t* data() { return onHeap() ? heap_ : inline_; }
  const std::int32_t* data() const { return onHeap() ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::int32_t& operator[](std::size_t i) { return data()[i]; }
  const std::int32_t& operator[](std::size_t i) const { return data()[i]; }

  void push_back(std::int32_t word) {
    if (size_ == cap_) grow(2 * static_cast<std::size_t>(cap_));
    data()[size_++] = word;
  }
  void reserve(std::size_t words) {
    if (words > cap_) grow(words);
  }
  /// Drops the words but keeps the capacity, like std::vector::clear.
  void clear() { size_ = 0; }

  friend bool operator==(const Payload& a, const Payload& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend std::strong_ordering operator<=>(const Payload& a,
                                          const Payload& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                  b.begin(), b.end());
  }

 private:
  bool onHeap() const { return cap_ > kInlineWords; }
  /// Replaces the words with [words, words + n), growing if needed.
  void assign(const std::int32_t* words, std::size_t n) {
    if (n > cap_) {
      size_ = 0;  // nothing to carry over
      grow(n);
    }
    std::copy_n(words, n, data());
    size_ = static_cast<std::uint32_t>(n);
  }
  /// Moves the first size_ words into a heap buffer of `words` capacity.
  void grow(std::size_t words) {
    SSVSP_CHECK_MSG(words <= UINT32_MAX, "payload of " << words << " words");
    auto* buf = new std::int32_t[words];
    std::copy_n(data(), size_, buf);
    release();
    heap_ = buf;
    cap_ = static_cast<std::uint32_t>(words);
  }
  void release() {
    if (onHeap()) delete[] heap_;
  }
  /// Copies all inline words of an inline `other`, used or not: a fixed-
  /// size copy is a few register moves where a size_-word copy is a
  /// memmove call.  The unused words are initialized (zeroed at
  /// construction), and memcpy reads them as bytes whichever union member
  /// last held them.
  void copyInline(const Payload& other) noexcept {
    std::memcpy(inline_, other.inline_, sizeof inline_);
    size_ = other.size_;
  }
  /// Takes other's words (its buffer, if on the heap) and leaves it empty
  /// and inline.  Expects *this to own no buffer.
  void steal(Payload& other) noexcept {
    if (other.onHeap()) {
      heap_ = other.heap_;
      cap_ = other.cap_;
      size_ = other.size_;
    } else {
      copyInline(other);
    }
    other.size_ = 0;
    other.cap_ = kInlineWords;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInlineWords;
  union {
    std::int32_t inline_[kInlineWords] = {};
    std::int32_t* heap_;
  };
};
static_assert(sizeof(Payload) == 32);

class PayloadWriter {
 public:
  PayloadWriter& putInt(std::int32_t v) {
    buf_.push_back(v);
    return *this;
  }
  PayloadWriter& putValue(Value v) { return putInt(v); }
  PayloadWriter& putProcess(ProcessId p) { return putInt(p); }
  PayloadWriter& putBool(bool b) { return putInt(b ? 1 : 0); }

  /// ProcessSet as two int32 words (low, high mask halves).
  PayloadWriter& putProcessSet(ProcessSet s);

  Payload take() && { return std::move(buf_); }
  const Payload& peek() const { return buf_; }

 private:
  Payload buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const Payload& p) : buf_(p) {}

  std::int32_t getInt() {
    SSVSP_CHECK_MSG(pos_ < buf_.size(), "payload underflow at word " << pos_);
    return buf_[pos_++];
  }
  Value getValue() { return getInt(); }
  ProcessId getProcess() { return getInt(); }
  bool getBool() { return getInt() != 0; }
  ProcessSet getProcessSet();

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const Payload& buf_;
  std::size_t pos_ = 0;
};

/// Human-readable payload rendering for traces.
std::string payloadToString(const Payload& p);

/// JSON string escaping (quotes, backslashes, control characters), without
/// the surrounding quotes.
std::string jsonEscape(std::string_view s);

/// Streaming JSON emitter with automatic comma/colon placement.
///
/// Compact by default — `"key":value` with no whitespace, byte-compatible
/// with the hand-rolled emitters it replaced — or pretty-printed when
/// constructed with an indent width.  Structural misuse (value without a
/// pending key inside an object, unbalanced end*) trips SSVSP_CHECK.
///
///   JsonWriter w(os);
///   w.beginObject().key("runs").value(42).key("cells").beginArray();
///   for (...) w.value(name);
///   w.endArray().endObject();
class JsonWriter {
 public:
  /// Writes to `os`; indent = 0 emits compact JSON, indent > 0 pretty-prints
  /// with that many spaces per nesting level.
  explicit JsonWriter(std::ostream& os, int indent = 0)
      : os_(os), indent_(indent) {}

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// The name of the next value inside an object.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }
  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::int32_t v) { return value(std::int64_t{v}); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);  ///< emitted with max round-trip precision
  JsonWriter& null();

  /// Splices pre-rendered JSON in as the next value.  The escape hatch for
  /// composing with renderers that already return JSON text.
  JsonWriter& raw(std::string_view json);

  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    return key(k).value(std::forward<T>(v));
  }

  /// Nesting depth still open; 0 once the document is complete.
  int depth() const { return static_cast<int>(stack_.size()); }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  void beforeValue();  ///< comma/newline/indent bookkeeping + key checks
  void newline(int depth);

  std::ostream& os_;
  int indent_;
  std::vector<Scope> stack_;
  std::vector<bool> hasItems_;  ///< parallel to stack_
  bool keyPending_ = false;
  bool rootWritten_ = false;
};

/// A parsed JSON document — the reader half of the serde JSON layer.  Plain
/// tree of tagged values; numbers keep both a double view and an exact
/// int64 view when the text was integral.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::int64_t integer = 0;  ///< valid when isInteger
  bool isInteger = false;
  std::string text;
  std::vector<JsonValue> items;  ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  bool isObject() const { return kind == Kind::kObject; }
  bool isArray() const { return kind == Kind::kArray; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses a complete JSON document.  Returns nullopt and fills `error`
/// (when non-null) with a "byte N: reason" message on malformed input.
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error = nullptr);

// -- typed JSON extraction helpers ------------------------------------------
//
// Shared by the versioned report serializers (McReport, SweepRunStats —
// schema "ssvsp.report.v1").  Each reader returns false on a missing
// member (nullptr) or a kind mismatch, so fromJson bodies read as
// one &&-chain per document.

/// Schema tag of every versioned report document — bump on any
/// incompatible change to a report's wire form; fromJson rejects documents
/// carrying a different tag instead of half-parsing them.
inline constexpr const char* kReportSchemaV1 = "ssvsp.report.v1";

bool readJsonI64(const JsonValue* v, std::int64_t* out);
bool readJsonInt(const JsonValue* v, int* out);
bool readJsonBool(const JsonValue* v, bool* out);
bool readJsonString(const JsonValue* v, std::string* out);

/// Round with the kNoRound sentinel encoded as JSON null — wire documents
/// never leak the in-memory INT_MAX sentinel.
void writeJsonRound(JsonWriter& w, Round r);
bool readJsonRound(const JsonValue& v, Round* out);

/// (crashes -> latency) map as an array of [crashes, latency|null] pairs —
/// JSON object keys are strings, and stringified ints would sort wrong.
void writeJsonLatencyMap(JsonWriter& w, const std::map<int, Round>& m);
bool readJsonLatencyMap(const JsonValue* v, std::map<int, Round>* out);

/// Validates a versioned document envelope: `schema` tag plus the `kind`
/// discriminator.  Rejecting up front beats half-parsing a future rev.
bool checkJsonEnvelope(const JsonValue& doc, std::string_view schema,
                       std::string_view kind, std::string* error);

// -- binary record framing --------------------------------------------------
//
// Fixed-width little-endian framing for the campaign layer's on-disk
// artifacts (the persistent memo store above all).  A record is built in a
// RecordWriter, framed by the caller (length prefix + checksum), and read
// back through a bounds-checked RecordReader that turns truncated or
// corrupt input into a sticky !ok() instead of UB — torn tails after a
// crash must parse as "stop here", never as garbage entries.

/// FNV-1a 64-bit hash; the per-record checksum of the campaign store.
std::uint64_t fnv1a64(std::string_view bytes);

/// Appends fixed-width little-endian fields to a byte buffer.
class RecordWriter {
 public:
  explicit RecordWriter(std::string& out) : out_(out) {}

  RecordWriter& putU8(std::uint8_t v);
  RecordWriter& putU32(std::uint32_t v);
  RecordWriter& putI32(std::int32_t v);
  RecordWriter& putU64(std::uint64_t v);
  RecordWriter& putI64(std::int64_t v);
  /// u32 length prefix + raw bytes.
  RecordWriter& putBytes(std::string_view bytes);

 private:
  std::string& out_;
};

/// Bounds-checked reader over a byte range.  Any out-of-range read clears
/// ok() and returns 0 / empty; ok() never recovers, so callers can issue a
/// whole record's reads and check once.
class RecordReader {
 public:
  explicit RecordReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t getU8();
  std::uint32_t getU32();
  std::int32_t getI32();
  std::uint64_t getU64();
  std::int64_t getI64();
  std::string_view getBytes();  ///< u32 length prefix + raw bytes

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t pos() const { return pos_; }

 private:
  bool take(std::size_t count, const char** out);

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ssvsp
