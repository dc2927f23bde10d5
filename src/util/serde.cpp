#include "util/serde.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace ssvsp {

PayloadWriter& PayloadWriter::putProcessSet(ProcessSet s) {
  const std::uint64_t mask = s.mask();
  putInt(static_cast<std::int32_t>(mask & 0xffffffffULL));
  putInt(static_cast<std::int32_t>(mask >> 32));
  return *this;
}

ProcessSet PayloadReader::getProcessSet() {
  const auto lo = static_cast<std::uint32_t>(getInt());
  const auto hi = static_cast<std::uint32_t>(getInt());
  return ProcessSet::fromMask(static_cast<std::uint64_t>(hi) << 32 | lo);
}

std::string payloadToString(const Payload& p) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i != 0) os << ' ';
    os << p[i];
  }
  os << ']';
  return os.str();
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::newline(int depth) {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (int i = 0; i < depth * indent_; ++i) os_ << ' ';
}

void JsonWriter::beforeValue() {
  if (stack_.empty()) {
    SSVSP_CHECK_MSG(!rootWritten_, "JsonWriter: second root value");
    rootWritten_ = true;
    return;
  }
  if (stack_.back() == Scope::kObject) {
    SSVSP_CHECK_MSG(keyPending_, "JsonWriter: object value without a key");
    keyPending_ = false;
    return;  // key() already emitted the separator
  }
  if (hasItems_.back()) os_ << ',';
  hasItems_.back() = true;
  newline(depth());
}

JsonWriter& JsonWriter::key(std::string_view k) {
  SSVSP_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                  "JsonWriter: key() outside an object");
  SSVSP_CHECK_MSG(!keyPending_, "JsonWriter: two keys in a row");
  if (hasItems_.back()) os_ << ',';
  hasItems_.back() = true;
  newline(depth());
  os_ << '"' << jsonEscape(k) << "\":";
  if (indent_ > 0) os_ << ' ';
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  stack_.push_back(Scope::kObject);
  hasItems_.push_back(false);
  os_ << '{';
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  SSVSP_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kObject,
                  "JsonWriter: endObject() without beginObject()");
  SSVSP_CHECK_MSG(!keyPending_, "JsonWriter: endObject() after a bare key");
  const bool hadItems = hasItems_.back();
  stack_.pop_back();
  hasItems_.pop_back();
  if (hadItems) newline(depth());
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  stack_.push_back(Scope::kArray);
  hasItems_.push_back(false);
  os_ << '[';
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  SSVSP_CHECK_MSG(!stack_.empty() && stack_.back() == Scope::kArray,
                  "JsonWriter: endArray() without beginArray()");
  const bool hadItems = hasItems_.back();
  stack_.pop_back();
  hasItems_.pop_back();
  if (hadItems) newline(depth());
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  os_ << '"' << jsonEscape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {  // JSON has no inf/nan; null is the convention
    os_ << "null";
    return *this;
  }
  char buf[32];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v);  // shortest round-trip form
  SSVSP_CHECK(ec == std::errc{});
  os_ << std::string_view(buf, static_cast<std::size_t>(ptr - buf));
  return *this;
}

JsonWriter& JsonWriter::null() {
  beforeValue();
  os_ << "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  beforeValue();
  os_ << json;
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

namespace {

/// Single-pass recursive-descent JSON parser over a string_view.  Depth is
/// capped so hostile inputs cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue v;
    if (!parseValue(v, 0)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skipWs();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& reason) {
    if (error_.empty())
      error_ = "byte " + std::to_string(pos_) + ": " + reason;
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit)
      return fail("unrecognized literal");
    pos_ += lit.size();
    return true;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape digit");
          }
          // Encode as UTF-8; surrogate pairs are passed through unpaired
          // (our writers only emit \u00xx control escapes).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
          }
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty()) return fail("expected a number");
    out.kind = JsonValue::Kind::kNumber;
    const auto [iptr, iec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out.integer);
    out.isInteger = iec == std::errc{} && iptr == tok.data() + tok.size();
    const auto [dptr, dec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out.number);
    if (dec != std::errc{} || dptr != tok.data() + tok.size())
      return fail("malformed number");
    if (out.isInteger) out.number = static_cast<double>(out.integer);
    return true;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skipWs();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      skipWs();
      if (consume('}')) return true;
      while (true) {
        skipWs();
        std::string key;
        if (!parseString(key)) return false;
        skipWs();
        if (!consume(':')) return fail("expected ':'");
        JsonValue member;
        if (!parseValue(member, depth + 1)) return false;
        out.members.emplace_back(std::move(key), std::move(member));
        skipWs();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      skipWs();
      if (consume(']')) return true;
      while (true) {
        JsonValue item;
        if (!parseValue(item, depth + 1)) return false;
        out.items.push_back(std::move(item));
        skipWs();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parseString(out.text);
    }
    if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return parseLiteral("true");
    }
    if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return parseLiteral("false");
    }
    if (c == 'n') {
      out.kind = JsonValue::Kind::kNull;
      return parseLiteral("null");
    }
    return parseNumber(out);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* error) {
  return JsonParser(text).parse(error);
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

void appendLe(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

}  // namespace

RecordWriter& RecordWriter::putU8(std::uint8_t v) {
  appendLe(out_, v, 1);
  return *this;
}

RecordWriter& RecordWriter::putU32(std::uint32_t v) {
  appendLe(out_, v, 4);
  return *this;
}

RecordWriter& RecordWriter::putI32(std::int32_t v) {
  appendLe(out_, static_cast<std::uint32_t>(v), 4);
  return *this;
}

RecordWriter& RecordWriter::putU64(std::uint64_t v) {
  appendLe(out_, v, 8);
  return *this;
}

RecordWriter& RecordWriter::putI64(std::int64_t v) {
  appendLe(out_, static_cast<std::uint64_t>(v), 8);
  return *this;
}

RecordWriter& RecordWriter::putBytes(std::string_view bytes) {
  putU32(static_cast<std::uint32_t>(bytes.size()));
  out_.append(bytes.data(), bytes.size());
  return *this;
}

bool RecordReader::take(std::size_t count, const char** out) {
  if (!ok_ || bytes_.size() - pos_ < count) {
    ok_ = false;
    return false;
  }
  *out = bytes_.data() + pos_;
  pos_ += count;
  return true;
}

namespace {

std::uint64_t readLe(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace

std::uint8_t RecordReader::getU8() {
  const char* p = nullptr;
  return take(1, &p) ? static_cast<std::uint8_t>(readLe(p, 1)) : 0;
}

std::uint32_t RecordReader::getU32() {
  const char* p = nullptr;
  return take(4, &p) ? static_cast<std::uint32_t>(readLe(p, 4)) : 0;
}

std::int32_t RecordReader::getI32() {
  return static_cast<std::int32_t>(getU32());
}

std::uint64_t RecordReader::getU64() {
  const char* p = nullptr;
  return take(8, &p) ? readLe(p, 8) : 0;
}

std::int64_t RecordReader::getI64() {
  return static_cast<std::int64_t>(getU64());
}

std::string_view RecordReader::getBytes() {
  const std::uint32_t len = getU32();
  const char* p = nullptr;
  if (!take(len, &p)) return {};
  return {p, len};
}

// -- typed JSON extraction helpers ------------------------------------------

bool readJsonI64(const JsonValue* v, std::int64_t* out) {
  if (v == nullptr || !v->isInteger) return false;
  *out = v->integer;
  return true;
}

bool readJsonInt(const JsonValue* v, int* out) {
  std::int64_t wide = 0;
  if (!readJsonI64(v, &wide)) return false;
  *out = static_cast<int>(wide);
  return true;
}

bool readJsonBool(const JsonValue* v, bool* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kBool) return false;
  *out = v->boolean;
  return true;
}

bool readJsonString(const JsonValue* v, std::string* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kString) return false;
  *out = v->text;
  return true;
}

void writeJsonRound(JsonWriter& w, Round r) {
  if (r == kNoRound)
    w.null();
  else
    w.value(std::int64_t{r});
}

bool readJsonRound(const JsonValue& v, Round* out) {
  if (v.kind == JsonValue::Kind::kNull) {
    *out = kNoRound;
    return true;
  }
  if (!v.isInteger) return false;
  *out = static_cast<Round>(v.integer);
  return true;
}

void writeJsonLatencyMap(JsonWriter& w, const std::map<int, Round>& m) {
  w.beginArray();
  for (const auto& [crashes, lat] : m) {
    w.beginArray().value(std::int64_t{crashes});
    writeJsonRound(w, lat);
    w.endArray();
  }
  w.endArray();
}

bool readJsonLatencyMap(const JsonValue* v, std::map<int, Round>* out) {
  if (v == nullptr || !v->isArray()) return false;
  for (const JsonValue& entry : v->items) {
    if (!entry.isArray() || entry.items.size() != 2) return false;
    int crashes = 0;
    Round lat = 0;
    if (!readJsonInt(&entry.items[0], &crashes) ||
        !readJsonRound(entry.items[1], &lat))
      return false;
    (*out)[crashes] = lat;
  }
  return true;
}

bool checkJsonEnvelope(const JsonValue& doc, std::string_view schema,
                       std::string_view kind, std::string* error) {
  auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!doc.isObject()) return fail("report: not a JSON object");
  const JsonValue* s = doc.find("schema");
  if (s == nullptr || s->kind != JsonValue::Kind::kString || s->text != schema)
    return fail("report: missing or unsupported schema tag");
  const JsonValue* k = doc.find("kind");
  if (k == nullptr || k->kind != JsonValue::Kind::kString || k->text != kind)
    return fail("report: wrong kind for this parser");
  return true;
}

}  // namespace ssvsp
