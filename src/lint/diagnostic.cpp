#include "lint/diagnostic.hpp"

#include <sstream>
#include <utility>

#include "util/serde.hpp"

namespace ssvsp {

std::string toString(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

std::string SourceLocation::toString() const {
  if (!valid()) return {};
  std::ostringstream os;
  os << "line " << line;
  if (column > 0) os << ", col " << column;
  return os.str();
}

std::string toString(const Diagnostic& d, const std::string& artifact) {
  std::ostringstream os;
  if (!artifact.empty()) os << artifact << ":";
  if (d.location.valid()) {
    os << d.location.line << ":";
    if (d.location.column > 0) os << d.location.column << ":";
  }
  if (os.tellp() > 0) os << " ";
  os << toString(d.severity) << " " << d.code << ": " << d.message;
  if (!d.hint.empty()) os << " [hint: " << d.hint << "]";
  return os.str();
}

void DiagnosticSink::add(Diagnostic d) {
  if (d.severity == Severity::kError) ++errors_;
  if (d.severity == Severity::kWarning) ++warnings_;
  diagnostics_.push_back(std::move(d));
}

void DiagnosticSink::report(std::string_view code, Severity severity,
                            std::string message, std::string hint,
                            SourceLocation location) {
  Diagnostic d;
  d.code = std::string(code);
  d.severity = severity;
  d.location = location;
  d.message = std::move(message);
  d.hint = std::move(hint);
  add(std::move(d));
}

std::string renderText(const std::vector<Diagnostic>& diagnostics,
                       const std::string& artifact) {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) os << toString(d, artifact) << "\n";
  return os.str();
}

std::string renderJson(const std::vector<Diagnostic>& diagnostics,
                       const std::string& artifact) {
  int errors = 0, warnings = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++errors;
    if (d.severity == Severity::kWarning) ++warnings;
  }
  // Compact serde JsonWriter: same "key":value byte format as the
  // hand-rolled emitter this replaced (consumers substring-match it).
  std::ostringstream os;
  JsonWriter w(os);
  w.beginObject();
  w.kv("artifact", artifact);
  w.kv("errors", errors);
  w.kv("warnings", warnings);
  w.key("diagnostics").beginArray();
  for (const Diagnostic& d : diagnostics) {
    w.beginObject();
    w.kv("code", d.code);
    w.kv("severity", toString(d.severity));
    w.kv("line", d.location.line);
    w.kv("column", d.location.column);
    w.kv("message", d.message);
    w.kv("hint", d.hint);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return os.str();
}

bool parseFailOn(const std::string& text, FailOn* out) {
  if (text == "error") {
    *out = FailOn::kError;
    return true;
  }
  if (text == "warning") {
    *out = FailOn::kWarning;
    return true;
  }
  return false;
}

bool failsThreshold(const DiagnosticSink& sink, FailOn threshold) {
  if (sink.hasErrors()) return true;
  return threshold == FailOn::kWarning && sink.warningCount() > 0;
}

namespace {
std::string preflightWhat(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "sweep preflight failed:\n";
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::kError) os << "  " << toString(d) << "\n";
  return os.str();
}
}  // namespace

PreflightError::PreflightError(std::vector<Diagnostic> diagnostics)
    : InvariantViolation(preflightWhat(diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

}  // namespace ssvsp
