// Structured diagnostics: the shared error-reporting substrate.
//
// Every static check in this library — the admissibility linter
// (src/lint/lint.hpp), the scenario parser (src/scenario), the sweep
// preflight in src/mc and src/latency — reports problems as Diagnostic
// records instead of bare strings: a stable code (see src/lint/codes.hpp),
// a severity, an optional line/column location inside the offending
// artifact, a message, and a fix-it hint.  A DiagnosticSink collects them;
// renderText / renderJson turn a batch into grep-able compiler-style lines
// or machine-readable JSON for tooling.
//
// PreflightError is the exception the sweep entry points throw when a spec
// fails its preflight lint: it derives from InvariantViolation (so existing
// catch sites keep working) but carries the full diagnostic batch.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace ssvsp {

enum class Severity {
  kNote,     ///< informational; never affects exit status
  kWarning,  ///< suspicious but legal; sweeps still run
  kError,    ///< inadmissible artifact; preflight rejects it
};

std::string toString(Severity severity);

/// Position inside a text artifact.  line/column are 1-based; 0 means
/// "whole artifact" / "whole line" (diagnostics about in-memory structs
/// have no location at all).
struct SourceLocation {
  int line = 0;
  int column = 0;

  bool valid() const { return line > 0; }
  std::string toString() const;  ///< "line L, col C" (empty if !valid())
};

struct Diagnostic {
  std::string code;  ///< stable short id, e.g. "L111" (src/lint/codes.hpp)
  Severity severity = Severity::kError;
  SourceLocation location;
  std::string message;  ///< what is wrong
  std::string hint;     ///< how to fix it (may be empty)
};

/// One compiler-style line: "artifact:L:C: error L111: message [hint: ...]".
std::string toString(const Diagnostic& d, const std::string& artifact = "");

/// Collects the diagnostics of one lint pass.
class DiagnosticSink {
 public:
  void add(Diagnostic d);

  /// Convenience emitter; `code` is one of the constants of codes.hpp.
  void report(std::string_view code, Severity severity, std::string message,
              std::string hint = "", SourceLocation location = {});

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  bool empty() const { return diagnostics_.empty(); }
  int errorCount() const { return errors_; }
  int warningCount() const { return warnings_; }
  bool hasErrors() const { return errors_ > 0; }

 private:
  std::vector<Diagnostic> diagnostics_;
  int errors_ = 0;
  int warnings_ = 0;
};

/// Renders a batch as one compiler-style line per diagnostic (trailing
/// newline included; empty string for an empty batch).  `artifact` prefixes
/// each line, e.g. the file name.
std::string renderText(const std::vector<Diagnostic>& diagnostics,
                       const std::string& artifact = "");

/// Renders a batch as a JSON object:
///   {"artifact":"...","errors":N,"warnings":N,"diagnostics":[{...},...]}
std::string renderJson(const std::vector<Diagnostic>& diagnostics,
                       const std::string& artifact = "");

/// Severity threshold for a CLI exit status (--fail-on=error|warning).
/// Notes never fail a lint, mirroring compiler behaviour.
enum class FailOn {
  kError,    ///< fail only on errors (the default)
  kWarning,  ///< fail on warnings too (-Werror for lints)
};

/// Parses "error" / "warning"; false on anything else (`*out` untouched).
bool parseFailOn(const std::string& text, FailOn* out);

/// True when the sink holds a diagnostic at or above the threshold.
bool failsThreshold(const DiagnosticSink& sink, FailOn threshold);

/// Thrown by preflightSweep (and the analyzers that call it) when a spec is
/// inadmissible.  what() is the rendered text of the error diagnostics.
class PreflightError : public InvariantViolation {
 public:
  explicit PreflightError(std::vector<Diagnostic> diagnostics);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace ssvsp
