#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "consensus/registry.hpp"
#include "lint/codes.hpp"
#include "util/check.hpp"

namespace ssvsp {

namespace {

/// Hand-rolled tokenizer so every diagnostic can carry the 1-based column
/// of the offending token (istream extraction discards positions).
class LineScanner {
 public:
  void reset(const std::string& line) {
    line_ = line;
    pos_ = 0;
  }

  /// Next whitespace-delimited token and its column; false at end of line.
  bool next(std::string* token, int* column) {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_])))
      ++pos_;
    if (pos_ >= line_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < line_.size() &&
           !std::isspace(static_cast<unsigned char>(line_[pos_])))
      ++pos_;
    *token = line_.substr(start, pos_ - start);
    *column = static_cast<int>(start) + 1;
    return true;
  }

  /// Column just past the line's content (for "missing argument" reports).
  int endColumn() const { return static_cast<int>(line_.size()) + 1; }

 private:
  std::string line_;
  std::size_t pos_ = 0;
};

struct Parser {
  std::istringstream in;
  int lineNo = 0;
  LineScanner scan;
  std::vector<Diagnostic> diagnostics;

  explicit Parser(const std::string& text) : in(text) {}

  bool fail(std::string_view code, const std::string& what, int column) {
    Diagnostic d;
    d.code = std::string(code);
    d.severity = Severity::kError;
    d.location = {lineNo, column};
    d.message = what;
    diagnostics.push_back(std::move(d));
    return false;
  }

  /// Whole-artifact diagnostic (semantic checks after the line loop).
  bool failAt(std::string_view code, const std::string& what,
              SourceLocation location) {
    Diagnostic d;
    d.code = std::string(code);
    d.severity = Severity::kError;
    d.location = location;
    d.message = what;
    diagnostics.push_back(std::move(d));
    return false;
  }
};

bool parseProcessList(const std::string& token, int tokenCol, int n,
                      ProcessSet* out, Parser& p) {
  if (token == "all") {
    *out = ProcessSet::full(n);
    return true;
  }
  if (token == "none") {
    *out = ProcessSet();
    return true;
  }
  ProcessSet set;
  std::istringstream ids(token);
  std::string part;
  while (std::getline(ids, part, ',')) {
    try {
      const int id = std::stoi(part);
      if (id < 0 || id >= n)
        return p.fail(kDiagProcessIdOutOfRange,
                      "process id out of range: " + part, tokenCol);
      set.insert(id);
    } catch (const std::exception&) {
      return p.fail(kDiagParseError, "bad process id '" + part + "'",
                    tokenCol);
    }
  }
  *out = set;
  return true;
}

}  // namespace

ScenarioParseResult parseScenario(const std::string& text) {
  ScenarioParseResult result;
  Scenario& sc = result.scenario;
  Parser p(text);
  bool haveN = false, haveT = false, haveValues = false;
  SourceLocation algorithmLoc, valuesLoc;

  std::string line;
  while (std::getline(p.in, line)) {
    ++p.lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    p.scan.reset(line);
    std::string directive;
    int directiveCol = 0;
    if (!p.scan.next(&directive, &directiveCol)) continue;  // blank line

    auto expectInt = [&](int* out) {
      std::string tok;
      int col = 0;
      if (!p.scan.next(&tok, &col))
        return p.fail(kDiagParseError, "missing integer argument",
                      p.scan.endColumn());
      try {
        *out = std::stoi(tok);
      } catch (const std::exception&) {
        return p.fail(kDiagParseError, "expected integer, got '" + tok + "'",
                      col);
      }
      return true;
    };

    if (directive == "model") {
      std::string m;
      int col = 0;
      if (!p.scan.next(&m, &col)) {
        p.fail(kDiagParseError, "missing model", p.scan.endColumn());
        break;
      }
      if (m == "rs" || m == "RS") {
        sc.model = RoundModel::kRs;
      } else if (m == "rws" || m == "RWS") {
        sc.model = RoundModel::kRws;
      } else {
        p.fail(kDiagUnknownModel, "unknown model '" + m + "' (want rs or rws)",
               col);
        break;
      }
    } else if (directive == "algorithm") {
      int col = 0;
      if (!p.scan.next(&sc.algorithm, &col)) {
        p.fail(kDiagParseError, "missing algorithm name", p.scan.endColumn());
        break;
      }
      algorithmLoc = {p.lineNo, col};
    } else if (directive == "n") {
      if (!expectInt(&sc.cfg.n)) break;
      if (sc.cfg.n < 1 || sc.cfg.n > kMaxProcs) {
        p.fail(kDiagScenarioConfigOutOfRange, "n out of range", directiveCol);
        break;
      }
      haveN = true;
    } else if (directive == "t") {
      if (!expectInt(&sc.cfg.t)) break;
      haveT = true;
    } else if (directive == "horizon") {
      if (!expectInt(&sc.horizon)) break;
    } else if (directive == "values") {
      sc.values.clear();
      valuesLoc = {p.lineNo, directiveCol};
      std::string tok;
      int col = 0;
      while (p.scan.next(&tok, &col)) {
        if (tok == "_") {
          sc.values.push_back(kUndecided);
          continue;
        }
        try {
          sc.values.push_back(static_cast<Value>(std::stoi(tok)));
        } catch (const std::exception&) {
          p.fail(kDiagParseError, "bad value '" + tok + "'", col);
          break;
        }
      }
      if (!p.diagnostics.empty()) break;
      haveValues = true;
    } else if (directive == "crash") {
      int proc = 0, round = 0;
      std::string kw, sendtoKw, list;
      int col = 0;
      if (!expectInt(&proc)) break;
      if (!p.scan.next(&kw, &col) || kw != "round") {
        p.fail(kDiagParseError, "expected 'round'",
               col > 0 ? col : p.scan.endColumn());
        break;
      }
      if (!expectInt(&round)) break;
      if (!p.scan.next(&sendtoKw, &col) || sendtoKw != "sendto") {
        p.fail(kDiagParseError, "expected 'sendto'",
               col > 0 ? col : p.scan.endColumn());
        break;
      }
      int listCol = 0;
      if (!p.scan.next(&list, &listCol)) {
        p.fail(kDiagParseError, "missing sendto list", p.scan.endColumn());
        break;
      }
      if (!haveN) {
        p.fail(kDiagMissingDirective, "'n' must precede 'crash'",
               directiveCol);
        break;
      }
      if (proc < 0 || proc >= sc.cfg.n) {
        p.fail(kDiagProcessIdOutOfRange, "crash process out of range",
               directiveCol);
        break;
      }
      CrashEvent c;
      c.p = proc;
      c.round = round;
      if (!parseProcessList(list, listCol, sc.cfg.n, &c.sendTo, p)) break;
      sc.script.crashes.push_back(c);
    } else if (directive == "pending") {
      int src = 0, dst = 0, round = 0;
      std::string arrow, kw, when;
      int col = 0;
      if (!expectInt(&src)) break;
      if (!p.scan.next(&arrow, &col) || arrow != "->") {
        p.fail(kDiagParseError, "expected '->'",
               col > 0 ? col : p.scan.endColumn());
        break;
      }
      if (!expectInt(&dst)) break;
      if (!p.scan.next(&kw, &col) || kw != "round") {
        p.fail(kDiagParseError, "expected 'round'",
               col > 0 ? col : p.scan.endColumn());
        break;
      }
      if (!expectInt(&round)) break;
      int whenCol = 0;
      if (!p.scan.next(&when, &whenCol)) {
        p.fail(kDiagParseError, "expected 'arrival <r>' or 'never'",
               p.scan.endColumn());
        break;
      }
      PendingChoice pc;
      pc.src = src;
      pc.dst = dst;
      pc.round = round;
      if (when == "never") {
        pc.arrival = kNoRound;
      } else if (when == "arrival") {
        int arrival = 0;
        if (!expectInt(&arrival)) break;
        pc.arrival = arrival;
      } else {
        p.fail(kDiagParseError,
               "expected 'arrival' or 'never', got '" + when + "'", whenCol);
        break;
      }
      sc.script.pendings.push_back(pc);
    } else {
      p.fail(kDiagUnknownDirective, "unknown directive '" + directive + "'",
             directiveCol);
      break;
    }
  }

  if (p.diagnostics.empty()) {
    if (!haveN || !haveT)
      p.failAt(kDiagMissingDirective, "scenario needs both 'n' and 't'", {});
  }
  if (p.diagnostics.empty() && haveValues &&
      static_cast<int>(sc.values.size()) != sc.cfg.n) {
    std::ostringstream os;
    os << "'values' must list exactly n values (got " << sc.values.size()
       << ", n=" << sc.cfg.n << ")";
    p.failAt(kDiagValueCountMismatch, os.str(), valuesLoc);
  }
  if (p.diagnostics.empty() && !haveValues) {
    sc.values.assign(static_cast<std::size_t>(sc.cfg.n), 0);
    for (int i = 0; i < sc.cfg.n; ++i)
      sc.values[static_cast<std::size_t>(i)] = i;  // default: distinct
  }
  result.structureOk = p.diagnostics.empty();
  if (p.diagnostics.empty() && findAlgorithm(sc.algorithm) == nullptr) {
    p.failAt(kDiagUnknownAlgorithm, "unknown algorithm '" + sc.algorithm + "'",
             algorithmLoc);
  }
  if (result.structureOk) {
    // The script rules run once: lint forwards all they find, and their
    // first error fails the parse unless something else already did.
    DiagnosticSink rules;
    lintFailureScript(sc.script, sc.cfg, sc.model, sc.runHorizon(), rules);
    result.scriptDiagnostics = rules.diagnostics();
    const auto firstError = std::find_if(
        result.scriptDiagnostics.begin(), result.scriptDiagnostics.end(),
        [](const Diagnostic& d) { return d.severity == Severity::kError; });
    if (p.diagnostics.empty() && firstError != result.scriptDiagnostics.end())
      p.failAt(kDiagScriptInvalid,
               "illegal script for " + ssvsp::toString(sc.model) + ": " +
                   firstError->message,
               {});
  }

  result.ok = p.diagnostics.empty();
  result.diagnostics = p.diagnostics;
  if (!result.ok) {
    const Diagnostic& first = result.diagnostics.front();
    result.error = first.location.valid()
                       ? first.location.toString() + ": " + first.message
                       : first.message;
  }
  return result;
}

std::string serializeScenario(const Scenario& sc) {
  std::ostringstream os;
  os << "model " << (sc.model == RoundModel::kRs ? "rs" : "rws") << "\n";
  os << "algorithm " << sc.algorithm << "\n";
  os << "n " << sc.cfg.n << "\n";
  os << "t " << sc.cfg.t << "\n";
  os << "values";
  for (Value v : sc.values) {
    if (v == kUndecided)
      os << " _";
    else
      os << " " << v;
  }
  os << "\n";
  if (sc.horizon > 0) os << "horizon " << sc.horizon << "\n";
  for (const auto& c : sc.script.crashes) {
    os << "crash " << c.p << " round " << c.round << " sendto ";
    if (c.sendTo == ProcessSet::full(sc.cfg.n)) {
      os << "all";
    } else if (c.sendTo.empty()) {
      os << "none";
    } else {
      bool first = true;
      for (ProcessId q : c.sendTo) {
        os << (first ? "" : ",") << q;
        first = false;
      }
    }
    os << "\n";
  }
  for (const auto& pc : sc.script.pendings) {
    os << "pending " << pc.src << " -> " << pc.dst << " round " << pc.round
       << " ";
    if (pc.arrival == kNoRound)
      os << "never";
    else
      os << "arrival " << pc.arrival;
    os << "\n";
  }
  return os.str();
}

RoundRunResult runScenario(const Scenario& scenario, bool traceDeliveries) {
  RoundEngineOptions opt;
  opt.horizon = scenario.runHorizon();
  opt.traceDeliveries = traceDeliveries;
  return runRounds(scenario.cfg, scenario.model,
                   algorithmByName(scenario.algorithm).factory,
                   scenario.values, scenario.script, opt);
}

}  // namespace ssvsp
