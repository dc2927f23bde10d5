// recheck-rs: read each of the six RS certificates under certs/ and run
// param::checkCertificate on it, in sequence — what `ssvsp_analyze
// --recheck` does for these entries.  op_s is the whole pass; op_variant_s
// is its slowest single certificate, the critical path of a recheck that
// runs entries side by side.  This path never calls src/explore, so it is
// the no-change control for sweep optimisations.  The four RWS flood
// certificates run the same abstraction code at 30-43 s each, too long to
// repeat every run, so they are left out.  --seed is unused.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/abstract_interp.hpp"
#include "harness.hpp"
#include "lint/diagnostic.hpp"
#include "obs/trace.hpp"
#include "param/certifier.hpp"
#include "util/serde.hpp"

namespace perfbench {

using namespace ssvsp;

namespace {

constexpr const char* kEntries[] = {"FloodSet",      "C_OptFloodSet",
                                    "F_OptFloodSet", "EarlyFloodSet",
                                    "NonUniformEarlyFloodSet", "A1"};

struct Cert {
  const AlgorithmEntry* entry = nullptr;
  std::string path;
};

/// Reads and decodes one stored certificate; false (with the reason in
/// `error`) if it cannot.
bool loadCertificate(const std::string& path, param::ParamCertificate* cert,
                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  const std::optional<JsonValue> doc = parseJson(buf.str(), error);
  return doc.has_value() && param::certificateFromJson(*doc, cert, error);
}

/// One checked recheck; returns false on any diagnostic.
bool recheck(const Cert& c, const param::ParamCertificate& stored) {
  DiagnosticSink sink;
  const bool intact = param::checkCertificate(stored, *c.entry, sink);
  if (!sink.empty())
    std::cerr << renderText(sink.diagnostics(), "param:" + c.entry->name);
  return intact && sink.empty();
}

/// A copy of `entry` whose factory stamps the first and the last automaton
/// it builds.  Every run of the window interpretation builds its automata
/// first, so inside one checkCertificate call the time before the first
/// stamp and after the last is the certificate work around the windows:
/// fingerprinting, induction, entailment and comparison.
struct Stamps {
  std::int64_t first = 0;
  std::int64_t last = 0;
};

AlgorithmEntry stamped(const AlgorithmEntry& entry, Stamps& stamps) {
  AlgorithmEntry copy = entry;
  copy.factory = [inner = entry.factory, &stamps](ProcessId p) {
    const std::int64_t now = monotonicNs();
    if (stamps.first == 0) stamps.first = now;
    stamps.last = now;
    return inner(p);
  };
  return copy;
}

struct Pass {
  double seconds = 0;
  double slowest = 0;  ///< slowest single certificate
  std::vector<param::ParamCertificate> certs;
};

}  // namespace

double runRecheck(const Args& args, Report& report) {
  std::vector<Cert> certs;
  for (const char* name : kEntries) {
    const AlgorithmEntry& entry = algorithmByName(name);
    certs.push_back(
        {&entry, args.root + "/certs/" + entry.name + ".cert.json"});
  }
  const double setup = setupSeconds(args);
  if (args.setupOnly) return setup;

  const auto pass = [&] {
    Pass p;
    p.seconds = timeSeconds([&] {
      for (const Cert& c : certs) {
        const double secs = timeSeconds([&] {
          param::ParamCertificate stored;
          std::string error;
          const bool ok = loadCertificate(c.path, &stored, &error) &&
                          recheck(c, stored);
          report.op(ok, "recheck " + c.entry->name + " " + error);
          p.certs.push_back(std::move(stored));
        });
        p.slowest = std::max(p.slowest, secs);
      }
    });
    return p;
  };

  // At least two passes: a pass takes about half the budget, and a run
  // that fits one pass when the machine is slow but two when it is fast
  // would measure over different spans of time.
  std::vector<double> passes, slowest;
  const Budget budget(args.seconds);
  const Pass first = pass();
  passes.push_back(first.seconds);
  slowest.push_back(first.slowest);
  while (report.correct() &&
         (passes.size() < 2 || budget.allows(median(passes)))) {
    const Pass p = pass();
    passes.push_back(p.seconds);
    slowest.push_back(p.slowest);
  }
  std::int64_t cells = 0, runs = 0, states = 0, edges = 0;
  for (const auto& cert : first.certs)
    for (const auto& row : cert.window) {
      cells += row.cells;
      runs += row.runs;
      states += row.states;
      edges += row.edges;
    }
  report.exact("analysis.cells", cells);
  report.exact("analysis.runs", runs);
  report.exact("param.states", states);
  report.exact("param.edges", edges);

  std::cout << "recheck-rs: op_s = recheck_s (six certificates), "
               "op_variant_s = slowest certificate, "
            << passes.size() << " passes\n";
  if (!args.trace) {
    report.metric("op_s", median(passes), "s");
    report.metric("op_variant_s", median(slowest), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    return setup;
  }

  // Traced pass: the same reads and rechecks, one span each, with the
  // factory stamps that split off the work around the windows.  Then the
  // window decomposition: interpretAutomaton alone and abstractInterpret at
  // every window size, which checkCertificate repeats inside its
  // regeneration.
  beginTrace();
  double topWindow = 0;
  double checkSecs = 0;
  std::int64_t windowRuns = 0;
  {
    obs::ScopedSpan root("recheck-rs");
    for (const Cert& c : certs) {
      param::ParamCertificate stored;
      std::string error;
      bool ok = false;
      {
        obs::ScopedSpan span("util.cert_parse");
        ok = loadCertificate(c.path, &stored, &error);
      }
      Stamps stamps;
      const AlgorithmEntry entry = stamped(*c.entry, stamps);
      const std::int64_t start = monotonicNs();
      {
        obs::ScopedSpan span("param.recheck");
        ok = ok && recheck(Cert{&entry, c.path}, stored);
      }
      checkSecs += static_cast<double>(stamps.first - start +
                                       monotonicNs() - stamps.last) *
                   1e-9;
      report.check(ok, "traced recheck " + c.entry->name + " " + error);
    }
  }
  {
    obs::ScopedSpan root("recheck-rs.decompose");
    for (std::size_t i = 0; i < certs.size(); ++i) {
      const param::ParamCertificate& cert = first.certs[i];
      for (const param::ParamWindowRow& row : cert.window) {
        AbstractBounds bounds;
        {
          obs::ScopedSpan span("analysis.interpret");
          bounds = interpretAutomaton(*certs[i].entry,
                                      RoundConfig{row.n, cert.t});
        }
        param::AbstractionResult result;
        const double secs = timeSeconds([&] {
          obs::ScopedSpan span("param.abstract");
          result = param::abstractInterpret(*certs[i].entry, row.n,
                                            cert.countSaturation);
        });
        if (row.n == cert.cutoff + 1) topWindow += secs;
        windowRuns += bounds.runs;
        report.check(result.row == row,
                     "recheck-rs: window n = " + std::to_string(row.n) +
                         " of " + cert.algorithm +
                         " differs from the stored certificate");
      }
    }
  }
  const SpanSeconds spans = endTrace(args);
  report.check(windowRuns == runs,
               "recheck-rs: interpreted runs differ from the certificates");

  const double interpret = spans.total.at("analysis.interpret");
  const double abstract = spans.total.at("param.abstract");
  const double rechecks = spans.total.at("param.recheck");
  report.metric("analysis.interpret_s", interpret, "s");
  report.metric("analysis.cells", static_cast<double>(cells), "count");
  report.metric("analysis.runs", static_cast<double>(runs), "count");
  report.metric("param.fold_s", abstract - interpret, "s");
  report.metric("param.check_s", checkSecs, "s");
  report.metric("param.top_window_share", topWindow / rechecks, "ratio");
  report.metric("param.states", static_cast<double>(states), "count");
  report.metric("param.edges", static_cast<double>(edges), "count");
  report.metric("util.cert_parse_s", spans.total.at("util.cert_parse"), "s");
  report.metric("unattributed_s", spans.unattributed, "s");
  report.metric("trace_overhead_s",
                spans.total.at("recheck-rs") - median(passes), "s");
  std::cout << "recheck-rs: traced pass " << spans.total.at("recheck-rs")
            << " s\n";
  return setup;
}

}  // namespace perfbench
