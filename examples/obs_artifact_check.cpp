// obs_artifact_check: validates the artifacts written by --trace-out /
// --metrics-out (src/obs) — the ctest half of the obs smoke leg.
//
//   $ ./obs_artifact_check --trace=trace.json --metrics=metrics.json
//       [--expect-span=sweep.chunk] [--expect-counter=sweep.runs_requested]
//
// Parses both files back through the serde JSON reader, checks the trace is
// a well-formed Chrome trace_event document and the metrics document carries
// the expected schema, and verifies every --expect-span names a recorded
// span (or instant) and every --expect-counter a published counter.
//
// Exit status: 0 valid, 1 validation failure, 2 usage.  Flags take both the
// `--flag=V` and the `--flag V` spelling (ArgSpec); --help lists them.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/argspec.hpp"
#include "util/serde.hpp"

namespace {

using ssvsp::JsonValue;

bool readFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return true;
}

bool fail(const std::string& what) {
  std::cerr << "obs_artifact_check: " << what << "\n";
  return false;
}

/// Chrome trace_event document: {"traceEvents": [...]} where every event
/// carries name/ph/ts/pid/tid.  Collects the recorded span names.
bool checkTrace(const std::string& path, std::set<std::string>* spans) {
  std::string text;
  if (!readFile(path, &text)) return fail("cannot read trace " + path);
  std::string error;
  const auto doc = ssvsp::parseJson(text, &error);
  if (!doc.has_value()) return fail("trace JSON: " + error);
  if (!doc->isObject()) return fail("trace root is not an object");
  const JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->isArray())
    return fail("trace has no traceEvents array");
  for (const JsonValue& ev : events->items) {
    for (const char* key : {"name", "ph", "pid", "tid"})
      if (ev.find(key) == nullptr)
        return fail(std::string("trace event missing \"") + key + "\"");
    const std::string& ph = ev.find("ph")->text;
    // Metadata ("M") events carry no timestamp; everything else must.
    if (ph != "M" && ev.find("ts") == nullptr)
      return fail("trace event missing \"ts\"");
    if (ph == "X" && ev.find("dur") == nullptr)
      return fail("complete event missing \"dur\"");
    if (ph == "X" || ph == "i") spans->insert(ev.find("name")->text);
  }
  std::cout << "trace ok: " << events->items.size() << " events, "
            << spans->size() << " distinct span names\n";
  return true;
}

/// Metrics document: schema ssvsp.metrics.v1 with counters / gauges /
/// histograms sections.  Collects the counter names.
bool checkMetrics(const std::string& path, std::set<std::string>* counters) {
  std::string text;
  if (!readFile(path, &text)) return fail("cannot read metrics " + path);
  std::string error;
  const auto doc = ssvsp::parseJson(text, &error);
  if (!doc.has_value()) return fail("metrics JSON: " + error);
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->text != "ssvsp.metrics.v1")
    return fail("metrics schema is not ssvsp.metrics.v1");
  const JsonValue* section = doc->find("counters");
  if (section == nullptr || !section->isObject())
    return fail("metrics has no counters object");
  for (const auto& [name, value] : section->members) {
    (void)value;
    counters->insert(name);
  }
  for (const char* key : {"gauges", "histograms"})
    if (doc->find(key) == nullptr)
      return fail(std::string("metrics missing \"") + key + "\" section");
  std::cout << "metrics ok: " << counters->size() << " counters\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string tracePath, metricsPath;
  std::vector<std::string> expectSpans, expectCounters;
  ssvsp::ArgSpec args(
      "obs_artifact_check --trace=FILE --metrics=FILE [--expect-span=NAME "
      "...] [--expect-counter=NAME ...]",
      "Validates the --trace-out / --metrics-out artifacts; exits 1 on a "
      "validation failure, 2 on usage.");
  args.value("trace", &tracePath, "Chrome trace_event JSON to check")
      .value("metrics", &metricsPath, "ssvsp.metrics.v1 JSON to check")
      .repeated("expect-span", &expectSpans,
                "a span (or instant) the trace must record")
      .repeated("expect-counter", &expectCounters,
                "a counter the metrics must publish");
  args.parse(&argc, argv);
  if (tracePath.empty() && metricsPath.empty()) {
    std::cerr << args.help();
    return 2;
  }

  bool ok = true;
  std::set<std::string> spans, counters;
  if (!tracePath.empty()) ok = checkTrace(tracePath, &spans) && ok;
  if (!metricsPath.empty()) ok = checkMetrics(metricsPath, &counters) && ok;
  for (const std::string& name : expectSpans)
    if (spans.count(name) == 0) {
      ok = fail("expected span \"" + name + "\" not recorded");
    }
  for (const std::string& name : expectCounters)
    if (counters.count(name) == 0) {
      ok = fail("expected counter \"" + name + "\" not published");
    }
  return ok ? 0 : 1;
}
