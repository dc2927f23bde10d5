#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/serde.hpp"

namespace perfbench {

std::int64_t monotonicNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) ++failed_;
  check(ok, what);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::exact(const std::string& name, std::int64_t value) {
  exact_[name] = value;
}

std::string Report::toJson(double setupS) const {
  std::ostringstream os;
  ssvsp::JsonWriter w(os);
  w.beginObject();
  w.kv("correct", correct_);
  w.kv("attempted", attempted_);
  w.kv("failed", failed_);
  w.kv("setup_s", setupS);
  w.key("metrics").beginObject();
  for (const auto& [name, m] : metrics_) {
    w.key(name).beginObject();
    w.kv("value", m.first);
    w.kv("unit", m.second);
    w.endObject();
  }
  w.endObject();
  w.key("exact").beginObject();
  for (const auto& [name, v] : exact_) w.kv(name, v);
  w.endObject();
  w.endObject();
  return os.str();
}

Budget::Budget(double seconds)
    : start_(std::chrono::steady_clock::now()), seconds_(seconds) {}

bool Budget::allows(double expectedSeconds) const {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return elapsed + expectedSeconds <= seconds_;
}

void beginTrace() {
  ssvsp::obs::startTracing();
  ssvsp::obs::traceInstant("perfbench.trace_start");
}

SpanSeconds endTrace(const Args& args) {
  const ssvsp::obs::TraceSnapshot snapshot = ssvsp::obs::stopTracing();
  const std::filesystem::path dir =
      std::filesystem::path(args.workDir).parent_path();
  const std::string stem = (dir / ("trace-" + args.workload)).string();
  std::string error;
  if (!ssvsp::obs::writeChromeTraceFile(stem + ".trace.json", snapshot,
                                        &error) ||
      !ssvsp::obs::writeMetricsJsonFile(stem + ".metrics.json",
                                        ssvsp::obs::metrics().snapshot(),
                                        &error))
    std::cerr << "perfbench: trace artifacts not written: " << error << "\n";

  // Each thread's spans in start order, with a nesting stack: a span's
  // duration is charged to itself and taken off its direct parent's self.
  std::vector<ssvsp::obs::SpanEvent> events;
  for (const auto& e : snapshot.events)
    if (!e.instant()) events.push_back(e);
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.startNs != b.startNs) return a.startNs < b.startNs;
                     return a.depth < b.depth;
                   });
  struct Open {
    std::string name;
    std::int64_t endNs;
    std::uint32_t tid;
    std::uint32_t depth;
  };
  std::vector<Open> stack;
  SpanSeconds out;
  for (const auto& e : events) {
    while (!stack.empty() &&
           (stack.back().tid != e.tid || stack.back().depth >= e.depth ||
            stack.back().endNs <= e.startNs))
      stack.pop_back();
    const double secs = static_cast<double>(e.durNs) * 1e-9;
    out.total[e.name] += secs;
    out.self[e.name] += secs;
    if (e.depth == 0) out.unattributed += secs;
    if (!stack.empty()) {
      out.self[stack.back().name] -= secs;
      if (stack.back().depth == 0) out.unattributed -= secs;
    }
    stack.push_back({e.name, e.startNs + e.durNs, e.tid, e.depth});
  }
  return out;
}

double peakRssMb() {
  // VmHWM rather than RUSAGE_SELF: Linux carries the spawner's pre-exec
  // peak into ru_maxrss, and that belongs to run.py, not to the workload.
  long selfKb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) selfKb = std::stol(line.substr(6));
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(selfKb + children.ru_maxrss) / 1024.0;
}

void removeTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double setupSeconds(const Args& args) {
  const std::int64_t from = args.spawnNs > 0 ? args.spawnNs : args.entryNs;
  return static_cast<double>(monotonicNs() - from) * 1e-9;
}

}  // namespace perfbench
