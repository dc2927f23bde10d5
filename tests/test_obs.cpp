// Observability subsystem tests (src/obs): span recording round-trips
// through a session, rings drop oldest without ever blocking, metric
// aggregation is bit-identical across thread counts, and both exporters
// emit JSON the serde reader parses back.
//
// These drive the obs classes directly, so they run (and pass) in both
// SSVSP_OBS=ON and OFF builds — the cmake option gates only the macros.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "consensus/registry.hpp"
#include "mc/checker.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::ScopedSpan;
using obs::SpanEvent;
using obs::SpanRing;
using obs::TraceSnapshot;

TEST(SpanRingTest, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(SpanRing(1).capacity(), 2u);
  EXPECT_EQ(SpanRing(4).capacity(), 4u);
  EXPECT_EQ(SpanRing(5).capacity(), 8u);
}

TEST(SpanRingTest, WraparoundDropsOldestNeverBlocks) {
  SpanRing ring(4);
  for (int i = 0; i < 10; ++i) {
    SpanEvent ev;
    ev.startNs = i;
    ring.push(ev);  // pushes 4..9 overwrite 0..5 in place, no waiting
  }
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<SpanEvent> drained;
  ring.drainInto(drained);
  ASSERT_EQ(drained.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(drained[i].startNs, 6 + i);
  // A second drain yields nothing new and dropped() stays settled.
  drained.clear();
  ring.drainInto(drained);
  EXPECT_TRUE(drained.empty());
  EXPECT_EQ(ring.dropped(), 6u);
}

TEST(TraceSessionTest, SpanNestingRoundTrip) {
  obs::startTracing();
  obs::setCurrentThreadName("obs-test");
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
      obs::traceInstant("tick");
    }
  }
  const TraceSnapshot snapshot = obs::stopTracing();
  EXPECT_FALSE(obs::tracingEnabled());
  ASSERT_EQ(snapshot.events.size(), 3u);
  EXPECT_EQ(snapshot.droppedEvents, 0u);

  const SpanEvent* outer = nullptr;
  const SpanEvent* inner = nullptr;
  const SpanEvent* tick = nullptr;
  for (const SpanEvent& ev : snapshot.events) {
    if (std::string(ev.name) == "outer") outer = &ev;
    if (std::string(ev.name) == "inner") inner = &ev;
    if (std::string(ev.name) == "tick") tick = &ev;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);

  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_FALSE(outer->instant());
  EXPECT_TRUE(tick->instant());
  // The inner span is contained in the outer one.
  EXPECT_GE(inner->startNs, outer->startNs);
  EXPECT_LE(inner->startNs + inner->durNs, outer->startNs + outer->durNs);
  EXPECT_GE(tick->startNs, inner->startNs);

  ASSERT_GT(snapshot.threadNames.size(), outer->tid);
  EXPECT_EQ(snapshot.threadNames[outer->tid], "obs-test");
}

TEST(TraceSessionTest, SpansAfterAThreadsFirstRecordKeepTheirDepth) {
  // A fresh thread records for the first time when its first inner span
  // closes; the spans it opens after that must still nest under the outer
  // span that is open throughout.
  obs::startTracing();
  std::thread([] {
    ScopedSpan outer("outer");
    { ScopedSpan first("first-inner"); }
    { ScopedSpan second("second-inner"); }
  }).join();
  const TraceSnapshot snapshot = obs::stopTracing();
  ASSERT_EQ(snapshot.events.size(), 3u);
  for (const SpanEvent& ev : snapshot.events) {
    const std::string name = ev.name;
    EXPECT_EQ(ev.depth, name == "outer" ? 0u : 1u) << name;
  }
}

TEST(TraceSessionTest, StopWithoutStartIsEmptyAndRestartWorks) {
  EXPECT_TRUE(obs::stopTracing().empty());
  obs::startTracing();
  { ScopedSpan s("solo"); }
  EXPECT_EQ(obs::stopTracing().events.size(), 1u);
  // A fresh session starts from a clean slate.
  obs::startTracing();
  EXPECT_TRUE(obs::stopTracing().empty());
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("h");
  h.observe(0);
  h.observe(1);
  h.observe(3);
  h.observe(100);
  const obs::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 104);
  EXPECT_EQ(snap.min, 0);
  EXPECT_EQ(snap.max, 100);
  EXPECT_EQ(snap.buckets[0], 1);  // v <= 0
  EXPECT_EQ(snap.buckets[1], 1);  // v == 1
  EXPECT_EQ(snap.buckets[2], 1);  // v in [2, 4)
  EXPECT_EQ(snap.buckets[7], 1);  // v in [64, 128)
}

TEST(MetricsTest, ResetZeroesButKeepsReferences) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  c.add(5);
  reg.reset();
  EXPECT_EQ(c.get(), 0);
  c.increment();  // the cached reference is still live after reset
  EXPECT_EQ(reg.snapshot().value("c"), 1);
}

/// Counters whose totals are functions of the (deterministic) sweep result,
/// not of scheduling.  Wall times, per-worker histograms, resume depths and
/// memo hit splits legitimately vary with the thread count and are excluded
/// on purpose (see DESIGN.md §11).
const char* const kDeterministicCounters[] = {
    "mc.scripts",      "mc.runs",           "mc.violations",
    "sweep.runs_requested", "sweep.runs_from_memo",
};

TEST(MetricsTest, SweepAggregationIdenticalAcrossThreadCounts) {
  const auto& entry = algorithmByName("FloodSet");
  RoundConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  McCheckOptions options;
  options.enumeration.horizon = 3;
  options.enumeration.maxCrashes = 1;
  options.reduction = Reduction::kNone;

  auto runWith = [&](int threads) {
    obs::metrics().reset();
    options.threads = threads;
    const McReport report =
        modelCheckConsensus(entry.factory, cfg, RoundModel::kRs, options);
    EXPECT_TRUE(report.ok());
    return obs::metrics().snapshot();
  };
  const MetricsSnapshot one = runWith(1);
  const MetricsSnapshot four = runWith(4);

  for (const char* name : kDeterministicCounters) {
    EXPECT_EQ(one.value(name, -1), four.value(name, -1)) << name;
  }
  EXPECT_GT(one.value("mc.scripts"), 0);
  EXPECT_GT(one.value("mc.runs"), 0);
}

TEST(ExportTest, ChromeTraceRoundTripsThroughSerdeReader) {
  obs::startTracing();
  obs::setCurrentThreadName("main");
  {
    ScopedSpan s("sweep.chunk");
    obs::traceInstant("sweep.saturated");
  }
  const TraceSnapshot snapshot = obs::stopTracing();

  std::ostringstream os;
  obs::writeChromeTrace(os, snapshot);

  std::string error;
  const auto doc = parseJson(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->isObject());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());

  bool sawChunk = false, sawInstant = false, sawThreadName = false;
  for (const JsonValue& ev : events->items) {
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    if (name->text == "sweep.chunk") {
      sawChunk = true;
      EXPECT_EQ(ph->text, "X");
      EXPECT_NE(ev.find("dur"), nullptr);
      EXPECT_NE(ev.find("ts"), nullptr);
    }
    if (name->text == "sweep.saturated") {
      sawInstant = true;
      EXPECT_EQ(ph->text, "i");
    }
    if (ph->text == "M") {
      sawThreadName = true;
      EXPECT_EQ(name->text, "thread_name");
    }
  }
  EXPECT_TRUE(sawChunk);
  EXPECT_TRUE(sawInstant);
  EXPECT_TRUE(sawThreadName);

  const JsonValue* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* dropped = other->find("droppedEvents");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->integer, 0);
}

TEST(ExportTest, MetricsJsonRoundTripsThroughSerdeReader) {
  MetricsRegistry reg;
  reg.counter("sweep.chunks").add(7);
  reg.gauge("sweep.peak").max(3);
  reg.histogram("sweep.worker_busy_us").observe(12);

  std::ostringstream os;
  obs::writeMetricsJson(os, reg.snapshot());

  std::string error;
  const auto doc = parseJson(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, "ssvsp.metrics.v1");

  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* chunks = counters->find("sweep.chunks");
  ASSERT_NE(chunks, nullptr);
  EXPECT_EQ(chunks->integer, 7);

  const JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("sweep.peak")->integer, 3);

  const JsonValue* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* busy = hists->find("sweep.worker_busy_us");
  ASSERT_NE(busy, nullptr);
  EXPECT_EQ(busy->find("count")->integer, 1);
  EXPECT_EQ(busy->find("sum")->integer, 12);
  const JsonValue* buckets = busy->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->items.size(), 1u);  // only the non-empty bucket
  EXPECT_EQ(buckets->items[0].items[0].integer, 8);   // lower bound 2^3
  EXPECT_EQ(buckets->items[0].items[1].integer, 1);   // count
}

// renderLine is the testable core of the progress meter: its percentages
// and ETA must be relative to the configured totalScripts — for a
// shard-sliced sweep that is the slice's script count, not the whole
// stream's — and the memo hit-rate must divide hits by requests-so-far.
TEST(ProgressMeterTest, RenderLinePercentIsAgainstConfiguredTotal) {
  obs::ProgressMeter::Options opt;
  opt.intervalSec = 0;  // never prints on its own; we render directly
  opt.label = "mc";
  // A shard slice of 2000 scripts cut from a much larger stream: the
  // caller passes the windowed count (ShardRange::countWithin), so half
  // the SLICE reads as 50%, not as a sliver of the whole space.
  opt.totalScripts = 2000;
  const obs::ProgressMeter meter(opt);
  const std::string line =
      meter.renderLine(1000, /*final=*/false, /*elapsedSec=*/10.0);
  EXPECT_NE(line.find("mc: 1000/2000 scripts (50.0%)"), std::string::npos)
      << line;
  EXPECT_NE(line.find("| 100/s"), std::string::npos) << line;
  // ETA covers the REMAINING slice scripts at the observed rate.
  EXPECT_NE(line.find("| ETA 10.0s"), std::string::npos) << line;
}

TEST(ProgressMeterTest, RenderLineMemoHitRateIsOverRequests) {
  obs::ProgressMeter::Options opt;
  opt.intervalSec = 0;
  opt.totalScripts = 100;
  opt.memoHits = [] { return std::int64_t{90}; };
  opt.memoRequests = [] { return std::int64_t{100}; };
  const obs::ProgressMeter meter(opt);
  const std::string line = meter.renderLine(100, /*final=*/true, 2.0);
  // 90 hits out of 100 requested runs = 90%, independent of script counts.
  EXPECT_NE(line.find("memo hit 90.0%"), std::string::npos) << line;
  EXPECT_NE(line.find("done in 2.0s"), std::string::npos) << line;
  // The final line never shows an ETA.
  EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

TEST(ProgressMeterTest, RenderLineOmitsRatiosWhenTotalsUnknown) {
  obs::ProgressMeter::Options opt;
  opt.intervalSec = 0;
  opt.totalScripts = 0;  // unknown space: no percentage, no ETA
  opt.memoHits = [] { return std::int64_t{1}; };
  opt.memoRequests = [] { return std::int64_t{0}; };  // no requests yet
  const obs::ProgressMeter meter(opt);
  const std::string line = meter.renderLine(42, /*final=*/false, 1.0);
  EXPECT_NE(line.find(": 42 scripts"), std::string::npos) << line;
  EXPECT_EQ(line.find('%'), std::string::npos) << line;
  EXPECT_EQ(line.find("ETA"), std::string::npos) << line;
}

}  // namespace
}  // namespace ssvsp
