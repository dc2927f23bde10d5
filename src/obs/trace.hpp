// Low-overhead span tracing: per-thread lossy SPSC ring buffers feeding a
// process-wide trace session.
//
// The recording model follows cxxtrace: every thread that records spans
// owns a bounded ring of trivially-copyable SpanEvent records; pushing is a
// handful of plain stores plus one release store, never a lock, never an
// allocation, and when the ring is full the OLDEST events are overwritten —
// recording never blocks the sweep it is observing.  A session collects the
// rings at stop time (after the sweep's workers have joined, so drains
// never race pushes) and hands the merged, time-sorted event list to the
// Chrome-trace exporter (obs/export.hpp).
//
// Call sites use the OBS_SPAN / OBS_INSTANT macros from obs/obs.hpp, which
// compile to nothing unless the build sets SSVSP_OBS; the classes below are
// always compiled (tests drive them directly) and recording is additionally
// gated at runtime by startTracing()/stopTracing().
//
// Overhead contract: with tracing OFF a ScopedSpan construction is one
// relaxed atomic load and two branches; with tracing ON it adds two
// steady_clock reads and one ring push (~100ns).  Nothing here is on any
// path that runs per simulated message.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ssvsp::obs {

/// One completed span (or instant) as stored in the rings.  Trivially
/// copyable on purpose: ring slots are reused without destruction.  `name`
/// must outlive the session: a string literal at macro call sites.
struct SpanEvent {
  const char* name = nullptr;
  std::int64_t startNs = 0;  ///< steady clock, relative to the session epoch
  std::int64_t durNs = 0;    ///< kInstant marks a point event
  std::uint32_t tid = 0;     ///< session-assigned dense thread index
  std::uint32_t depth = 0;   ///< nesting depth at begin (0 = top level)

  static constexpr std::int64_t kInstant = -1;
  bool instant() const { return durNs == kInstant; }
};

/// Bounded, lossy, single-producer ring of SpanEvents.  The producer is the
/// owning thread; the consumer (drainInto) must only run while the producer
/// is quiescent — the session guarantees that by draining after sweep
/// workers have joined, or from the owning thread itself.
class SpanRing {
 public:
  /// Capacity is rounded up to a power of two (masked indexing).
  explicit SpanRing(std::size_t capacity);

  /// Records one event, overwriting the oldest if the ring is full.  Wait-
  /// free; called only by the owning thread.
  void push(const SpanEvent& event) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    slots_[head & mask_] = event;
    head_.store(head + 1, std::memory_order_release);
  }

  /// Appends the buffered events, oldest first, and advances the read
  /// cursor.  Producer must be quiescent (see class comment).
  void drainInto(std::vector<SpanEvent>& out);

  /// Events lost to wraparound since construction.
  std::uint64_t dropped() const;

  std::size_t capacity() const { return mask_ + 1; }

  /// Dense thread index assigned by the session; also the exported tid.
  std::uint32_t tid = 0;
  /// Thread name for the trace's metadata events (may stay empty).
  std::string threadName;

 private:
  std::vector<SpanEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};  ///< total pushes
  std::uint64_t tail_ = 0;              ///< total drained or overwritten
  std::uint64_t drainedDrops_ = 0;      ///< drops accounted by past drains
};

/// Everything a stopped session collected, ready for export.
struct TraceSnapshot {
  std::vector<SpanEvent> events;  ///< merged, sorted by (startNs, tid)
  std::vector<std::string> threadNames;  ///< index = tid ("" = unnamed)
  std::uint64_t droppedEvents = 0;       ///< lost to ring wraparound
  bool empty() const { return events.empty(); }
};

inline constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

/// True while a trace session is active.  The one branch every disabled
/// call site pays.
bool tracingEnabled();

/// Starts a process-wide session: resets the epoch and begins recording.
/// Ring capacity applies to threads that first record after the call.
/// No-op if already tracing.
void startTracing(std::size_t ringCapacityPerThread = kDefaultRingCapacity);

/// Stops recording and collects every thread's ring into one snapshot.
/// Must be called with recording threads quiescent (after sweeps returned).
TraceSnapshot stopTracing();

/// Nanoseconds since the session epoch (steady clock).
std::int64_t sessionNowNs();

/// Names the calling thread in the exported trace ("main", "sweep-w3").
void setCurrentThreadName(const std::string& name);

/// Records an instant event on the calling thread (no-op unless tracing).
void traceInstant(const char* name);

/// RAII span: captures the start time at construction, pushes one complete
/// event at destruction.  Nesting depth is tracked per thread.  When
/// tracing is off at construction the destructor does nothing, even if a
/// session starts mid-span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;  ///< nullptr = tracing was off, record nothing
  std::int64_t startNs_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace ssvsp::obs
