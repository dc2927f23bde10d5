#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "util/check.hpp"

namespace ssvsp::obs {

namespace {

std::size_t roundUpPow2(std::size_t v) {
  std::size_t cap = 1;
  while (cap < v) cap <<= 1;
  return cap;
}

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide session state.  `enabled` is the only hot-path member; the
/// rest is touched under `mu` on cold paths (thread registration,
/// start/stop).
struct Session {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> generation{1};  ///< bumped by every start/stop
  std::atomic<std::int64_t> epochNs{0};

  std::mutex mu;
  std::size_t ringCapacity = kDefaultRingCapacity;
  std::vector<std::unique_ptr<SpanRing>> rings;  ///< one per recording thread
};

Session& session() {
  static Session s;
  return s;
}

/// Per-thread recording state.  The cached ring pointer is only valid while
/// `generation` matches the session's (rings are freed on stopTracing).
struct ThreadState {
  std::uint64_t generation = 0;
  SpanRing* ring = nullptr;
  std::uint32_t depth = 0;
  std::string pendingName;  ///< name set before the thread's first record
};

ThreadState& threadState() {
  thread_local ThreadState state;
  return state;
}

/// The calling thread's ring for the current session, registering (and
/// naming) it on first use.  Returns nullptr when tracing is off.
SpanRing* currentRing() {
  Session& s = session();
  if (!s.enabled.load(std::memory_order_relaxed)) return nullptr;
  ThreadState& ts = threadState();
  const std::uint64_t gen = s.generation.load(std::memory_order_acquire);
  if (ts.generation == gen && ts.ring != nullptr) return ts.ring;

  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.enabled.load(std::memory_order_relaxed)) return nullptr;
  auto ring = std::make_unique<SpanRing>(s.ringCapacity);
  ring->tid = static_cast<std::uint32_t>(s.rings.size());
  ring->threadName = ts.pendingName;
  ts.ring = ring.get();
  ts.generation = gen;
  ts.depth = 0;
  s.rings.push_back(std::move(ring));
  return ts.ring;
}

}  // namespace

SpanRing::SpanRing(std::size_t capacity)
    : slots_(roundUpPow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

void SpanRing::drainInto(std::vector<SpanEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t begin = tail_;
  if (head - begin > slots_.size()) {
    begin = head - slots_.size();
    drainedDrops_ += begin - tail_;
  }
  out.reserve(out.size() + static_cast<std::size_t>(head - begin));
  for (std::uint64_t i = begin; i < head; ++i)
    out.push_back(slots_[i & mask_]);
  tail_ = head;
}

std::uint64_t SpanRing::dropped() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  // Everything that fell out of the window before being drained, plus
  // whatever past drains already accounted for.
  const std::uint64_t windowStart =
      head > slots_.size() ? head - slots_.size() : 0;
  return drainedDrops_ + (windowStart > tail_ ? windowStart - tail_ : 0);
}

bool tracingEnabled() {
  return session().enabled.load(std::memory_order_relaxed);
}

void startTracing(std::size_t ringCapacityPerThread) {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.enabled.load(std::memory_order_relaxed)) return;
  s.ringCapacity = std::max<std::size_t>(ringCapacityPerThread, 2);
  s.rings.clear();
  s.epochNs.store(steadyNowNs(), std::memory_order_relaxed);
  s.generation.fetch_add(1, std::memory_order_release);
  s.enabled.store(true, std::memory_order_release);
}

TraceSnapshot stopTracing() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  TraceSnapshot snapshot;
  if (!s.enabled.load(std::memory_order_relaxed)) return snapshot;
  s.enabled.store(false, std::memory_order_release);
  s.generation.fetch_add(1, std::memory_order_release);

  for (auto& ring : s.rings) {
    snapshot.droppedEvents += ring->dropped();
    ring->drainInto(snapshot.events);
    if (ring->tid >= snapshot.threadNames.size())
      snapshot.threadNames.resize(ring->tid + 1);
    snapshot.threadNames[ring->tid] = ring->threadName;
  }
  s.rings.clear();
  std::stable_sort(snapshot.events.begin(), snapshot.events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.startNs != b.startNs) return a.startNs < b.startNs;
                     return a.tid < b.tid;
                   });
  return snapshot;
}

std::int64_t sessionNowNs() {
  return steadyNowNs() - session().epochNs.load(std::memory_order_relaxed);
}

void setCurrentThreadName(const std::string& name) {
  ThreadState& ts = threadState();
  ts.pendingName = name;
  // Already registered in the live session: rename the ring in place.
  Session& s = session();
  if (ts.ring != nullptr &&
      ts.generation == s.generation.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(s.mu);
    ts.ring->threadName = name;
  }
}

void traceInstant(const char* name) {
  SpanRing* ring = currentRing();
  if (ring == nullptr) return;
  SpanEvent ev;
  ev.name = name;
  ev.startNs = sessionNowNs();
  ev.durNs = SpanEvent::kInstant;
  ev.tid = ring->tid;
  ev.depth = threadState().depth;
  ring->push(ev);
}

ScopedSpan::ScopedSpan(const char* name) : name_(nullptr) {
  // Register the thread's ring before reading the depth: registration
  // resets the depth for the new session, and doing it later (at the first
  // record) would zero the depth under spans that are still open.
  if (currentRing() == nullptr) return;
  name_ = name;
  depth_ = threadState().depth++;
  startNs_ = sessionNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  const std::int64_t endNs = sessionNowNs();
  ThreadState& ts = threadState();
  if (ts.depth > 0) --ts.depth;
  SpanRing* ring = currentRing();
  if (ring == nullptr) return;  // session stopped mid-span
  SpanEvent ev;
  ev.name = name_;
  ev.startNs = startNs_;
  ev.durNs = endNs - startNs_;
  ev.tid = ring->tid;
  ev.depth = depth_;
  ring->push(ev);
}

}  // namespace ssvsp::obs
