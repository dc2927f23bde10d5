#include "net/heartbeat.hpp"

#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp::net {

std::string toString(FdMode mode) {
  switch (mode) {
    case FdMode::kPerfect:
      return "P";
    case FdMode::kEventuallyPerfect:
      return "diamond-P";
  }
  return "?";
}

HeartbeatMonitor::HeartbeatMonitor(ProcessId self, int n,
                                   const HeartbeatOptions& options,
                                   NetTime now)
    : self_(self), n_(n), options_(options), lastBeatAt_(now - options.periodMs) {
  SSVSP_CHECK(n >= 1 && n <= kMaxProcs);
  SSVSP_CHECK(self >= 0 && self < n);
  SSVSP_CHECK(options.periodMs >= 1 && options.timeoutMs >= 1);
  lastHeard_.assign(static_cast<std::size_t>(n), now);
  timeout_.assign(static_cast<std::size_t>(n), options.timeoutMs);
}

bool HeartbeatMonitor::heartbeatDue(NetTime now) {
  if (now - lastBeatAt_ < options_.periodMs) return false;
  lastBeatAt_ = now;
  ++stats_.heartbeatsSent;
  return true;
}

std::string HeartbeatMonitor::heartbeatFrame() const {
  std::string out;
  RecordWriter w(out);
  w.putU8(static_cast<std::uint8_t>(WireKind::kHeartbeat));
  w.putU32(static_cast<std::uint32_t>(self_));
  return out;
}

bool HeartbeatMonitor::onDatagram(ProcessId from, std::string_view bytes,
                                  NetTime now) {
  RecordReader r(bytes);
  if (static_cast<WireKind>(r.getU8()) != WireKind::kHeartbeat) return false;
  const auto src = static_cast<ProcessId>(r.getU32());
  if (!r.ok() || !r.exhausted() || src != from || src < 0 || src >= n_)
    return true;  // malformed heartbeat: consumed, ignored
  ++stats_.heartbeatsReceived;
  if (suspected_.contains(src)) {
    if (options_.mode == FdMode::kPerfect) {
      // Sticky: under P a suspicion is a crash verdict.  A heartbeat from
      // a suspected peer means the timeout was mistimed; the mistake stays
      // visible instead of being silently repaired.
      return true;
    }
    // ◇P: refute and adapt — after finitely many refutations the timeout
    // exceeds the true delay bound and false suspicions stop.
    suspected_.erase(src);
    timeout_[static_cast<std::size_t>(src)] += options_.timeoutIncrementMs;
    ++stats_.refutations;
  }
  lastHeard_[static_cast<std::size_t>(src)] = now;
  return true;
}

ProcessSet HeartbeatMonitor::suspected(NetTime now) {
  for (ProcessId q = 0; q < n_; ++q) {
    if (q == self_ || suspected_.contains(q)) continue;
    if (now - lastHeard_[static_cast<std::size_t>(q)] >
        timeout_[static_cast<std::size_t>(q)]) {
      suspected_.insert(q);
      ++stats_.suspicions;
    }
  }
  return suspected_;
}

NetTime HeartbeatMonitor::timeoutFor(ProcessId p) const {
  SSVSP_CHECK(p >= 0 && p < n_);
  return timeout_[static_cast<std::size_t>(p)];
}

void HeartbeatHistory::sample(ProcessId observer, Time t,
                              ProcessSet suspected) {
  SSVSP_CHECK(observer >= 0 && observer < n_);
  samples_[static_cast<std::size_t>(observer)][t] = suspected;
}

ProcessSet HeartbeatHistory::suspectedAt(ProcessId p, Time t) {
  SSVSP_CHECK(p >= 0 && p < n_);
  const auto& timeline = samples_[static_cast<std::size_t>(p)];
  auto it = timeline.upper_bound(t);
  if (it == timeline.begin()) return {};
  --it;
  return it->second;
}

}  // namespace ssvsp::net
