#include "runtime/delivery.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ssvsp {

std::vector<std::size_t> ImmediateDelivery::deliverNow(
    ProcessId /*p*/, std::int64_t /*localStep*/,
    const std::vector<BufferedMessage>& buffer, const SchedulerView& /*view*/) {
  std::vector<std::size_t> all(buffer.size());
  for (std::size_t i = 0; i < buffer.size(); ++i) all[i] = i;
  return all;
}

RandomBoundedDelivery::RandomBoundedDelivery(Rng rng, std::int64_t maxDelay)
    : rng_(rng), maxDelay_(maxDelay) {
  SSVSP_CHECK_MSG(maxDelay >= 1, "maxDelay = " << maxDelay);
}

std::int64_t RandomBoundedDelivery::thresholdFor(const BufferedMessage& m) {
  for (const auto& [seq, thr] : threshold_)
    if (seq == m.env.seq) return thr;
  const std::int64_t delay = rng_.uniformInt(1, maxDelay_);
  const std::int64_t thr = m.recipientStepAtSend + delay;
  threshold_.emplace_back(m.env.seq, thr);
  // Bound the memo table: drop entries once it grows large (delivered
  // messages never query again, so stale entries are only a memory concern).
  if (threshold_.size() > 4096)
    threshold_.erase(threshold_.begin(), threshold_.begin() + 2048);
  return thr;
}

std::vector<std::size_t> RandomBoundedDelivery::deliverNow(
    ProcessId /*p*/, std::int64_t localStep,
    const std::vector<BufferedMessage>& buffer, const SchedulerView& /*view*/) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < buffer.size(); ++i)
    if (localStep >= thresholdFor(buffer[i])) out.push_back(i);
  return out;
}

void ScriptedHoldDelivery::holdChannel(ProcessId src, ProcessId dst) {
  heldChannels_.insert({src, dst});
}

void ScriptedHoldDelivery::releaseChannel(ProcessId src, ProcessId dst) {
  heldChannels_.erase({src, dst});
}

std::vector<std::size_t> ScriptedHoldDelivery::deliverNow(
    ProcessId /*p*/, std::int64_t /*localStep*/,
    const std::vector<BufferedMessage>& buffer, const SchedulerView& /*view*/) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    const Envelope& e = buffer[i].env;
    if (heldChannels_.count({e.src, e.dst}) != 0) continue;
    out.push_back(i);
  }
  return out;
}

}  // namespace ssvsp
