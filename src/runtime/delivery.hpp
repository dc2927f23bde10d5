// Delivery policies: which buffered messages a step receives.
//
// In the asynchronous model a message may stay in the recipient's buffer for
// an arbitrary finite number of the recipient's steps.  The executor asks a
// DeliveryPolicy, at each step of process p, which of p's buffered messages
// are received in that step.  Policies realize: immediate delivery, the SS
// model's Delta bound (delivery within Delta recipient-steps of the send),
// randomized bounded delay, and fully scripted holds for the Theorem 3.1
// adversary.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/schedulers.hpp"
#include "util/rng.hpp"

namespace ssvsp {

/// A buffered message plus bookkeeping the policy may use.
struct BufferedMessage {
  Envelope env;
  /// Local step count of the recipient at the moment the message was sent
  /// (0 if the recipient had not yet stepped).  With the paper's message
  /// synchrony condition, the message must be received by the time the
  /// recipient completes local step `recipientStepAtSend + Delta`.
  std::int64_t recipientStepAtSend = 0;
};

class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;

  /// Returns the indices (into `buffer`) of messages delivered to `p` at its
  /// step described by `view` / `localStep`.  Indices must be distinct and
  /// in range; the executor removes them from the buffer.
  virtual std::vector<std::size_t> deliverNow(
      ProcessId p, std::int64_t localStep,
      const std::vector<BufferedMessage>& buffer,
      const SchedulerView& view) = 0;
};

/// Every buffered message is delivered at the recipient's next step.
class ImmediateDelivery : public DeliveryPolicy {
 public:
  std::vector<std::size_t> deliverNow(
      ProcessId p, std::int64_t localStep,
      const std::vector<BufferedMessage>& buffer,
      const SchedulerView& view) override;
};

/// Each message is assigned a random delay d in [1, maxDelay] measured in
/// recipient steps after the send; it is delivered at the first recipient
/// step with localStep >= recipientStepAtSend + d.  With maxDelay <= Delta
/// this satisfies the SS message-synchrony condition; with large maxDelay it
/// approximates the asynchronous adversary while keeping runs finite.
class RandomBoundedDelivery : public DeliveryPolicy {
 public:
  RandomBoundedDelivery(Rng rng, std::int64_t maxDelay);
  std::vector<std::size_t> deliverNow(
      ProcessId p, std::int64_t localStep,
      const std::vector<BufferedMessage>& buffer,
      const SchedulerView& view) override;

 private:
  Rng rng_;
  std::int64_t maxDelay_;
  /// seq -> assigned delivery threshold (recipient local step).
  std::vector<std::pair<std::int64_t, std::int64_t>> threshold_;
  std::int64_t thresholdFor(const BufferedMessage& m);
};

/// Holds the messages of chosen channels; everything else is delivered
/// immediately.  Held messages are delivered only after releaseChannel()
/// (or never, if the recipient stops stepping first).  This is the exact
/// power the asynchronous adversary in Theorem 3.1 needs: delay chosen
/// messages past the receiver's decision point, but keep delays finite.
class ScriptedHoldDelivery : public DeliveryPolicy {
 public:
  /// Holds every message whose src/dst matches one of the given pairs.
  void holdChannel(ProcessId src, ProcessId dst);
  /// Stops holding; subsequently (and for already buffered messages) the
  /// channel behaves as immediate delivery.
  void releaseChannel(ProcessId src, ProcessId dst);

  std::vector<std::size_t> deliverNow(
      ProcessId p, std::int64_t localStep,
      const std::vector<BufferedMessage>& buffer,
      const SchedulerView& view) override;

 private:
  std::set<std::pair<ProcessId, ProcessId>> heldChannels_;
};

}  // namespace ssvsp
