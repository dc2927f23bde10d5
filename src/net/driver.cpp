#include "net/driver.hpp"

#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp::net {

// Wire format on the link channel: kRound | round | hasBody | body words.
// Like the simulator emulation, a wire message goes to every destination
// every round even when msgs_i is null — under the receive guard silence
// must mean a crash, so the null message must still occupy a datagram.
namespace {

std::string frameRound(Round round, const std::optional<Payload>& body) {
  std::string out;
  RecordWriter w(out);
  w.putU8(static_cast<std::uint8_t>(ChannelKind::kRound));
  w.putI32(round);
  w.putU8(body.has_value() ? 1 : 0);
  if (body.has_value())
    for (std::int32_t word : *body) w.putI32(word);
  return out;
}

// Buffered form: hasBody marker word, then the body — present slot = heard,
// marker distinguishes a heard-but-null message from silence.
Payload storeBody(bool hasBody, const Payload& body) {
  Payload stored;
  stored.reserve(body.size() + 1);
  stored.push_back(hasBody ? 1 : 0);
  for (std::int32_t word : body) stored.push_back(word);
  return stored;
}

}  // namespace

RwsFromSpDriver::RwsFromSpDriver(std::unique_ptr<RoundAutomaton> inner,
                                 RoundConfig cfg, ProcessId self,
                                 Value initial, Round maxRounds,
                                 PerfectLink& link, CrashPlan plan)
    : inner_(std::move(inner)),
      cfg_(cfg),
      self_(self),
      maxRounds_(maxRounds),
      link_(link),
      plan_(plan) {
  SSVSP_CHECK(inner_ != nullptr);
  SSVSP_CHECK(cfg.n >= 1 && cfg.n <= kMaxProcs);
  SSVSP_CHECK(self >= 0 && self < cfg.n);
  SSVSP_CHECK(maxRounds >= 1);
  inner_->begin(self, cfg_, initial);
}

bool RwsFromSpDriver::onPayload(ProcessId from, std::string_view payload) {
  RecordReader r(payload);
  if (static_cast<ChannelKind>(r.getU8()) != ChannelKind::kRound) return false;
  const Round round = r.getI32();
  const bool hasBody = r.getU8() != 0;
  Payload body;
  while (r.ok() && !r.exhausted()) body.push_back(r.getI32());
  if (!r.ok() || round < 1 || from < 0 || from >= cfg_.n) return true;
  auto& slots = buffered_[round];
  if (slots.empty())
    slots.assign(static_cast<std::size_t>(cfg_.n), std::nullopt);
  // A second frame for a (round, sender) slot still buffered is a duplicate:
  // keep the first copy.  A malformed datagram must never kill the node.
  auto& slot = slots[static_cast<std::size_t>(from)];
  if (!slot.has_value()) slot = storeBody(hasBody, body);
  return true;
}

void RwsFromSpDriver::sendRound(Round round, ProcessSet dsts) {
  for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
    if (!dsts.contains(dst)) continue;
    const std::optional<Payload> body = inner_->messageFor(dst);
    if (dst == self_) {
      // The link is peer-to-peer; the self-copy short-circuits locally
      // (the simulator routes it through the executor instead).
      auto& slots = buffered_[round];
      if (slots.empty())
        slots.assign(static_cast<std::size_t>(cfg_.n), std::nullopt);
      slots[static_cast<std::size_t>(self_)] =
          storeBody(body.has_value(), body.value_or(Payload{}));
      continue;
    }
    link_.send(dst, frameRound(round, body));
  }
}

int RwsFromSpDriver::advance(ProcessSet suspected) {
  int completed = 0;
  while (!halted_ && roundsCompleted_ < maxRounds_) {
    const Round round = roundsCompleted_ + 1;

    if (!sentThisRound_) {
      if (plan_.round == round) {
        // Scripted crash: the partial broadcast of the crash round, then
        // silence.  The harness turns the silence into a real SIGKILL.
        sendRound(round, plan_.sendTo);
        halted_ = true;
        return completed;
      }
      ProcessSet all;
      for (ProcessId q = 0; q < cfg_.n; ++q) all.insert(q);
      sendRound(round, all);
      sentThisRound_ = true;
    }

    // Receive guard, verbatim from RwsEmulator::onStep: for every peer, a
    // consumable message (oldest buffered round <= current, FIFO) or a
    // suspicion.
    auto oldestFor = [&](ProcessId q) -> std::optional<Round> {
      for (const auto& [r, slots] : buffered_) {
        if (r > round) break;  // future-round messages wait their turn
        if (slots[static_cast<std::size_t>(q)].has_value()) return r;
      }
      return std::nullopt;
    };

    bool guardMet = true;
    for (ProcessId q = 0; q < cfg_.n; ++q) {
      if (oldestFor(q).has_value()) continue;
      if (suspected.contains(q)) continue;
      guardMet = false;
      break;
    }
    if (!guardMet) return completed;

    // Consume: one message per sender, oldest round first.
    std::vector<std::optional<Payload>> received(
        static_cast<std::size_t>(cfg_.n));
    ProcessSet heard;
    for (ProcessId q = 0; q < cfg_.n; ++q) {
      const auto src = oldestFor(q);
      if (!src.has_value()) continue;
      if (*src < round) ++lateDeliveries_;
      auto& slot = buffered_[*src][static_cast<std::size_t>(q)];
      const Payload& stored = *slot;
      if (stored[0] != 0)
        received[static_cast<std::size_t>(q)] =
            Payload(stored.begin() + 1, stored.end());
      slot.reset();
      heard.insert(q);
    }
    while (!buffered_.empty()) {
      auto it = buffered_.begin();
      bool empty = true;
      for (const auto& s : it->second)
        if (s.has_value()) empty = false;
      if (!empty || it->first > round) break;
      buffered_.erase(it);
    }

    heardPerRound_.push_back(heard);
    inner_->transition(received);
    ++roundsCompleted_;
    sentThisRound_ = false;
    ++completed;
    if (decisionRound_ == kNoRound && inner_->decision().has_value())
      decisionRound_ = roundsCompleted_;
  }
  return completed;
}

}  // namespace ssvsp::net
