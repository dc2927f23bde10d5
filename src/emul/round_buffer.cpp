#include "emul/round_buffer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ssvsp {

RoundBuffer::RoundBuffer(int n, Round maxRounds)
    : n_(n), maxRounds_(maxRounds), received_(static_cast<std::size_t>(n)) {
  SSVSP_CHECK(n >= 1 && n <= kMaxProcs);
  SSVSP_CHECK(maxRounds >= 1);
}

RoundBuffer::Stored RoundBuffer::store(Round round, ProcessId sender,
                                       std::optional<Payload> body) {
  if (round < 1 || round > maxRounds_ || sender < 0 || sender >= n_)
    return Stored::kRejected;
  if (round > roundsStored())
    slots_.resize(static_cast<std::size_t>(round) *
                  static_cast<std::size_t>(n_));
  Slot& s = slots_[index(round, sender)];
  if (s.state != State::kEmpty) return Stored::kDuplicate;
  if (body.has_value()) {
    s.state = State::kBody;
    s.body = std::move(*body);
  } else {
    s.state = State::kNull;
  }
  first_ = std::min(first_, round);
  return Stored::kNew;
}

bool RoundBuffer::ready(Round round, ProcessSet suspected) const {
  for (ProcessId q = 0; q < n_; ++q)
    if (!suspected.contains(q) && oldest(q, round) == kNoRound) return false;
  return true;
}

ProcessSet RoundBuffer::consume(Round round) {
  ProcessSet heard;
  for (ProcessId q = 0; q < n_; ++q) {
    auto& out = received_[static_cast<std::size_t>(q)];
    out.reset();
    const Round r = oldest(q, round);
    if (r == kNoRound) continue;
    Slot& s = slots_[index(r, q)];
    if (s.state == State::kBody) out = std::move(s.body);
    s.state = State::kConsumed;
    if (r < round) ++lateDeliveries_;
    heard.insert(q);
  }
  // Drop exhausted rounds: a finished round that holds nothing is not
  // scanned again, unless a late message for one of its empty slots lands.
  const auto holds = [this](Round r) {
    if (r > roundsStored()) return false;
    for (ProcessId q = 0; q < n_; ++q)
      if (slots_[index(r, q)].held()) return true;
    return false;
  };
  while (first_ <= round && !holds(first_)) ++first_;
  return heard;
}

Round RoundBuffer::oldest(ProcessId q, Round round) const {
  const Round last = std::min(round, roundsStored());
  for (Round r = first_; r <= last; ++r)
    if (slots_[index(r, q)].held()) return r;
  return kNoRound;
}

}  // namespace ssvsp
