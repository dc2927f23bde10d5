// Uniform reliable broadcast on the round models — an extension that
// replays the paper's RS-vs-RWS efficiency gap on a second problem.
//
// One-shot setting: every process may broadcast one application message
// (its initial value; kUndecided opts out).  UrbFlood relays each message
// exactly once, in the round after it is first received, and delivers it:
//
//   RS  — at the end of the relay round.  Completing round r in RS proves
//         the round-r relay reached every process alive at the end of r
//         (round synchrony), so a deliverer that later crashes has already
//         seeded every survivor: uniform agreement holds.
//
//   RWS — one round LATER, at the end of relay round + 1.  Completing the
//         relay round proves nothing (the relay may be pending); weak round
//         synchrony only says that a process still alive at the end of
//         round r+1 cannot have a round-r relay pending towards a receiver
//         that survived round r.  Surviving one extra round is exactly the
//         certificate needed — and delivering one round early is exactly
//         what the adversary punishes (the ablation test shows the
//         violation).
//
// The one-round delivery-latency gap (2 rounds in RS vs 3 in RWS after the
// origin's broadcast) mirrors the paper's Lambda separation for uniform
// consensus: bounded silence-detection buys one round, here too.
#pragma once

#include <vector>

#include "rounds/round_automaton.hpp"
#include "util/process_set.hpp"

namespace ssvsp {

/// A delivered application message, as logged by the broadcast automata.
struct Delivery {
  Round round = 0;        ///< round at whose end the delivery happened
  ProcessId origin = kNoProcess;
  Value payload = kUndecided;

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

class UrbFlood : public RoundAutomaton {
 public:
  /// deliverSlack: rounds to survive past the relay before delivering
  /// (1 = RS rule, 2 = RWS rule).  useHaltSet guards against late pendings
  /// being mistaken for fresh relays (RWS).
  UrbFlood(int deliverSlack, bool useHaltSet)
      : deliverSlack_(deliverSlack), useHaltSet_(useHaltSet) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  std::optional<Payload> messageFor(ProcessId dst) const override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::optional<Value> decision() const override { return std::nullopt; }
  std::string describeState() const override;

  const std::vector<Delivery>& delivered() const { return delivered_; }

 private:
  struct Known {
    ProcessId origin;
    Value payload;
    Round relayRound;  ///< round in which this process relays it
    bool deliveredFlag = false;
  };

  int deliverSlack_;
  bool useHaltSet_;
  ProcessId self_ = kNoProcess;
  RoundConfig cfg_;
  int rounds_ = 0;
  std::vector<Known> known_;
  ProcessSet halt_;
  std::vector<Delivery> delivered_;
};

RoundAutomatonFactory makeUrbRs();
RoundAutomatonFactory makeUrbRws();
/// Ablation: the RS delivery rule run in RWS — violates uniform agreement.
RoundAutomatonFactory makeUrbRsRuleInRws();

}  // namespace ssvsp
