// EarlyFloodSet — an early-deciding uniform consensus extension for RS.
//
// This is NOT one of the paper's figures; it implements the direction the
// paper points to via its companion work [7] (Charron-Bost & Schiper,
// "Uniform consensus is harder than consensus"): in RS, uniform consensus
// can be decided in min(f+2, t+1) rounds where f is the number of crashes
// that actually occur, rather than always t+1.
//
// Rule: every process floods W each round and tracks the set heard_r of
// processes it received from; it decides min(W) at the end of the first
// round r with n - |heard_r| <= r - 2 (at most f rounds can show new
// silence, so this fires by round f+2), falling back to t+1.
//
// Correctness for small systems is established exhaustively by the model
// checker tests (tests/test_mc.cpp) rather than asserted: this extension
// exists precisely to have a nontrivial algorithm to *check*.  The same
// tests demonstrate that the tempting simpler rule "decide when your own
// heard set is stable across two rounds" is unsound.
#pragma once

#include "consensus/floodset.hpp"

namespace ssvsp {

class EarlyFloodSet : public FloodSet {
 public:
  EarlyFloodSet() : FloodSet(false) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::string describeState() const override;
  // No state beyond the base's (the early rule reads absorb()'s return
  // within transition()), so the inherited snapshot layout is complete;
  // re-stating the type certifies that to the engine's POD probe.
  const std::type_info* stateBytesType() const override {
    return &typeid(EarlyFloodSet);
  }
};

RoundAutomatonFactory makeEarlyFloodSet();

}  // namespace ssvsp
