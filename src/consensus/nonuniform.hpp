// Consensus vs. UNIFORM consensus (paper Section 5.1).
//
// "Uniform consensus differs from the consensus problem in the uniform
//  agreement condition: it prevents two processes to disagree even if one
//  of the two processes crash some (maybe long) time after deciding. ...
//  [For many models] any algorithm that solves consensus also solves
//  uniform consensus.  However, this result holds neither in RS nor in RWS."
//
// NonUniformEarlyFloodSet makes that gap executable: it decides min(W) at
// the end of round r as soon as the failures it has observed satisfy
// f_r <= r - 1 — one round earlier than EarlyFloodSet's uniform-safe
// f_r <= r - 2.  The faster rule is sound for plain consensus (all CORRECT
// processes agree: in particular, failure-free runs decide in one round)
// but a process that decides early and then crashes can die with a value
// the survivors never adopt — uniform agreement breaks, and the model
// checker exhibits it.  Together with checkConsensus() this reproduces the
// Section 5.1 separation: in RS, consensus is strictly easier than uniform
// consensus.
#pragma once

#include "consensus/floodset.hpp"
#include "rounds/spec.hpp"

namespace ssvsp {

class NonUniformEarlyFloodSet : public FloodSet {
 public:
  NonUniformEarlyFloodSet() : FloodSet(false) {}

  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::string describeState() const override;
  // Stateless beyond the base; certify the inherited snapshot layout.
  const std::type_info* stateBytesType() const override {
    return &typeid(NonUniformEarlyFloodSet);
  }
};

RoundAutomatonFactory makeNonUniformEarlyFloodSet();

/// The NON-uniform consensus specification: agreement is required only
/// among correct processes; validity and termination are as in the uniform
/// version.  (Integrity is enforced by the engine.)
struct ConsensusVerdict {
  bool agreementAmongCorrect = true;
  bool uniformValidity = true;
  bool decisionInProposals = true;
  bool termination = true;
  std::string witness;
  bool ok() const {
    return agreementAmongCorrect && uniformValidity && decisionInProposals &&
           termination;
  }
};

ConsensusVerdict checkConsensus(const RoundRunResult& run);

}  // namespace ssvsp
