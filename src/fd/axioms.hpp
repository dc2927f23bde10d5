// Finite-horizon checkers for the failure-detector axioms.
//
// The axioms quantify over infinite histories; on a simulated prefix we
// check the strongest finite statement that the axiom implies:
//   strong accuracy     — no process is suspected at any sampled (p, t)
//                         before it has crashed.
//   strong completeness — every process that crashes early enough is
//                         suspected by every correct process from some time
//                         t0 <= horizon onwards (persistently up to horizon).
//   weak accuracy       — some correct process is never suspected by any
//                         alive process within the horizon.
//   eventual variants   — the property holds from some t0 <= horizon on.
// A failed check returns a human-readable witness; tests assert on `ok`.
#pragma once

#include <string>

#include "fd/failure_detectors.hpp"

namespace ssvsp {

struct AxiomReport {
  bool ok = true;
  std::string witness;  ///< Violation description when !ok.
};

/// Samples H(p, t) for all p and t in [0, horizon].
AxiomReport checkStrongAccuracy(FailureDetectorSource& fd,
                                const FailurePattern& pattern, Time horizon);

AxiomReport checkStrongCompleteness(FailureDetectorSource& fd,
                                    const FailurePattern& pattern,
                                    Time horizon);

AxiomReport checkWeakAccuracy(FailureDetectorSource& fd,
                              const FailurePattern& pattern, Time horizon);

/// Eventual strong accuracy: from some t0 <= horizon, no alive process is
/// suspected at any sampled time in [t0, horizon].
AxiomReport checkEventualStrongAccuracy(FailureDetectorSource& fd,
                                        const FailurePattern& pattern,
                                        Time horizon);

/// Eventual weak accuracy: some correct process is unsuspected by all alive
/// processes from some t0 <= horizon on.
AxiomReport checkEventualWeakAccuracy(FailureDetectorSource& fd,
                                      const FailurePattern& pattern,
                                      Time horizon);

}  // namespace ssvsp
