#include "fd/axioms.hpp"

#include <sstream>

namespace ssvsp {

namespace {
AxiomReport fail(std::string witness) {
  AxiomReport r;
  r.ok = false;
  r.witness = std::move(witness);
  return r;
}
}  // namespace

AxiomReport checkStrongAccuracy(FailureDetectorSource& fd,
                                const FailurePattern& pattern, Time horizon) {
  for (Time t = 0; t <= horizon; ++t) {
    for (ProcessId p = 0; p < pattern.n(); ++p) {
      if (!pattern.alive(p, t)) continue;
      const ProcessSet suspected = fd.suspectedAt(p, t);
      for (ProcessId q : suspected) {
        if (pattern.crashTime(q) > t) {
          std::ostringstream os;
          os << "p" << p << " suspects alive p" << q << " at t=" << t;
          return fail(os.str());
        }
      }
    }
  }
  return {};
}

AxiomReport checkStrongCompleteness(FailureDetectorSource& fd,
                                    const FailurePattern& pattern,
                                    Time horizon) {
  for (ProcessId q : pattern.faulty()) {
    const Time crash = pattern.crashTime(q);
    if (crash > horizon) continue;  // crash outside the observation window
    for (ProcessId p : pattern.correct()) {
      // Find the first suspicion time, then require persistence.
      Time first = kNever;
      for (Time t = crash; t <= horizon; ++t) {
        if (fd.suspectedAt(p, t).contains(q)) {
          first = t;
          break;
        }
      }
      if (first == kNever) {
        std::ostringstream os;
        os << "correct p" << p << " never suspects crashed p" << q
           << " (crash t=" << crash << ") within horizon " << horizon;
        return fail(os.str());
      }
      for (Time t = first; t <= horizon; ++t) {
        if (!fd.suspectedAt(p, t).contains(q)) {
          std::ostringstream os;
          os << "p" << p << " un-suspects crashed p" << q << " at t=" << t;
          return fail(os.str());
        }
      }
    }
  }
  return {};
}

AxiomReport checkWeakAccuracy(FailureDetectorSource& fd,
                              const FailurePattern& pattern, Time horizon) {
  for (ProcessId q : pattern.correct()) {
    bool everSuspected = false;
    for (Time t = 0; t <= horizon && !everSuspected; ++t)
      for (ProcessId p = 0; p < pattern.n(); ++p)
        if (pattern.alive(p, t) && fd.suspectedAt(p, t).contains(q)) {
          everSuspected = true;
          break;
        }
    if (!everSuspected) return {};
  }
  return fail("every correct process is suspected at some sampled time");
}

AxiomReport checkEventualStrongAccuracy(FailureDetectorSource& fd,
                                        const FailurePattern& pattern,
                                        Time horizon) {
  // Scan backwards for the latest false suspicion; accuracy must hold after.
  Time lastFalse = -1;
  for (Time t = 0; t <= horizon; ++t)
    for (ProcessId p = 0; p < pattern.n(); ++p) {
      if (!pattern.alive(p, t)) continue;
      for (ProcessId q : fd.suspectedAt(p, t))
        if (pattern.crashTime(q) > t) lastFalse = t;
    }
  if (lastFalse >= horizon) {
    std::ostringstream os;
    os << "false suspicion at the horizon boundary t=" << lastFalse;
    return fail(os.str());
  }
  return {};
}

AxiomReport checkEventualWeakAccuracy(FailureDetectorSource& fd,
                                      const FailurePattern& pattern,
                                      Time horizon) {
  for (ProcessId q : pattern.correct()) {
    Time lastSuspected = -1;
    for (Time t = 0; t <= horizon; ++t)
      for (ProcessId p = 0; p < pattern.n(); ++p)
        if (pattern.alive(p, t) && fd.suspectedAt(p, t).contains(q))
          lastSuspected = t;
    if (lastSuspected < horizon) return {};  // unsuspected from some t0 on
  }
  return fail("no correct process becomes permanently unsuspected");
}

}  // namespace ssvsp
