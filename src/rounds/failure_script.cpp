#include "rounds/failure_script.hpp"

#include <sstream>

#include "lint/codes.hpp"
#include "lint/diagnostic.hpp"

namespace ssvsp {

std::string toString(RoundModel model) {
  return model == RoundModel::kRs ? "RS" : "RWS";
}

Round FailureScript::crashRound(ProcessId p) const {
  for (const auto& c : crashes)
    if (c.p == p) return c.round;
  return kNoRound;
}

ProcessSet FailureScript::sendSubset(ProcessId p, int n) const {
  for (const auto& c : crashes)
    if (c.p == p) return c.sendTo;
  return ProcessSet::full(n);
}

ProcessSet FailureScript::faultyWithin(Round horizon, int n) const {
  ProcessSet out;
  for (const auto& c : crashes)
    if (c.round <= horizon && c.p >= 0 && c.p < n) out.insert(c.p);
  return out;
}

const PendingChoice* FailureScript::pendingFor(ProcessId src, ProcessId dst,
                                               Round round) const {
  for (const auto& p : pendings)
    if (p.src == src && p.dst == dst && p.round == round) return &p;
  return nullptr;
}

std::string FailureScript::toString() const {
  std::ostringstream os;
  os << "script{";
  for (const auto& c : crashes)
    os << " crash(p" << c.p << "@r" << c.round << "->" << c.sendTo.toString()
       << ")";
  for (const auto& p : pendings) {
    os << " pend(p" << p.src << "->p" << p.dst << "@r" << p.round << " arr=";
    if (p.arrival == kNoRound)
      os << "never";
    else
      os << "r" << p.arrival;
    os << ")";
  }
  os << " }";
  return os.str();
}

bool configInRange(const RoundConfig& cfg) {
  return cfg.n >= 1 && cfg.n <= kMaxProcs && cfg.t >= 0 && cfg.t < cfg.n;
}

bool lintRoundConfig(const RoundConfig& cfg, DiagnosticSink& sink) {
  if (configInRange(cfg)) return true;
  std::ostringstream os;
  os << "round config n=" << cfg.n << " t=" << cfg.t
     << " out of range (need 1 <= n <= " << kMaxProcs << " and 0 <= t < n)";
  sink.report(kDiagConfigOutOfRange, Severity::kError, os.str());
  return false;
}

// Every message below is built only once its condition fails: the engine
// runs this on each execute(), and an admissible script must cost no
// allocation.
void lintFailureScript(const FailureScript& script, const RoundConfig& cfg,
                       RoundModel model, Round horizon, DiagnosticSink& sink) {
  // Every later bound would be judged against a broken config.
  if (!lintRoundConfig(cfg, sink)) return;

  if (script.numCrashes() > cfg.t) {
    std::ostringstream os;
    os << script.numCrashes() << " crashes exceed the resilience bound t="
       << cfg.t;
    sink.report(kDiagCrashBoundExceeded, Severity::kError, os.str(),
                "failure patterns of the model crash at most t processes");
  }

  ProcessSet seen;
  for (const CrashEvent& c : script.crashes) {
    if (c.p < 0 || c.p >= cfg.n) {
      std::ostringstream os;
      os << "crash names process " << c.p << " outside [0, " << cfg.n << ")";
      sink.report(kDiagCrashUnknownProcess, Severity::kError, os.str());
      continue;
    }
    if (seen.contains(c.p)) {
      std::ostringstream os;
      os << "process " << c.p << " crashes more than once";
      sink.report(kDiagDuplicateCrash, Severity::kError, os.str(),
                  "crashes are permanent: keep the earliest event only");
    }
    seen.insert(c.p);
    if (c.round < 1) {
      std::ostringstream os;
      os << "crash of process " << c.p << " in round " << c.round << " < 1";
      sink.report(kDiagCrashRoundOutOfRange, Severity::kError, os.str());
    } else if (horizon >= 1 && c.round > horizon) {
      std::ostringstream os;
      os << "crash of process " << c.p << " in round " << c.round
         << " lies past the horizon " << horizon;
      sink.report(kDiagCrashPastHorizon, Severity::kWarning, os.str(),
                  "the run ends before the crash takes effect");
    }
    if (!c.sendTo.isSubsetOf(ProcessSet::full(cfg.n))) {
      std::ostringstream os;
      os << "sendto of process " << c.p << " reaches outside Pi = [0, "
         << cfg.n << ")";
      sink.report(kDiagSendToOutsidePi, Severity::kError, os.str());
    }
  }

  if (model == RoundModel::kRs) {
    if (!script.pendings.empty()) {
      std::ostringstream os;
      os << script.pendings.size()
         << " pending choice(s) in an RS script: round synchrony delivers "
            "every sent message in its round";
      sink.report(kDiagPendingInRs, Severity::kError, os.str(),
                  "switch the model to rws or drop the pending directives");
    }
    return;
  }

  for (std::size_t i = 0; i < script.pendings.size(); ++i) {
    const PendingChoice& p = script.pendings[i];
    const auto who = [&p] {
      return "pending " + std::to_string(p.src) + " -> " +
             std::to_string(p.dst) + " round " + std::to_string(p.round);
    };

    if (p.src < 0 || p.src >= cfg.n || p.dst < 0 || p.dst >= cfg.n) {
      sink.report(kDiagPendingUnknownProcess, Severity::kError,
                  who() + " names a process outside [0, " +
                      std::to_string(cfg.n) + ")");
      continue;
    }
    if (p.round < 1) {
      sink.report(kDiagPendingRoundOutOfRange, Severity::kError,
                  who() + ": send round < 1");
      continue;
    }
    if (p.arrival != kNoRound && p.arrival <= p.round) {
      sink.report(kDiagPendingArrivalNotLater, Severity::kError,
                  who() + ": arrival " + std::to_string(p.arrival) +
                      " is not after the send round",
                  "a pending message surfaces strictly later than it was sent");
    } else if (p.arrival != kNoRound && horizon >= 1 && p.arrival > horizon) {
      sink.report(kDiagArrivalPastHorizon, Severity::kWarning,
                  who() + ": arrival " + std::to_string(p.arrival) +
                      " lands past the horizon " + std::to_string(horizon),
                  "within the simulated prefix this behaves like 'never'");
    }

    // The message must actually be sent: a crashed process sends nothing.
    const Round srcCrash = script.crashRound(p.src);
    if (srcCrash < p.round) {
      sink.report(kDiagCrashedSenderSendsLater, Severity::kError,
                  who() + ": sender crashed in round " +
                      std::to_string(srcCrash) + " and cannot send afterwards",
                  "crash monotonicity: no step after the crash round");
    } else if (srcCrash == p.round &&
               !script.sendSubset(p.src, cfg.n).contains(p.dst)) {
      sink.report(kDiagPendingNeverSent, Severity::kError,
                  who() + ": the crash-round sendto of process " +
                      std::to_string(p.src) + " does not include " +
                      std::to_string(p.dst),
                  "only messages that were sent can be pending");
    }

    // Weak round synchrony: if dst is alive at the end of round p.round,
    // src must crash by the end of round p.round + 1.
    const Round dstCrash = script.crashRound(p.dst);
    const bool dstAliveAtEnd = dstCrash == kNoRound || dstCrash > p.round;
    if (dstAliveAtEnd && !(srcCrash != kNoRound && srcCrash <= p.round + 1)) {
      sink.report(kDiagWeakRoundSynchrony, Severity::kError,
                  who() + ": receiver survives round " +
                      std::to_string(p.round) +
                      " but the sender does not crash by round " +
                      std::to_string(p.round + 1),
                  "weak round synchrony: a sender silent towards a surviving "
                  "receiver in round r is crashed by the end of round r+1");
    }

    for (std::size_t j = 0; j < i; ++j) {
      const PendingChoice& q = script.pendings[j];
      if (q.src == p.src && q.dst == p.dst && q.round == p.round) {
        sink.report(kDiagDuplicatePending, Severity::kError,
                    who() + ": duplicate pending entry for the same message");
        break;
      }
    }
  }
}

ScriptValidity validateScript(const FailureScript& script,
                              const RoundConfig& cfg, RoundModel model) {
  DiagnosticSink sink;
  lintFailureScript(script, cfg, model, /*horizon=*/0, sink);
  ScriptValidity validity;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.severity != Severity::kError) continue;
    validity.ok = false;
    validity.reason = d.message;
    break;
  }
  return validity;
}

}  // namespace ssvsp
