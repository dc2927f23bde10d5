#include "param/certifier.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/analysis.hpp"
#include "lint/codes.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ssvsp {
namespace param {

namespace {

/// Induction: growing the system past the cutoff must add no abstract
/// state and no abstract transition.
void checkInduction(const AlgorithmEntry& entry, int cutoff,
                    const AbstractionResult& atCutoff,
                    const AbstractionResult& atNext, DiagnosticSink& sink) {
  OBS_SPAN("param.induction");
  std::vector<std::string> newStates;
  std::set_difference(atNext.states.begin(), atNext.states.end(),
                      atCutoff.states.begin(), atCutoff.states.end(),
                      std::back_inserter(newStates));
  if (!newStates.empty()) {
    std::ostringstream os;
    os << entry.name << ": reach set not closed at cutoff n0 = " << cutoff
       << ": n0 + 1 reaches " << newStates.size()
       << " new abstract state(s), first: " << newStates.front();
    sink.report(kDiagParamNotInductive, Severity::kError,
                os.str(), "raise the cutoff until the reach set closes");
  }
  std::vector<std::pair<std::string, std::string>> newEdges;
  std::set_difference(atNext.edges.begin(), atNext.edges.end(),
                      atCutoff.edges.begin(), atCutoff.edges.end(),
                      std::back_inserter(newEdges));
  if (!newEdges.empty()) {
    std::ostringstream os;
    os << entry.name << ": transition relation not closed at cutoff n0 = "
       << cutoff << ": n0 + 1 adds " << newEdges.size()
       << " new abstract edge(s), first: " << newEdges.front().first
       << "  ->  " << newEdges.front().second;
    sink.report(kDiagParamNotInductive, Severity::kError,
                os.str(), "raise the cutoff until the reach set closes");
  }
}

/// Entailment of the claimed bounds by the reach set at the cutoff.
void checkEntailment(const AlgorithmEntry& entry, const ParamCertificate& cert,
                     const AbstractionResult& atCutoff, DiagnosticSink& sink) {
  OBS_SPAN("param.entailment");
  const int t = cert.t;
  // Upper bounds: a state of a run with f total crashes, at a boundary at
  // or past the claimed Lat(A, f), must have every correct process decided.
  if (cert.boundsForAllN && entry.declaredBounds.has_value()) {
    for (const auto& [state, info] : atCutoff.info) {
      const Round bound = entry.declaredBounds->latByF.eval(info.f, t);
      if (info.r >= bound && info.aliveUndecided) {
        std::ostringstream os;
        os << entry.name << ": abstract state at boundary r = " << info.r
           << " >= Lat(A, " << info.f << ") = " << bound
           << " still holds an undecided correct class: " << state;
        sink.report(kDiagParamNotInductive, Severity::kError,
                    os.str(),
                    "the claimed upper bound is not entailed by the reach "
                    "set");
      }
    }
  }

  // Lambda lower bound: discharged by a reachable failure-free state at
  // boundary L - 1 with an undecided correct class — a run that CANNOT
  // have decided before round L.
  if (cert.lambdaLowerBound.has_value()) {
    const int lower = *cert.lambdaLowerBound;
    bool witness = false;
    for (const auto& [state, info] : atCutoff.info)
      if (info.f == 0 && info.r == lower - 1 && info.aliveUndecided)
        witness = true;
    if (!witness) {
      std::ostringstream os;
      os << entry.name << ": no failure-free abstract state at boundary "
         << (lower - 1) << " with an undecided correct class: the Lambda >= "
         << lower << " lower bound has no witness";
      sink.report(kDiagParamNotInductive, Severity::kError,
                  os.str(),
                  "the algorithm decides earlier than the claimed lower "
                  "bound allows");
    }
    for (const ParamWindowRow& row : cert.window) {
      if (row.lambda != kNoRound && row.lambda >= lower) continue;
      std::ostringstream os;
      os << entry.name << ": derived Lambda = " << row.lambda << " at n = "
         << row.n << " is below the claimed lower bound " << lower;
      sink.report(kDiagParamNotInductive, Severity::kError,
                  os.str(), "the claimed lower bound is false");
    }
  }
}

}  // namespace

void lintParamClaim(const AlgorithmEntry& entry, DiagnosticSink& sink) {
  const ParametricClaim& claim = entry.paramClaim;
  const int t = canonicalAnalysisConfig(entry).t;

  if (!claim.declared) {
    sink.report(kDiagParamClaimMissing, Severity::kWarning,
                entry.name + ": no parametric claim declared",
                "declare paramClaimBounds(n0) in the registry so the bounds "
                "are certified for all n >= n0, not just the swept sizes");
    return;
  }
  if (claim.boundsForAllN && !entry.declaredBounds.has_value()) {
    sink.report(kDiagParamClaimNoBounds, Severity::kError,
                entry.name +
                    ": parametric claim asserts the declared bounds for all "
                    "n, but the entry declares no bounds",
                "declare DeclaredLatencyBounds or drop boundsForAllN");
  }
  if (claim.cutoff < t + 2) {
    std::ostringstream os;
    os << entry.name << ": parametric cutoff n0 = " << claim.cutoff
       << " is below t + 2 = " << (t + 2);
    sink.report(kDiagParamCutoffBelowQuorum, Severity::kError,
                os.str(),
                "below n = t + 2 the closed forms of Section 5 collapse "
                "into each other; raise the cutoff");
  }
  if (claim.lambdaLowerBound.has_value() && entry.declaredBounds.has_value()) {
    const Round declaredLambda = entry.declaredBounds->lambda.eval(0, t);
    if (*claim.lambdaLowerBound > declaredLambda) {
      std::ostringstream os;
      os << entry.name << ": claimed Lambda >= " << *claim.lambdaLowerBound
         << " contradicts the declared Lambda = "
         << entry.declaredBounds->lambda.toString() << " = " << declaredLambda
         << " at t = " << t;
      sink.report(kDiagParamLambdaContradiction, Severity::kError,
                  os.str(), "one of the two declarations is wrong");
    }
  }
}

ParamCertificate certifyAlgorithm(const AlgorithmEntry& entry,
                                  DiagnosticSink& sink) {
  OBS_SPAN("param.certify");
  const RoundConfig cfg = canonicalAnalysisConfig(entry);
  const int t = cfg.t;
  const ParametricClaim& claim = entry.paramClaim;
  // An inadmissible cutoff (L601 territory) is clamped so certification
  // still produces a well-formed (observation-only at worst) artifact.
  const int cutoff = std::max(claim.declared ? claim.cutoff : t + 2, t + 2);
  const int c0 = std::max(1, claim.countSaturation);

  ParamCertificate cert;
  cert.algorithm = entry.name;
  cert.model = entry.intendedModel;
  cert.t = t;
  cert.cutoff = cutoff;
  cert.countSaturation = c0;
  cert.declared = claim.declared;
  cert.boundsForAllN = claim.declared && claim.boundsForAllN;
  if (cert.boundsForAllN) cert.bounds = entry.declaredBounds;
  if (claim.declared) cert.lambdaLowerBound = claim.lambdaLowerBound;

  // Base window: concrete quotient interpretation at every size in
  // [t + 2, cutoff + 1].  Every size contributes its row; only the last two
  // carry the induction, so only those two abstractions are kept.
  AbstractionResult atCutoff, atNext;
  for (int n = t + 2; n <= cutoff + 1; ++n) {
    OBS_SPAN("param.window");
    atCutoff = std::move(atNext);
    atNext = abstractInterpret(entry, n, c0);
    cert.window.push_back(atNext.row);
  }

  cert.invariant.assign(atCutoff.states.begin(), atCutoff.states.end());
  const auto indexOf = [&](const std::string& state) {
    const auto it = std::lower_bound(cert.invariant.begin(),
                                     cert.invariant.end(), state);
    SSVSP_CHECK(it != cert.invariant.end() && *it == state);
    return static_cast<int>(it - cert.invariant.begin());
  };
  for (const auto& [from, to] : atCutoff.edges)
    cert.transitions.emplace_back(indexOf(from), indexOf(to));
  cert.lambdaWitnessOnes = atCutoff.lambdaWitnessOnes;
  cert.lambdaWitnessLatency = atCutoff.lambdaWitnessLatency;

  if (claim.declared) {
    // Base cases: every window row must match the declared closed forms,
    // which are n-independent: the same degrees at every n.
    if (cert.boundsForAllN && entry.declaredBounds.has_value()) {
      const LatencyDegrees declared = entry.declaredBounds->eval(t);
      for (const ParamWindowRow& row : cert.window)
        checkLatencyDegrees(
            row, declared,
            {kDiagBoundMismatch, entry.name + ": derived",
             "the declared closed form", " at n = " + std::to_string(row.n),
             "the Section 5 bounds are n-independent: fix the declaration "
             "or the automaton"},
            sink);
    }

    checkInduction(entry, cutoff, atCutoff, atNext, sink);
    checkEntailment(entry, cert, atCutoff, sink);
  }

  cert.fingerprint = certificateFingerprint(cert);
  return cert;
}

bool checkCertificate(const ParamCertificate& stored,
                      const AlgorithmEntry& entry, DiagnosticSink& sink) {
  bool ok = true;
  if (certificateFingerprint(stored) != stored.fingerprint) {
    sink.report(kDiagCertRecheckMismatch, Severity::kError,
                entry.name +
                    ": stored certificate fingerprint does not match its "
                    "content (corrupt or hand-edited golden)",
                "regenerate with ssvsp_analyze --certify --cert-dir=certs");
    ok = false;
  }
  DiagnosticSink scratch;  // regeneration findings are not re-reported here
  const ParamCertificate fresh = certifyAlgorithm(entry, scratch);
  if (!(fresh == stored)) {
    sink.report(kDiagCertRecheckMismatch, Severity::kError,
                entry.name +
                    ": stored certificate differs from a fresh regeneration "
                    "(stale golden, or the abstraction/registry changed)",
                "regenerate with ssvsp_analyze --certify --cert-dir=certs");
    ok = false;
  }
  return ok;
}

ParamSweepCell paramSweepCell(const AlgorithmEntry& entry, int n) {
  SSVSP_CHECK_MSG(n >= 3 && n <= kMaxProcs,
                  "paramSweepCell: n = " << n << " out of range");
  // The largest resilience exhaustively affordable at this n.  RS spaces
  // grow as (rounds x subsets)^t; RWS spaces additionally explode in the
  // pending-lag menu, so RWS sweeps pin t = 1 and shed lags as n grows.
  // Failure-free runs carry no pendings and no crashes, so Lambda — the
  // quantity the RWS lower bound is about — is measured EXACTLY at every
  // grid cell regardless of the menu.
  ParamSweepCell cell;
  int t;
  std::vector<int> lags;
  if (entry.intendedModel == RoundModel::kRws) {
    t = 1;
    if (n == 3)
      lags = {1, 0};
    else if (n == 4)
      lags = {1};
  } else {
    t = entry.requiresTLe1 ? 1 : (n <= 5 ? 2 : 1);
  }
  cell.cfg = RoundConfig{n, t};
  cell.options = canonicalLatencyOptions(entry, cell.cfg, /*exhaustive=*/true);
  cell.options.enumeration.pendingLags = lags;
  cell.options.enumeration.maxScripts = -1;  // exhaustive: no truncation
  return cell;
}

void crossCheckCertificate(const ParamCertificate& cert,
                           const AlgorithmEntry& entry, DiagnosticSink& sink,
                           const CrossCheckOptions& options) {
  for (int n = cert.t + 2; n <= std::min(cert.cutoff + 1, options.maxN);
       ++n) {
    const ParamSweepCell cell = paramSweepCell(entry, n);
    const int t = cell.cfg.t;
    const LatencyProfile profile =
        measureLatency(entry.factory, cell.cfg, entry.intendedModel,
                       cell.options);
    const std::string where =
        " at (n = " + std::to_string(n) + ", t = " + std::to_string(t) + ")";
    const DegreeCheck check{
        kDiagCertSweepDivergence, entry.name + ": measured",
        "the certified claim", where,
        "the certificate and the exhaustive sweep disagree: one of "
        "abstraction, engine or declaration is wrong"};

    if (cert.boundsForAllN && cert.bounds.has_value()) {
      // The declared closed forms are forms over (f, t): the sweep checks
      // them at its own resilience, independently of the abstraction.
      checkLatencyDegrees(profile.degrees(t), cert.bounds->eval(t), check,
                          sink);
    } else if (t == cert.t) {
      // Observation-only certificate: the sweep must still reproduce the
      // window's Lambda (exact in both readings — the failure-free space
      // has no pendings, no crashes and no truncation).
      for (const ParamWindowRow& row : cert.window) {
        if (row.n != n) continue;
        LatencyDegrees measured, certified;
        measured.lambda = profile.lambda;
        certified.lambda = row.lambda;
        checkLatencyDegrees(measured, certified, check, sink);
      }
    }

    if (cert.lambdaLowerBound.has_value() &&
        (profile.lambda == kNoRound ||
         profile.lambda < *cert.lambdaLowerBound)) {
      sink.report(kDiagCertSweepDivergence, Severity::kError,
                  check.subject + " Lambda(A) = " +
                      std::to_string(profile.lambda) +
                      " is below the claimed lower bound " +
                      std::to_string(*cert.lambdaLowerBound) + where,
                  check.hint);
    }
  }
}

}  // namespace param
}  // namespace ssvsp
