#include "param/abstraction.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "consensus/messages.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace param {

namespace {

/// Broadcast payloads are rendered for class keys in their LEGACY list form
/// "[kTagW count v...]" regardless of the wire representation: the
/// committed parametric certificates (certs/) embed these strings in their
/// invariants, so the hot-path re-encode of W sets (packed bit mask instead
/// of value list) must not change a single certificate byte.  Non-W
/// payloads fall through to the generic rendering.
std::string renderBroadcast(const Payload& payload) {
  const std::optional<ValueSet> w = wire::decodeW(payload);
  if (!w.has_value()) return payloadToString(payload);
  std::ostringstream os;
  os << "[" << wire::kTagW << " " << w->size();
  for (Value v : *w) os << " " << v;
  os << "]";
  return os.str();
}

/// Appends one word to a binary interning key.
void put(std::string& key, std::int32_t word) {
  key.append(reinterpret_cast<const char*>(&word), sizeof word);
}

/// The displayed count of an alive class holding c0 or more processes
/// ("x<c0>+" in the state string).
constexpr std::int32_t kSaturated = -1;

/// One in-flight pending slot of a sender: a (send round, arrival round)
/// pair still undelivered, with its receiver count.
struct PendSlot {
  Round sent = 0;
  Round arrival = 0;
  int count = 0;
};

struct ClassInfo {
  std::string text;               ///< the class key in state strings
  bool alive = false;             ///< alive counts saturate at c0
  bool correctUndecided = false;  ///< alive, not doomed, not decided
};

/// One class of an abstract state with its displayed count.
struct Member {
  int id = 0;
  std::int32_t count = 0;  ///< kSaturated for "c0 or more"
};

}  // namespace

/// The interning tables.  A binary key captures everything a class's (or
/// state's) canonical string depends on; a miss renders the string once
/// and keys the id by that string, so two binary keys that render alike
/// share one id and ids stay in bijection with strings.
struct AbstractionFold::Tables {
  Tables(int countSaturation, AbstractionResult& result)
      : c0(std::max(1, countSaturation)), out(result) {}

  int classOf(const RoundRunResult& run, ProcessId p, Round r);
  int stateOf(int f, Round r);

  const int c0;
  AbstractionResult& out;

  std::unordered_map<std::string, int> classByKey;
  std::unordered_map<std::string, int> classByText;
  std::vector<ClassInfo> classes;

  /// States: (f, r, (class id, displayed count) sorted by id) -> id; ids
  /// index the state strings, which live as keys of out.info.
  std::unordered_map<std::string, int> stateByKey;
  std::unordered_map<const std::string*, int> stateByText;
  std::vector<const std::string*> stateText;

  std::unordered_set<std::uint64_t> edges;  ///< from id << 32 | to id

  // Per-run scratch, reused across runs.
  std::string classKey;
  std::string stateKey;
  std::size_t boundaries = 0;               ///< roundsExecuted + 1
  std::vector<Round> crashRound;            ///< per process
  std::vector<const Payload*> broadcast;    ///< [p * boundaries + r]
  std::vector<std::vector<PendSlot>> pend;  ///< per sender, slot-sorted
  std::vector<int> ids;                     ///< class id per process
  std::vector<Member> members;
};

int AbstractionFold::Tables::classOf(const RoundRunResult& run, ProcessId p,
                                     Round r) {
  const auto pi = static_cast<std::size_t>(p);
  const Round rc = crashRound[pi];
  const bool crashed = rc != kNoRound && rc <= r;
  // A doomed process (alive now, crashes later in this run) is its own
  // class: the adversary's plan is part of the schedule cell, and keeping
  // it out of the correct classes makes `aliveUndecided` a fact about
  // CORRECT processes — the ones Lat(A, f) quantifies over — consistent
  // across every run reaching this state.
  const bool doomed = !crashed && rc != kNoRound;
  const Payload* w = nullptr;
  bool decided = false;

  std::string& key = classKey;
  key.clear();
  put(key, crashed ? 0 : doomed ? 1 : 2);
  put(key, rc);
  if (!crashed) {
    if (r == 0) {
      put(key, 0);
      put(key, run.initial[pi]);
    } else if ((w = broadcast[pi * boundaries +
                              static_cast<std::size_t>(r)]) != nullptr) {
      put(key, 1);
      put(key, static_cast<std::int32_t>(w->size()));
      for (std::int32_t word : *w) put(key, word);
    } else {
      put(key, 2);
    }
    const Round d = run.decisionRound[pi];
    decided = d != kNoRound && d <= r;
    put(key, decided ? *run.decision[pi] : 0);
    put(key, decided ? 1 : 0);
  }
  // Pendings still in flight at boundary r; "never within the horizon"
  // ones were dropped when the slots were built — they are invisible to
  // any future round.
  const auto inFlight = [r](const PendSlot& s) {
    return s.sent <= r && r < s.arrival;
  };
  for (const PendSlot& s : pend[pi]) {
    if (!inFlight(s)) continue;
    put(key, s.sent);
    put(key, s.arrival);
    put(key, std::min(s.count, c0));
  }
  if (const auto hit = classByKey.find(key); hit != classByKey.end())
    return hit->second;

  std::ostringstream text;
  if (crashed) {
    text << "X@" << rc;
  } else {
    text << (doomed ? "A!" : "A ");
    if (doomed) text << rc << " ";
    if (r == 0)
      text << "init=" << run.initial[pi];
    else
      text << "w="
           << (w != nullptr ? renderBroadcast(*w) : std::string("(silent)"));
    if (decided)
      text << " d=" << *run.decision[pi];
    else
      text << " u";
  }
  bool first = true;
  for (const PendSlot& s : pend[pi]) {
    if (!inFlight(s)) continue;
    text << (first ? " pend[" : ",") << s.sent << ">" << s.arrival << "x";
    first = false;
    if (s.count >= c0)
      text << c0 << "+";
    else
      text << s.count;
  }
  if (!first) text << "]";

  const auto [named, inserted] = classByText.try_emplace(
      text.str(), static_cast<int>(classes.size()));
  if (inserted)
    classes.push_back(
        {named->first, !crashed, !crashed && !doomed && !decided});
  classByKey.emplace(key, named->second);
  return named->second;
}

int AbstractionFold::Tables::stateOf(int f, Round r) {
  // Class counts: alive counts saturate at c0; crashed counts stay exact
  // (at most t of them — they carry the crash budget).
  std::sort(ids.begin(), ids.end());
  members.clear();
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    const auto count = static_cast<std::int32_t>(j - i);
    const bool saturated =
        classes[static_cast<std::size_t>(ids[i])].alive && count >= c0;
    members.push_back({ids[i], saturated ? kSaturated : count});
    i = j;
  }

  std::string& key = stateKey;
  key.clear();
  put(key, f);
  put(key, r);
  for (const Member& m : members) {
    put(key, m.id);
    put(key, m.count);
  }
  if (const auto hit = stateByKey.find(key); hit != stateByKey.end())
    return hit->second;

  // The canonical string lists the classes in string order.
  std::sort(members.begin(), members.end(),
            [this](const Member& a, const Member& b) {
              return classes[static_cast<std::size_t>(a.id)].text <
                     classes[static_cast<std::size_t>(b.id)].text;
            });
  std::ostringstream text;
  text << "f=" << f << " r=" << r;
  bool aliveUndecided = false;
  for (const Member& m : members) {
    const ClassInfo& c = classes[static_cast<std::size_t>(m.id)];
    text << " | " << c.text << " x";
    if (m.count == kSaturated)
      text << c0 << "+";
    else
      text << m.count;
    aliveUndecided = aliveUndecided || c.correctUndecided;
  }

  const auto [it, inserted] = out.info.try_emplace(text.str());
  if (inserted) {
    it->second.f = f;
    it->second.r = r;
    it->second.aliveUndecided = aliveUndecided;
    out.states.insert(it->first);
  }
  const auto [named, fresh] = stateByText.try_emplace(
      &it->first, static_cast<int>(stateText.size()));
  if (fresh) stateText.push_back(&it->first);
  stateByKey.emplace(key, named->second);
  return named->second;
}

AbstractionFold::AbstractionFold(int countSaturation, AbstractionResult& out)
    : tables_(std::make_unique<Tables>(countSaturation, out)) {}

AbstractionFold::~AbstractionFold() = default;

std::int64_t AbstractionFold::classes() const {
  return static_cast<std::int64_t>(tables_->classes.size());
}

void AbstractionFold::add(const RoundRunResult& run) {
  Tables& tb = *tables_;
  const int n = run.cfg.n;
  const auto np = static_cast<std::size_t>(n);
  const int fRun = run.script.numCrashes();
  tb.boundaries = static_cast<std::size_t>(run.roundsExecuted) + 1;

  tb.crashRound.resize(np);
  for (ProcessId p = 0; p < n; ++p)
    tb.crashRound[static_cast<std::size_t>(p)] = run.script.crashRound(p);

  // One broadcast sample per (sender, round): the traced self-delivery,
  // exactly as the structural analysis of src/analysis reads estimates.
  tb.broadcast.assign(np * tb.boundaries, nullptr);
  for (const RoundDelivery& del : run.deliveries)
    if (del.src == del.dst && del.sentRound <= run.roundsExecuted)
      tb.broadcast[static_cast<std::size_t>(del.src) * tb.boundaries +
                   static_cast<std::size_t>(del.sentRound)] = &del.payload;

  // Pending profile per sender: one slot per (send round, arrival round)
  // pair, with the receiver count.
  tb.pend.resize(np);
  for (auto& slots : tb.pend) slots.clear();
  for (const PendingChoice& pc : run.script.pendings) {
    if (pc.arrival == kNoRound || pc.src < 0 || pc.src >= n) continue;
    auto& slots = tb.pend[static_cast<std::size_t>(pc.src)];
    const auto slot =
        std::find_if(slots.begin(), slots.end(), [&pc](const PendSlot& s) {
          return s.sent == pc.round && s.arrival == pc.arrival;
        });
    if (slot == slots.end())
      slots.push_back({pc.round, pc.arrival, 1});
    else
      ++slot->count;
  }
  for (auto& slots : tb.pend)
    std::sort(slots.begin(), slots.end(),
              [](const PendSlot& a, const PendSlot& b) {
                return a.sent != b.sent ? a.sent < b.sent
                                        : a.arrival < b.arrival;
              });

  int prev = 0;
  for (Round r = 0; r <= run.roundsExecuted; ++r) {
    tb.ids.clear();
    for (ProcessId p = 0; p < n; ++p) tb.ids.push_back(tb.classOf(run, p, r));
    const int cur = tb.stateOf(fRun, r);
    if (r > 0 && tb.edges
                     .insert(static_cast<std::uint64_t>(prev) << 32 |
                             static_cast<std::uint32_t>(cur))
                     .second)
      tb.out.edges.emplace(*tb.stateText[static_cast<std::size_t>(prev)],
                           *tb.stateText[static_cast<std::size_t>(cur)]);
    prev = cur;
  }

  // Lambda witness: the worst failure-free run, strict > so the first
  // (lexicographically earliest canonical configuration) is kept.
  if (fRun == 0) {
    const Round latency = run.latency();
    AbstractionResult& out = tb.out;
    if (latency != kNoRound &&
        (out.lambdaWitnessLatency == kNoRound ||
         latency > out.lambdaWitnessLatency)) {
      out.lambdaWitnessLatency = latency;
      out.lambdaWitnessOnes = static_cast<int>(
          std::count(run.initial.begin(), run.initial.end(), Value{1}));
    }
  }
}

AbstractionResult abstractInterpret(const AlgorithmEntry& entry, int n,
                                    int countSaturation) {
  const int t = canonicalAnalysisConfig(entry).t;
  SSVSP_CHECK_MSG(n > t && n <= kMaxProcs,
                  "abstractInterpret: n = " << n << " out of range for t = "
                                            << t);
  AbstractionResult result;
  AbstractBounds bounds;
  std::int64_t classes = 0;
  {
    OBS_SPAN("param.interpret_fold");
    // The interning tables are scratch for this window, freed here.
    AbstractionFold fold(countSaturation, result);
    bounds = interpretAutomaton(
        entry, RoundConfig{n, t},
        [&fold](const RoundRunResult& run) { fold.add(run); });
    classes = fold.classes();
  }

  static_cast<LatencyDegrees&>(result.row) = bounds;
  result.row.n = n;
  result.row.cells = bounds.cells;
  result.row.runs = bounds.runs;
  result.row.states = static_cast<std::int64_t>(result.states.size());
  result.row.edges = static_cast<std::int64_t>(result.edges.size());

  // Published once per window in every build, never per run.
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("param.windows").increment();
  m.counter("param.runs").add(result.row.runs);
  m.counter("param.states").add(result.row.states);
  m.counter("param.edges").add(result.row.edges);
  m.counter("param.classes").add(classes);
  return result;
}

}  // namespace param
}  // namespace ssvsp
