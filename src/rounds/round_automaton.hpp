// Round-based algorithms (paper Section 4).
//
// In both RS and RWS the code of a process is given by a state set, a
// message-generation function msgs_i : states x Pi -> message, and a state
// transition function trans_i : states x message-vector -> states.  Each
// round, every alive process first emits its messages, then applies trans_i
// to the vector of messages it received (indexed by sender).
//
// RoundAutomaton is the executable form of (states_i, msgs_i, trans_i).
// Implementations must be deterministic; the engines and the model checker
// rely on replayability.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "util/serde.hpp"
#include "util/types.hpp"

namespace ssvsp {

/// Static parameters of a round-based execution.
struct RoundConfig {
  int n = 0;  ///< number of processes
  int t = 0;  ///< resilience: maximum number of crashes tolerated
};

class RoundAutomaton {
 public:
  virtual ~RoundAutomaton() = default;

  /// Installs the initial state (paper: "initially ..." clauses).
  ///
  /// Reset contract: begin() must FULLY reinitialize the automaton — no
  /// state may survive from a previous run.  The round engine pools
  /// automaton instances across runs (one begin() per run instead of one
  /// heap allocation per process per run), so an automaton that only
  /// partially resets would leak state between adversary scripts and
  /// silently corrupt exhaustive sweeps.
  virtual void begin(ProcessId self, const RoundConfig& cfg, Value initial) = 0;

  /// Optional POD-snapshot contract, for automata whose round-varying state
  /// packs into a fixed number of plain bytes.  stateBytes(nullptr) probes
  /// the snapshot size (0 = unsupported, the default); stateBytes(out)
  /// writes exactly that many bytes of state and returns the count;
  /// restoreBytes(in) reinstates a state previously written by stateBytes
  /// ON THE SAME AUTOMATON INSTANCE (or one that went through the same
  /// begin()) — construction-time parameters need not be included.  The
  /// size must be constant between begin() and the end of the run.
  /// RoundEngine checkpoints a run (and resumes later runs from it; see
  /// DESIGN.md §10) only when every automaton of the run honours this
  /// contract with the same nonzero size: a checkpoint is then one flat
  /// memcpy per process into a pooled arena block.  An automaton that opts
  /// out keeps every other engine feature; its runs just always execute
  /// from round 1.
  ///
  /// Subclasses that add ROUND-VARYING state MUST re-override all three of
  /// stateBytes / restoreBytes / stateBytesType (an inherited implementation
  /// would silently drop the subclass fields on restore, corrupting resumed
  /// runs).  The contract carries its own tripwire: stateBytesType() names
  /// the exact dynamic type the snapshot covers, and the engine checkpoints
  /// only when it equals typeid(*this).  A subclass that inherits the hooks
  /// therefore runs without checkpoints, never from a sliced snapshot.
  /// Subclasses whose extra state is a construction-time constant may keep
  /// the inherited byte layout but still re-state the type:
  /// `return &typeid(Self);`.
  virtual std::size_t stateBytes(std::byte* /*out*/) const { return 0; }
  virtual void restoreBytes(const std::byte* /*in*/) {}
  virtual const std::type_info* stateBytesType() const { return nullptr; }

  /// msgs_i: the message this process sends to `dst` in the current round;
  /// nullopt encodes the null message.  Called once per destination per
  /// round, before any transition of that round.
  virtual std::optional<Payload> messageFor(ProcessId dst) const = 0;

  /// trans_i: applies the transition for the current round.  received[j]
  /// holds the message received from p_j this round (nullopt if none).
  virtual void transition(
      const std::vector<std::optional<Payload>>& received) = 0;

  /// The irrevocable decision, if one has been reached.
  virtual std::optional<Value> decision() const = 0;

  /// Optional human-readable state dump for diagnostics.
  virtual std::string describeState() const { return {}; }
};

/// Creates a fresh automaton for process `self`.
///
/// Concurrency contract: the parallel exploration engine
/// (src/explore/parallel_sweep.hpp) invokes one factory from several worker
/// threads at once, so a factory must be safe to call concurrently.  In
/// practice: return a newly-allocated automaton on every call and keep any
/// captured state immutable after construction (the registry factories are
/// all stateless lambdas; `static const` locals are fine — C++ guarantees
/// thread-safe initialization).  A factory that mutates captured state per
/// call (e.g. a call counter or a shared Rng) is NOT legal to pass to
/// modelCheckConsensus / measureLatency.  The returned automata themselves
/// are never shared across threads.
using RoundAutomatonFactory =
    std::function<std::unique_ptr<RoundAutomaton>(ProcessId)>;

}  // namespace ssvsp
