#include "runtime/executor.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ssvsp {

Executor::Executor(ExecutorConfig config, const AutomatonFactory& factory,
                   FailurePattern pattern, StepScheduler& scheduler,
                   DeliveryPolicy& delivery, FailureDetectorSource* fd)
    : config_(config),
      pattern_(std::move(pattern)),
      scheduler_(scheduler),
      delivery_(delivery),
      fd_(fd) {
  SSVSP_CHECK_MSG(config_.n >= 1 && config_.n <= kMaxProcs,
                  "n = " << config_.n);
  SSVSP_CHECK(pattern_.n() == config_.n);
  procs_.reserve(static_cast<std::size_t>(config_.n));
  for (ProcessId p = 0; p < config_.n; ++p) {
    procs_.push_back(factory(p));
    SSVSP_CHECK_MSG(procs_.back() != nullptr, "factory returned null for p" << p);
    procs_.back()->start(p, config_.n);
  }
  buffers_.resize(static_cast<std::size_t>(config_.n));
  localSteps_.assign(static_cast<std::size_t>(config_.n), 0);
}

SchedulerView Executor::makeView(Time now, std::int64_t globalStep) const {
  SchedulerView view;
  view.now = now;
  view.globalStep = globalStep;
  for (ProcessId p = 0; p < config_.n; ++p)
    if (pattern_.alive(p, now)) view.alive.insert(p);
  view.localSteps = localSteps_;
  view.pendingCount.resize(static_cast<std::size_t>(config_.n));
  for (ProcessId p = 0; p < config_.n; ++p)
    view.pendingCount[static_cast<std::size_t>(p)] =
        static_cast<std::int64_t>(buffers_[static_cast<std::size_t>(p)].size());
  return view;
}

RunTrace Executor::run(const StopPredicate& stopWhen) {
  RunTrace trace(config_.n, pattern_);
  for (std::int64_t step = 1; step <= config_.maxSteps; ++step) {
    const Time now = step;  // the time list T is 1, 2, 3, ...
    SchedulerView view = makeView(now, step);
    if (view.alive.empty()) break;

    const ProcessId pid = scheduler_.nextStep(view);
    if (pid == kNoProcess) break;
    SSVSP_CHECK_MSG(pid >= 0 && pid < config_.n, "scheduler pid " << pid);
    SSVSP_CHECK_MSG(view.alive.contains(pid),
                    "scheduler stepped crashed p" << pid << " at t=" << now);

    auto& buffer = buffers_[static_cast<std::size_t>(pid)];
    const std::int64_t localStep = ++localSteps_[static_cast<std::size_t>(pid)];

    // Receive phase: the delivery policy picks a subset of the buffer.
    std::vector<std::size_t> picked =
        delivery_.deliverNow(pid, localStep, buffer, view);
    std::sort(picked.begin(), picked.end());
    SSVSP_CHECK_MSG(
        std::adjacent_find(picked.begin(), picked.end()) == picked.end(),
        "delivery policy returned duplicate indices");
    std::vector<Envelope> delivered;
    delivered.reserve(picked.size());
    for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
      SSVSP_CHECK_MSG(*it < buffer.size(), "delivery index out of range");
      delivered.push_back(std::move(buffer[*it].env));
      buffer.erase(buffer.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    std::reverse(delivered.begin(), delivered.end());  // restore send order

    // Failure-detector query phase (SP-style models only).
    const ProcessSet suspected =
        fd_ != nullptr ? fd_->suspectedAt(pid, now) : ProcessSet();

    // Compute phase.
    StepContext ctx(pid, localStep, delivered, suspected);
    procs_[static_cast<std::size_t>(pid)]->onStep(ctx);

    // Send phase: at most one message to a single process.
    StepRecord rec;
    rec.globalStep = step;
    rec.time = now;
    rec.pid = pid;
    rec.localStep = localStep;
    rec.delivered = std::move(delivered);
    rec.suspected = suspected;
    if (ctx.outgoing().has_value()) {
      Envelope e = *ctx.outgoing();
      SSVSP_CHECK_MSG(e.dst >= 0 && e.dst < config_.n,
                      "p" << pid << " sent to invalid p" << e.dst);
      e.seq = nextSeq_++;
      e.sentStep = step;
      e.sentTime = now;
      BufferedMessage bm;
      bm.recipientStepAtSend = localSteps_[static_cast<std::size_t>(e.dst)];
      rec.sent = e;
      bm.env = std::move(e);
      buffers_[static_cast<std::size_t>(bm.env.dst)].push_back(std::move(bm));
    }
    rec.outputAfter = procs_[static_cast<std::size_t>(pid)]->output();
    trace.append(std::move(rec));

    if (stopWhen && stopWhen(*this)) break;
  }
  return trace;
}

std::optional<Value> Executor::output(ProcessId p) const {
  SSVSP_CHECK(p >= 0 && p < config_.n);
  return procs_[static_cast<std::size_t>(p)]->output();
}

bool Executor::allCorrectDecided() const {
  for (ProcessId p : pattern_.correct())
    if (!output(p).has_value()) return false;
  return true;
}

std::int64_t Executor::localSteps(ProcessId p) const {
  SSVSP_CHECK(p >= 0 && p < config_.n);
  return localSteps_[static_cast<std::size_t>(p)];
}

const Automaton& Executor::automaton(ProcessId p) const {
  SSVSP_CHECK(p >= 0 && p < config_.n);
  return *procs_[static_cast<std::size_t>(p)];
}

}  // namespace ssvsp
