#include "net/node.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp::net {

namespace {

/// Link payload announcing that the sender is done (see node.hpp, Exit).
std::string frameDone() {
  std::string out;
  RecordWriter w(out);
  w.putU8(static_cast<std::uint8_t>(ChannelKind::kDone));
  return out;
}

/// A well-formed DONE: the channel byte and nothing after it.
bool isDone(std::string_view payload) {
  RecordReader r(payload);
  const auto kind = static_cast<ChannelKind>(r.getU8());
  return r.ok() && r.exhausted() && kind == ChannelKind::kDone;
}

Round deriveMaxRounds(const NodeOptions& options) {
  if (options.maxRounds >= 1) return options.maxRounds;
  return options.cfg.t + 2;
}

}  // namespace

NetNode::NetNode(UdpTransport& transport,
                 std::unique_ptr<RoundAutomaton> automaton,
                 const NodeOptions& options, NetClock& clock)
    : transport_(transport),
      clock_(clock),
      options_(options),
      link_(transport, options.self, options.cfg.n, options.link),
      monitor_(options.self, options.cfg.n, options.heartbeat, clock.nowMs()),
      driver_(std::move(automaton), options.cfg, options.self,
              options.initial, deriveMaxRounds(options), link_,
              options.crashPlan),
      startedAt_(clock.nowMs()) {
  SSVSP_CHECK(static_cast<int>(transport.peers().size()) == options.cfg.n);
}

void NetNode::broadcastHeartbeat() {
  const std::string frame = monitor_.heartbeatFrame();
  for (ProcessId q = 0; q < options_.cfg.n; ++q)
    if (q != options_.self) transport_.trySend(q, frame);
}

void NetNode::becomeDone(NetTime now) {
  status_ = Status::kDone;
  endedAt_ = now;
  frozen_ = report();
  const std::string frame = frameDone();
  for (ProcessId q = 0; q < options_.cfg.n; ++q)
    if (q != options_.self) link_.send(q, frame);
}

NetNode::Status NetNode::step() {
  if (status_ == Status::kHalted || status_ == Status::kExited)
    return status_;
  const NetTime now = clock_.nowMs();

  // Ingest.  Heartbeats peel off first (they are raw, not link-framed).
  std::string bytes;
  ProcessId from = kNoProcess;
  while (transport_.tryRecv(&bytes, &from)) {
    if (monitor_.onDatagram(from, bytes, now)) continue;
    link_.onDatagram(from, bytes, now);
  }

  // Refresh the failure detector; the driver's receive guard gates on it.
  const ProcessSet suspected = monitor_.suspected(now);

  // Demultiplex link deliveries: round messages, DONE.
  for (const auto& d : link_.drainDeliveries()) {
    if (driver_.onPayload(d.src, d.payload)) continue;
    if (isDone(d.payload)) donePeers_.insert(d.src);
  }

  driver_.advance(suspected);

  if (driver_.halted()) {
    // Scripted crash: flush what the partial broadcast put in the send
    // queues as best-effort (a real crash loses unflushed buffers too),
    // then go silent for good.
    link_.pump(now);
    status_ = Status::kHalted;
    endedAt_ = now;
    return status_;
  }

  if (status_ == Status::kRunning && driver_.finished()) becomeDone(now);

  if (monitor_.heartbeatDue(now)) broadcastHeartbeat();
  link_.pump(now);  // after becomeDone, so the DONEs leave before any exit

  const ProcessSet everyone = ProcessSet::full(options_.cfg.n);
  if (status_ == Status::kDone &&
      everyone.isSubsetOf(donePeers_ | suspected |
                          ProcessSet::single(options_.self)))
    status_ = Status::kExited;
  return status_;
}

NodeReport NetNode::run() {
  const auto serving = [this] {
    return status_ == Status::kRunning || status_ == Status::kDone;
  };
  while (serving()) {
    step();
    if (!serving()) break;
    if (clock_.nowMs() - startedAt_ > options_.deadlineMs) {
      // A done node's report is already frozen; only a running one times
      // out.
      if (status_ == Status::kRunning) {
        timedOut_ = true;
        endedAt_ = clock_.nowMs();
      }
      break;
    }
    transport_.waitReadable(1);
  }
  return report();
}

NodeReport NetNode::report() const {
  if (frozen_.has_value()) return *frozen_;
  const NetTime endedAt = endedAt_.value_or(clock_.nowMs());
  NodeReport r;
  r.node = options_.self;
  r.algo = options_.algo;
  r.n = options_.cfg.n;
  r.t = options_.cfg.t;
  const auto decision = driver_.decision();
  r.decided = decision.has_value();
  r.decision = decision.value_or(kUndecided);
  r.decisionRound = driver_.decisionRound();
  r.roundsCompleted = driver_.roundsCompleted();
  r.lateDeliveries = driver_.lateDeliveries();
  r.halted = status_ == Status::kHalted;
  r.timedOut = timedOut_;
  r.suspectedFinal = const_cast<HeartbeatMonitor&>(monitor_)
                         .suspected(endedAt_.value_or(startedAt_))
                         .mask();
  for (const ProcessSet& heard : driver_.heardPerRound())
    r.heardMasks.push_back(heard.mask());
  r.link = link_.stats();
  r.fd = monitor_.stats();
  r.wallMs = endedAt - startedAt_;
  return r;
}

std::string NodeReport::toJson() const {
  std::ostringstream os;
  JsonWriter w(os, 2);
  w.beginObject();
  w.kv("schema", kReportSchemaV1);
  w.kv("kind", "net.node");
  w.kv("node", std::int64_t{node});
  w.kv("algo", algo);
  w.kv("n", std::int64_t{n});
  w.kv("t", std::int64_t{t});
  w.kv("decided", decided);
  if (decided)
    w.kv("decision", std::int64_t{decision});
  else
    w.key("decision").null();
  w.key("decisionRound");
  if (decisionRound == kNoRound)
    w.null();
  else
    w.value(std::int64_t{decisionRound});
  w.kv("roundsCompleted", std::int64_t{roundsCompleted});
  w.kv("lateDeliveries", lateDeliveries);
  w.kv("halted", halted);
  w.kv("timedOut", timedOut);
  w.kv("suspectedFinal", suspectedFinal);
  w.key("heardMasks").beginArray();
  for (std::uint64_t mask : heardMasks) w.value(mask);
  w.endArray();
  w.key("link").beginObject();
  w.kv("sent", link.sent);
  w.kv("dataDatagrams", link.dataDatagrams);
  w.kv("retransmits", link.retransmits);
  w.kv("acksSent", link.acksSent);
  w.kv("acksReceived", link.acksReceived);
  w.kv("delivered", link.delivered);
  w.kv("duplicatesDropped", link.duplicatesDropped);
  w.kv("wouldBlocks", link.wouldBlocks);
  w.endObject();
  w.key("fd").beginObject();
  w.kv("heartbeatsSent", fd.heartbeatsSent);
  w.kv("heartbeatsReceived", fd.heartbeatsReceived);
  w.kv("suspicions", fd.suspicions);
  w.kv("refutations", fd.refutations);
  w.endObject();
  w.kv("wallMs", wallMs);
  w.endObject();
  return os.str();
}

bool NodeReport::fromJson(const std::string& text, NodeReport* out,
                          std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string parseError;
  const auto doc = parseJson(text, &parseError);
  if (!doc.has_value()) return fail(parseError);
  if (!doc->isObject()) return fail("report is not an object");
  std::string schema;
  std::string kind;
  if (!readJsonString(doc->find("schema"), &schema) ||
      schema != kReportSchemaV1)
    return fail("missing or unknown schema tag");
  if (!readJsonString(doc->find("kind"), &kind) || kind != "net.node")
    return fail("not a net.node report");
  NodeReport r;
  std::int64_t node64 = 0;
  std::int64_t decision64 = 0;
  if (!readJsonI64(doc->find("node"), &node64) ||
      !readJsonString(doc->find("algo"), &r.algo) ||
      !readJsonInt(doc->find("n"), &r.n) ||
      !readJsonInt(doc->find("t"), &r.t) ||
      !readJsonBool(doc->find("decided"), &r.decided) ||
      !readJsonBool(doc->find("halted"), &r.halted) ||
      !readJsonBool(doc->find("timedOut"), &r.timedOut))
    return fail("missing core fields");
  r.node = static_cast<ProcessId>(node64);
  if (r.decided) {
    if (!readJsonI64(doc->find("decision"), &decision64))
      return fail("decided but no decision value");
    r.decision = static_cast<Value>(decision64);
  }
  const JsonValue* decisionRound = doc->find("decisionRound");
  if (decisionRound == nullptr) return fail("missing decisionRound");
  if (decisionRound->kind == JsonValue::Kind::kNull)
    r.decisionRound = kNoRound;
  else if (!readJsonInt(decisionRound, &r.decisionRound))
    return fail("bad decisionRound");
  std::int64_t rounds64 = 0;
  if (!readJsonI64(doc->find("roundsCompleted"), &rounds64) ||
      !readJsonI64(doc->find("lateDeliveries"), &r.lateDeliveries) ||
      !readJsonI64(doc->find("wallMs"), &r.wallMs))
    return fail("missing counters");
  r.roundsCompleted = static_cast<Round>(rounds64);
  std::int64_t mask64 = 0;
  if (!readJsonI64(doc->find("suspectedFinal"), &mask64))
    return fail("missing suspectedFinal");
  r.suspectedFinal = static_cast<std::uint64_t>(mask64);
  const JsonValue* masks = doc->find("heardMasks");
  if (masks == nullptr || !masks->isArray()) return fail("missing heardMasks");
  for (const JsonValue& m : masks->items) {
    std::int64_t v = 0;
    if (!readJsonI64(&m, &v)) return fail("bad heard mask");
    r.heardMasks.push_back(static_cast<std::uint64_t>(v));
  }
  const JsonValue* link = doc->find("link");
  const JsonValue* fd = doc->find("fd");
  if (link == nullptr || !link->isObject() || fd == nullptr ||
      !fd->isObject())
    return fail("missing stats objects");
  if (!readJsonI64(link->find("sent"), &r.link.sent) ||
      !readJsonI64(link->find("dataDatagrams"), &r.link.dataDatagrams) ||
      !readJsonI64(link->find("retransmits"), &r.link.retransmits) ||
      !readJsonI64(link->find("acksSent"), &r.link.acksSent) ||
      !readJsonI64(link->find("acksReceived"), &r.link.acksReceived) ||
      !readJsonI64(link->find("delivered"), &r.link.delivered) ||
      !readJsonI64(link->find("duplicatesDropped"),
                   &r.link.duplicatesDropped) ||
      !readJsonI64(link->find("wouldBlocks"), &r.link.wouldBlocks))
    return fail("missing link stats");
  if (!readJsonI64(fd->find("heartbeatsSent"), &r.fd.heartbeatsSent) ||
      !readJsonI64(fd->find("heartbeatsReceived"), &r.fd.heartbeatsReceived) ||
      !readJsonI64(fd->find("suspicions"), &r.fd.suspicions) ||
      !readJsonI64(fd->find("refutations"), &r.fd.refutations))
    return fail("missing fd stats");
  *out = std::move(r);
  return true;
}

}  // namespace ssvsp::net
