// Experiment E-NET: the real-transport backend (src/net) under measurement.
//
// Two sections, written into BENCH_transport.json:
//
//   * link throughput — one PerfectLink pair over real loopback UDP
//     sockets, single-threaded alternate pumping: messages/sec at a small
//     payload, plus delivered-exactly-once verification;
//   * retransmission under loss — the same pair behind the deterministic
//     FaultInjector at increasing drop rates: retransmit rate
//     (retransmits / data datagrams) and the throughput cost of recovery.
//     The seeded injector makes the datagram-level loss pattern (though
//     not the wall-clock) reproducible.
//
// Forked consensus clusters are timed by perfbench's wire-n4 workload and
// their verdict is checked by `ssvsp_net launch` / `ssvsp_net replay`.
//
// --smoke shrinks every section for CI (the transport-smoke leg runs it).
#include "bench_common.hpp"

#include <cstdio>
#include <fstream>

#include "net/link.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace {

using namespace ssvsp::net;

struct LinkRun {
  std::int64_t messages = 0;
  double wallSec = 0;
  double msgsPerSec = 0;
  std::int64_t dataDatagrams = 0;
  std::int64_t retransmits = 0;
  double retransmitRate = 0;
  std::int64_t injectedDrops = 0;
  bool exactlyOnce = false;
};

/// Pumps `count` messages A -> B over real loopback sockets, optionally
/// through the fault injector, and measures delivery throughput.
LinkRun runLinkPair(std::int64_t count, const FaultSpec* faults) {
  LinkRun out;
  out.messages = count;
  std::string error;
  auto ta = UdpTransport::bind(0, &error);
  auto tb = UdpTransport::bind(0, &error);
  SSVSP_CHECK_MSG(ta != nullptr && tb != nullptr, "bind: " << error);
  const std::vector<Endpoint> peers{ta->localEndpoint(), tb->localEndpoint()};
  ta->setPeers(peers);
  tb->setPeers(peers);

  FaultInjector injected(*ta, faults != nullptr ? *faults : FaultSpec{});
  Transport& aSide = faults != nullptr ? static_cast<Transport&>(injected)
                                       : static_cast<Transport&>(*ta);
  PerfectLink a(aSide, 0, 2);
  PerfectLink b(*tb, 1, 2);

  SteadyClock clock;
  const std::string payload(64, 'x');
  std::int64_t delivered = 0;
  // Perfect links promise no-duplication / no-creation, not FIFO (the
  // injector reorders); verify each sequence arrives exactly once.
  std::vector<bool> seen(static_cast<std::size_t>(count), false);
  bool exactlyOnce = true;

  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t sent = 0;
  std::string bytes;
  ProcessId from = kNoProcess;
  while (delivered < count) {
    // Feed the window without flooding the kernel buffers.
    while (sent < count &&
           sent - delivered < 512) {
      std::string msg;
      RecordWriter w(msg);
      w.putI64(sent + 1);
      w.putBytes(payload);
      a.send(1, msg);
      ++sent;
    }
    const NetTime now = clock.nowMs();
    a.pump(now);
    while (tb->tryRecv(&bytes, &from)) b.onDatagram(from, bytes, now);
    b.pump(now);
    while (aSide.tryRecv(&bytes, &from)) a.onDatagram(from, bytes, now);
    for (const auto& d : b.drainDeliveries()) {
      RecordReader r(d.payload);
      const std::int64_t seq = r.getI64();
      if (seq < 1 || seq > count || seen[static_cast<std::size_t>(seq - 1)])
        exactlyOnce = false;
      else
        seen[static_cast<std::size_t>(seq - 1)] = true;
      ++delivered;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wallSec = std::chrono::duration<double>(t1 - t0).count();
  out.msgsPerSec = out.wallSec > 0 ? delivered / out.wallSec : 0;
  out.dataDatagrams = a.stats().dataDatagrams;
  out.retransmits = a.stats().retransmits;
  out.retransmitRate =
      out.dataDatagrams > 0
          ? static_cast<double>(out.retransmits) / out.dataDatagrams
          : 0;
  out.injectedDrops = faults != nullptr ? injected.dropped() : 0;
  out.exactlyOnce = exactlyOnce && delivered == count &&
                    b.stats().delivered == count;
  return out;
}

int run(bool smoke, const std::string& outPath) {
  bench::printHeader(
      "E-NET — PerfectLink over real UDP loopback",
      "exactly-once delivery, with retransmission under injected loss");

  const std::int64_t linkCount = smoke ? 5'000 : 200'000;

  Table table({"section", "config", "msgs", "msgs/sec", "retransmit rate",
               "exactly-once"});
  LinkRun clean = runLinkPair(linkCount, nullptr);
  table.addRow({"link", "loopback, no faults", std::to_string(clean.messages),
                bench::fmtRunsPerSec(clean.messages, clean.wallSec),
                "0.000", clean.exactlyOnce ? "yes" : "NO"});

  std::vector<std::pair<double, LinkRun>> lossy;
  for (double pDrop : {0.02, 0.10}) {
    FaultSpec faults;
    faults.pDrop = pDrop;
    faults.pDup = pDrop / 2;
    faults.pDelay = pDrop;
    faults.seed = 7;
    LinkRun r = runLinkPair(smoke ? linkCount / 5 : linkCount / 4, &faults);
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.3f", r.retransmitRate);
    char cfg[48];
    std::snprintf(cfg, sizeof cfg, "drop=%.0f%% dup=%.0f%% delay=%.0f%%",
                  pDrop * 100, pDrop * 50, pDrop * 100);
    table.addRow({"link+faults", cfg, std::to_string(r.messages),
                  bench::fmtRunsPerSec(r.messages, r.wallSec), rate,
                  r.exactlyOnce ? "yes" : "NO"});
    lossy.emplace_back(pDrop, r);
  }
  table.print(std::cout);
  std::cout << "\n";

  std::ofstream jsonOut(outPath, std::ios::trunc);
  JsonWriter w(jsonOut, 2);
  w.beginObject();
  w.kv("bench", "transport");
  w.kv("smoke", smoke);
  auto linkJson = [&](const char* name, const LinkRun& r, double pDrop) {
    w.key(name).beginObject();
    w.kv("pDrop", pDrop);
    w.kv("messages", r.messages);
    w.kv("wall_s", r.wallSec);
    w.kv("msgs_per_s", r.msgsPerSec);
    w.kv("data_datagrams", r.dataDatagrams);
    w.kv("retransmits", r.retransmits);
    w.kv("retransmit_rate", r.retransmitRate);
    w.kv("injected_drops", r.injectedDrops);
    w.kv("exactly_once", r.exactlyOnce);
    w.endObject();
  };
  linkJson("link_clean", clean, 0);
  w.key("link_lossy").beginArray();
  for (const auto& [pDrop, r] : lossy) {
    w.beginObject();
    w.kv("pDrop", pDrop);
    w.kv("messages", r.messages);
    w.kv("wall_s", r.wallSec);
    w.kv("msgs_per_s", r.msgsPerSec);
    w.kv("retransmits", r.retransmits);
    w.kv("retransmit_rate", r.retransmitRate);
    w.kv("injected_drops", r.injectedDrops);
    w.kv("exactly_once", r.exactlyOnce);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  jsonOut << "\n";

  int rc = 0;
  if (!clean.exactlyOnce) {
    std::printf("FAIL: clean link did not deliver exactly-once in order\n");
    rc = 1;
  }
  for (const auto& [pDrop, r] : lossy)
    if (!r.exactlyOnce || r.retransmits == 0) {
      std::printf("FAIL: lossy link (drop %.0f%%) %s\n", pDrop * 100,
                  !r.exactlyOnce ? "broke exactly-once"
                                 : "never retransmitted (injector inert?)");
      rc = 1;
    }
  std::printf("%s -> %s\n", rc == 0 ? "OK" : "FAILED", outPath.c_str());
  return rc;
}

}  // namespace
}  // namespace ssvsp

int main(int argc, char** argv) {
  ssvsp::bench::BenchArgs args("bench_transport [options]",
                               "E-NET: PerfectLink throughput and "
                               "retransmission under loss.",
                               /*sweeps=*/false);
  bool smoke = false;
  std::string outPath = "BENCH_transport.json";
  args.spec()
      .flag("smoke", &smoke, "small sections for CI")
      .value("out", &outPath, "JSON report path");
  args.parse(&argc, argv);
  int rc = 1;
  if (const int guard =
          ssvsp::bench::guarded([&] { rc = ssvsp::run(smoke, outPath); }))
    return guard;
  return rc;
}
