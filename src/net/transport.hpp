// Datagram transports for the real-transport backend.
//
// The Transport interface is the narrow waist everything above the sockets
// is written against: fire-and-forget datagrams addressed by peer index
// (the same dense ProcessId space as the rest of the library), non-blocking
// in both directions.  Two implementations:
//
//   * UdpTransport — a non-blocking POSIX UDP socket plus an address book
//     mapping ProcessId <-> sockaddr.  trySend returns kWouldBlock on
//     EAGAIN/ENOBUFS instead of aborting (shilangyu/distributed-algorithms
//     aborts there; we push congestion handling up into PerfectLink's
//     bounded-window send queue, which retries on the next pump).
//
//   * FaultInjector — a deterministic, seeded decorator that drops,
//     duplicates and reorders datagrams on their way OUT of another
//     transport.  The loss model the transport tests run PerfectLink
//     against; production nodes never stack it.
//
// Datagrams are at most kMaxDatagram bytes; the layers above fit every
// frame well inside it (round messages carry O(n) int32 words).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace ssvsp::net {

/// Hard ceiling on one datagram; fits loopback MTUs with headroom.
inline constexpr std::size_t kMaxDatagram = 8192;

enum class SendResult : std::uint8_t {
  kOk,
  kWouldBlock,  ///< EAGAIN / ENOBUFS: retry on a later pump
  kError,       ///< anything else: the caller decides whether to abort
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Non-blocking send of one datagram to peer `dst`.
  virtual SendResult trySend(ProcessId dst, std::string_view bytes) = 0;

  /// Non-blocking receive.  Returns false when nothing is pending; on true,
  /// fills the payload and the sending peer's index.  Datagrams from
  /// unknown sources are dropped internally (no creation at this layer).
  virtual bool tryRecv(std::string* bytes, ProcessId* from) = 0;
};

/// One peer's UDP address.
struct Endpoint {
  std::uint32_t ipv4HostOrder = 0;  ///< e.g. INADDR_LOOPBACK
  std::uint16_t port = 0;
};

class UdpTransport : public Transport {
 public:
  /// Binds a non-blocking UDP socket on 127.0.0.1 at a port the kernel
  /// picks.  Returns null and fills `error` on failure.
  static std::unique_ptr<UdpTransport> bind(std::string* error);

  /// Wraps an already-bound, non-blocking socket fd (ownership taken).
  /// The fork-based launch harness binds every node's socket in the parent
  /// and hands each child its own fd, so loopback port assignment is done
  /// once, race-free, before any process starts.
  static std::unique_ptr<UdpTransport> adopt(int fd, std::string* error);

  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// The peer table: index i holds p_i's endpoint.  Sources not in the
  /// table are invisible to tryRecv.
  void setPeers(std::vector<Endpoint> peers);
  const std::vector<Endpoint>& peers() const { return peers_; }

  /// The locally bound endpoint (resolves kernel-assigned ports).
  Endpoint localEndpoint() const;

  SendResult trySend(ProcessId dst, std::string_view bytes) override;
  bool tryRecv(std::string* bytes, ProcessId* from) override;

  /// Blocks until the socket is readable or `timeoutMs` elapses (0 = poll).
  /// The node event loop's idle wait.
  void waitReadable(int timeoutMs);

  int fd() const { return fd_; }

 private:
  explicit UdpTransport(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::vector<Endpoint> peers_;
};

/// Deterministic fault model applied to outgoing datagrams.  Each send
/// consults one seeded RNG: with pDrop the datagram vanishes, with pDup it
/// is sent twice, and with pDelay it is parked on a queue and released
/// after `delaySends` later sends (reordering).  Receives pass through.
struct FaultSpec {
  double pDrop = 0;
  double pDup = 0;
  double pDelay = 0;
  int delaySends = 3;  ///< sends held back before a delayed datagram goes out
  std::uint64_t seed = 1;
};

class FaultInjector : public Transport {
 public:
  FaultInjector(Transport& inner, const FaultSpec& spec);

  SendResult trySend(ProcessId dst, std::string_view bytes) override;
  bool tryRecv(std::string* bytes, ProcessId* from) override;

  /// Forces any parked (delayed) datagrams out, oldest first.
  void flushDelayed();

  std::int64_t dropped() const { return dropped_; }
  std::int64_t duplicated() const { return duplicated_; }
  std::int64_t delayed() const { return delayed_; }

 private:
  struct Parked {
    ProcessId dst;
    std::string bytes;
    int remaining;  ///< sends left before release
  };

  Transport& inner_;
  FaultSpec spec_;
  Rng rng_;
  std::deque<Parked> parked_;
  std::int64_t dropped_ = 0;
  std::int64_t duplicated_ = 0;
  std::int64_t delayed_ = 0;
};

}  // namespace ssvsp::net
