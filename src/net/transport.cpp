#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "util/check.hpp"

namespace ssvsp::net {

namespace {

sockaddr_in toSockaddr(const Endpoint& e) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(e.ipv4HostOrder);
  sa.sin_port = htons(e.port);
  return sa;
}

bool setError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

std::unique_ptr<UdpTransport> UdpTransport::bind(std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    setError(error, std::string("socket: ") + std::strerror(errno));
    return nullptr;
  }
  Endpoint local;
  local.ipv4HostOrder = INADDR_LOOPBACK;
  sockaddr_in sa = toSockaddr(local);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    setError(error, std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  return adopt(fd, error);
}

std::unique_ptr<UdpTransport> UdpTransport::adopt(int fd, std::string* error) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    setError(error, std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
    return nullptr;
  }
  return std::unique_ptr<UdpTransport>(new UdpTransport(fd));
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::setPeers(std::vector<Endpoint> peers) {
  peers_ = std::move(peers);
}

Endpoint UdpTransport::localEndpoint() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  Endpoint e;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) == 0) {
    e.ipv4HostOrder = ntohl(sa.sin_addr.s_addr);
    e.port = ntohs(sa.sin_port);
  }
  return e;
}

SendResult UdpTransport::trySend(ProcessId dst, std::string_view bytes) {
  SSVSP_CHECK(dst >= 0 && static_cast<std::size_t>(dst) < peers_.size());
  SSVSP_CHECK(bytes.size() <= kMaxDatagram);
  sockaddr_in sa = toSockaddr(peers_[static_cast<std::size_t>(dst)]);
  while (true) {
    const ssize_t n =
        ::sendto(fd_, bytes.data(), bytes.size(), 0,
                 reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (n >= 0) return SendResult::kOk;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS)
      return SendResult::kWouldBlock;
    // ECONNREFUSED surfaces on loopback when the peer died (ICMP port
    // unreachable folded into the socket error): a crash, not congestion.
    if (errno == ECONNREFUSED) return SendResult::kOk;
    return SendResult::kError;
  }
}

bool UdpTransport::tryRecv(std::string* bytes, ProcessId* from) {
  char buf[kMaxDatagram];
  while (true) {
    sockaddr_in src{};
    socklen_t len = sizeof(src);
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&src), &len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNREFUSED) continue;  // stale ICMP from a dead peer
      return false;  // EAGAIN and everything else: nothing deliverable
    }
    // Map the source address back to a peer index; loopback peers are
    // distinguished by port alone, so match port first, address second.
    const std::uint32_t ip = ntohl(src.sin_addr.s_addr);
    const std::uint16_t port = ntohs(src.sin_port);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (peers_[i].port == port && peers_[i].ipv4HostOrder == ip) {
        bytes->assign(buf, static_cast<std::size_t>(n));
        *from = static_cast<ProcessId>(i);
        return true;
      }
    }
    // Unknown source: drop and keep draining (no creation).
  }
}

void UdpTransport::waitReadable(int timeoutMs) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  ::poll(&pfd, 1, timeoutMs);
}

FaultInjector::FaultInjector(Transport& inner, const FaultSpec& spec)
    : inner_(inner), spec_(spec), rng_(spec.seed) {}

SendResult FaultInjector::trySend(ProcessId dst, std::string_view bytes) {
  // Age parked datagrams on every send so reordering is driven by traffic,
  // not wall clock (deterministic under a seeded test).
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (--it->remaining <= 0) {
      (void)inner_.trySend(it->dst, it->bytes);
      it = parked_.erase(it);
    } else {
      ++it;
    }
  }
  if (rng_.bernoulli(spec_.pDrop)) {
    ++dropped_;
    return SendResult::kOk;  // silently lost, exactly like the network
  }
  if (rng_.bernoulli(spec_.pDelay)) {
    ++delayed_;
    parked_.push_back({dst, std::string(bytes), spec_.delaySends});
    return SendResult::kOk;
  }
  const SendResult r = inner_.trySend(dst, bytes);
  if (r == SendResult::kOk && rng_.bernoulli(spec_.pDup)) {
    ++duplicated_;
    (void)inner_.trySend(dst, bytes);
  }
  return r;
}

bool FaultInjector::tryRecv(std::string* bytes, ProcessId* from) {
  return inner_.tryRecv(bytes, from);
}

void FaultInjector::flushDelayed() {
  while (!parked_.empty()) {
    (void)inner_.trySend(parked_.front().dst, parked_.front().bytes);
    parked_.pop_front();
  }
}

}  // namespace ssvsp::net
