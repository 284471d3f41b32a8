#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "net/batcher.h"

namespace dvs::net {

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("UdpTransport: bad IPv4 address '" + host + "'");
  }
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(UdpConfig config, ProcessSet processes)
    : config_(std::move(config)),
      processes_(std::move(processes)),
      drop_rng_(config_.drop_seed) {
  config_.batch_max_bytes = std::min(config_.batch_max_bytes,
                                     config_.max_datagram);
  sock_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (sock_fd_ < 0) {
    throw std::runtime_error(std::string("UdpTransport: socket(): ") +
                             std::strerror(errno));
  }
  if (config_.so_rcvbuf > 0) {
    // Best effort: a small rmem_max just means more kernel-side drops,
    // which the layers above already tolerate.
    ::setsockopt(sock_fd_, SOL_SOCKET, SO_RCVBUF, &config_.so_rcvbuf,
                 sizeof(config_.so_rcvbuf));
  }
  sockaddr_in addr = make_addr(config_.bind_host, config_.bind_port);
  if (::bind(sock_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(sock_fd_);
    throw std::runtime_error("UdpTransport: bind(" + config_.bind_host + ":" +
                             std::to_string(config_.bind_port) +
                             "): " + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(sock_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  local_port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const int err = errno;
    ::close(sock_fd_);
    throw std::runtime_error(std::string("UdpTransport: epoll_create1(): ") +
                             std::strerror(err));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = sock_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, sock_fd_, &ev) != 0) {
    const int err = errno;
    ::close(epoll_fd_);
    ::close(sock_fd_);
    throw std::runtime_error(std::string("UdpTransport: epoll_ctl(): ") +
                             std::strerror(err));
  }
  recv_buf_.resize(config_.max_datagram + kUdpHeaderBytes + 1);
}

UdpTransport::~UdpTransport() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (sock_fd_ >= 0) ::close(sock_fd_);
}

void UdpTransport::set_peer(ProcessId p, const UdpEndpoint& ep) {
  make_addr(ep.host, ep.port);  // validate early
  peers_[p] = ep;
}

void UdpTransport::attach(ProcessId p, Handler handler) {
  if (p != config_.self) {
    throw std::logic_error(
        "UdpTransport::attach: this transport serves only " +
        config_.self.to_string());
  }
  handler_ = std::move(handler);
}

void UdpTransport::send(ProcessId from, ProcessId to, const Bytes& payload) {
  if (from != config_.self) {
    throw std::logic_error("UdpTransport::send: from must be " +
                           config_.self.to_string());
  }
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  if (payload.size() > config_.max_datagram) {
    ++stats_.dropped_oversize;
    return;
  }
  if (!peers_.contains(to)) {
    ++udp_stats_.dropped_unmapped;
    return;
  }
  if (!config_.batching) {
    transmit(to, {payload}, payload.size());
    return;
  }
  PendingBatch& batch = pending_[to];
  if (batch.frames.empty()) dirty_.push_back(to);
  batch.frames.push_back(payload);
  batch.bytes += payload.size();
  if (batch.frames.size() >= config_.batch_max_msgs ||
      batch.bytes >= config_.batch_max_bytes) {
    // Close the batch, but leave it for flush(): the owner writes its
    // journal between the protocol step and flush(), and no datagram may
    // leave ahead of the records it depends on.
    ++stats_.batch_cap_flushes;
    closed_.emplace_back(to, std::move(batch));
    batch = PendingBatch{};
  }
}

void UdpTransport::flush() {
  if (closed_.empty() && dirty_.empty()) return;
  // Closed batches first, in the order they filled, then the open ones in
  // first-send order: per destination, datagrams leave in send order.
  for (const auto& [to, batch] : closed_) {
    transmit(to, batch.frames, batch.bytes);
  }
  bool wrote = !closed_.empty();
  closed_.clear();
  for (const ProcessId to : dirty_) {
    auto it = pending_.find(to);
    if (it == pending_.end() || it->second.frames.empty()) continue;
    transmit(it->first, it->second.frames, it->second.bytes);
    it->second.frames.clear();
    it->second.bytes = 0;
    wrote = true;
  }
  dirty_.clear();
  if (wrote) ++udp_stats_.flushes;
}

void UdpTransport::transmit(ProcessId to, const std::vector<Bytes>& frames,
                            std::size_t frame_bytes) {
  // Header first, then either the raw single frame or a BATCH envelope —
  // exactly the simulator's raw-passthrough rule, so the receive path is
  // shared byte for byte.
  wire_writer_.clear();
  wire_writer_.u8(kUdpMagic);
  wire_writer_.u32(config_.self.value());
  if (frames.size() == 1) {
    const Bytes& f = frames.front();
    wire_writer_.raw(f.data(), f.size());
  } else {
    ++stats_.batches;
    stats_.batched_msgs += frames.size();
    encode_batch_into(frames, wire_writer_);
  }
  (void)frame_bytes;
  if (config_.drop_probability > 0.0 &&
      drop_rng_.chance(config_.drop_probability)) {
    ++udp_stats_.dropped_knob;
    return;
  }
  const UdpEndpoint& ep = peers_.at(to);
  const sockaddr_in addr = make_addr(ep.host, ep.port);
  const Bytes& datagram = wire_writer_.buffer();
  const ssize_t n =
      ::sendto(sock_fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (n != static_cast<ssize_t>(datagram.size())) {
    // Full send buffer, transient ENOBUFS, unreachable peer: UDP loss. The
    // protocol layers retransmit; we only count it.
    ++udp_stats_.sendto_errors;
    return;
  }
  ++stats_.datagrams;
  stats_.wire_bytes += datagram.size() - kUdpHeaderBytes;
}

std::size_t UdpTransport::drain() {
  std::size_t dispatched = 0;
  for (;;) {
    const ssize_t n =
        ::recvfrom(sock_fd_, recv_buf_.data(), recv_buf_.size(), 0, nullptr,
                   nullptr);
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        ++udp_stats_.recv_errors;
      }
      if (errno == EINTR) continue;
      break;
    }
    const auto size = static_cast<std::size_t>(n);
    if (size < kUdpHeaderBytes ||
        std::to_integer<std::uint8_t>(recv_buf_[0]) != kUdpMagic) {
      ++udp_stats_.bad_header;
      continue;
    }
    ++udp_stats_.recv_datagrams;
    udp_stats_.recv_bytes += size - kUdpHeaderBytes;
    // Copy out of the reused receive buffer: dispatch() reuses
    // frame_scratch_, and handlers may send (reusing wire_writer_), so the
    // datagram must own its bytes.
    const Bytes datagram(recv_buf_.begin(),
                         recv_buf_.begin() + static_cast<std::ptrdiff_t>(size));
    const std::size_t before = stats_.delivered;
    dispatch(datagram);
    dispatched += stats_.delivered - before;
  }
  return dispatched;
}

void UdpTransport::dispatch(const Bytes& datagram) {
  if (!handler_) return;
  std::uint32_t sender = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    sender |= static_cast<std::uint32_t>(
                  std::to_integer<std::uint8_t>(datagram[1 + i]))
              << (8 * i);
  }
  const ProcessId from{sender};
  const Bytes payload(datagram.begin() + kUdpHeaderBytes, datagram.end());
  // Same delivery rule as the simulator: raw frames go straight up, BATCH
  // envelopes are salvage-decoded so a damaged tail costs exactly one
  // decode error above.
  if (!looks_like_batch(payload)) {
    ++stats_.delivered;
    handler_(from, payload);
    return;
  }
  const bool clean = visit_batch_frames(
      payload, [this, from](const std::byte* p, std::size_t len) {
        frame_scratch_.assign(p, p + len);
        ++stats_.delivered;
        handler_(from, frame_scratch_);
      });
  if (!clean) ++stats_.batch_salvaged;
}

std::size_t UdpTransport::pump(std::uint64_t timeout_us) {
  flush();
  epoll_event ev{};
  const int timeout_ms =
      static_cast<int>((timeout_us + 999) / 1000);  // round up: never spin
  const int n = ::epoll_wait(epoll_fd_, &ev, 1, timeout_ms);
  if (n <= 0) return 0;
  return drain();
}

void UdpTransport::bind_metrics(obs::MetricsRegistry& metrics) {
  metrics.add_collector([this, &metrics] {
    metrics.counter("net.sent").set(stats_.sent);
    metrics.counter("net.delivered").set(stats_.delivered);
    metrics.counter("net.bytes_sent").set(stats_.bytes_sent);
    metrics.counter("net.datagrams").set(stats_.datagrams);
    metrics.counter("net.wire_bytes").set(stats_.wire_bytes);
    metrics.counter("net.batches").set(stats_.batches);
    metrics.counter("net.batched_msgs").set(stats_.batched_msgs);
    metrics.counter("net.batch_cap_flushes").set(stats_.batch_cap_flushes);
    metrics.counter("net.batch_salvaged").set(stats_.batch_salvaged);
    metrics.counter("net.dropped_oversize").set(stats_.dropped_oversize);
    metrics.counter("udp.sendto_errors").set(udp_stats_.sendto_errors);
    metrics.counter("udp.recv_errors").set(udp_stats_.recv_errors);
    metrics.counter("udp.dropped_knob").set(udp_stats_.dropped_knob);
    metrics.counter("udp.dropped_unmapped").set(udp_stats_.dropped_unmapped);
    metrics.counter("udp.bad_header").set(udp_stats_.bad_header);
    metrics.counter("udp.recv_datagrams").set(udp_stats_.recv_datagrams);
    metrics.counter("udp.recv_bytes").set(udp_stats_.recv_bytes);
    metrics.counter("udp.flushes").set(udp_stats_.flushes);
  });
}

}  // namespace dvs::net
