// Real asynchronous UDP backend for the Transport interface.
//
// One UdpTransport instance serves ONE local process (unlike SimNetwork,
// which simulates the whole universe in-process): it owns a non-blocking
// UDP socket bound to a local endpoint, a per-peer address map, and an
// epoll instance its owner's event loop waits on. The dvsd daemon runs a
// full VS/DVS/TO node over one of these; the transport-conformance suite
// runs several in one test process over loopback.
//
// Framing reuses the exact wire format of the simulated network:
//   * every datagram starts with a fixed header [kUdpMagic u8][sender u32]
//     so the receiver resolves the logical sender without trusting (or
//     even consulting) the source address — rebinding after a crash-restart
//     or NAT rewriting cannot confuse process identity;
//   * sends within one flush window coalesce per destination into the
//     net::Batcher BATCH envelope (single-frame flushes travel raw), and
//     the receive path salvage-decodes exactly like SimNetwork, so the
//     layers above see identical per-message handler callbacks over
//     simulated and real links.
//
// Loss model: UDP is already best-effort; on top of it a socket-level drop
// knob (set_drop_probability) discards outbound datagrams at random — the
// process-level fault injector in scripts/cluster.sh uses it as an
// iptables-style drop without needing privileges.
//
// Threading: single-owner. All methods must be called from the thread that
// runs the event loop; handlers are dispatched synchronously from drain().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace dvs::net {

/// First byte of every datagram; outside both the vsys wire Tag range and
/// the BATCH tag, so stray traffic is rejected before any decode.
inline constexpr std::uint8_t kUdpMagic = 0xDA;
/// Header bytes prepended to every datagram: magic + u32 sender id.
inline constexpr std::size_t kUdpHeaderBytes = 5;

/// A peer's UDP address (IPv4 dotted quad; "127.0.0.1" for localhost
/// clusters).
struct UdpEndpoint {
  std::string host;
  std::uint16_t port = 0;

  friend bool operator==(const UdpEndpoint&, const UdpEndpoint&) = default;
  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

struct UdpConfig {
  /// The one local process this transport serves.
  ProcessId self{};
  /// Local bind address. Port 0 asks the kernel for a free port (tests);
  /// read it back with local_port().
  std::string bind_host = "127.0.0.1";
  std::uint16_t bind_port = 0;
  /// Largest payload one send() may carry (header excluded). Loopback
  /// takes ~64KiB; keep headroom for the header and IP/UDP overhead.
  std::size_t max_datagram = 60 * 1024;
  /// Coalesce same-destination sends between flush() calls into BATCH
  /// envelopes (net/batcher.h) — same framing as the simulator.
  bool batching = true;
  std::size_t batch_max_msgs = 16;
  /// Byte cap per envelope; clamped to max_datagram.
  std::size_t batch_max_bytes = 8192;
  /// Send-side random drop (the fault-injection knob); seeded
  /// deterministically so a dropping run is reproducible.
  double drop_probability = 0.0;
  std::uint64_t drop_seed = 1;
  /// Kernel receive buffer request (SO_RCVBUF); 0 leaves the default.
  int so_rcvbuf = 1 << 20;
};

/// Counters specific to the real-socket path, published as udp.* metrics
/// next to the shared net.* NetStats.
struct UdpStats {
  std::uint64_t sendto_errors = 0;   // sendto() failed (EAGAIN included)
  std::uint64_t recv_errors = 0;     // recvfrom() failed (EAGAIN excluded)
  std::uint64_t dropped_knob = 0;    // outbound drops by the drop knob
  std::uint64_t dropped_unmapped = 0;  // sends to ids with no endpoint
  std::uint64_t bad_header = 0;      // inbound datagrams failing magic/header
  std::uint64_t recv_datagrams = 0;  // well-formed datagrams received
  std::uint64_t recv_bytes = 0;      // payload bytes received (headers off)
  std::uint64_t flushes = 0;         // flush() calls that wrote anything
};

class UdpTransport : public Transport {
 public:
  /// Opens and binds the socket (throws std::runtime_error on failure) and
  /// creates the epoll instance. `processes` is the id universe the layers
  /// above will iterate; peers gain addresses via set_peer.
  UdpTransport(UdpConfig config, ProcessSet processes);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Maps a peer id to its UDP address (self-mapping is allowed and makes
  /// self-sends loop through the real socket like any other message).
  void set_peer(ProcessId p, const UdpEndpoint& ep);

  /// The port the socket actually bound (useful with bind_port = 0).
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  // ----- Transport -----------------------------------------------------------

  /// Only the local process may attach.
  void attach(ProcessId p, Handler handler) override;
  /// `from` must be the local process.
  void send(ProcessId from, ProcessId to, const Bytes& payload) override;
  [[nodiscard]] std::size_t max_datagram_size() const override {
    return config_.max_datagram;
  }
  [[nodiscard]] const NetStats& stats() const override { return stats_; }
  [[nodiscard]] const ProcessSet& processes() const override {
    return processes_;
  }

  // ----- event-loop integration ----------------------------------------------

  /// The epoll fd the owner's loop may wait on (the transport's socket is
  /// already registered; owners add their own fds — dvsd adds its control
  /// socket).
  [[nodiscard]] int epoll_fd() const { return epoll_fd_; }
  /// The raw socket fd (registered in epoll_fd() already).
  [[nodiscard]] int socket_fd() const { return sock_fd_; }

  /// Reads every datagram currently queued on the socket and dispatches the
  /// attached handler per decoded frame. Returns frames dispatched.
  std::size_t drain();

  /// Writes every pending batch to the socket. Call once per loop
  /// iteration after the protocol layers ran (mirrors the simulator's
  /// end-of-instant sweep). With batching on this is the only place a
  /// datagram leaves: a batch that reaches its cap inside send() is closed
  /// and waits here, so an owner that journals before flush() never sends
  /// ahead of its own records.
  void flush();

  /// Convenience loop step: flush pending sends, epoll-wait up to
  /// `timeout_us` for readability, then drain. Returns frames dispatched.
  std::size_t pump(std::uint64_t timeout_us);

  /// The socket-level fault-injection knob.
  void set_drop_probability(double p) { config_.drop_probability = p; }
  [[nodiscard]] double drop_probability() const {
    return config_.drop_probability;
  }

  [[nodiscard]] const UdpConfig& config() const { return config_; }
  [[nodiscard]] const UdpStats& udp_stats() const { return udp_stats_; }

  /// Publishes NetStats as net.* plus UdpStats as udp.* counters.
  void bind_metrics(obs::MetricsRegistry& metrics);

 private:
  struct PendingBatch {
    std::vector<Bytes> frames;
    std::size_t bytes = 0;
  };

  /// Encodes header + envelope and sendto()s one datagram to `to`.
  void transmit(ProcessId to, const std::vector<Bytes>& frames,
                std::size_t frame_bytes);
  void dispatch(const Bytes& datagram);

  UdpConfig config_;
  ProcessSet processes_;
  std::map<ProcessId, UdpEndpoint> peers_;
  Handler handler_;
  Rng drop_rng_;
  int sock_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::map<ProcessId, PendingBatch> pending_;
  /// Batches that reached a cap since the last flush(), in the order they
  /// filled; they leave with the next flush(), never from send().
  std::vector<std::pair<ProcessId, PendingBatch>> closed_;
  // Flush order = first-send order, so runs stay deterministic given a
  // deterministic upper layer.
  std::vector<ProcessId> dirty_;
  NetStats stats_;
  UdpStats udp_stats_;
  Writer wire_writer_;   // reused datagram encoder
  Bytes recv_buf_;       // reused receive buffer
  Bytes frame_scratch_;  // reused per-frame dispatch buffer
};

}  // namespace dvs::net
