// Transport: the point-to-point datagram service every protocol layer
// sends through.
//
// Two conforming backends exist:
//   * net::SimNetwork — the deterministic in-process simulator (delay,
//     jitter, loss, partitions, duplication, reordering, truncation), used
//     by every verification harness;
//   * net::UdpTransport — real non-blocking UDP sockets between OS
//     processes (src/net/udp_transport.h), used by the dvsd daemon.
// tests/net/test_transport_conformance.cpp runs the same contract suite
// against both, so protocol code written against this interface behaves
// identically over simulated and real links.
//
// Semantics every backend must provide:
//   * datagram, not stream: one send() is delivered (if at all) as one
//     handler invocation with an identical byte payload;
//   * best effort: messages may be dropped, duplicated or reordered — the
//     layers above already tolerate all three (the simulator injects them
//     deliberately, real UDP produces them for free);
//   * self-sends are delivered like any other message;
//   * payloads up to max_datagram_size() are never refused for size;
//     larger sends are dropped (counted in stats().dropped_oversize),
//     never truncated and never an exception.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

#include "common/serialize.h"
#include "common/types.h"
#include "common/view.h"

namespace dvs::net {

struct NetStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_crash = 0;
  /// Sends refused because the payload exceeded max_datagram_size().
  std::uint64_t dropped_oversize = 0;
  std::uint64_t bytes_sent = 0;
  /// Extra copies scheduled by duplication (each may still be lost to an
  /// in-flight partition like any other delivery).
  std::uint64_t duplicated = 0;
  /// Deliveries that bypassed the link FIFO clock.
  std::uint64_t reordered = 0;
  /// Payloads truncated in flight.
  std::uint64_t truncated = 0;
  /// Datagrams actually put on the wire (BATCH envelopes when batching;
  /// equals the per-copy schedule count otherwise) and their payload bytes.
  /// `sent`/`bytes_sent` keep logical-message semantics in both modes, so
  /// datagrams/wire_bytes vs sent/bytes_sent is the batching win.
  std::uint64_t datagrams = 0;
  std::uint64_t wire_bytes = 0;
  /// Batching: multi-frame BATCH envelopes put on the wire and the logical
  /// frames carried inside them (single-frame flushes travel as the raw
  /// frame and count in neither), batches closed by the count/byte caps,
  /// and damaged envelopes the receiver had to salvage frame-by-frame.
  std::uint64_t batches = 0;
  std::uint64_t batched_msgs = 0;
  std::uint64_t batch_cap_flushes = 0;
  std::uint64_t batch_salvaged = 0;
};

class Transport {
 public:
  using Handler = std::function<void(ProcessId from, const Bytes& payload)>;

  virtual ~Transport() = default;

  /// Registers the receive handler for `p`. Must be called before traffic.
  /// Re-attaching replaces the handler (crash-restart rebuilds do this).
  virtual void attach(ProcessId p, Handler handler) = 0;

  /// Sends one datagram; the bytes are copied out, so the caller may reuse
  /// its buffer immediately.
  virtual void send(ProcessId from, ProcessId to, const Bytes& payload) = 0;

  /// Sends to every process in `targets` (including `from` if present).
  virtual void multicast(ProcessId from, const ProcessSet& targets,
                         const Bytes& payload) {
    for (ProcessId q : targets) send(from, q, payload);
  }

  /// Largest payload one send() may carry. The simulator is unbounded
  /// (size_t max); UDP backends report their socket/framing limit.
  [[nodiscard]] virtual std::size_t max_datagram_size() const {
    return std::numeric_limits<std::size_t>::max();
  }

  [[nodiscard]] virtual const NetStats& stats() const = 0;

  /// The universe of process ids this transport can address.
  [[nodiscard]] virtual const ProcessSet& processes() const = 0;
};

}  // namespace dvs::net
