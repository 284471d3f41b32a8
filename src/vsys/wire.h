// Wire protocol of the distributed view-synchronous layer (vsys).
//
// One datagram = one protocol message, encoded with common/serialize.h:
//   HEARTBEAT  — failure detection + epoch gossip + delivery ack (for safe)
//   PROPOSE    — coordinator proposes a new view (membership agreement)
//   FLUSH_ACK  — member accepts a proposal and stops old-view activity
//   INSTALL    — coordinator finalizes the view
//   DATA       — member sends a client payload to the view's sequencer
//   SEQ        — sequencer broadcasts the payload with its order number
//   WATERMARK  — a member's delivered/safe counters, sent when a delivery
//                advances them (stability without waiting for a heartbeat)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "common/messages.h"
#include "common/serialize.h"
#include "common/types.h"
#include "common/view.h"

namespace dvs::vsys {

struct Heartbeat {
  std::uint64_t max_epoch = 0;
  /// The sender's current view and contiguously-delivered count in it
  /// (absent when the sender has no view). Drives safe indications.
  std::optional<ViewId> view;
  std::uint64_t delivered = 0;
  /// The sender's safe watermark in its current view (the prefix it has
  /// emitted safe indications for). Feeds the per-member watermark table's
  /// safe column; purely observational for the protocol itself.
  std::uint64_t safe = 0;

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

struct Propose {
  View view;

  friend bool operator==(const Propose&, const Propose&) = default;
};

struct FlushAck {
  ViewId proposed;

  friend bool operator==(const FlushAck&, const FlushAck&) = default;
};

struct Install {
  View view;

  friend bool operator==(const Install&, const Install&) = default;
};

struct Data {
  ViewId view;
  /// Per-(sender, view) send counter, 1-based. The sequencer admits each
  /// sender's stream only in contiguous order and discards from the first
  /// gap onward, so a message lost in flight (e.g. to a short-lived
  /// partition) truncates that sender's stream instead of leaving a FIFO
  /// hole in the view's total order.
  std::uint64_t sender_seq = 0;
  Msg payload;
  /// Watermark piggyback: the sender's delivered and safe counters in
  /// `view` at send time, so stability information travels at data rate
  /// instead of heartbeat rate.
  std::uint64_t wm_delivered = 0;
  std::uint64_t wm_safe = 0;

  friend bool operator==(const Data&, const Data&) = default;
};

struct Seq {
  ViewId view;
  std::uint64_t seqno = 0;  // 1-based position in the view's total order
  ProcessId origin;
  Msg payload;
  /// Watermark piggyback: the issuer's delivered and safe counters at
  /// issue/retransmit time.
  std::uint64_t wm_delivered = 0;
  std::uint64_t wm_safe = 0;

  friend bool operator==(const Seq&, const Seq&) = default;
};

/// A member's watermarks in `view`, published as soon as a delivery
/// advances them (coalesced per event-loop instant) to the members that
/// have not already seen the count on a DATA/SEQ/heartbeat frame. Carries
/// the same counters a heartbeat does; only the timing differs.
struct Watermark {
  ViewId view;
  std::uint64_t delivered = 0;
  std::uint64_t safe = 0;

  friend bool operator==(const Watermark&, const Watermark&) = default;
};

using WireMsg =
    std::variant<Heartbeat, Propose, FlushAck, Install, Data, Seq, Watermark>;

[[nodiscard]] Bytes encode(const WireMsg& m);
/// Appends the encoding to `w` without allocating a fresh buffer — the
/// broadcast hot paths clear() and reuse one Writer per node.
void encode_into(const WireMsg& m, Writer& w);
[[nodiscard]] WireMsg decode(const Bytes& data);
[[nodiscard]] std::string to_string(const WireMsg& m);

// ----- shard-tagged group framing (src/shard) --------------------------------
//
// Many independent VS/DVS/TO columns ("shards") can share one transport.
// On a real wire every datagram is then prefixed with a group frame:
//
//   frame := kGroupFrameTag u8 | varuint group_id | payload bytes
//
// The tag byte sits outside both the vsys Tag range (1..8, with 7
// unassigned) and the BATCH envelope tag (net/batcher.h), so a receiver can
// always tell a group frame from legacy ungrouped traffic and from a
// coalesced envelope. group_id 0 is reserved for the pool-level membership
// group, which travels unframed. shard::GroupMux is the one user, over a
// UdpTransport in dvsd and over a SimNetwork in every sharded (and K=1)
// simulation, so the simulator's truncation faults exercise this decoder
// too.
inline constexpr std::uint8_t kGroupFrameTag = 0x47;  // 'G'

struct GroupFrame {
  std::uint32_t group = 0;
  Bytes payload;
};

/// Appends the group frame for (group, payload) to `w` (reused hot-path
/// writer, same discipline as encode_into).
void encode_group_frame(std::uint32_t group, const Bytes& payload, Writer& w);
/// True iff `data` starts with the group-frame tag byte.
[[nodiscard]] bool looks_like_group_frame(const Bytes& data);
/// Decodes a group frame into `out`, reusing its payload buffer (hot-path
/// demux, allocation-free in steady state); throws DecodeError on anything
/// malformed (wrong tag, truncated varint).
void decode_group_frame(const Bytes& data, GroupFrame& out);

}  // namespace dvs::vsys
