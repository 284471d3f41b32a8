// Simulated partitionable network.
//
// Point-to-point message transport between processes with per-link delay
// (base + exponential jitter), optional loss, crash/pause injection and a
// partition oracle. Links are FIFO (delivery times are monotone per ordered
// pair, like a TCP stream); connectivity is evaluated both when a message
// is sent and when it is delivered, so messages in flight across a
// partition event are lost — exactly the behaviour a view-synchronous layer
// must tolerate.
//
// Beyond loss, the network injects the classic message anomalies an
// adversarial transport can produce, each behind its own NetConfig knob:
//   * duplication — a message is delivered again, up to max_duplicates
//     extra copies, each with its own delay;
//   * bounded reordering — a message bypasses the link's FIFO clock and may
//     arrive up to reorder_window after its natural slot, overtaken by
//     later sends (models UDP-style reordering; off by default so links
//     stay TCP-like);
//   * payload truncation — the payload is cut to a proper prefix in flight
//     (models a corrupted frame; receivers must treat it as a decode error,
//     never crash).
// The fault knobs can also be flipped mid-run (set_drop_probability /
// set_duplicate_probability), which net::FaultPlan uses to script
// drop-windows and dup-bursts.
//
// Payloads are encoded byte buffers: every protocol above this layer
// serializes its messages (common/serialize.h), keeping the stack honest
// about what crosses the wire. The network has one channel and knows
// nothing of shards: a sharded cluster frames its group tags in band over
// it with shard::GroupMux, exactly as dvsd does over UDP, so pause and
// partition cut every group of a process at once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/types.h"
#include "common/view.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace dvs::net {

struct NetConfig {
  /// Fixed propagation delay per message.
  sim::Time base_delay = 1 * sim::kMillisecond;
  /// Mean of the additional exponential jitter (0 = no jitter).
  double jitter_mean_us = 500.0;
  /// Probability a message is silently dropped (checked at send time).
  double drop_probability = 0.0;
  /// Probability each extra copy of a message is delivered, evaluated up to
  /// max_duplicates times per send (so k extra copies have probability
  /// duplicate_probability^k). Duplicates respect the same FIFO/reorder
  /// rules as the original.
  double duplicate_probability = 0.0;
  /// Hard cap on extra copies per send.
  std::size_t max_duplicates = 1;
  /// Probability a delivery bypasses the link FIFO clock: it is scheduled
  /// at send-time + delay + uniform(0, reorder_window) without consulting
  /// or advancing the per-link monotone clock, so later sends can overtake
  /// it. 0 keeps every link strictly FIFO.
  double reorder_probability = 0.0;
  sim::Time reorder_window = 5 * sim::kMillisecond;
  /// Probability the payload is truncated to a random proper prefix in
  /// flight (delivered corrupted rather than dropped). With batching on the
  /// fault applies to the envelope actually on the wire, so a single
  /// truncation can damage the tail of a whole batch (the receiver salvages
  /// the intact prefix frames — net/batcher.h).
  double truncate_probability = 0.0;

  // ----- WAN topology --------------------------------------------------------
  /// Region of each process, indexed by ProcessId::value() (processes past
  /// the end of the vector live in region 0), and the inter-region one-way
  /// base-delay matrix in simulated microseconds. When `region_delay` is
  /// nonempty it replaces base_delay on every link — the WAN latency matrix
  /// of a workload scenario (src/workload/scenario.h) — and the exponential
  /// jitter still adds on top. The matrix must be square and cover every
  /// assigned region (checked at construction).
  std::vector<std::size_t> process_region;
  std::vector<std::vector<sim::Time>> region_delay;

  // ----- batching ------------------------------------------------------------
  /// Coalesce every message a process sends to the same destination within
  /// one flush window into a single framed BATCH envelope (net/batcher.h),
  /// so delay/jitter/FIFO machinery runs once per envelope instead of once
  /// per logical message. Decoded transparently on delivery: handlers see
  /// the same per-message callbacks either way.
  bool batching = false;
  /// How long a batch stays open after its first message. 0 flushes at the
  /// end of the current simulated instant — same-tick coalescing only,
  /// adding no latency beyond the event queue.
  sim::Time batch_window = 0;
  /// A batch reaching either cap is flushed immediately.
  std::size_t batch_max_msgs = 16;
  std::size_t batch_max_bytes = 8192;

  // ----- payload slab --------------------------------------------------------
  /// In-flight payloads ride in recycled MsgArena slots, so steady-state
  /// traffic stops allocating. Buffer capacity the arena may retain across
  /// releases; bursts beyond it degrade to plain malloc/free (counted, never
  /// refused).
  std::size_t arena_max_retained = 1024;

  friend bool operator==(const NetConfig&, const NetConfig&) = default;
};

// NetStats lives in net/transport.h — it is the stats contract every
// Transport backend shares.

class SimNetwork : public Transport {
 public:
  SimNetwork(sim::Simulator& sim, Rng& rng, NetConfig config,
             ProcessSet processes);

  /// Registers the receive handler for `p`. Must be called before traffic.
  void attach(ProcessId p, Handler handler) override;

  /// Sends a datagram; self-sends are delivered (with delay) too. The bytes
  /// are copied out into a recycled arena slot, so the caller may reuse its
  /// buffer immediately — the broadcast hot paths hand the same scratch
  /// encoding to every destination.
  void send(ProcessId from, ProcessId to, const Bytes& payload) override;

  // ----- fault injection -----------------------------------------------------

  /// Splits connectivity into the given groups; processes in different
  /// groups cannot communicate. Processes not mentioned form an implicit
  /// singleton group each.
  void set_partition(const std::vector<ProcessSet>& groups);

  /// Restores full connectivity. Pauses are untouched: heal() after pause()
  /// reconnects exactly the non-paused links.
  void heal();

  /// Pauses a process: all traffic to and from it is dropped. This is what
  /// FaultPlan's kCrash injects — *pause* semantics: a crash in the
  /// asynchronous sense (indistinguishable from a very slow process), whose
  /// resume() comes back with volatile state intact. A genuine
  /// crash-restart — volatile state lost, the node rebuilt from stable
  /// storage — is the separate kRestart fault, handled above the network
  /// (tosys::Cluster::restart via FaultPlan::ScheduleHooks).
  void pause(ProcessId p);
  void resume(ProcessId p);
  [[nodiscard]] bool paused(ProcessId p) const { return paused_.contains(p); }

  /// Mid-run fault-knob overrides (drop-windows and dup-bursts of a
  /// FaultPlan flip these and restore the previous value afterwards).
  void set_drop_probability(double p) { config_.drop_probability = p; }
  void set_duplicate_probability(double p) {
    config_.duplicate_probability = p;
  }

  /// True iff a and b are currently in the same connectivity component and
  /// neither is paused.
  [[nodiscard]] bool connected(ProcessId a, ProcessId b) const;

  [[nodiscard]] const NetConfig& config() const { return config_; }
  [[nodiscard]] const NetStats& stats() const override { return stats_; }
  [[nodiscard]] const ProcessSet& processes() const override {
    return processes_;
  }
  /// The in-flight payload slab (recycling stats; see common/arena.h).
  [[nodiscard]] const MsgArena& arena() const { return arena_; }

  /// Registers a collector that publishes NetStats as net.* counters plus
  /// net.paused / net.partition_groups gauges. The network must outlive the
  /// registry's last collect().
  void bind_metrics(obs::MetricsRegistry& metrics);

 private:
  // Open batches per (from, to) link; flushed by a scheduled event at the
  // end of the window or synchronously when a cap is hit. Keyed by the
  // packed link id (hot path: one hash lookup per logical send); flushed
  // in-place so the handles vector keeps its capacity across ticks.
  struct PendingBatch {
    // The batch's frames, each in a recycled arena slot (no per-frame
    // allocation).
    std::vector<MsgArena::Handle> handles;
    std::size_t bytes = 0;
    bool flush_scheduled = false;
  };

  [[nodiscard]] int group_of(ProcessId p) const;
  /// WAN region of p per config_.process_region (region 0 when unmapped).
  [[nodiscard]] std::size_t region_of(ProcessId p) const;
  /// Base propagation delay for the (from, to) link: the region matrix when
  /// configured, base_delay otherwise.
  [[nodiscard]] sim::Time link_base_delay(ProcessId from, ProcessId to) const;
  void schedule_delivery(ProcessId from, ProcessId to, const Bytes& payload);
  /// The delivery-time half of schedule_delivery: connectivity re-check,
  /// handler dispatch, envelope salvage.
  void deliver_payload(ProcessId from, ProcessId to, const Bytes& payload);
  void enqueue_batch(ProcessId from, ProcessId to, const Bytes& payload);
  void flush_batch(ProcessId from, ProcessId to);
  void flush_all_batches();

  /// Packed (from, to) key for the O(1) per-send batch lookup.
  static std::uint64_t link_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(from.value()) << 32) |
           static_cast<std::uint64_t>(to.value());
  }

  sim::Simulator& sim_;
  Rng& rng_;
  NetConfig config_;
  ProcessSet processes_;
  std::map<ProcessId, int> partition_group_;  // empty = fully connected
  ProcessSet paused_;
  std::map<ProcessId, Handler> handlers_;
  // FIFO link enforcement: earliest permissible delivery time per link.
  std::map<std::pair<ProcessId, ProcessId>, sim::Time> link_clock_;
  std::unordered_map<std::uint64_t, PendingBatch> pending_;
  // With batch_window == 0 every dirty link is flushed by one end-of-instant
  // sweep event (in first-message order, so runs stay deterministic) instead
  // of one scheduled event per link per instant.
  std::vector<std::pair<ProcessId, ProcessId>> dirty_;
  bool sweep_scheduled_ = false;
  // Reused buffer for handing envelope frames to handlers without a fresh
  // allocation per frame (handlers decode synchronously).
  Bytes frame_scratch_;
  // Reused encoder for multi-frame envelopes and scratch for the rare
  // in-flight truncation mutation.
  Writer batch_writer_;
  Bytes trunc_scratch_;
  NetStats stats_;
  // Recycled in-flight payload slab and the batch frames' store.
  MsgArena arena_;
  // Batch fill (frames per flush, single-frame flushes included), published
  // when batching is on.
  obs::Histogram* batch_fill_ = nullptr;
};

}  // namespace dvs::net
