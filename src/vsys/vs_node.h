// Distributed implementation of the VS service (one node per process).
//
// Architecture (coordinator-driven membership + per-view sequencer):
//  * Failure detection — every node broadcasts HEARTBEAT to the whole
//    universe; a process unheard-from for suspect_timeout is suspected.
//  * Membership — when a node's connectivity estimate differs from its
//    installed view and it is the smallest process id in the estimate, it
//    proposes a fresh view ⟨(max_epoch+1, self), estimate⟩. Members accept
//    (FLUSH_ACK) proposals with ids above anything they have installed or
//    acked; once all proposed members ack, the coordinator INSTALLs the
//    view. Aborted proposals (timeout) simply retry later with higher
//    epochs. Concurrent coordinators in different partitions mint distinct
//    ids (the proposer is the tie-breaker), so view ids are globally unique.
//  * Total order within a view — the smallest member is the sequencer:
//    senders unicast DATA to it, it assigns consecutive sequence numbers
//    and multicasts SEQ; members deliver contiguously. Links are FIFO, so
//    per-sender FIFO is preserved.
//  * Safe — each member publishes its contiguously-delivered count and its
//    safe watermark for the current view in a per-member watermark table
//    (SST style); a message is safe at q once the table's delivered
//    minimum reaches it. A member pushes its row when it changes: a
//    delivery schedules one WATERMARK frame for the current instant, sent
//    to each member that has not already seen the count on a DATA/SEQ
//    piggyback or a heartbeat. So a lone message is safe a few link delays
//    after it is sent, not at the next heartbeat; heartbeats remain the
//    fallback that re-carries lost rows. Reconfiguration (the
//    PROPOSE/FLUSH_ACK/INSTALL agreement) uses explicit acks — the
//    watermark table is a within-view optimization only and is reset on
//    install.
//
// Safety matches the VS specification (Figure 1): view ids are unique with
// consistent memberships, installs are monotone per process, messages are
// delivered only in the view they were sent in, every member receives a
// prefix of one per-view total order, and safe indications imply receipt at
// every member. tests/vsys replay recorded traces through the VS acceptor.
//
// Failure models: a *pause* (net::SimNetwork::pause, FaultPlan kCrash)
// silences a node with state intact — in the asynchronous model that is
// indistinguishable from a very slow process. A *restart* (FaultPlan
// kRestart, tosys::Cluster::restart) tears the node down and rebuilds it
// from stable storage: only max_epoch survives (attach_storage journals
// every epoch bump). A restarted node rejoins with no view; the recovered
// epoch doubles as a floor below which Propose/Install are refused, so the
// node can never re-ack a proposal it may have acked in a previous
// incarnation or re-install a stale duplicated view — installs stay
// monotone across incarnations, and every post-restart view id is fresh
// ("incarnation-tagged" by an epoch above everything the crashed
// incarnation saw).
//
// Steady-state allocation discipline: the per-view queues are ring buffers
// and sequence-number windows (common/ring.h) whose slots are recycled, the
// delivered log and the issued-SEQ log garbage-collect the prefix covered
// by the watermark table, and wire encoding reuses one scratch Writer — so
// a stable view's delivery path performs no heap allocation once the rings
// reach their high-water marks (tests/perf/test_alloc_free.cpp holds the
// line).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/messages.h"
#include "common/ring.h"
#include "common/types.h"
#include "common/view.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/wal.h"
#include "vsys/watermarks.h"
#include "vsys/wire.h"

namespace dvs::vsys {

struct VsConfig {
  sim::Time heartbeat_period = 20 * sim::kMillisecond;
  sim::Time suspect_timeout = 100 * sim::kMillisecond;
  sim::Time propose_timeout = 250 * sim::kMillisecond;
  sim::Time propose_cooldown = 50 * sim::kMillisecond;
};

struct VsCallbacks {
  std::function<void(const View&)> on_newview;
  std::function<void(const Msg&, ProcessId from)> on_gprcv;
  std::function<void(const Msg&, ProcessId from)> on_safe;
  /// Observer: fires on every gpsnd call (trace recording); not part of the
  /// service semantics.
  std::function<void(const Msg&)> on_gpsnd;
};

struct VsNodeStats {
  std::uint64_t proposals_started = 0;
  std::uint64_t proposals_aborted = 0;
  /// In-flight proposals discarded because a view at or above the proposed
  /// id was installed first (distinct from timeout aborts).
  std::uint64_t proposals_superseded = 0;
  std::uint64_t views_installed = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t safes_emitted = 0;
  /// Datagrams dropped because they failed to decode (truncated or
  /// corrupted in flight — the network's payload-truncation fault).
  std::uint64_t decode_errors = 0;
  /// Redelivered DATA and SEQ frames discarded by the duplicate-suppression
  /// path.
  std::uint64_t duplicates_suppressed = 0;
  /// Tick retransmissions actually sent (DATA head + SEQ window copies) and
  /// ones skipped because a covering copy was still in flight within the
  /// holdoff — the per-destination cursor win shows as skipped >> sent.
  std::uint64_t retransmits_sent = 0;
  std::uint64_t retransmits_skipped = 0;
  /// Watermark-table rows raised by DATA/SEQ piggybacks and WATERMARK
  /// frames (heartbeat-driven raises are not counted).
  std::uint64_t watermark_updates = 0;
  /// WATERMARK frames sent: at most one per peer per instant in which a
  /// delivery advanced this node's delivered count.
  std::uint64_t watermarks_published = 0;
  /// Issued-SEQ log entries garbage-collected once the table's delivered
  /// minimum covered them (no member can need a retransmission below it).
  std::uint64_t watermark_gc = 0;
};

class VsNode {
 public:
  /// `initial_view` is v0 for members of the initial membership, nullopt
  /// for processes that join later.
  VsNode(ProcessId self, std::optional<View> initial_view,
         net::Transport& net, sim::Simulator& sim, VsConfig config,
         VsCallbacks callbacks);
  ~VsNode();

  /// Replaces the callbacks; must be called before start().
  void set_callbacks(VsCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  /// Attaches to the network and starts the heartbeat/membership timer.
  void start();

  /// Client send (VS-GPSND). Dropped when the node has no view, matching
  /// the specification.
  void gpsnd(const Msg& m);

  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] const std::optional<View>& view() const { return view_; }
  [[nodiscard]] const VsNodeStats& stats() const { return stats_; }
  /// The per-member stability table of the current view (rows indexed by
  /// dense ProcessId). Exposed for tests and metrics.
  [[nodiscard]] const WatermarkTable& watermarks() const { return wm_; }

  /// The node's current connectivity estimate (failure-detector output).
  [[nodiscard]] ProcessSet estimate() const;

  /// Registers a collector that publishes VsNodeStats as
  /// vs.*{process="pN"} counters. Returns the collector id so an owner that
  /// rebuilds the node (crash-restart) can remove the stale collector.
  std::size_t bind_metrics(obs::MetricsRegistry& metrics);

  // ----- durability (crash-restart recovery) -------------------------------

  /// Starts journaling epoch bumps into `store` at `key` (and writes the
  /// current epoch as the baseline snapshot). Call before start().
  void attach_storage(storage::StableStore& store, const std::string& key);

  /// Reinstates a recovered epoch after a crash-restart: max_epoch is
  /// raised to `epoch`, and `epoch` becomes a floor — Propose/Install with
  /// view ids at or below it are refused (see the header comment). Call
  /// before start(), on a node constructed with no initial view.
  void restore_epoch(std::uint64_t epoch);

  /// Replays the epoch journal at `key`; 0 if absent/empty (corrupt tails
  /// are discarded — the clean prefix is enough, appends are max-merges).
  [[nodiscard]] static std::uint64_t recover_epoch(
      const storage::StableStore& store, const std::string& key);

 private:
  void on_datagram(ProcessId from, const Bytes& data);
  void on_tick();

  void handle(const Heartbeat& hb, ProcessId from);
  void handle(const Propose& pr, ProcessId from);
  void handle(const FlushAck& fa, ProcessId from);
  void handle(const Install& in, ProcessId from);
  void handle(const Data& da, ProcessId from);
  void handle(const Seq& sq, ProcessId from);
  void handle(const Watermark& wm, ProcessId from);

  void maybe_propose();
  void install(const View& v);
  /// Rebuilds the watermark table's member rows for the current view.
  void reset_watermarks();
  /// Applies a piggybacked (delivered, safe) pair published by `from` for
  /// `view` (no-op across views).
  void apply_watermarks(ProcessId from, const ViewId& view,
                        std::uint64_t delivered, std::uint64_t safe);
  void issue(const Msg& payload, ProcessId origin, std::uint64_t seqno);
  /// The single duplicate-suppression predicate for redeliverable wire
  /// items (DATA and SEQ): item number `n` is a duplicate when it is at
  /// or below the already-processed watermark, or when it is already
  /// buffered awaiting contiguous delivery (`buffered`). Both redelivery
  /// paths route through here so duplicate injection exercises one tested
  /// code path; a hit is counted in stats().duplicates_suppressed.
  [[nodiscard]] bool suppress_duplicate(std::uint64_t n,
                                        std::uint64_t processed_watermark,
                                        bool buffered = false);
  void try_deliver();
  void try_emit_safe();
  /// Sends a WATERMARK frame with the current counters to every view
  /// member whose wm_published_ record is below delivered_ (run once per
  /// instant, scheduled by try_deliver).
  void publish_watermark();
  /// Index of `q` in the flat per-process arrays (ids are dense).
  [[nodiscard]] std::size_t ix(ProcessId q) const {
    return static_cast<std::size_t>(q.value());
  }
  [[nodiscard]] bool suspected(ProcessId q) const;
  [[nodiscard]] ProcessId sequencer() const;  // min member of current view
  void send_wire(ProcessId to, const WireMsg& m);
  /// Encodes into the node's reused scratch Writer (valid until the next
  /// encode) — unicast sends and broadcasts avoid re-growing a fresh
  /// buffer per message.
  const Bytes& encode_reused(const WireMsg& m);
  void bump_epoch(std::uint64_t epoch);

  ProcessId self_;
  net::Transport& net_;
  sim::Simulator& sim_;
  VsConfig config_;
  VsCallbacks callbacks_;
  sim::PeriodicTimer ticker_;
  Writer wire_writer_;  // scratch buffer for encode_reused

  std::optional<View> view_;
  std::uint64_t max_epoch_ = 0;
  // Recovery floor: view ids with epoch ≤ epoch_floor_ are refused in
  // Propose/Install (0 for fresh nodes — live epochs start at 1).
  std::uint64_t epoch_floor_ = 0;
  std::optional<storage::Wal> wal_;  // epoch journal, when attached
  // Per-process state lives in flat arrays indexed by ProcessId::value()
  // (process ids are dense in practice; the arrays are sized by the largest
  // id in the universe at construction). These are touched on every datagram
  // and every heartbeat, where a std::map's pointer chasing dominated the
  // whole stack's profile.
  static constexpr sim::Time kNeverHeard = ~sim::Time{0};
  std::vector<sim::Time> last_heard_;
  // Last view id each peer reported in a heartbeat (nullopt = peer reported
  // having no view; reported == false = no report yet). Used to detect
  // stuck mixed-view states and trigger reconfiguration.
  struct PeerReport {
    bool reported = false;
    std::optional<ViewId> view;
  };
  std::vector<PeerReport> last_view_of_;

  // Coordinator-side proposal in flight.
  struct Proposal {
    View view;
    ProcessSet acked;
    sim::Time deadline;
  };
  std::optional<Proposal> proposal_;
  std::optional<ViewId> max_acked_;  // highest proposal this node accepted
  sim::Time cooldown_until_ = 0;

  // Per-view ordering state (reset on install). The queues are recycled
  // rings/windows (common/ring.h): clear() parks their slots, so across
  // views and in steady state they stop allocating.
  std::uint64_t data_seq_out_ = 1;  // sender-side per-view DATA counter
  // My sends this view, for head-of-stream retransmission; absolute index
  // n holds my (n+1)-th send, and the admitted prefix is GC'd.
  RingBuffer<Msg> sent_data_;
  std::uint64_t own_acked_ = 0;  // my messages the sequencer admitted
  std::vector<std::uint64_t> expected_data_seq_;  // sequencer role
  std::uint64_t next_seqno_out_ = 1;              // sequencer role
  // SEQs this node issued in the current view (sequencer role), keyed by
  // seqno, for retransmission to lagging members. The prefix below the
  // watermark table's delivered minimum is GC'd.
  SeqWindow<Seq> issued_;
  SeqWindow<std::pair<ProcessId, Msg>> recv_buffer_;
  // Delivered messages in order (absolute index n = seqno n+1); the prefix
  // below safe_emitted_ is GC'd as safes are emitted.
  RingBuffer<std::pair<ProcessId, Msg>> seq_log_;
  std::uint64_t delivered_ = 0;
  std::uint64_t safe_emitted_ = 0;
  // Per-member stability table of the current view (replaces the flat
  // delivered_by_ array + O(members) min scan of the ack-only design).
  WatermarkTable wm_;
  // Per destination: the highest delivered count this node has sent it in
  // the current view, on any frame (DATA, SEQ, heartbeat, WATERMARK). A
  // publish skips destinations that already have the value, so under load
  // the piggybacks do the work. Reset on install.
  std::vector<std::uint64_t> wm_published_;
  bool publish_pending_ = false;
  // Liveness flag for the scheduled publish: the closure checks it, so a
  // destroyed node (crash-restart rebuild) is never called back.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  // The current view's members as a contiguous list (mirrors view_->set()),
  // and their dense row indices for the watermark table.
  std::vector<ProcessId> view_members_;
  std::vector<std::size_t> member_rows_;
  // Per-destination retransmission cursors (reset on install): tick
  // retransmission resends only the suffix past the peer's acked position,
  // and only after kRetransmitHoldoffTicks without progress while a
  // covering copy is in flight. Liveness is preserved: an outstanding
  // suffix is always resent once the holdoff expires, no matter how many
  // copies were lost before, so a peer whose published watermark stalls
  // is re-fed.
  struct RetxCursor {
    std::uint64_t acked = 0;      // peer ack position at the last progress
    std::uint64_t sent_upto = 0;  // highest seqno a sent copy covers
    std::size_t idle_ticks = 0;   // ticks since progress or resend
  };
  std::vector<RetxCursor> seq_retx_;
  std::uint64_t data_retx_acked_ = 0;  // own_acked_ at the last head change
  std::size_t data_retx_idle_ = 0;

  VsNodeStats stats_;
};

}  // namespace dvs::vsys
