#include "vsys/vs_node.h"

#include <algorithm>

#include "common/logging.h"

namespace dvs::vsys {

namespace {

// Tick retransmission holdoff: once a copy covering a peer's missing suffix
// is in flight, wait this many ticks without ack progress before resending
// to that peer. One heartbeat round-trip is about 2 ticks, so this cuts
// redundant retransmissions while acks propagate (E18).
constexpr std::size_t kRetransmitHoldoffTicks = 2;

}  // namespace

VsNode::VsNode(ProcessId self, std::optional<View> initial_view,
               net::Transport& net, sim::Simulator& sim, VsConfig config,
               VsCallbacks callbacks)
    : self_(self),
      net_(net),
      sim_(sim),
      config_(config),
      callbacks_(std::move(callbacks)),
      ticker_(sim, config.heartbeat_period, [this] { on_tick(); }),
      view_(std::move(initial_view)) {
  // Size the flat per-process arrays by the largest id in the universe
  // (ids are dense in practice, so this is ~one slot per process).
  ProcessId::Rep max_id = 0;
  for (ProcessId q : net_.processes()) max_id = std::max(max_id, q.value());
  const std::size_t slots = net_.processes().empty() ? 0 : max_id + 1;
  last_heard_.assign(slots, kNeverHeard);
  last_view_of_.assign(slots, PeerReport{});
  expected_data_seq_.assign(slots, 0);
  wm_.resize(slots);
  seq_retx_.assign(slots, RetxCursor{});
  wm_published_.assign(slots, 0);
  if (view_.has_value()) {
    max_epoch_ = view_->id().epoch();
    view_members_.assign(view_->set().begin(), view_->set().end());
    reset_watermarks();
  }
}

VsNode::~VsNode() { *alive_ = false; }

void VsNode::start() {
  net_.attach(self_, [this](ProcessId from, const Bytes& data) {
    on_datagram(from, data);
  });
  // Assume everyone alive at start so the initial view is not immediately
  // reconfigured away.
  for (ProcessId q : net_.processes()) last_heard_[ix(q)] = sim_.now();
  ticker_.start();
}

void VsNode::gpsnd(const Msg& m) {
  if (callbacks_.on_gpsnd) callbacks_.on_gpsnd(m);
  if (!view_.has_value()) return;  // matches the spec: sends with ⊥ vanish
  ++stats_.msgs_sent;
  sent_data_.push_back(m);
  send_wire(sequencer(),
            Data{view_->id(), data_seq_out_++, m, delivered_, safe_emitted_});
  wm_published_[ix(sequencer())] = delivered_;
}

ProcessSet VsNode::estimate() const {
  ProcessSet est;
  est.insert(self_);
  for (ProcessId q : net_.processes()) {
    if (q != self_ && !suspected(q)) est.insert(q);
  }
  return est;
}

bool VsNode::suspected(ProcessId q) const {
  const sim::Time heard = last_heard_[ix(q)];
  if (heard == kNeverHeard) return true;
  return sim_.now() - heard > config_.suspect_timeout;
}

ProcessId VsNode::sequencer() const { return *view_->set().begin(); }

void VsNode::send_wire(ProcessId to, const WireMsg& m) {
  net_.send(self_, to, encode_reused(m));
}

const Bytes& VsNode::encode_reused(const WireMsg& m) {
  wire_writer_.clear();
  encode_into(m, wire_writer_);
  return wire_writer_.buffer();
}

namespace {
// Epoch journal record type: a u64 epoch, max-merged on replay (so
// duplicate records and snapshot/append interleavings are all idempotent).
constexpr std::uint8_t kEpochRecord = 1;
constexpr std::size_t kEpochCompactEvery = 32;
}  // namespace

void VsNode::bump_epoch(std::uint64_t epoch) {
  if (epoch <= max_epoch_) return;
  max_epoch_ = epoch;
  if (wal_.has_value()) {
    // Write-ahead: the epoch is durable before anything this event does
    // with it (ack, install) reaches the wire — restarts happen at event
    // boundaries, so log+act is atomic anyway, but the ordering keeps the
    // discipline explicit.
    wal_->append(kEpochRecord, [&](Writer& w) { w.u64(max_epoch_); });
    if (wal_->records_since_snapshot() >= kEpochCompactEvery) {
      wal_->snapshot(kEpochRecord, [&](Writer& w) { w.u64(max_epoch_); });
    }
  }
}

void VsNode::attach_storage(storage::StableStore& store,
                            const std::string& key) {
  wal_.emplace(store, key);
  wal_->snapshot(kEpochRecord, [&](Writer& w) { w.u64(max_epoch_); });
}

void VsNode::restore_epoch(std::uint64_t epoch) {
  max_epoch_ = std::max(max_epoch_, epoch);
  epoch_floor_ = epoch;
}

std::uint64_t VsNode::recover_epoch(const storage::StableStore& store,
                                    const std::string& key) {
  std::uint64_t epoch = 0;
  for (const storage::WalRecord& rec : storage::read_wal(store, key).records) {
    if (rec.type != kEpochRecord) continue;
    try {
      Reader r(rec.payload);
      epoch = std::max(epoch, r.u64());
    } catch (const DecodeError&) {
      break;  // treat an undecodable record as the end of the clean prefix
    }
  }
  return epoch;
}

void VsNode::on_datagram(ProcessId from, const Bytes& data) {
  // Receiving bytes is evidence of liveness even when they are garbage.
  last_heard_[ix(from)] = sim_.now();
  // The network may truncate or corrupt payloads in flight; a datagram
  // that does not decode is dropped like a lost message (the sender's
  // retransmission machinery recovers), never a crash.
  WireMsg m;
  try {
    m = decode(data);
  } catch (const DecodeError&) {
    ++stats_.decode_errors;
    return;
  }
  std::visit([&](const auto& inner) { handle(inner, from); }, m);
}

void VsNode::on_tick() {
  Heartbeat hb;
  hb.max_epoch = max_epoch_;
  if (view_.has_value()) {
    hb.view = view_->id();
    hb.delivered = delivered_;
    hb.safe = safe_emitted_;
  }
  const Bytes& payload = encode_reused(WireMsg{hb});
  for (ProcessId q : net_.processes()) {
    if (q == self_) continue;
    net_.send(self_, q, payload);
    wm_published_[ix(q)] = hb.delivered;
  }
  // Within-view reliability: the network may lose messages (short-lived
  // partitions). Every member retransmits the head of its unadmitted DATA
  // stream, and the sequencer resends, to every lagging member, the SEQs it
  // issued in the window the member is missing. The lag signal is
  // the watermark table — stalled rows (a peer whose published watermark
  // stopped advancing, whatever the transport) trip the holdoff cursor and
  // get the suffix re-fed.
  if (view_.has_value()) {
    if (own_acked_ < sent_data_.end_index()) {
      // Head-of-stream DATA retransmission, gated by the holdoff: the
      // original (or previous resend) may still be in flight, so resend
      // only after holdoff ticks without admission progress.
      if (own_acked_ != data_retx_acked_) {
        data_retx_acked_ = own_acked_;
        data_retx_idle_ = 0;
      }
      if (++data_retx_idle_ >= kRetransmitHoldoffTicks) {
        send_wire(sequencer(),
                  Data{view_->id(), own_acked_ + 1,
                       sent_data_.at_abs(own_acked_), delivered_,
                       safe_emitted_});
        wm_published_[ix(sequencer())] = delivered_;
        ++stats_.retransmits_sent;
        data_retx_idle_ = 0;
      } else {
        ++stats_.retransmits_skipped;
      }
    } else {
      data_retx_acked_ = own_acked_;
      data_retx_idle_ = 0;
    }
    if (!issued_.empty()) {
      // Self included: the issuer's own copy of a SEQ travels through the
      // lossy network like everyone else's, so a dropped self-copy must be
      // retransmitted too or the issuer's delivery stream wedges forever.
      for (ProcessId q : view_members_) {
        const std::uint64_t have = wm_.delivered(ix(q));
        RetxCursor& cur = seq_retx_[ix(q)];
        if (have > cur.acked) {
          // The peer advanced since the last look: restart the holdoff, the
          // in-flight copies are doing their job.
          cur.acked = have;
          cur.idle_ticks = 0;
        }
        if (issued_.hi() <= have) {
          // The peer has everything I issued — nothing outstanding.
          cur.idle_ticks = 0;
          continue;
        }
        if (cur.sent_upto > have &&
            ++cur.idle_ticks < kRetransmitHoldoffTicks) {
          ++stats_.retransmits_skipped;
          continue;
        }
        // Resend up to 8 of my issued SEQs above the member's position
        // (the GC'd prefix is below every member's watermark, so the probe
        // window misses only seqnos not issued yet).
        for (std::uint64_t s = have + 1; s <= have + 8; ++s) {
          Seq* sq = issued_.find(s);
          if (sq == nullptr) continue;
          // Refresh the stored piggyback: retransmits carry the issuer's
          // current watermarks, not the ones at first issue.
          sq->wm_delivered = delivered_;
          sq->wm_safe = safe_emitted_;
          send_wire(q, *sq);
          wm_published_[ix(q)] = delivered_;
          cur.sent_upto = std::max(cur.sent_upto, s);
          ++stats_.retransmits_sent;
        }
        cur.idle_ticks = 0;
      }
    }
  }
  // Coordinator duties: abort a stuck proposal, propose when the world has
  // changed.
  if (proposal_.has_value() && sim_.now() >= proposal_->deadline) {
    proposal_.reset();
    ++stats_.proposals_aborted;
    cooldown_until_ = sim_.now() + config_.propose_cooldown;
  }
  maybe_propose();
}

void VsNode::maybe_propose() {
  // Happy state: the view matches connectivity AND every connected peer
  // reports the same view. Checked without building the estimate set (this
  // runs every tick on every node): the view matches connectivity iff each
  // universe process's suspicion status matches its membership.
  if (view_.has_value()) {
    bool matches = true;
    for (ProcessId q : net_.processes()) {
      const bool alive = q == self_ || !suspected(q);
      if (alive != view_->contains(q)) {
        matches = false;
        break;
      }
    }
    if (matches) {
      bool peers_aligned = true;
      for (ProcessId q : view_members_) {
        if (q == self_) continue;
        const PeerReport& rec = last_view_of_[ix(q)];
        if (rec.reported &&
            (!rec.view.has_value() || *rec.view != view_->id())) {
          peers_aligned = false;
          break;
        }
      }
      if (peers_aligned) return;
    }
  }
  // A lost INSTALL can leave peers behind in an older view; only a fresh
  // proposal can unstick them.
  const ProcessSet est = estimate();
  if (est.empty() || *est.begin() != self_) return;      // not coordinator
  if (proposal_.has_value()) return;                     // already in flight
  if (sim_.now() < cooldown_until_) return;
  // A singleton estimate containing only a node that never had a view is
  // not worth forming (nothing to compute with); still allowed — the DVS
  // layer is what decides primariness. Propose it.
  const ViewId id{max_epoch_ + 1, self_};
  bump_epoch(id.epoch());
  View v{id, est};
  proposal_ = Proposal{v, {}, sim_.now() + config_.propose_timeout};
  ++stats_.proposals_started;
  DVS_LOG_DEBUG("vsys", self_.to_string() << " proposes " << v.to_string());
  const Bytes& payload = encode_reused(WireMsg{Propose{v}});
  for (ProcessId q : v.set()) net_.send(self_, q, payload);
}

void VsNode::handle(const Heartbeat& hb, ProcessId from) {
  bump_epoch(hb.max_epoch);
  PeerReport& rec = last_view_of_[ix(from)];
  rec.reported = true;
  rec.view = hb.view;
  if (view_.has_value() && hb.view.has_value() && *hb.view == view_->id()) {
    // Raise the sender's watermark rows. The table's incremental minimum
    // makes the common no-progress heartbeat O(1): only a raise that moved
    // the binding minimum (the frontier) can advance stability.
    const bool advanced = wm_.raise_delivered(ix(from), hb.delivered);
    wm_.raise_safe(ix(from), hb.safe);
    if (advanced) try_emit_safe();
  }
}

void VsNode::handle(const Propose& pr, ProcessId from) {
  bump_epoch(pr.view.id().epoch());
  // Recovery floor: a previous incarnation may have acked a proposal at or
  // below the recovered epoch; never ack in that range again.
  if (pr.view.id().epoch() <= epoch_floor_) return;
  if (!pr.view.contains(self_)) return;
  if (view_.has_value() && !(pr.view.id() > view_->id())) return;
  if (max_acked_.has_value() && !(pr.view.id() > *max_acked_)) return;
  max_acked_ = pr.view.id();
  send_wire(from, FlushAck{pr.view.id()});
}

void VsNode::handle(const FlushAck& fa, ProcessId from) {
  if (!proposal_.has_value() || fa.proposed != proposal_->view.id()) return;
  proposal_->acked.insert(from);
  const ProcessSet& members = proposal_->view.set();
  if (std::includes(proposal_->acked.begin(), proposal_->acked.end(),
                    members.begin(), members.end())) {
    const View v = proposal_->view;
    proposal_.reset();
    cooldown_until_ = sim_.now() + config_.propose_cooldown;
    const Bytes& payload = encode_reused(WireMsg{Install{v}});
    for (ProcessId q : v.set()) net_.send(self_, q, payload);
  }
}

void VsNode::handle(const Install& in, ProcessId /*from*/) {
  bump_epoch(in.view.id().epoch());
  // Recovery floor: with view_ = ⊥ after a restart, a stale duplicated
  // Install from the crashed incarnation's era would otherwise be accepted,
  // breaking install monotonicity across incarnations.
  if (in.view.id().epoch() <= epoch_floor_) return;
  if (!in.view.contains(self_)) return;
  if (view_.has_value() && !(in.view.id() > view_->id())) return;
  install(in.view);
}

void VsNode::reset_watermarks() {
  member_rows_.clear();
  for (ProcessId q : view_members_) member_rows_.push_back(ix(q));
  wm_.reset(member_rows_);
}

void VsNode::install(const View& v) {
  view_ = v;
  view_members_.assign(v.set().begin(), v.set().end());
  data_seq_out_ = 1;
  sent_data_.clear();
  own_acked_ = 0;
  std::fill(expected_data_seq_.begin(), expected_data_seq_.end(), 0);
  next_seqno_out_ = 1;
  issued_.clear();
  recv_buffer_.clear();
  seq_log_.clear();
  delivered_ = 0;
  safe_emitted_ = 0;
  reset_watermarks();
  std::fill(seq_retx_.begin(), seq_retx_.end(), RetxCursor{});
  std::fill(wm_published_.begin(), wm_published_.end(), 0);
  data_retx_acked_ = 0;
  data_retx_idle_ = 0;
  if (proposal_.has_value() && !(proposal_->view.id() > v.id())) {
    proposal_.reset();
    ++stats_.proposals_superseded;
  }
  ++stats_.views_installed;
  DVS_LOG_DEBUG("vsys", self_.to_string() << " installs " << v.to_string());
  if (callbacks_.on_newview) callbacks_.on_newview(v);
}

void VsNode::apply_watermarks(ProcessId from, const ViewId& view,
                              std::uint64_t delivered, std::uint64_t safe) {
  if (!view_.has_value() || view != view_->id()) return;
  const std::size_t row = ix(from);
  const std::uint64_t before = wm_.delivered(row);
  const bool advanced = wm_.raise_delivered(row, delivered);
  wm_.raise_safe(row, safe);
  if (wm_.delivered(row) != before) ++stats_.watermark_updates;
  if (advanced) try_emit_safe();
}

void VsNode::handle(const Data& da, ProcessId from) {
  // Sequencer role: order client payloads of the current view.
  if (!view_.has_value() || da.view != view_->id()) return;
  // Any same-view DATA frame carries the sender's current watermarks, even
  // one that loses the admission race below.
  apply_watermarks(from, da.view, da.wm_delivered, da.wm_safe);
  if (sequencer() != self_) return;
  // Admit each sender's stream contiguously; a gap (lost DATA) permanently
  // truncates that sender's stream in this view, preserving FIFO.
  auto& expected = expected_data_seq_[ix(from)];
  if (expected == 0) expected = 1;
  if (da.sender_seq != expected) {
    // Below the admission watermark = a retransmitted or duplicated DATA;
    // route it through the common suppression predicate so it is counted
    // like every other discarded redelivery. Above = a gap (lost DATA),
    // which permanently truncates the sender's stream — not a duplicate.
    if (da.sender_seq < expected) {
      (void)suppress_duplicate(da.sender_seq, expected - 1);
    }
    return;
  }
  ++expected;
  issue(da.payload, from, next_seqno_out_++);
}

void VsNode::issue(const Msg& payload, ProcessId origin, std::uint64_t seqno) {
  // Build the SEQ in its recycled retransmit-log slot and multicast from
  // there (one copy of the payload, no transient allocation).
  Seq& sq = issued_.insert(seqno);
  sq.view = view_->id();
  sq.seqno = seqno;
  sq.origin = origin;
  sq.payload = payload;
  sq.wm_delivered = delivered_;
  sq.wm_safe = safe_emitted_;
  const Bytes& bytes = encode_reused(WireMsg{sq});
  for (ProcessId q : view_members_) {
    net_.send(self_, q, bytes);
    wm_published_[ix(q)] = delivered_;
    // The fresh multicast copy covers this seqno for every member; the tick
    // retransmitter holds off until the holdoff expires without progress.
    auto& cur = seq_retx_[ix(q)];
    cur.sent_upto = std::max(cur.sent_upto, seqno);
  }
}

void VsNode::handle(const Watermark& wm, ProcessId from) {
  apply_watermarks(from, wm.view, wm.delivered, wm.safe);
}

void VsNode::handle(const Seq& sq, ProcessId from) {
  if (!view_.has_value() || sq.view != view_->id()) return;
  // The frame carries the issuer's watermarks whether or not the SEQ
  // itself is a duplicate.
  apply_watermarks(from, sq.view, sq.wm_delivered, sq.wm_safe);
  if (suppress_duplicate(sq.seqno, delivered_,
                         recv_buffer_.contains(sq.seqno))) {
    return;
  }
  auto& slot = recv_buffer_.insert(sq.seqno);
  slot.first = sq.origin;
  slot.second = sq.payload;
  if (sq.origin == self_) {
    ++own_acked_;
    // The admitted prefix of my send log is never retransmitted again.
    while (sent_data_.base() < own_acked_ && !sent_data_.empty()) {
      sent_data_.pop_front();
    }
  }
  try_deliver();
}

bool VsNode::suppress_duplicate(std::uint64_t n,
                                std::uint64_t processed_watermark,
                                bool buffered) {
  if (n > processed_watermark && !buffered) return false;
  ++stats_.duplicates_suppressed;
  return true;
}

void VsNode::try_deliver() {
  bool delivered_any = false;
  for (auto* slot = recv_buffer_.find(delivered_ + 1); slot != nullptr;
       slot = recv_buffer_.find(delivered_ + 1)) {
    ++delivered_;
    // Move the payload into the log and deliver from there — the delivered
    // message is needed again for safe emission, but not twice. The log
    // slot is recycled (assigned over), not rebuilt.
    auto& entry = seq_log_.append_slot();
    entry.first = slot->first;
    entry.second = std::move(slot->second);
    recv_buffer_.erase(delivered_);
    wm_.raise_delivered(ix(self_), delivered_);
    ++stats_.msgs_delivered;
    if (callbacks_.on_gprcv) {
      callbacks_.on_gprcv(entry.second, entry.first);
    }
    delivered_any = true;
  }
  if (!delivered_any) return;
  // Push the raised row to the peers in this instant, once however many
  // messages this wake delivered (the closure fits SmallCallback inline,
  // so the hot path stays allocation-free).
  if (!publish_pending_) {
    publish_pending_ = true;
    sim_.schedule_after(0, [this, alive = alive_] {
      if (*alive) publish_watermark();
    });
  }
  try_emit_safe();
}

void VsNode::publish_watermark() {
  publish_pending_ = false;
  if (!view_.has_value()) return;
  const Bytes* payload = nullptr;
  for (ProcessId q : view_members_) {
    if (q == self_ || wm_published_[ix(q)] >= delivered_) continue;
    if (payload == nullptr) {
      payload = &encode_reused(
          WireMsg{Watermark{view_->id(), delivered_, safe_emitted_}});
    }
    net_.send(self_, q, *payload);
    wm_published_[ix(q)] = delivered_;
    ++stats_.watermarks_published;
  }
}

std::size_t VsNode::bind_metrics(obs::MetricsRegistry& metrics) {
  const std::string label = "{process=\"" + self_.to_string() + "\"}";
  return metrics.add_collector([this, &metrics, label] {
    metrics.counter("vs.proposals_started" + label)
        .set(stats_.proposals_started);
    metrics.counter("vs.proposals_aborted" + label)
        .set(stats_.proposals_aborted);
    metrics.counter("vs.proposals_superseded" + label)
        .set(stats_.proposals_superseded);
    metrics.counter("vs.views_installed" + label).set(stats_.views_installed);
    metrics.counter("vs.msgs_sent" + label).set(stats_.msgs_sent);
    metrics.counter("vs.msgs_delivered" + label).set(stats_.msgs_delivered);
    metrics.counter("vs.safes_emitted" + label).set(stats_.safes_emitted);
    metrics.counter("vs.decode_errors" + label).set(stats_.decode_errors);
    metrics.counter("vs.duplicates_suppressed" + label)
        .set(stats_.duplicates_suppressed);
    metrics.counter("vs.retransmits_sent" + label)
        .set(stats_.retransmits_sent);
    metrics.counter("vs.retransmits_skipped" + label)
        .set(stats_.retransmits_skipped);
    metrics.counter("vs.watermark_updates" + label)
        .set(stats_.watermark_updates);
    metrics.counter("vs.watermarks_published" + label)
        .set(stats_.watermarks_published);
    metrics.counter("vs.watermark_gc" + label).set(stats_.watermark_gc);
    metrics.counter("vs.watermark_min_delivered" + label)
        .set(wm_.min_delivered());
    metrics.counter("vs.watermark_min_safe" + label).set(wm_.min_safe());
  });
}

void VsNode::try_emit_safe() {
  if (!view_.has_value()) return;
  // Stability = the watermark table's delivered minimum over the view's
  // members (self included — its row is raised in try_deliver).
  const std::uint64_t stable = wm_.min_delivered();
  while (safe_emitted_ < stable) {
    const auto& [origin, payload] = seq_log_.at_abs(safe_emitted_);
    ++safe_emitted_;
    ++stats_.safes_emitted;
    if (callbacks_.on_safe) callbacks_.on_safe(payload, origin);
  }
  // Publish my safe watermark and garbage-collect what stability covers:
  // the delivered log below my safe point (only safe emission reads it)
  // and my issued-SEQ log below every member's delivered row (no member
  // can need those retransmitted again).
  wm_.raise_safe(ix(self_), safe_emitted_);
  while (seq_log_.base() < safe_emitted_ && !seq_log_.empty()) {
    seq_log_.pop_front();
  }
  if (!issued_.empty()) {
    const std::size_t before = issued_.size();
    issued_.erase_below(stable + 1);
    stats_.watermark_gc += before - issued_.size();
  }
}

}  // namespace dvs::vsys
