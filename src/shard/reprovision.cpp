#include "shard/reprovision.h"

#include <algorithm>

#include "tosys/process_column.h"

namespace dvs::shard {

ReprovisionPlan plan_reprovision(
    const std::vector<ShardAssignment>& installed, const ProcessSet& live) {
  ReprovisionPlan plan;
  if (installed.empty()) return plan;
  if (live.empty()) {
    // Nobody survives: every column with state is unreachable until a host
    // returns through the ordinary crash-restart path.
    plan.lost = installed.size();
    return plan;
  }
  const std::size_t r_installed = installed.front().replicas.size();
  const std::size_t r = std::min(r_installed, live.size());
  // The agreed-upon target: the same pure function the initial provisioning
  // used, re-evaluated over the survivors. Only *which processes* join comes
  // from here — surviving slots never move (slot-stable minimal diff).
  const std::vector<ShardAssignment> target =
      provision(live, installed.size(), r);
  for (const ShardAssignment& a : installed) {
    std::vector<std::size_t> departed;
    for (std::size_t i = 0; i < a.replicas.size(); ++i) {
      if (!live.contains(a.replicas[i])) departed.push_back(i);
    }
    if (departed.empty()) continue;
    if (departed.size() == a.replicas.size()) {
      ++plan.lost;
      continue;
    }
    // Donor: the surviving slot with the lowest pool id — every node that
    // agrees on the pool view picks the same one without coordination.
    std::size_t src = a.replicas.size();
    for (std::size_t i = 0; i < a.replicas.size(); ++i) {
      if (!live.contains(a.replicas[i])) continue;
      if (src == a.replicas.size() || a.replicas[i] < a.replicas[src]) {
        src = i;
      }
    }
    // Fresh candidates: target members not already hosting this column,
    // ascending (provision sorts). Departed processes can never reappear
    // here (target ⊆ live).
    std::vector<ProcessId> cands;
    for (ProcessId c : target[a.group - 1].replicas) {
      if (std::find(a.replicas.begin(), a.replicas.end(), c) ==
          a.replicas.end()) {
        cands.push_back(c);
      }
    }
    GroupMigration gm;
    gm.group = a.group;
    gm.source_slot = ProcessId(static_cast<std::uint32_t>(src));
    std::size_t j = 0;
    for (std::size_t i : departed) {
      if (j >= cands.size()) {
        ++plan.stalled;  // pool below replication: refill on a later view
        continue;
      }
      gm.moves.push_back(SlotMove{ProcessId(static_cast<std::uint32_t>(i)),
                                  a.replicas[i], cands[j++]});
    }
    if (!gm.moves.empty()) plan.migrations.push_back(std::move(gm));
  }
  return plan;
}

std::vector<ShardAssignment> apply_plan(std::vector<ShardAssignment> installed,
                                        const ReprovisionPlan& plan) {
  for (const GroupMigration& gm : plan.migrations) {
    for (const SlotMove& m : gm.moves) {
      installed.at(gm.group - 1).replicas.at(m.slot.value()) = m.to;
    }
  }
  return installed;
}

// ----- transfer frames -------------------------------------------------------

Bytes encode_transfer(const TransferFrame& f) {
  Writer w;
  w.u8(kTransferTag);
  w.u8(kTransferVersion);
  w.u8(static_cast<std::uint8_t>(f.kind));
  w.varuint(f.group);
  w.varuint(f.slot);
  w.varuint(f.episode);
  w.varuint(f.seq);
  w.varuint(f.total);
  w.bytes_field(f.payload);
  return w.take();
}

bool looks_like_transfer_frame(const Bytes& payload) {
  return payload.size() >= 2 &&
         static_cast<std::uint8_t>(payload[0]) == kTransferTag &&
         static_cast<std::uint8_t>(payload[1]) == kTransferVersion;
}

TransferFrame decode_transfer(const Bytes& payload) {
  Reader r(payload);
  if (r.u8() != kTransferTag) throw DecodeError("transfer: bad tag");
  if (r.u8() != kTransferVersion) throw DecodeError("transfer: bad version");
  TransferFrame f;
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(TransferKind::kRequest) &&
      kind != static_cast<std::uint8_t>(TransferKind::kSnapshot)) {
    throw DecodeError("transfer: unknown kind " + std::to_string(kind));
  }
  f.kind = static_cast<TransferKind>(kind);
  f.group = static_cast<std::uint32_t>(r.varuint());
  f.slot = static_cast<std::uint32_t>(r.varuint());
  f.episode = static_cast<std::uint32_t>(r.varuint());
  f.seq = static_cast<std::uint32_t>(r.varuint());
  f.total = static_cast<std::uint32_t>(r.varuint());
  f.payload = r.bytes_field();
  r.expect_exhausted();
  if (f.kind == TransferKind::kSnapshot) {
    if (f.total == 0) throw DecodeError("transfer: snapshot with zero total");
    if (f.seq >= f.total) throw DecodeError("transfer: seq beyond total");
  }
  return f;
}

// ----- slot snapshots --------------------------------------------------------

Bytes encode_snapshot(const SlotSnapshot& s) {
  Writer w;
  w.bytes_field(s.vs);
  w.bytes_field(s.dvs);
  w.bytes_field(s.to);
  w.varuint(s.next);
  return w.take();
}

SlotSnapshot decode_snapshot(const Bytes& payload) {
  Reader r(payload);
  SlotSnapshot s;
  s.vs = r.bytes_field();
  s.dvs = r.bytes_field();
  s.to = r.bytes_field();
  s.next = r.varuint();
  r.expect_exhausted();
  return s;
}

std::vector<TransferFrame> chunk_snapshot(std::uint32_t group,
                                          std::uint32_t slot,
                                          std::uint32_t episode,
                                          const Bytes& encoded,
                                          std::size_t max_chunk) {
  if (max_chunk == 0) max_chunk = 1;
  const std::uint32_t total = static_cast<std::uint32_t>(
      encoded.empty() ? 1 : (encoded.size() + max_chunk - 1) / max_chunk);
  std::vector<TransferFrame> out;
  out.reserve(total);
  for (std::uint32_t seq = 0; seq < total; ++seq) {
    TransferFrame f;
    f.kind = TransferKind::kSnapshot;
    f.group = group;
    f.slot = slot;
    f.episode = episode;
    f.seq = seq;
    f.total = total;
    const std::size_t begin = static_cast<std::size_t>(seq) * max_chunk;
    const std::size_t end = std::min(encoded.size(), begin + max_chunk);
    f.payload.assign(encoded.begin() + static_cast<std::ptrdiff_t>(begin),
                     encoded.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(std::move(f));
  }
  return out;
}

bool SnapshotAssembler::add(const TransferFrame& f) {
  if (f.kind != TransferKind::kSnapshot || f.total == 0) return false;
  if (f.episode < episode_) return false;  // stale episode: never mix it in
  if (f.episode > episode_ || total_ == 0) {
    // First frame of a newer episode: whatever was partially assembled came
    // from an answer that is now superseded — discard it wholesale.
    reset(f.episode);
    total_ = f.total;
    chunks_.assign(total_, {});
    seen_.assign(total_, false);
  }
  // Same episode, inconsistent geometry: an honest donor sends one answer
  // per episode, so this is corruption — drop the frame.
  if (f.total != total_ || f.seq >= total_) return false;
  if (seen_[f.seq]) return false;  // duplicate
  seen_[f.seq] = true;
  chunks_[f.seq] = f.payload;
  ++have_;
  return complete();
}

void SnapshotAssembler::expect(std::uint32_t episode) {
  if (episode > episode_) reset(episode);
}

void SnapshotAssembler::reset(std::uint32_t episode) {
  episode_ = episode;
  chunks_.clear();
  seen_.clear();
  total_ = 0;
  have_ = 0;
}

Bytes SnapshotAssembler::take() {
  Bytes out;
  std::size_t n = 0;
  for (const Bytes& c : chunks_) n += c.size();
  out.reserve(n);
  for (const Bytes& c : chunks_) out.insert(out.end(), c.begin(), c.end());
  // The floor moves PAST the episode just taken: duplicates of its chunks
  // must not start a second assembly of the same answer.
  reset(episode_ + 1);
  return out;
}

// ----- the migration episode -------------------------------------------------

Bytes encode_marker(const MigrationMarker& m) {
  Writer w;
  w.process_id(m.to);
  w.varuint(m.next);
  return w.take();
}

MigrationMarker decode_marker(const Bytes& bytes) {
  Reader r(bytes);
  MigrationMarker m;
  m.to = r.process_id();
  m.next = r.varuint();
  r.expect_exhausted();
  return m;
}

std::string transfer_stage_key(ProcessId slot, const char* leaf) {
  return "xfer/" + slot.to_string() + "/" + leaf;
}

namespace {

constexpr const char* kLayers[] = {"vs", "dvs", "to"};

Bytes load_or_empty(const storage::StableStore& store, const std::string& key) {
  std::optional<Bytes> v = store.load(key);
  return v.has_value() ? std::move(*v) : Bytes{};
}

void barrier(const EpisodeHooks& hooks) {
  if (hooks.barrier) hooks.barrier();
}

/// install → cutover → clear: the roll-forward half, idempotent. All three
/// journals are written unconditionally, so a stale journal from an earlier
/// incarnation of this slot on this host can never leak into the adopted
/// state.
void finish_episode(storage::StableStore& store, ProcessId slot,
                    const MigrationMarker& marker, const EpisodeHooks& hooks) {
  for (const char* layer : kLayers) {
    barrier(hooks);
    store.replace(tosys::ProcessColumn::storage_key(slot, layer),
                  load_or_empty(store, transfer_stage_key(slot, layer)));
  }
  barrier(hooks);
  hooks.cutover(marker);
  barrier(hooks);
  store.replace(transfer_stage_key(slot, "meta"), Bytes{});
  // Recovery reads the staged copies only under a marker, so they are
  // scratch now; drop them rather than keep a second copy of the slot.
  for (const char* layer : kLayers) {
    store.replace(transfer_stage_key(slot, layer), Bytes{});
  }
}

}  // namespace

SlotSnapshot snapshot_slot(const storage::StableStore& store, ProcessId slot,
                           std::uint64_t next) {
  SlotSnapshot snap;
  snap.vs = load_or_empty(store, tosys::ProcessColumn::storage_key(slot, "vs"));
  snap.dvs =
      load_or_empty(store, tosys::ProcessColumn::storage_key(slot, "dvs"));
  snap.to = load_or_empty(store, tosys::ProcessColumn::storage_key(slot, "to"));
  snap.next = next;
  return snap;
}

void run_episode(storage::StableStore& store, ProcessId slot, ProcessId to,
                 const SlotSnapshot& snap, const EpisodeHooks& hooks) {
  barrier(hooks);
  store.replace(transfer_stage_key(slot, "vs"), snap.vs);
  barrier(hooks);
  store.replace(transfer_stage_key(slot, "dvs"), snap.dvs);
  barrier(hooks);
  store.replace(transfer_stage_key(slot, "to"), snap.to);
  const MigrationMarker marker{to, snap.next};
  barrier(hooks);
  store.replace(transfer_stage_key(slot, "meta"), encode_marker(marker));
  finish_episode(store, slot, marker, hooks);
}

bool recover_episode(storage::StableStore& store, ProcessId slot,
                     const EpisodeHooks& hooks) {
  const std::optional<Bytes> meta =
      store.load(transfer_stage_key(slot, "meta"));
  if (!meta.has_value() || meta->empty()) return false;
  finish_episode(store, slot, decode_marker(*meta), hooks);
  return true;
}

}  // namespace dvs::shard
