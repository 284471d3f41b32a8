// Dynamic shard re-provisioning: pool-view-driven column migration.
//
// PR 9 froze the shard→replica map at configuration time, so a pool view
// change stranded every column hosted on a departed process. This module
// makes provisioning follow the *live* pool view: on every pool NEWVIEW the
// installed map is diffed against the pure round-robin assignment recomputed
// from the surviving members (provision.h), and each slot whose host
// departed is migrated onto a joiner by shipping the slot's durable
// journals — the exact bytes Cluster journals per layer (VS epoch floor,
// DVS att/reg knowledge, TO content/order/cursors) — and crash-restarting
// the slot on the new host.
//
// The diff is *slot-stable and minimal*: surviving replicas keep their
// slots (local ProcessIds, journal keys, trace identities) untouched, and
// only departed slots move. The joiner for each departed slot is chosen
// deterministically from the recomputed round-robin target, so every node
// that agrees on the pool view agrees on the whole migration plan without
// coordination (the Derecho discipline, extended with the reconfiguration
// state transfer of Alchieri et al. and the sequencer-driven handoff of
// vertical atomic broadcast).
//
// Cutover atomicity: a migration episode stages the copied journals under
// scratch keys, commits a marker, and only then installs them at the
// joiner's live keys and restarts the column node. A crash before the
// marker rolls back (the staging bytes are ignored and the move is
// re-planned from the next pool view); a crash after it rolls forward (the
// install is idempotent). The oracle hears the move as CRASH (the departed
// incarnation) followed by HANDOFF(next) (the joiner adopting the
// survivors' delivered prefix) — see spec::EvHandoff. The episode is one
// set of functions (run_episode / recover_episode below) that the simulated
// ShardCluster and the real-transport daemon both call; only the volatile
// cutover differs between them.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "common/view.h"
#include "shard/provision.h"
#include "storage/stable_store.h"

namespace dvs::shard {

// ----- assignment diff -------------------------------------------------------

/// One slot of one column moving between pool processes.
struct SlotMove {
  ProcessId slot;  // shard-local id (index into ShardAssignment::replicas)
  ProcessId from;  // departed pool process
  ProcessId to;    // joining pool process (⊆ live view)

  friend bool operator==(const SlotMove&, const SlotMove&) = default;
};

/// All moves of one column, plus the surviving slot whose journals seed the
/// joiners (the lowest-pool-id survivor: every agreeing node picks the same
/// source without coordination).
struct GroupMigration {
  std::uint32_t group = 0;
  ProcessId source_slot;  // shard-local id of the donor replica
  std::vector<SlotMove> moves;

  friend bool operator==(const GroupMigration&,
                         const GroupMigration&) = default;
};

struct ReprovisionPlan {
  std::vector<GroupMigration> migrations;  // ascending group
  /// Departed slots left unfilled this round (no live candidate — the pool
  /// shrank below the replication factor). Re-planned on the next view.
  std::size_t stalled = 0;
  /// Columns with every replica departed: no survivor holds the state, so
  /// nothing can migrate until a host returns (its on-disk journals rejoin
  /// through the ordinary crash-restart path).
  std::size_t lost = 0;

  [[nodiscard]] bool empty() const {
    return migrations.empty() && stalled == 0 && lost == 0;
  }
};

/// Diffs the installed assignment against the round-robin target recomputed
/// from `live` (replication clamped to the live pool). Pure: same inputs →
/// same plan on every node. Slots whose host is in `live` never move;
/// departed slots are paired, in slot order, with the target's fresh
/// candidates in ascending pool order.
[[nodiscard]] ReprovisionPlan plan_reprovision(
    const std::vector<ShardAssignment>& installed, const ProcessSet& live);

/// Applies a plan to an installed map (pure). Patched replica lists may be
/// non-ascending — slot order is identity, not pool order, after the first
/// migration.
[[nodiscard]] std::vector<ShardAssignment> apply_plan(
    std::vector<ShardAssignment> installed, const ReprovisionPlan& plan);

// ----- transfer frames (0x48) ------------------------------------------------
//
// Real-transport state shipping: a joiner asks a survivor for a slot's
// journals (REQ) and the survivor streams them back in chunks (SNAP), all
// through the pool's GroupMux under a dedicated tag byte that can never
// collide with vsys::GroupFrame (0x47) or any bare protocol frame.

constexpr std::uint8_t kTransferTag = 0x48;
constexpr std::uint8_t kTransferVersion = 2;  // v2 added the episode nonce

enum class TransferKind : std::uint8_t {
  kRequest = 1,   // joiner → survivor: send me (group, slot)'s snapshot
  kSnapshot = 2,  // survivor → joiner: one chunk of the encoded snapshot
};

struct TransferFrame {
  TransferKind kind = TransferKind::kRequest;
  std::uint32_t group = 0;
  std::uint32_t slot = 0;  // shard-local id being re-provisioned
  /// Request nonce: the joiner stamps every kRequest with a fresh,
  /// monotonically increasing episode and the donor echoes it into every
  /// chunk of its answer. The joiner retries requests on a timer while the
  /// donor keeps serving writes, so two answers can carry legitimately
  /// different chunk counts AND different content — without the nonce their
  /// chunks interleave into a decodable but internally inconsistent
  /// snapshot. SnapshotAssembler only ever assembles one episode.
  std::uint32_t episode = 0;
  std::uint32_t seq = 0;    // chunk index (kSnapshot; 0 for kRequest)
  std::uint32_t total = 0;  // chunk count (kSnapshot; 0 for kRequest)
  Bytes payload;            // chunk bytes (kSnapshot only)

  friend bool operator==(const TransferFrame&, const TransferFrame&) = default;
};

[[nodiscard]] Bytes encode_transfer(const TransferFrame& f);
/// Cheap structural sniff (tag + version), mirroring
/// vsys::looks_like_group_frame.
[[nodiscard]] bool looks_like_transfer_frame(const Bytes& payload);
/// Throws DecodeError on malformed input.
[[nodiscard]] TransferFrame decode_transfer(const Bytes& payload);

// ----- slot snapshots --------------------------------------------------------

/// The durable state of one column slot, as raw journal bytes: exactly what
/// a tosys::ProcessColumn journals at storage keys "p<slot>/{vs,dvs,to}" and
/// what its recovering constructor consumes. Shipping bytes (not decoded
/// state) keeps the transfer honest about what survives a crash and reuses
/// the journal encodings without a parallel codec.
struct SlotSnapshot {
  Bytes vs;   // epoch-floor journal (may be empty: never written)
  Bytes dvs;  // att/reg journal
  Bytes to;   // content/order/cursor journal
  /// The donor's next-delivery cursor at snapshot time — the HANDOFF(next)
  /// the joiner's new incarnation reports to the oracle.
  std::uint64_t next = 1;

  friend bool operator==(const SlotSnapshot&, const SlotSnapshot&) = default;
};

[[nodiscard]] Bytes encode_snapshot(const SlotSnapshot& s);
[[nodiscard]] SlotSnapshot decode_snapshot(const Bytes& payload);

/// Splits an encoded snapshot into kSnapshot frames of at most `max_chunk`
/// payload bytes (≥1 frame even when empty, so the joiner always gets a
/// terminating total). `episode` is the request nonce being answered —
/// every chunk echoes it.
[[nodiscard]] std::vector<TransferFrame> chunk_snapshot(
    std::uint32_t group, std::uint32_t slot, std::uint32_t episode,
    const Bytes& encoded, std::size_t max_chunk);

/// Reassembles the chunks of ONE episode (any arrival order, duplicates
/// ignored); returns the payload once every seq in [0, total) is present,
/// nullopt-style via the bool. Frames older than the episode in progress
/// are dropped; a frame from a NEWER episode discards the partial assembly
/// and starts over — so an assembly only ever mixes chunks of a single
/// donor answer. Used by the daemon's transfer client.
class SnapshotAssembler {
 public:
  /// Returns true when the snapshot just became complete.
  bool add(const TransferFrame& f);
  /// Quarantines everything below `episode`: clears any partial assembly
  /// and drops future frames with a smaller nonce. Used after a failed
  /// install so duplicates of the poisoned episode can never re-complete.
  void expect(std::uint32_t episode);
  [[nodiscard]] bool complete() const {
    return total_ != 0 && have_ == total_;
  }
  [[nodiscard]] Bytes take();

 private:
  void reset(std::uint32_t episode);

  std::vector<Bytes> chunks_;
  std::vector<bool> seen_;  // empty chunks are legal, so presence is explicit
  std::uint32_t episode_ = 0;  // episode being assembled (floor for frames)
  std::uint32_t total_ = 0;
  std::uint32_t have_ = 0;
};

// ----- the migration episode -------------------------------------------------
//
// One slot's cutover, against the column's own stable store:
//
//   snapshot (donor) → stage vs/dvs/to → commit marker → install vs/dvs/to
//   → cutover (the host's volatile rebuild) → clear marker → drop staging
//
// The marker is the commit point. Before it, a crash rolls back: the staged
// bytes are scratch and the move is re-planned from the next pool view.
// After it, a crash rolls forward: recover_episode re-runs install →
// cutover → clear, all idempotent. Clearing the marker ends the episode;
// the staged copies are then scratch again and are dropped.

/// The commit marker: the slot's new host and the donor's delivery cursor,
/// which the new incarnation reports as HANDOFF(next).
///
///   marker := process_id(to) | varuint(next)
struct MigrationMarker {
  ProcessId to;
  std::uint64_t next = 1;

  friend bool operator==(const MigrationMarker&,
                         const MigrationMarker&) = default;
};

[[nodiscard]] Bytes encode_marker(const MigrationMarker& m);
/// Throws DecodeError on malformed input.
[[nodiscard]] MigrationMarker decode_marker(const Bytes& bytes);

/// Staging namespace of an episode inside a column's store: the snapshot is
/// staged at leaves "vs"/"dvs"/"to" and the commit marker lives at "meta"
/// (all four empty once an episode finishes).
[[nodiscard]] std::string transfer_stage_key(ProcessId slot,
                                             const char* leaf);

/// What a host supplies to an episode.
struct EpisodeHooks {
  /// The volatile cutover, once the journals are installed at the slot's
  /// live keys: re-point the slot at marker.to, rebuild its column from the
  /// installed journals, and record HANDOFF(marker.next).
  std::function<void(const MigrationMarker&)> cutover;
  /// Runs before every persistence step and before the cutover; crash-point
  /// sweeps throw MigrationCrash from it. May be empty.
  std::function<void()> barrier;
};

/// Donor side: the slot's live journals and its delivery cursor.
[[nodiscard]] SlotSnapshot snapshot_slot(const storage::StableStore& store,
                                         ProcessId slot, std::uint64_t next);

/// Joiner side: stages `snap`, commits the marker {to, snap.next}, installs
/// the staged journals, cuts over, clears the marker and drops the staging.
void run_episode(storage::StableStore& store, ProcessId slot, ProcessId to,
                 const SlotSnapshot& snap, const EpisodeHooks& hooks);

/// Startup roll-forward: when `slot`'s marker is committed, finishes the
/// episode (install → cutover → clear) and returns true; otherwise the
/// episode rolled back and nothing happens.
bool recover_episode(storage::StableStore& store, ProcessId slot,
                     const EpisodeHooks& hooks);

// ----- crash-point injection -------------------------------------------------

/// Thrown by a migration episode when a test-installed crash hook fires at
/// one of the episode's persistence barriers; the harness then simulates a
/// process crash and drives recovery (recover_episode).
struct MigrationCrash : std::runtime_error {
  explicit MigrationCrash(std::size_t barrier)
      : std::runtime_error("migration crash injected at barrier " +
                           std::to_string(barrier)),
        barrier_index(barrier) {}
  std::size_t barrier_index;
};

}  // namespace dvs::shard
