// Deterministic shard provisioning: which replicas of the shared node pool
// host each of the K shards.
//
// The assignment is a pure function of (pool membership, K, replication
// factor), so every node that agrees on the pool view agrees on the
// provisioning without any extra coordination — exactly how Derecho derives
// subgroup membership from the top-level view. The function is a rotating
// window (round-robin) over the sorted pool members: shard k (1-based)
// takes the r members starting at offset k-1, wrapping around. K=1 with
// full replication therefore provisions the entire pool, which is how a
// K=1 ShardCluster serves as the unsharded simulation.
//
// The pool view itself comes from the pool membership group, one VsNode per
// pool process; build_pool_member makes every one of those nodes, for the
// simulated ShardCluster and for dvsd alike.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"
#include "vsys/vs_node.h"

namespace dvs::shard {

/// One shard's provisioned replica subset. `group` doubles as the wire
/// group_id (vsys::GroupFrame); group 0 is reserved for the pool-level
/// membership group, so shards are numbered 1..K.
struct ShardAssignment {
  std::uint32_t group = 0;
  /// Pool ProcessIds hosting this shard, ascending. Index in this vector is
  /// the replica's shard-local ProcessId (0..r-1).
  std::vector<ProcessId> replicas;

  friend bool operator==(const ShardAssignment&,
                         const ShardAssignment&) = default;
};

/// Round-robin provisioning of `shards` shards over `members`, `replication`
/// replicas each (0 = every member). Throws std::logic_error when shards is
/// 0, members is empty, or replication exceeds the pool.
[[nodiscard]] std::vector<ShardAssignment> provision(
    const ProcessSet& members, std::size_t shards, std::size_t replication);

/// Builds pool process `p`'s node of the pool membership group over `net`
/// (the untagged port of a GroupMux). When `store` holds no epoch journal
/// for p the node starts in pool v0 (all `pool_size` processes); otherwise
/// it is a restarted incarnation that starts with no view and the journaled
/// epoch as its floor, restored before attach_storage rewrites the journal's
/// baseline. A null store means no persistence.
[[nodiscard]] std::unique_ptr<vsys::VsNode> build_pool_member(
    ProcessId p, std::size_t pool_size, net::Transport& net,
    sim::Simulator& sim, const vsys::VsConfig& config,
    vsys::VsCallbacks callbacks, storage::StableStore* store);

/// The epoch journaled for pool member p in `store` (0 when absent).
[[nodiscard]] std::uint64_t pool_member_epoch(
    const storage::StableStore& store, ProcessId p);

}  // namespace dvs::shard
