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
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/view.h"

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

}  // namespace dvs::shard
