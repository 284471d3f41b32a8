// ShardCluster: K independent DVS/TO shards multiplexed over ONE shared
// node pool, ONE simulator and ONE simulated network.
//
// Topology (the Derecho-style subgroup pattern):
//   * one shard::GroupMux over the network, exactly as a sharded dvsd runs
//     one over its UDP socket: every datagram is group-framed in band, and
//     the simulator's faults (truncation included) hit the same framing,
//     demux and id translation real deployments use;
//   * a top-level VS group — one vsys::VsNode per pool process on the mux's
//     untagged port (shard::build_pool_member) — tracks the node pool itself
//     and feeds the ShardRouter's contact resolution;
//   * a deterministic provisioning function (shard::provision, round-robin
//     over the pool) assigns each shard a replica subset;
//   * each shard is a full tosys::Cluster (VsNode→DvsNode→ToNode columns,
//     conformance oracle, metrics, persistence) running over a
//     GroupMux::Port — shard-local ids 0..r-1 on wire group k.
// Because every shard column carries its own spec::TraceRecorder, VS/DVS/TO
// acceptance and Invariants 4.1/4.2 are checked independently per group_id,
// and a violation names its shard.
//
// K=1 with full replication is the unsharded simulation: one column plus
// the pool membership group. All traffic draws from one network Rng, so a
// run is a pure function of (config, seed) — byte-identical at any sweep
// --jobs — but a shard's fault draws depend on its siblings' and the pool's
// traffic, as they would on a real wire.
//
// Reconfiguration isolation (tests/shard/test_shard_isolation): faults are
// injected per pool process on the shared network; a shard whose replicas
// are untouched shares nothing with the wounded shard but the event queue
// and the wire, so its commits proceed while the sibling reconfigures.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/labels.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/view.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "shard/group_mux.h"
#include "shard/provision.h"
#include "shard/reprovision.h"
#include "shard/router.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"
#include "tosys/cluster.h"
#include "vsys/vs_node.h"

namespace dvs::shard {

struct ShardClusterConfig {
  /// Number of shards K (wire groups 1..K).
  std::size_t shards = 1;
  /// Replicas per shard (0 = every pool member hosts every shard).
  std::size_t replication = 0;
  /// Dynamic re-provisioning (shard/reprovision.h): on every pool VS
  /// NEWVIEW, diff the installed shard→replica map against the round-robin
  /// target recomputed from the surviving members and migrate each departed
  /// slot onto a joiner by shipping the donor's journals and
  /// crash-restarting the slot there. Requires base.persistence (journals
  /// are the transferable state). With a stable pool the diff is empty on
  /// every view, so dynamic mode is byte-inert — pinned by
  /// tests/shard/test_reprovision.cpp's differential.
  bool dynamic = false;
  /// Template for the pool and every shard column: n_processes is the POOL
  /// size; net/vs/to/persistence/observability knobs apply to each shard
  /// column (and base.net to the shared network). initial_members counts
  /// the initial members of each column's local universe (clamped to the
  /// column; the pool group always starts whole). base.sim/base.transport
  /// must be null — the pool owns both.
  tosys::ClusterConfig base;
};

/// The one shard-metrics rollup (ShardCluster::metrics_snapshot and dvsd's
/// `stats` verb): adds shard `group`'s snapshot into `pool`. Counters,
/// gauges and histograms sum under their bare key across shards, and a
/// shard (group >= 1) also keeps its own values under `shard.<group>.`.
/// Group 0 is an unsharded node's single column, which is the whole pool.
void roll_up_shard(obs::MetricsSnapshot& pool, std::uint32_t group,
                   const obs::MetricsSnapshot& shard);

class ShardCluster {
 public:
  ShardCluster(ShardClusterConfig config, std::uint64_t seed);

  /// Starts the pool VS group and every shard column.
  void start();
  void run_for(sim::Time duration);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  /// The shared network — the fault surface (pause/partition/knobs) for
  /// every shard at once; faults are per pool process.
  [[nodiscard]] net::SimNetwork& net() { return *net_; }
  [[nodiscard]] const ProcessSet& pool() const { return pool_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const std::vector<ShardAssignment>& assignments() const {
    return assignments_;
  }

  /// Shard k's full protocol column (k is the 1-based group id).
  [[nodiscard]] tosys::Cluster& shard(std::uint32_t k) {
    return *shards_.at(k - 1).cluster;
  }
  [[nodiscard]] const tosys::Cluster& shard(std::uint32_t k) const {
    return *shards_.at(k - 1).cluster;
  }
  [[nodiscard]] const ShardAssignment& assignment(std::uint32_t k) const {
    return assignments_.at(k - 1);
  }
  [[nodiscard]] bool hosts(std::uint32_t k, ProcessId pool_p) const;
  /// Shard-local id of pool_p in shard k (throws unless hosts()).
  [[nodiscard]] ProcessId local_id(std::uint32_t k, ProcessId pool_p) const {
    return shards_.at(k - 1).port->to_local(pool_p);
  }

  /// Client broadcast into shard k at shard-local process `local`.
  void bcast(std::uint32_t k, ProcessId local, AppMsg a) {
    shard(k).bcast(local, std::move(a));
  }

  /// Crash-restarts pool process p: the pool VS node is rebuilt from its
  /// epoch journal and every shard column hosting p restarts its local
  /// replica (each from its own per-shard store). Requires persistence.
  void restart(ProcessId pool_p);
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }
  /// The pool members' epoch journals (null without persistence).
  [[nodiscard]] const storage::StableStore* pool_store() const {
    return pool_store_.get();
  }

  /// All shards' oracles clean?
  [[nodiscard]] bool oracle_ok() const;
  /// First violation (lowest shard id), named with its shard and followed
  /// by that shard's recorded trace tail (when traces are kept); empty when
  /// clean.
  [[nodiscard]] std::string violation_message() const;
  /// Re-checks DVS Invariants 4.1/4.2 on every shard's oracle.
  bool check_invariants();

  [[nodiscard]] double primary_fraction(std::uint32_t k) const {
    return shard(k).primary_fraction();
  }
  /// min over shards — the pool is "available" when every shard can commit.
  [[nodiscard]] double min_primary_fraction() const;

  /// The latest pool view installed at p (pool v0 before any change).
  [[nodiscard]] const View& pool_view(ProcessId p) const {
    return pool_views_.at(p);
  }
  [[nodiscard]] ShardRouter& router() { return router_; }

  // ----- dynamic re-provisioning ---------------------------------------------

  /// Completed slot migrations / departed slots left unfilled (pool below
  /// replication; retried on later views) / columns with every replica
  /// departed. All zero unless config.dynamic.
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t migration_stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t migrations_lost() const { return lost_; }

  /// Crash-point sweep instrumentation: invoked with a run-global ordinal
  /// before every persistence barrier and the volatile cutover of each
  /// migration episode; throwing shard::MigrationCrash simulates a crash
  /// mid-episode. recover_migrations() then rolls every column forward
  /// (committed meta marker present) or back (absent — the move is simply
  /// re-planned from the live pool view).
  void set_migration_crash_hook(std::function<void(std::size_t)> hook) {
    migration_crash_hook_ = std::move(hook);
  }
  void recover_migrations();

  /// Invoked after a slot's cutover completes (journals installed, column
  /// replica restarted, HANDOFF recorded) — the workload harness rebuilds
  /// its application mirror for that slot here.
  void set_handoff_hook(
      std::function<void(std::uint32_t group, ProcessId slot)> hook) {
    handoff_hook_ = std::move(hook);
  }

  /// Every shard rolled up (roll_up_shard) over the pool-level pool.*
  /// counters, the mux's shard.unroutable (the key dvsd's `stats` verb
  /// exports) and the shared network's own net.*/arena.* counters.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();

 private:
  struct Shard {
    GroupMux::Port* port = nullptr;  // owned by mux_
    std::unique_ptr<tosys::Cluster> cluster;
  };

  void build_pool_node(ProcessId p);

  // Dynamic re-provisioning (all no-ops unless config.dynamic).
  void maybe_reprovision();
  void migrate_slot(std::uint32_t group, ProcessId source_slot,
                    const SlotMove& m);
  /// This pool's half of slot `slot`'s migration episode: the crash-hook
  /// barrier and the volatile cutover (port remap, column restart, HANDOFF,
  /// map patch).
  [[nodiscard]] EpisodeHooks episode_hooks(std::uint32_t group,
                                           ProcessId slot);
  void migration_barrier();

  ShardClusterConfig config_;
  Rng net_rng_;  // every fault draw of the shared network
  sim::Simulator sim_;
  ProcessSet pool_;
  std::unique_ptr<net::SimNetwork> net_;
  std::unique_ptr<GroupMux> mux_;
  std::unique_ptr<storage::MemStableStore> pool_store_;  // persistence only
  std::map<ProcessId, std::unique_ptr<vsys::VsNode>> pool_vs_;
  std::map<ProcessId, View> pool_views_;
  std::vector<ShardAssignment> assignments_;
  std::vector<Shard> shards_;  // index k-1
  ShardRouter router_;
  obs::MetricsRegistry pool_metrics_;
  std::uint64_t restarts_ = 0;

  // Dynamic re-provisioning state.
  ProcessSet live_pool_;  // latest pool view set (= pool_ while stable)
  bool migrating_ = false;
  std::uint64_t migrations_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t lost_ = 0;
  std::size_t migration_barriers_ = 0;  // run-global episode barrier ordinal
  std::function<void(std::size_t)> migration_crash_hook_;
  std::function<void(std::uint32_t, ProcessId)> handoff_hook_;
};

}  // namespace dvs::shard
