// Chaos harness: FaultPlan-driven adversarial executions of the full
// distributed stack — a ShardCluster of K DVS/TO columns over one shared
// pool and network (K=1 is the unsharded stack) — with every shard's
// conformance oracle attached.
//
// One chaos run arms every network anomaly (loss, duplication, bounded
// reordering, payload truncation), generates a FaultPlan from the seed,
// schedules a deterministic client broadcast load across the fault horizon,
// and lets the stack fight through it. The always-on oracles check every
// externally visible action against the Figure 1/2/5 specifications as it
// happens, and Invariants 4.1/4.2 are re-checked periodically. After the
// horizon the network heals, everyone resumes, and the run settles —
// recovery paths are exercised, not just degradation.
//
// Everything is deterministic in the seed: `model_checker --chaos` fans
// seeds across threads (parallel::run_chaos_sweep) and reports the lowest
// failing seed, which reproduces identically with --jobs 1.
//
// Fault targeting: `fault_targets` restricts the generated FaultPlan to a
// subset of the pool — the isolation test aims the adversary at exactly
// shard k's replicas and checks the siblings never miss a beat.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "tosys/chaos.h"

namespace dvs::shard {

struct ShardChaosConfig {
  /// Number of shard columns K over the pool.
  std::size_t shards = 1;
  /// Replicas per shard (0 = whole pool).
  std::size_t replication = 0;
  /// Dynamic re-provisioning (ShardClusterConfig::dynamic): pool view
  /// changes migrate departed slots onto survivors. Forces persistence.
  bool dynamic = false;
  /// Everything else: pool size, fault mix, anomaly rates, load, settle.
  tosys::ChaosConfig chaos;
  /// Restrict the generated FaultPlan to these pool processes (empty = the
  /// whole pool). The plan is generated over this sub-universe, so the
  /// adversary never touches anyone else.
  ProcessSet fault_targets{};
};

struct ShardChaosResult {
  bool ok = true;
  /// The violation (naming its shard), the replayable fault plan and the
  /// violating oracle's trace tail; empty on a clean run.
  std::string failure;
  /// Replayable fault plan text.
  std::string plan_text;
  /// orders[k-1][local receiver] = sequence of delivered AppMsg uids, in
  /// delivery order.
  std::vector<std::vector<std::vector<std::uint64_t>>> orders;
  /// Aggregated counters; the NetStats-derived ones are pool-wide (they
  /// include the pool membership group's traffic).
  tosys::ChaosStats stats;
  /// Dynamic re-provisioning counters (zero unless config.dynamic):
  /// completed slot migrations, refills blocked by a too-small pool, and
  /// columns whose every replica departed.
  std::uint64_t migrations = 0;
  std::uint64_t migration_stalls = 0;
  std::uint64_t migrations_lost = 0;
};

/// Runs one seeded chaos execution to completion. Violations are reported
/// in the result rather than thrown, so sweeps can compare verdicts.
[[nodiscard]] ShardChaosResult run_shard_chaos_seed(
    std::uint64_t seed, const ShardChaosConfig& config);

/// run_shard_chaos_seed for seed sweeps: returns the counters, throws
/// tosys::ChaosFailure on any oracle rejection or invariant violation.
[[nodiscard]] tosys::ChaosStats run_chaos_seed(std::uint64_t seed,
                                               const ShardChaosConfig& config);

}  // namespace dvs::shard
