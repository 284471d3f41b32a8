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
// The run is configured by the very ShardClusterConfig any ShardCluster
// takes, plus the few knobs that belong to the run itself (fault plan,
// client load, settle time, invariant-check period, crash semantics, fault
// targets).
//
// Fault targeting: `fault_targets` restricts the generated FaultPlan to a
// subset of the pool — the isolation test aims the adversary at exactly
// shard k's replicas and checks the siblings never miss a beat.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "net/fault_plan.h"
#include "obs/metrics.h"
#include "shard/shard_cluster.h"
#include "sim/simulator.h"

namespace dvs::shard {

struct ShardChaosConfig {
  /// The pool and its columns: pool size, initial members, K, replication,
  /// dynamic re-provisioning, the network and the protocol knobs. The
  /// default arms every steady network anomaly for the whole run (the
  /// plan's drop-windows and dup-bursts modulate on top of these), with
  /// NetConfig's 5 ms reorder window; batching stays off, so the unbatched
  /// stack is the reference.
  ShardClusterConfig cluster = [] {
    ShardClusterConfig c;
    c.base.net.drop_probability = 0.02;
    c.base.net.duplicate_probability = 0.15;
    c.base.net.max_duplicates = 2;
    c.base.net.reorder_probability = 0.15;
    c.base.net.truncate_probability = 0.02;
    return c;
  }();
  /// Scripted faults; `plan.horizon` also bounds the client load and the
  /// periodic invariant checks.
  net::FaultPlanConfig plan;
  /// Client broadcasts injected at seeded times across the horizon.
  std::size_t broadcasts = 60;
  /// Run time after the final heal/resume, letting recovery complete
  /// before the end-of-run invariant check.
  sim::Time settle = 3 * sim::kSecond;
  /// Re-check Invariants 4.1/4.2 this often during the horizon (0 = only
  /// at the end of the run).
  sim::Time invariant_check_period = 200 * sim::kMillisecond;
  /// Crash-restart adversary. Note the terminology: a plan's kCrash is
  /// *pause* semantics (the node goes silent, volatile state intact —
  /// SimNetwork::pause); genuine crash-restarts are either scripted
  /// kRestart events (give `plan.w_restart` a weight) or kCrash events
  /// upgraded via `crashes_restart` — the node still pauses for the
  /// crash..recover window but its volatile state is wiped at the crash
  /// instant and rebuilt from stable storage (ShardCluster::restart), so
  /// the same seed's plan runs under both semantics. Either knob, and
  /// `cluster.dynamic`, turns `cluster.base.persistence` on; it can also be
  /// set alone to measure journaling with no restarts.
  bool crashes_restart = false;
  /// Restrict the generated FaultPlan to these pool processes (empty = the
  /// whole pool). The plan is generated over this sub-universe, so the
  /// adversary never touches anyone else.
  ProcessSet fault_targets{};
};

/// Rejects a config no seed could run (an empty pool, replication beyond
/// the pool, more initial members than the pool holds) with
/// std::logic_error — a harness error, never a counterexample. The pool
/// checks are provision()'s own.
void validate(const ShardChaosConfig& config);

/// Per-run counters. All fields are deterministic functions of the seed and
/// config; the chaos sweep aggregates them field-wise in seed order, so
/// totals are thread-count independent. Only facts the metric snapshot
/// does not carry are fields; network, VS and storage counts are read from
/// `metrics` (e.g. `metrics.counter_sum("net.duplicated")`).
struct ChaosStats {
  std::uint64_t events_checked = 0;    // oracle-fed external events
  std::uint64_t invariant_checks = 0;  // DVS Invariant 4.1/4.2 re-checks
  std::uint64_t broadcasts = 0;        // client BCASTs injected
  // TO BRCVs across all nodes, from the delivery logs: to.deliveries
  // restarts from zero with each crash-restarted node.
  std::uint64_t deliveries = 0;
  std::uint64_t fault_events = 0;  // scripted FaultPlan events
  std::uint64_t restarts = 0;      // crash-restarts executed

  /// Full end-of-run metric export of the pool (every layer's counters,
  /// the tracer's latency histograms and the span-invariant counters).
  /// Deterministic per seed; operator+= merges key-wise, so sweep totals
  /// are byte-identical for any --jobs value.
  obs::MetricsSnapshot metrics;

  friend bool operator==(const ChaosStats&, const ChaosStats&) = default;
};

ChaosStats& operator+=(ChaosStats& a, const ChaosStats& b);

/// A conformance violation under chaos. what() embeds the seed, the
/// oracle's diagnosis, the replayable FaultPlan and the trace tail.
class ChaosFailure : public std::runtime_error {
 public:
  ChaosFailure(std::uint64_t seed, const std::string& message)
      : std::runtime_error(message), seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
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
  ChaosStats stats;
  /// Dynamic re-provisioning counters (zero unless cluster.dynamic):
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
/// ChaosFailure on any oracle rejection or invariant violation.
[[nodiscard]] ChaosStats run_chaos_seed(std::uint64_t seed,
                                        const ShardChaosConfig& config);

}  // namespace dvs::shard
