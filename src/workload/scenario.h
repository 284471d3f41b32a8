// Declarative workload + topology + fault scenarios: the `.scn` format.
//
// A scenario composes (1) a YCSB-style client workload (workload/generator.h)
// over the replicated-KV app, (2) a WAN topology — regions and an
// inter-region latency matrix applied through NetConfig — and (3) a fault
// script: flapping connectivity, correlated crash groups, rolling restarts,
// drop windows / dup bursts, and membership churn at a configurable rate.
//
// The fault script COMPILES DOWN to the existing net::FaultPlan vocabulary —
// no second fault language. The mapping (documented in docs/VERIFICATION.md
// and pinned by tests/workload/test_scenario.cpp's differential suite):
//
//   flap            → kPartition {target | rest} + kHeal pairs
//   crash_group     → one kCrash per member + one kRecover per member
//   rolling_restart → one kRestart per process, staggered
//   drop_window     → kDropWindow        dup_burst → kDupBurst
//   churn           → seeded kCrash/kRecover pairs at the configured rate;
//                     `churn ... restart` additionally arms the standard
//                     ScheduleHooks::crashes_restart upgrade (volatile state
//                     wiped at the crash instant, rebuilt from the WAL), so
//                     churn runs under exactly the chaos harness's
//                     pause-vs-restart semantics (shard/shard_chaos.h).
//
// The text format is line-oriented key/value like daemon::DaemonConfig:
// '#' starts a comment, unknown keys are an error, parse(to_string())
// round-trips exactly. See docs/WORKLOADS.md for the full reference and
// scenarios/*.scn for the canonical instances.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/fault_plan.h"
#include "net/sim_network.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace dvs::workload {

/// One workload phase: `duration` of simulated time during which the
/// open-loop arrival rate is scaled by `rate_mult` (closed-loop clients
/// scale their think time by 1/rate_mult). Phase durations must sum to the
/// scenario horizon.
struct Phase {
  std::string name;
  sim::Time duration = 0;
  double rate_mult = 1.0;

  friend bool operator==(const Phase&, const Phase&) = default;
};

/// Flapping connectivity: `count` times, starting at `first` with the given
/// period, `target` is partitioned away from the rest for `down`, then the
/// partition heals. Compiles to kPartition/kHeal pairs.
struct FlapSpec {
  ProcessId target{};
  sim::Time first = 0;
  sim::Time period = 0;
  sim::Time down = 0;
  std::size_t count = 0;

  friend bool operator==(const FlapSpec&, const FlapSpec&) = default;
};

/// Correlated failure: every member of `targets` crashes (pause semantics,
/// or genuine crash-restart under `crashes_restart`) at `at` and recovers
/// `down` later. Compiles to kCrash/kRecover per member.
struct CrashGroupSpec {
  sim::Time at = 0;
  sim::Time down = 0;
  std::vector<ProcessId> targets;

  friend bool operator==(const CrashGroupSpec&, const CrashGroupSpec&) = default;
};

/// One kRestart per process, process i at start + i * stagger.
struct RollingRestartSpec {
  sim::Time start = 0;
  sim::Time stagger = 0;

  friend bool operator==(const RollingRestartSpec&,
                         const RollingRestartSpec&) = default;
};

/// A scripted drop window or dup burst (kDropWindow / kDupBurst).
struct WindowSpec {
  sim::Time at = 0;
  sim::Time duration = 0;
  double probability = 0.0;

  friend bool operator==(const WindowSpec&, const WindowSpec&) = default;
};

/// Membership churn: crash/recover events at `events_per_sec`, targets drawn
/// from a deterministic per-seed stream, each outage uniform in
/// [down_min, down_max]. `restart_semantics` upgrades every churn crash to a
/// genuine crash-restart via ScheduleHooks::crashes_restart (and implies
/// persistence) — the same single knob ShardChaosConfig uses.
struct ChurnSpec {
  double events_per_sec = 0.0;
  bool restart_semantics = false;
  sim::Time down_min = 0;
  sim::Time down_max = 0;

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

struct Scenario {
  std::string name = "unnamed";

  // ----- cluster -------------------------------------------------------------
  std::size_t n = 3;
  /// Initial view size (0 = all n; fewer leaves late joiners).
  std::size_t initial = 0;
  /// K shard subgroups of a shard::ShardCluster over the n-process pool;
  /// clients route every operation by key hash (shard::ShardRouter). 0
  /// means K=1, the unsharded stack: one column over the whole pool.
  std::size_t shards = 0;
  /// Replicas per shard (0 = every pool member hosts every shard). Only
  /// meaningful with shards >= 1.
  std::size_t replication = 0;
  /// Dynamic shard re-provisioning (shard/reprovision.h): pool view changes
  /// migrate departed slots onto surviving members with state transfer.
  /// Requires shards >= 1; implies persistence (journals are the
  /// transferable state). With a stable pool this is byte-inert — the
  /// reprovision differential pins it.
  bool dynamic = false;
  /// Seeds swept per report: seeds [seed, seed + seeds) run independently
  /// and their SLO reports merge in seed order (byte-identical across
  /// --jobs values).
  std::uint64_t seeds = 1;
  std::uint64_t seed = 1;
  sim::Time warmup = 300 * sim::kMillisecond;
  sim::Time horizon = 10 * sim::kSecond;
  sim::Time settle = 3 * sim::kSecond;

  /// Protocol timers (vsys::VsConfig defaults when left 0).
  std::uint64_t heartbeat_ms = 0;
  std::uint64_t suspect_ms = 0;
  std::uint64_t propose_ms = 0;

  /// Journal every layer to stable storage (ClusterConfig::persistence).
  bool persistence = false;

  // ----- workload ------------------------------------------------------------
  std::size_t clients = 4;
  /// true = closed loop (one op in flight per client, think time between);
  /// false = open loop (Poisson arrivals at `rate` aggregate ops/s).
  bool closed_loop = true;
  double rate = 100.0;
  sim::Time think = 5 * sim::kMillisecond;
  MixConfig mix;
  /// Availability / primary-fraction sampling period.
  sim::Time sample_period = 20 * sim::kMillisecond;
  std::vector<Phase> phases;  // empty = one "steady" phase over the horizon
  /// Burst train multiplier: within every [k*period, k*period + len) window
  /// of the horizon the arrival rate is additionally scaled by `burst_mult`.
  sim::Time burst_period = 0;
  sim::Time burst_len = 0;
  double burst_mult = 1.0;

  // ----- network -------------------------------------------------------------
  /// The network the cluster runs on, passed to it as is. Five knobs have
  /// `.scn` keys: `batching`, the steady anomalies `drop` and `duplicate`
  /// (the scripted windows modulate on top), and the WAN topology —
  /// `region` lines fill process_region (sized 0 or n) and `latency` lines
  /// the symmetric region × region one-way delay matrix region_delay, in µs
  /// (empty = the flat LAN default, base_delay). Every other knob keeps its
  /// NetConfig default, except that a duplicated send may carry up to two
  /// extra copies.
  net::NetConfig net = [] {
    net::NetConfig c;
    c.max_duplicates = 2;
    return c;
  }();

  // ----- fault script --------------------------------------------------------
  std::vector<FlapSpec> flaps;
  std::vector<CrashGroupSpec> crash_groups;
  std::optional<RollingRestartSpec> rolling_restart;
  std::vector<WindowSpec> drop_windows;
  std::vector<WindowSpec> dup_bursts;
  std::optional<ChurnSpec> churn;

  // ----- declared SLOs (0 = not declared) ------------------------------------
  /// Minimum fraction of sampled instants with at least one process in a
  /// primary view, in parts per million.
  std::uint64_t slo_availability_ppm = 0;
  /// Maximum p99 write-commit latency in milliseconds.
  std::uint64_t slo_p99_commit_ms = 0;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Parses the `.scn` text; throws std::runtime_error with the offending
  /// line on malformed input (unknown keys are errors). Calls validate().
  [[nodiscard]] static Scenario parse(const std::string& text);
  [[nodiscard]] static Scenario parse_file(const std::string& path);

  /// Canonical text form; parse(to_string()) reproduces the scenario
  /// exactly (doubles printed with round-trip precision).
  [[nodiscard]] std::string to_string() const;

  /// Consistency checks (phase durations sum to horizon, regions within the
  /// latency matrix, mix percentages, fault targets in range, ...); throws
  /// std::runtime_error with a diagnosis.
  void validate() const;

  /// True iff any fault needs stable storage (rolling restarts, or churn
  /// with restart semantics) — the runner turns persistence on for these
  /// exactly like the chaos harness does.
  [[nodiscard]] bool needs_persistence() const;
  /// The single crash-vs-restart semantics knob, passed verbatim to
  /// FaultPlan::ScheduleHooks::crashes_restart.
  [[nodiscard]] bool crashes_restart() const;

  /// Compiles the fault script for one seed into the existing FaultPlan
  /// vocabulary (sorted by time; deterministic per seed). The scripted
  /// parts (flaps, crash groups, rolling restarts, windows) are
  /// seed-independent; churn events are drawn from Rng(seed ^ salt).
  [[nodiscard]] net::FaultPlan compile_faults(std::uint64_t run_seed) const;

  /// The effective phase list (the declared phases, or the implicit single
  /// steady phase covering the horizon).
  [[nodiscard]] std::vector<Phase> effective_phases() const;

  /// Arrival-rate multiplier at simulated time t (phase × burst train).
  [[nodiscard]] double rate_mult_at(sim::Time t) const;
};

}  // namespace dvs::workload
