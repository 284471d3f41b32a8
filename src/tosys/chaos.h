// Chaos harness vocabulary: the configuration, counters and failure type of
// one FaultPlan-driven adversarial execution of the full distributed stack
// (SimNetwork → VsNode → DvsNode → ToNode) with the spec-conformance
// oracles attached. The driver itself is shard::run_shard_chaos_seed
// (shard/shard_chaos.h), which runs the stack as K shard columns over one
// pool — K=1 being the unsharded stack.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/fault_plan.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "toimpl/dvs_to_to.h"

namespace dvs::tosys {

struct ChaosConfig {
  std::size_t n_processes = 3;
  /// Processes in the initial view v0 (0 = all). Fewer than n_processes
  /// leaves late joiners whose client broadcasts queue up until their
  /// first view — the join path is part of the adversarial surface (and
  /// exactly where the printed Figure 5 erratum duplicates deliveries).
  std::size_t initial_members = 0;
  /// Scripted faults; `plan.horizon` also bounds the client load and the
  /// periodic invariant checks.
  net::FaultPlanConfig plan;
  /// Steady network anomalies active for the whole run (the plan's
  /// drop-windows and dup-bursts modulate on top of these).
  double drop_probability = 0.02;
  double duplicate_probability = 0.15;
  std::size_t max_duplicates = 2;
  double reorder_probability = 0.15;
  sim::Time reorder_window = 5 * sim::kMillisecond;
  double truncate_probability = 0.02;
  /// Wire-level batching (NetConfig.batching): coalesce same-destination
  /// sends into BATCH envelopes. Off by default — the unbatched stack stays
  /// the reference; test_batch_equivalence proves both conform.
  bool batching = false;
  /// Client broadcasts injected at seeded times across the horizon.
  std::size_t broadcasts = 60;
  /// Run time after the final heal/resume, letting recovery complete
  /// before the end-of-run invariant check.
  sim::Time settle = 3 * sim::kSecond;
  /// Re-check Invariants 4.1/4.2 this often during the horizon (0 = only
  /// at the end of the run).
  sim::Time invariant_check_period = 200 * sim::kMillisecond;
  /// TO-automaton switches; printed_figure_mode re-injects the paper's
  /// Figure 5 errata so the sweep can prove the oracle catches them.
  toimpl::DvsToToOptions to_options;
  /// Crash-restart adversary. Note the terminology: a plan's kCrash is
  /// *pause* semantics (the node goes silent, volatile state intact —
  /// SimNetwork::pause); genuine crash-restarts are either scripted
  /// kRestart events (give `plan.w_restart` a weight) or kCrash events
  /// upgraded via `crashes_restart` — the node still pauses for the
  /// crash..recover window but its volatile state is wiped at the crash
  /// instant and rebuilt from stable storage (Cluster::restart), so the
  /// same seed's plan runs under both semantics. Either knob implies
  /// `persistence`; it can also be set alone to measure journaling with no
  /// restarts.
  bool persistence = false;
  bool crashes_restart = false;
};

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

}  // namespace dvs::tosys
