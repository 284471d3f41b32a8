// Scenario execution: drives the full distributed stack (shard::ShardCluster
// with the scenario's K shard columns — one when the scenario is unsharded —
// plus replicated KV state machines) with the scenario's client swarm,
// topology and compiled fault plan, and measures the SLO report.
//
// One seed = one self-contained simulated run with the conformance oracle
// and span tracer always on: an oracle violation aborts the seed with a
// ScenarioFailure whose message embeds the replayable fault plan, exactly
// like the chaos harness. run_scenario fans the scenario's seed range over
// a thread pool with the seed-sweep determinism contract — results merge in
// seed order, the LOWEST failing seed is reported — so the merged SLO
// report and metrics are byte-identical for any --jobs value.
//
// Client model:
//   * closed-loop clients keep one operation in flight each; think times
//     are exponential with mean think/rate_mult, and a write that fails to
//     commit within the op timeout is abandoned (counted in `timeouts`) so
//     a crashed home replica never wedges the client;
//   * open-loop clients issue at exponential inter-arrival gaps targeting
//     `rate` aggregate ops/s (scaled per phase/burst), never waiting.
// Reads and scans are served by the client's home replica locally; writes
// are TO-broadcast and complete when the BRCV returns at the origin.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "workload/scenario.h"
#include "workload/slo.h"

namespace dvs::workload {

/// A seed whose run violated the spec (oracle) — the message embeds the
/// seed and the compiled fault plan for bit-identical replay.
class ScenarioFailure : public std::runtime_error {
 public:
  ScenarioFailure(std::uint64_t seed, const std::string& message)
      : std::runtime_error(message), seed_(seed) {}
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
};

/// One seed's measurements: the single-seed SLO report (seeds == 1) and the
/// cluster metrics snapshot with span invariants published into it.
struct SeedOutcome {
  SloReport slo;
  obs::MetricsSnapshot metrics;

  /// Seed-order merge (SloReport and MetricsSnapshot merges).
  SeedOutcome& operator+=(const SeedOutcome& other) {
    slo += other.slo;
    metrics += other.metrics;
    return *this;
  }
};

/// Runs one seed to completion; throws ScenarioFailure on an oracle
/// violation (the run, not the report, is the conformance check).
[[nodiscard]] SeedOutcome run_scenario_seed(const Scenario& scenario,
                                            std::uint64_t seed);

struct ScenarioSweepResult {
  /// Seed-order merge of every passing seed's report / metrics.
  SloReport slo;
  obs::MetricsSnapshot metrics;
  std::size_t seeds_run = 0;
  std::size_t seeds_failed = 0;
  /// Lowest failing seed's ScenarioFailure::what(); empty when all passed.
  std::uint64_t first_failing_seed = 0;
  std::string first_failure;

  [[nodiscard]] bool ok() const { return seeds_failed == 0; }
};

/// Fans the scenario's seeds [seed, seed + seeds) over `jobs` worker
/// threads (0 = hardware_concurrency). Deterministic: the result is
/// byte-identical for any jobs value.
[[nodiscard]] ScenarioSweepResult run_scenario(const Scenario& scenario,
                                               std::size_t jobs = 0);

}  // namespace dvs::workload
