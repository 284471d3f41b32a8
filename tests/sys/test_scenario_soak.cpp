// Long-horizon scenario soaks with the conformance oracle and span
// invariants on the whole way:
//
//   * ChurnPlusWan — membership churn under genuine crash-restart
//     semantics, a two-region WAN latency matrix, link flaps and a drop
//     window, sustained for 50k heartbeat ticks (1000 simulated seconds at
//     the 20ms heartbeat). Zero violations, every seed's replicas
//     converged, availability within the declared SLO.
//   * ReprovisionChurn — the committed scenarios/reprovision-churn.scn
//     (path baked in via DVS_SCENARIO_DIR): a dynamically re-provisioned
//     K=4 sharded pool under crash-restart churn. Every outage that
//     outlives the suspect timeout migrates the dead host's column slots
//     onto survivors with state transfer; the soak demands actual
//     migrations, zero oracle/span violations, and the declared SLOs.
//
// DVS_SOAK_SCALE=<k> divides the horizons by k (sanitizer/CI runs); the
// default is the full length.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "workload/runner.h"
#include "workload/scenario.h"

namespace dvs::workload {
namespace {

std::uint64_t soak_scale() {
  if (const char* s = std::getenv("DVS_SOAK_SCALE")) {
    const unsigned long v = std::strtoul(s, nullptr, 10);
    if (v >= 1) return v;
  }
  return 1;
}

TEST(ScenarioSoak, ChurnPlusWanHolds50kTicksWithinDeclaredSlos) {
  const std::uint64_t scale = soak_scale();

  Scenario s;
  s.name = "soak-churn-wan";
  s.n = 4;
  s.seeds = 2;
  s.seed = 1;
  // 20ms heartbeat ticks, 1'000'000ms horizon = 50k ticks at scale 1.
  // Suspicion/propose are WAN-widened so the 25ms inter-region latency
  // never looks like a failure — with churn disabled this topology
  // installs zero spurious views over the whole horizon.
  s.heartbeat_ms = 20;
  s.suspect_ms = 200;
  s.propose_ms = 500;
  s.warmup = 500 * sim::kMillisecond;
  s.horizon = (1'000'000 / scale) * sim::kMillisecond;
  s.settle = 5 * sim::kSecond;
  s.sample_period = 100 * sim::kMillisecond;
  s.clients = 2;
  s.think = 25 * sim::kMillisecond;
  // Read-heavy: the paper's TO recovery exchanges FULL summaries (complete
  // con/ord history) at every primary establishment, so a write-heavy mix
  // under sustained churn is quadratic in history by design (Section 6.1 —
  // see docs/WORKLOADS.md). The soak keeps the write stream modest so 50k
  // ticks of churn stay within honest memory/time budgets; churn-storm.scn
  // covers the write-heavy short-horizon case.
  s.mix.keys = 200;
  s.mix.reads = 96;
  s.mix.writes = 2;
  s.mix.scans = 2;
  // Two regions, 25ms one-way between them, mild steady loss.
  s.net.process_region = {0, 0, 1, 1};
  s.net.region_delay = {{1 * sim::kMillisecond, 25 * sim::kMillisecond},
                        {25 * sim::kMillisecond, 1 * sim::kMillisecond}};
  s.net.drop_probability = 0.005;
  // Scripted faults early enough to fit every scale: three 1s flaps of the
  // remote replica and one lossy window.
  s.flaps = {FlapSpec{ProcessId{3}, 10 * sim::kSecond, 20 * sim::kSecond,
                      1 * sim::kSecond, 3}};
  s.drop_windows = {WindowSpec{15 * sim::kSecond, 2 * sim::kSecond, 0.2}};
  // Churn with the chaos harness's restart semantics: ~0.05 crash/recover pairs
  // per second (≈50 genuine crash-restart cycles per seed over the full
  // horizon), outages of 1-4s, volatile state wiped and rebuilt from the
  // WAL at each crash. Every restart triggers a full-summary state
  // exchange whose size grows with history, so the churn rate — not the
  // tick count — dominates wall clock and memory; 0.05/s keeps the
  // 50k-tick run cheap while still exercising ~100 recoveries per sweep.
  s.churn = ChurnSpec{0.05, true, 1 * sim::kSecond, 4 * sim::kSecond};
  s.slo_availability_ppm = 600000;
  s.validate();
  ASSERT_TRUE(s.crashes_restart());
  ASSERT_TRUE(s.needs_persistence());

  const std::uint64_t ticks = (s.horizon / sim::kMillisecond) / s.heartbeat_ms;
  if (scale == 1) {
    ASSERT_GE(ticks, 50000u);
  }

  const ScenarioSweepResult result = run_scenario(s, 2);

  // Zero oracle violations (a violating seed fails the sweep with the
  // replayable plan in the message) and zero span invariant violations.
  ASSERT_TRUE(result.ok()) << "seed " << result.first_failing_seed << ": "
                           << result.first_failure;
  EXPECT_EQ(result.seeds_run, 2u);
  EXPECT_EQ(result.slo.oracle_violations, 0u);
  EXPECT_EQ(result.slo.span_violations, 0u);
  EXPECT_EQ(result.slo.converged_seeds, 2u);

  // The churn actually happened and the stack kept serving through it.
  EXPECT_GT(result.slo.restarts, 0u);
  EXPECT_GT(result.slo.fault_events, 8u);  // flaps + window + churn pairs
  EXPECT_GT(result.slo.views_installed, s.n * 2);
  EXPECT_GT(result.slo.commits, 0u);
  EXPECT_GT(result.slo.samples, 0u);

  // Availability within the declared SLO, and the pass bit agrees.
  EXPECT_GE(result.slo.availability_ppm(), s.slo_availability_ppm);
  EXPECT_TRUE(result.slo.slo_pass());

  // Abandoned writes stay a small minority of issued operations even under
  // sustained churn (clients never wedge on a crashed home replica).
  EXPECT_LT(result.slo.timeouts * 10, result.slo.issued);
}

TEST(ScenarioSoak, ReprovisionChurnMigratesColumnsWithinDeclaredSlos) {
  const std::uint64_t scale = soak_scale();

  Scenario s = Scenario::parse_file(std::string(DVS_SCENARIO_DIR) +
                                    "/reprovision-churn.scn");
  ASSERT_EQ(s.name, "reprovision-churn");
  ASSERT_TRUE(s.dynamic);
  ASSERT_EQ(s.shards, 4u);
  ASSERT_EQ(s.replication, 2u);
  ASSERT_TRUE(s.crashes_restart());
  ASSERT_TRUE(s.needs_persistence());
  if (scale > 1) {
    s.horizon = std::max<sim::Time>(s.warmup + 2 * sim::kSecond,
                                    s.horizon / scale);
    s.seeds = 2;
  }
  s.validate();

  const ScenarioSweepResult result = run_scenario(s, 2);

  ASSERT_TRUE(result.ok()) << "seed " << result.first_failing_seed << ": "
                           << result.first_failure;
  EXPECT_EQ(result.seeds_run, s.seeds);
  EXPECT_EQ(result.slo.oracle_violations, 0u);
  EXPECT_EQ(result.slo.span_violations, 0u);
  EXPECT_EQ(result.slo.converged_seeds, s.seeds);

  // The churn produced genuine crash-restart cycles AND the outages that
  // outlived the suspect timeout re-provisioned columns (state transfer +
  // cutover) rather than stranding them on the dead host.
  EXPECT_GT(result.slo.restarts, 0u);
  EXPECT_GT(result.metrics.counter_sum("pool.migrations"), 0u)
      << "churn at this rate must trigger at least one slot migration";
  EXPECT_GT(result.slo.commits, 0u);
  EXPECT_GT(result.slo.samples, 0u);

  // The service stayed within the .scn's declared SLOs through the
  // migrations.
  EXPECT_GE(result.slo.availability_ppm(), s.slo_availability_ppm);
  EXPECT_TRUE(result.slo.slo_pass());
  EXPECT_LT(result.slo.timeouts * 10, result.slo.issued);
}

}  // namespace
}  // namespace dvs::workload
