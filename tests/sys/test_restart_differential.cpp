// Restart-vs-pause differential conformance: the same FaultPlan seeds must
// pass every oracle under both crash semantics.
//
// A plan's kCrash is *pause* semantics (node silent, volatile state
// intact). With ShardChaosConfig.crashes_restart the identical plan re-runs
// with each kCrash upgraded to a genuine crash-restart: volatile state
// wiped at the crash instant, the stack rebuilt from its write-ahead
// journals, the node silent until the paired kRecover. Scripted kRestart events
// (plan.w_restart) add instant restart-and-resume on top. Every arm keeps
// the online spec acceptors and Invariants 4.1/4.2 clean across n ∈
// {2,3,4} and hundreds of seeds, and the restart arm's sweep totals are
// byte-identical at any worker count — restart chaos reproduces exactly.
#include <gtest/gtest.h>

#include "parallel/seed_sweep.h"
#include "shard/shard_chaos.h"

namespace dvs::tosys {
namespace {

shard::ShardChaosConfig quick_chaos(std::size_t n) {
  shard::ShardChaosConfig c;
  c.cluster.base.n_processes = n;
  c.plan.horizon = 2 * sim::kSecond;
  c.plan.events = 8;
  c.broadcasts = 40;
  c.settle = 2 * sim::kSecond;
  return c;
}

parallel::ChaosSweepResult sweep(const shard::ShardChaosConfig& chaos,
                                 std::uint64_t num_seeds, std::size_t jobs) {
  parallel::SeedSweepConfig config;
  config.first_seed = 1;
  config.num_seeds = num_seeds;
  config.jobs = jobs;
  return parallel::run_chaos_sweep(config, chaos);
}

TEST(RestartDifferentialTest, SameSeedsConformUnderBothCrashSemantics) {
  // w_restart stays 0 in both arms, so both generate the *identical*
  // FaultPlan per seed — the only difference is what a kCrash does.
  std::size_t total_seeds = 0;
  for (const std::size_t n : {2u, 3u, 4u}) {
    shard::ShardChaosConfig pause_arm = quick_chaos(n);
    pause_arm.cluster.base.persistence = true;  // journaling on, restarts off
    const auto paused = sweep(pause_arm, 35, 0);
    ASSERT_FALSE(paused.first_failure.has_value())
        << "pause arm n=" << n << ":\n" << paused.first_failure->message;
    EXPECT_EQ(paused.total.restarts, 0u) << n;
    EXPECT_GT(paused.total.metrics.counter_sum("storage.appends"), 0u) << n;

    shard::ShardChaosConfig restart_arm = quick_chaos(n);
    restart_arm.crashes_restart = true;
    const auto restarted = sweep(restart_arm, 35, 0);
    ASSERT_FALSE(restarted.first_failure.has_value())
        << "restart arm n=" << n << ":\n" << restarted.first_failure->message;
    // The upgrade actually executed restarts and the journals carried them.
    EXPECT_GT(restarted.total.restarts, 0u) << n;
    EXPECT_GT(restarted.total.metrics.counter_sum("storage.appends"), 0u)
        << n;
    EXPECT_GT(restarted.total.metrics.counter_sum("storage.bytes_written"),
              0u)
        << n;
    EXPECT_GT(restarted.total.deliveries, 0u) << n;
    total_seeds += paused.seeds_run + restarted.seeds_run;
  }
  EXPECT_GE(total_seeds, 200u);
}

TEST(RestartDifferentialTest, JournalingAloneDoesNotPerturbTheRun) {
  // Persistence with no restart adversary is pure write-out: the protocol
  // must behave event-for-event as without it (journal appends schedule
  // nothing and consume no randomness). Any drift here means durability
  // changed behaviour, not just recorded it.
  const shard::ShardChaosConfig plain = quick_chaos(3);
  shard::ShardChaosConfig journaled = quick_chaos(3);
  journaled.cluster.base.persistence = true;
  const auto a = sweep(plain, 20, 0);
  const auto b = sweep(journaled, 20, 0);
  ASSERT_FALSE(a.first_failure.has_value());
  ASSERT_FALSE(b.first_failure.has_value());
  EXPECT_EQ(a.total.events_checked, b.total.events_checked);
  EXPECT_EQ(a.total.deliveries, b.total.deliveries);
  EXPECT_EQ(a.total.fault_events, b.total.fault_events);
  for (const char* key : {"vs.views_installed", "net.sent", "net.delivered"}) {
    EXPECT_EQ(a.total.metrics.counter_sum(key),
              b.total.metrics.counter_sum(key))
        << key;
  }
  EXPECT_EQ(b.total.restarts, 0u);
  EXPECT_GT(b.total.metrics.counter_sum("storage.bytes_written"), 0u);
}

TEST(RestartDifferentialTest, ScriptedRestartEventsConform) {
  // kRestart as a first-class plan event: instant teardown, rebuild from
  // the store, immediately reachable (no paired kRecover).
  shard::ShardChaosConfig chaos = quick_chaos(3);
  chaos.plan.w_restart = 0.3;
  const auto r = sweep(chaos, 30, 0);
  ASSERT_FALSE(r.first_failure.has_value()) << r.first_failure->message;
  EXPECT_GT(r.total.restarts, 0u);
  EXPECT_GT(r.total.fault_events, 0u);
  EXPECT_GT(r.total.deliveries, 0u);
}

TEST(RestartDifferentialTest, RestartTotalsAreThreadCountIndependent) {
  // The restart adversary keeps the chaos report byte-identical across
  // --jobs: every field of the merged ChaosStats including the full metric
  // export (storage.* counters, recovery-latency histograms).
  shard::ShardChaosConfig chaos = quick_chaos(3);
  chaos.crashes_restart = true;
  chaos.plan.w_restart = 0.2;
  const auto serial = sweep(chaos, 30, 1);
  const auto fanned = sweep(chaos, 30, 4);
  ASSERT_FALSE(serial.first_failure.has_value())
      << serial.first_failure->message;
  ASSERT_FALSE(fanned.first_failure.has_value());
  EXPECT_GT(serial.total.restarts, 0u);
  EXPECT_EQ(serial.total, fanned.total);
  EXPECT_EQ(serial.seeds_run, fanned.seeds_run);
}

}  // namespace
}  // namespace dvs::tosys
