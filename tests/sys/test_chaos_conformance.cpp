// Chaos-sweep conformance regression suite: the full distributed stack
// under FaultPlan-driven adversaries (duplication + reordering +
// truncation + partitions + crash/recovery) must produce traces the
// Figure 1/2/5 acceptors accept and states satisfying Invariants 4.1/4.2,
// across n ∈ {2,3,4} and hundreds of seeds. A negative arm re-injects the
// paper's printed Figure 5 errata and demonstrates the oracle rejects —
// with the same lowest failing seed at any worker count, so chaos
// counterexamples reproduce exactly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "parallel/seed_sweep.h"
#include "shard/shard_chaos.h"

namespace dvs::tosys {
namespace {

/// Short-horizon chaos shape so a few hundred seeds stay test-suite fast;
/// every anomaly class is still armed (ShardChaosConfig's default network
/// keeps steady dup/reorder/truncate/drop rates on top of the scripted
/// plan).
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

TEST(ChaosConformanceTest, SweepsAcceptAtEveryScale) {
  // ≥200 seeds across n ∈ {2,3,4}; every seed runs the whole stack under
  // its own FaultPlan with the acceptors fed online and Invariants 4.1/4.2
  // re-checked periodically. Any rejection fails with the replayable plan.
  std::size_t total_seeds = 0;
  for (const std::size_t n : {2u, 3u, 4u}) {
    const auto r = sweep(quick_chaos(n), n == 4 ? 60 : 80, 0);
    ASSERT_FALSE(r.first_failure.has_value())
        << "n=" << n << ":\n" << r.first_failure->message;
    EXPECT_EQ(r.seeds_failed, 0u);
    total_seeds += r.seeds_run;
    // The sweep must actually have exercised the fault machinery.
    EXPECT_GT(r.total.events_checked, 0u) << n;
    EXPECT_GT(r.total.invariant_checks, 0u) << n;
    for (const char* key :
         {"net.duplicated", "net.reordered", "net.truncated"}) {
      EXPECT_GT(r.total.metrics.counter_sum(key), 0u) << key << " n=" << n;
    }
    EXPECT_GT(r.total.fault_events, 0u) << n;
    EXPECT_GT(r.total.deliveries, 0u) << n;
  }
  EXPECT_GE(total_seeds, 200u);
}

TEST(ChaosConformanceTest, LateJoinerSweepAccepts) {
  // One process outside v0: its client broadcasts queue until it joins.
  // The corrected automata deliver each exactly once; this is the
  // configuration whose printed-figure counterpart must fail below.
  shard::ShardChaosConfig chaos = quick_chaos(3);
  chaos.cluster.base.initial_members = 2;
  chaos.broadcasts = 120;
  const auto r = sweep(chaos, 60, 0);
  ASSERT_FALSE(r.first_failure.has_value()) << r.first_failure->message;
  EXPECT_GT(r.total.deliveries, 0u);
}

TEST(ChaosConformanceTest, TotalsAreThreadCountIndependent) {
  const shard::ShardChaosConfig chaos = quick_chaos(3);
  const auto serial = sweep(chaos, 40, 1);
  const auto fanned = sweep(chaos, 40, 4);
  ASSERT_FALSE(serial.first_failure.has_value());
  ASSERT_FALSE(fanned.first_failure.has_value());
  EXPECT_EQ(serial.total, fanned.total);
  EXPECT_EQ(serial.seeds_run, fanned.seeds_run);
}

TEST(ChaosConformanceTest, PrintedFigureErratumIsRejectedDeterministically) {
  // Negative arm: revert the Figure 5 corrections (printed_figure_mode) in
  // the same late-joiner configuration. The ToAcceptor must reject, and
  // the lowest failing seed and its full failure account must be identical
  // whether the sweep ran on one worker or four.
  shard::ShardChaosConfig chaos = quick_chaos(3);
  chaos.cluster.base.initial_members = 2;
  chaos.broadcasts = 120;
  chaos.cluster.base.to_options.printed_figure_mode = true;

  const auto serial = sweep(chaos, 20, 1);
  const auto fanned = sweep(chaos, 20, 4);
  ASSERT_TRUE(serial.first_failure.has_value())
      << "the printed Figure 5 behaviour went undetected";
  ASSERT_TRUE(fanned.first_failure.has_value());
  EXPECT_EQ(serial.first_failure->seed, fanned.first_failure->seed);
  EXPECT_EQ(serial.first_failure->message, fanned.first_failure->message);
  EXPECT_EQ(serial.seeds_failed, fanned.seeds_failed);

  // The diagnosis names the TO acceptor and embeds the replayable plan.
  const std::string& msg = serial.first_failure->message;
  EXPECT_NE(msg.find("TO acceptor rejected"), std::string::npos) << msg;
  EXPECT_NE(msg.find("fault plan"), std::string::npos) << msg;

  // The counterexample replays: the same seed fails identically solo.
  try {
    (void)shard::run_chaos_seed(serial.first_failure->seed, chaos);
    FAIL() << "replay of the failing seed passed";
  } catch (const shard::ChaosFailure& e) {
    EXPECT_EQ(e.seed(), serial.first_failure->seed);
    EXPECT_EQ(std::string(e.what()), msg);
  }
}

TEST(ChaosConformanceTest, InvalidConfigIsAHarnessErrorBeforeAnySeedRuns) {
  // An empty pool, replication beyond the pool and more initial members
  // than the pool holds are refused before the sweep starts, so they can
  // never surface as a counterexample (or pass the erratum self-test).
  shard::ShardChaosConfig empty = quick_chaos(0);
  shard::ShardChaosConfig over_replicated = quick_chaos(3);
  over_replicated.cluster.shards = 2;
  over_replicated.cluster.replication = 9;
  shard::ShardChaosConfig over_initial = quick_chaos(3);
  over_initial.cluster.base.initial_members = 4;
  for (const shard::ShardChaosConfig* c :
       {&empty, &over_replicated, &over_initial}) {
    EXPECT_THROW(shard::validate(*c), std::logic_error);
    EXPECT_THROW((void)sweep(*c, 2, 1), std::logic_error);
  }
  EXPECT_NO_THROW(shard::validate(quick_chaos(3)));
}

TEST(ChaosConformanceTest, ErratumIsRejectedAtTwoShards) {
  // The erratum sweep through a two-shard pool (every pool member hosts
  // both columns, one late joiner in each): the flags reach every column's
  // automaton, and the oracle's rejection names its shard.
  shard::ShardChaosConfig chaos = quick_chaos(3);
  chaos.cluster.base.initial_members = 2;
  chaos.broadcasts = 120;
  chaos.cluster.base.to_options.printed_figure_mode = true;
  chaos.cluster.shards = 2;
  const auto r = sweep(chaos, 20, 0);
  ASSERT_TRUE(r.first_failure.has_value())
      << "the printed Figure 5 behaviour went undetected at K=2";
  EXPECT_NE(r.first_failure->message.find("): shard "), std::string::npos)
      << r.first_failure->message;
}

// Watermark stability against the VS spec. A member emits VS-SAFE once the
// watermark table's delivered minimum over the view covers the message
// (VsNode::try_emit_safe); the chaos oracle replays every safe indication
// through the Figure 1 acceptor, whose VS-SAFE precondition is the spec's
// own stability rule. An accepted seed is therefore one where both rules
// gave the same verdict on every safe indication, under the 200-seed sweep
// shape the stability rule was first locked with.
void expect_watermark_verdicts_match_spec(std::size_t n) {
  const auto r = sweep(quick_chaos(n), 200, 4);
  EXPECT_EQ(r.seeds_run, 200u);
  ASSERT_EQ(r.seeds_failed, 0u) << r.first_failure->message;
  // Chaos does not promise total liveness, but the stack stays in the
  // high-delivery regime: never above the ceiling, never below 95% of it.
  EXPECT_LE(r.total.deliveries, r.total.broadcasts * n);
  EXPECT_GE(r.total.deliveries, r.total.broadcasts * n * 95 / 100);
  const auto vs = [&r](const char* key) {
    return r.total.metrics.counter_sum(key);
  };
  // The rule engaged: piggybacks raised table rows, safe indications
  // flowed, and stability garbage-collected the issued-SEQ logs.
  EXPECT_GT(vs("vs.watermark_updates"), 0u);
  EXPECT_GT(vs("vs.safes_emitted"), 0u);
  EXPECT_GT(vs("vs.watermark_gc"), 0u);
  // A member's own row is in the minimum, so it never marks safe what it
  // has not delivered.
  EXPECT_LE(vs("vs.safes_emitted"), vs("vs.msgs_delivered"));
}

TEST(WatermarkEquivalenceTest, ChaosVerdictsMatchAtN2) {
  expect_watermark_verdicts_match_spec(2);
}

TEST(WatermarkEquivalenceTest, ChaosVerdictsMatchAtN3) {
  expect_watermark_verdicts_match_spec(3);
}

TEST(WatermarkEquivalenceTest, ChaosVerdictsMatchAtN4) {
  expect_watermark_verdicts_match_spec(4);
}

}  // namespace
}  // namespace dvs::tosys
