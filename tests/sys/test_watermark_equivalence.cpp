// Differential conformance: the watermark-stability stack must be
// indistinguishable from the explicit-ack one wherever the protocol's
// behaviour is determined.
//
// Watermark mode replaces the per-message ack/confirm traffic inside an
// installed view with the SST-style per-member state table (vs_node.cpp,
// vsys/watermarks.h). The TO service's spec does not change, so:
//  * Forced-order runs — a fault-free cluster with broadcasts spaced far
//    apart (>> network delay) has exactly one legal TO order, so both
//    stability modes must produce identical per-receiver delivery
//    sequences, and every receiver the same sequence.
//  * Chaos sweeps — 200 seeds × n ∈ {2,3,4} through the full FaultPlan
//    adversary with the spec oracles attached: every seed must be accepted
//    by both modes (identical verdicts), both must land in the same
//    high-delivery liveness regime, and the erratum self-test must still
//    reject with watermarks on (the new stability rule must not blind the
//    oracle).
//  * Merge ordering — the per-seed ChaosStats and metric snapshots
//    (including the new vs.watermark_* counters) must aggregate
//    byte-identically for --jobs 1 vs --jobs 4.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "parallel/seed_sweep.h"
#include "tosys/chaos.h"
#include "tosys/cluster.h"

namespace dvs::tosys {
namespace {

ClusterConfig quiet_cluster(std::size_t n, bool watermarks) {
  ClusterConfig cc;
  cc.n_processes = n;
  cc.vs.stability = watermarks ? vsys::StabilityMode::kWatermark
                               : vsys::StabilityMode::kExplicitAck;
  return cc;
}

/// One delivery sequence per receiver, as (origin, uid) pairs in delivery
/// order.
std::map<ProcessId, std::vector<std::pair<ProcessId, std::uint64_t>>>
per_receiver_orders(const Cluster& cluster) {
  std::map<ProcessId, std::vector<std::pair<ProcessId, std::uint64_t>>> out;
  for (const Delivery& d : cluster.deliveries()) {
    out[d.receiver].emplace_back(d.origin, d.msg.uid);
  }
  return out;
}

/// Fault-free run with broadcasts spaced 50ms apart (the stack settles
/// between sends), so the TO order is forced by time and must be identical
/// whatever the stability detector does.
std::map<ProcessId, std::vector<std::pair<ProcessId, std::uint64_t>>>
forced_order_run(std::size_t n, bool watermarks, std::uint64_t seed) {
  Cluster cluster(quiet_cluster(n, watermarks), seed);
  const std::vector<ProcessId> procs(cluster.universe().begin(),
                                     cluster.universe().end());
  std::uint64_t uid = 1;
  for (std::size_t i = 0; i < 20; ++i) {
    const ProcessId p = procs[i % procs.size()];
    cluster.sim().schedule_at(
        200 * sim::kMillisecond + i * 50 * sim::kMillisecond,
        [&cluster, p, m = AppMsg{uid++, p, "fo"}] { cluster.bcast(p, m); });
  }
  cluster.start();
  cluster.run_for(2 * sim::kSecond);
  EXPECT_TRUE(cluster.oracle().ok());
  return per_receiver_orders(cluster);
}

TEST(WatermarkEquivalenceTest, ForcedOrderDeliveriesAreIdentical) {
  for (std::size_t n : {2u, 3u, 4u}) {
    const auto acked = forced_order_run(n, false, 77);
    const auto watermarked = forced_order_run(n, true, 77);
    ASSERT_EQ(acked.size(), n) << "n=" << n;
    EXPECT_EQ(watermarked, acked) << "n=" << n;
    // All receivers agree on one total order, and nothing was lost.
    const auto& reference = acked.begin()->second;
    EXPECT_EQ(reference.size(), 20u);
    for (const auto& [p, order] : acked) {
      EXPECT_EQ(order, reference) << p.to_string();
    }
  }
}

/// Short-horizon chaos config sized so 200 seeds stay fast enough for the
/// sanitizer gates (mirrors the --smoke sweep shape).
ChaosConfig quick_chaos(std::size_t n, bool watermarks) {
  ChaosConfig chaos;
  chaos.n_processes = n;
  chaos.watermarks = watermarks;
  chaos.plan.horizon = 2 * sim::kSecond;
  chaos.plan.events = 8;
  chaos.broadcasts = 40;
  chaos.settle = 2 * sim::kSecond;
  return chaos;
}

parallel::ChaosSweepResult sweep(std::size_t n, bool watermarks,
                                 std::size_t jobs,
                                 std::uint64_t num_seeds = 200) {
  parallel::SeedSweepConfig cfg;
  cfg.first_seed = 1;
  cfg.num_seeds = num_seeds;
  cfg.jobs = jobs;
  return parallel::run_chaos_sweep(
      cfg, shard::ShardChaosConfig{.chaos = quick_chaos(n, watermarks)});
}

void expect_identical_verdicts(std::size_t n) {
  const parallel::ChaosSweepResult acked = sweep(n, false, 4);
  const parallel::ChaosSweepResult watermarked = sweep(n, true, 4);
  // Identical verdicts: the oracle accepts every seed in both modes.
  EXPECT_EQ(acked.seeds_failed, 0u) << acked.first_failure->message;
  EXPECT_EQ(watermarked.seeds_failed, 0u)
      << watermarked.first_failure->message;
  EXPECT_EQ(watermarked.seeds_run, acked.seeds_run);
  // Liveness parity: chaos does not promise total liveness (a broadcast
  // issued at the horizon's edge by a partitioned process can die with the
  // run), but both modes must land in the same high-delivery regime —
  // never more than the ceiling, never below 95% of it. (The soak test,
  // whose schedule guarantees healing, asserts the strict equality.)
  for (const parallel::ChaosSweepResult* r : {&acked, &watermarked}) {
    EXPECT_LE(r->total.deliveries, r->total.broadcasts * n);
    EXPECT_GE(r->total.deliveries, r->total.broadcasts * n * 95 / 100);
  }
  // The watermark machinery actually engaged: piggybacked watermarks raised
  // table rows in watermark mode, and the ack-mode stack never touched it.
  EXPECT_GT(watermarked.total.metrics.counter_sum("vs.watermark_updates"), 0u);
  EXPECT_EQ(acked.total.metrics.counter_sum("vs.watermark_updates"), 0u);
  // Safe indications flowed in both modes (the stability rule advanced).
  EXPECT_GT(watermarked.total.metrics.counter_sum("vs.safes_emitted"), 0u);
  EXPECT_GT(acked.total.metrics.counter_sum("vs.safes_emitted"), 0u);
}

TEST(WatermarkEquivalenceTest, ChaosVerdictsMatchAtN2) {
  expect_identical_verdicts(2);
}

TEST(WatermarkEquivalenceTest, ChaosVerdictsMatchAtN3) {
  expect_identical_verdicts(3);
}

TEST(WatermarkEquivalenceTest, ChaosVerdictsMatchAtN4) {
  expect_identical_verdicts(4);
}

TEST(WatermarkEquivalenceTest, WatermarksDoNotBlindTheOracle) {
  // Re-inject the paper's Figure 5 errata with watermarks on: the oracle
  // must still reject — a stability-rule change that masked spec violations
  // would be worse than no optimization at all.
  ChaosConfig chaos = quick_chaos(3, true);
  chaos.initial_members = 2;
  chaos.broadcasts = 200;
  chaos.to_options.printed_figure_mode = true;
  parallel::SeedSweepConfig cfg;
  cfg.first_seed = 1;
  cfg.num_seeds = 60;
  cfg.jobs = 4;
  const parallel::ChaosSweepResult r = parallel::run_chaos_sweep(
      cfg, shard::ShardChaosConfig{.chaos = chaos});
  EXPECT_GT(r.seeds_failed, 0u);
  ASSERT_TRUE(r.first_failure.has_value());
  EXPECT_NE(r.first_failure->message.find("chaos seed"), std::string::npos);
}

// The ChaosStats merge-ordering regression for the new vs.watermark_* and
// arena.* counters (and the TSan target: the watermark sweep shares the
// thread pool, so data races in the table or the arena would surface here).
TEST(WatermarkEquivalenceTest, ParallelSweepMergesIdenticallyForAnyJobCount) {
  const parallel::ChaosSweepResult j1 = sweep(3, true, 1, 60);
  const parallel::ChaosSweepResult j4 = sweep(3, true, 4, 60);
  EXPECT_EQ(j1.seeds_failed, 0u);
  EXPECT_EQ(j4.seeds_failed, 0u);
  // Field-wise totals, including the new counters, merge in seed order:
  // byte-identical whatever the worker count.
  EXPECT_TRUE(j1.total == j4.total);
  // And the serialized metric snapshot (what --metrics prints and
  // BENCH_obs.json records) is byte-identical too.
  EXPECT_EQ(j1.total.metrics.to_json(), j4.total.metrics.to_json());
}

}  // namespace
}  // namespace dvs::tosys
