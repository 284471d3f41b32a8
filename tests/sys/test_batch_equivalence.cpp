// Differential conformance: the batched stack must be indistinguishable
// from the unbatched one wherever the protocol's behaviour is determined.
//
// Three angles:
//  * Forced-order runs — a fault-free cluster with broadcasts spaced far
//    apart (>> network delay) has exactly one legal TO order, so the
//    batched and unbatched stacks must produce identical per-receiver
//    delivery sequences, and every receiver the same sequence.
//  * Chaos sweeps — 200 seeds × n ∈ {2,3,4} through the full FaultPlan
//    adversary with the spec oracles attached: every seed must be accepted
//    by both stacks (identical verdicts), watermark stability must engage
//    on both, and the erratum self-test must still reject with batching on
//    (batching must not blind the oracle).
//  * Merge ordering — with batching enabled, the per-seed ChaosStats and
//    metric snapshots must aggregate byte-identically for --jobs 1 vs
//    --jobs 4 (the seed-order merge regression of NetStats' new counters).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "parallel/seed_sweep.h"
#include "shard/shard_chaos.h"
#include "tosys/cluster.h"

namespace dvs::tosys {
namespace {

ClusterConfig quiet_cluster(std::size_t n, bool batching) {
  ClusterConfig cc;
  cc.n_processes = n;
  cc.net.batching = batching;
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
/// whatever the transport does.
std::map<ProcessId, std::vector<std::pair<ProcessId, std::uint64_t>>>
forced_order_run(std::size_t n, bool batching, std::uint64_t seed) {
  Cluster cluster(quiet_cluster(n, batching), seed);
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

TEST(BatchEquivalenceTest, ForcedOrderDeliveriesAreIdentical) {
  for (std::size_t n : {2u, 3u, 4u}) {
    const auto unbatched = forced_order_run(n, false, 77);
    const auto batched = forced_order_run(n, true, 77);
    ASSERT_EQ(unbatched.size(), n) << "n=" << n;
    EXPECT_EQ(batched, unbatched) << "n=" << n;
    // All receivers agree on one total order, and nothing was lost.
    const auto& reference = unbatched.begin()->second;
    EXPECT_EQ(reference.size(), 20u);
    for (const auto& [p, order] : unbatched) {
      EXPECT_EQ(order, reference) << p.to_string();
    }
  }
}

/// Short-horizon chaos config sized so 200 seeds stay fast enough for the
/// sanitizer gates (mirrors the --smoke sweep shape).
shard::ShardChaosConfig quick_chaos(std::size_t n, bool batching) {
  shard::ShardChaosConfig chaos;
  chaos.cluster.base.n_processes = n;
  chaos.cluster.base.net.batching = batching;
  chaos.plan.horizon = 2 * sim::kSecond;
  chaos.plan.events = 8;
  chaos.broadcasts = 40;
  chaos.settle = 2 * sim::kSecond;
  return chaos;
}

parallel::ChaosSweepResult sweep(std::size_t n, bool batching,
                                 std::size_t jobs,
                                 std::uint64_t num_seeds = 200) {
  parallel::SeedSweepConfig cfg;
  cfg.first_seed = 1;
  cfg.num_seeds = num_seeds;
  cfg.jobs = jobs;
  return parallel::run_chaos_sweep(cfg, quick_chaos(n, batching));
}

void expect_identical_verdicts(std::size_t n) {
  const parallel::ChaosSweepResult unbatched = sweep(n, false, 4);
  const parallel::ChaosSweepResult batched = sweep(n, true, 4);
  // Identical verdicts: the oracle accepts every seed on both stacks.
  EXPECT_EQ(unbatched.seeds_failed, 0u)
      << unbatched.first_failure->message;
  EXPECT_EQ(batched.seeds_failed, 0u) << batched.first_failure->message;
  EXPECT_EQ(batched.seeds_run, unbatched.seeds_run);
  // Liveness parity: chaos does not promise total liveness (a broadcast
  // issued at the horizon's edge by a partitioned process can die with the
  // run), but both stacks must land in the same high-delivery regime —
  // never more than the ceiling, never below 95% of it. (The soak test,
  // whose schedule guarantees healing, asserts the strict equality.)
  for (const parallel::ChaosSweepResult* r : {&unbatched, &batched}) {
    EXPECT_LE(r->total.deliveries, r->total.broadcasts * n);
    EXPECT_GE(r->total.deliveries, r->total.broadcasts * n * 95 / 100);
    // The stability rule engaged on both stacks: piggybacked watermarks
    // raised table rows, and safe indications flowed.
    EXPECT_GT(r->total.metrics.counter_sum("vs.watermark_updates"), 0u);
    EXPECT_GT(r->total.metrics.counter_sum("vs.safes_emitted"), 0u);
  }
  // The batching actually engaged, and it shrank the wire datagram count.
  // (Single-frame flushes travel raw, so datagrams = envelopes + raw frames.)
  const auto net = [](const parallel::ChaosSweepResult& r, const char* key) {
    return r.total.metrics.counter_sum(key);
  };
  EXPECT_GT(net(batched, "net.batches"), 0u);
  EXPECT_GE(net(batched, "net.datagrams"), net(batched, "net.batches"));
  EXPECT_GT(net(batched, "net.batched_msgs"), net(batched, "net.batches"));
  EXPECT_LT(net(batched, "net.datagrams"), net(unbatched, "net.datagrams"));
  EXPECT_EQ(net(unbatched, "net.batches"), 0u);
}

TEST(BatchEquivalenceTest, ChaosVerdictsMatchAtN2) {
  expect_identical_verdicts(2);
}

TEST(BatchEquivalenceTest, ChaosVerdictsMatchAtN3) {
  expect_identical_verdicts(3);
}

TEST(BatchEquivalenceTest, ChaosVerdictsMatchAtN4) {
  expect_identical_verdicts(4);
}

TEST(BatchEquivalenceTest, BatchingDoesNotBlindTheOracle) {
  // Re-inject the paper's Figure 5 errata with batching on: the oracle must
  // still reject — a transport change that masked spec violations would be
  // worse than no batching at all.
  shard::ShardChaosConfig chaos = quick_chaos(3, true);
  chaos.cluster.base.initial_members = 2;
  chaos.broadcasts = 200;
  chaos.cluster.base.to_options.printed_figure_mode = true;
  parallel::SeedSweepConfig cfg;
  cfg.first_seed = 1;
  cfg.num_seeds = 60;
  cfg.jobs = 4;
  const parallel::ChaosSweepResult r =
      parallel::run_chaos_sweep(cfg, chaos);
  EXPECT_GT(r.seeds_failed, 0u);
  ASSERT_TRUE(r.first_failure.has_value());
  EXPECT_NE(r.first_failure->message.find("chaos seed"), std::string::npos);
}

// The NetStats/ChaosStats merge-ordering regression (and the TSan target:
// the batched sweep shares the thread pool, so data races in the new batch
// counters would surface here).
TEST(BatchEquivalenceTest, ParallelSweepMergesIdenticallyForAnyJobCount) {
  const parallel::ChaosSweepResult j1 = sweep(3, true, 1, 60);
  const parallel::ChaosSweepResult j4 = sweep(3, true, 4, 60);
  EXPECT_EQ(j1.seeds_failed, 0u);
  EXPECT_EQ(j4.seeds_failed, 0u);
  // Field-wise totals and the metric snapshot (batch counters included)
  // merge in seed order: byte-identical whatever the worker count.
  EXPECT_TRUE(j1.total == j4.total);
  // And the serialized metric snapshot (what --metrics prints and
  // BENCH_obs.json records) is byte-identical too.
  EXPECT_EQ(j1.total.metrics.to_json(), j4.total.metrics.to_json());
}

}  // namespace
}  // namespace dvs::tosys
