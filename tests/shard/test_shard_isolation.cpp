// Fault-isolation property of the sharded subgroup layer: faults aimed at
// exactly shard 1's replicas must leave every shard that shares NO replica
// with the targets oracle-clean, fully available, and committing with
// bounded latency — the only thing shards share is the pool, the simulator
// and the wire.
//
// Topology used throughout: pool n=6, K=3, replication=2. Round-robin
// provisioning gives shard 1 {p0,p1}, shard 2 {p1,p2}, shard 3 {p2,p3}.
// The adversary targets {p0,p1}: shard 1 is fully wounded, shard 2 loses
// one of two replicas, and shard 3 is disjoint from the blast radius.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shard/shard_chaos.h"
#include "shard/shard_cluster.h"

namespace dvs {
namespace {

constexpr std::size_t kPool = 6;
constexpr std::size_t kShards = 3;
constexpr std::size_t kReplication = 2;
const ProcessSet kTargets{ProcessId(0), ProcessId(1)};  // shard 1's replicas

shard::ShardChaosConfig chaos_config() {
  shard::ShardChaosConfig c;
  c.cluster.shards = kShards;
  c.cluster.replication = kReplication;
  c.cluster.base.n_processes = kPool;
  c.plan.horizon = 3 * sim::kSecond;
  c.broadcasts = 45;  // 15 per shard
  c.settle = 2 * sim::kSecond;
  c.fault_targets = kTargets;
  return c;
}

/// Replays run_shard_chaos_seed's load draws (same salt, same sequence) to
/// predict which uids were injected into shard k.
std::set<std::uint64_t> uids_for_shard(std::uint64_t seed,
                                       const shard::ShardChaosConfig& c,
                                       std::uint32_t k) {
  Rng load(seed ^ 0xb0adca5700150adULL);
  std::set<std::uint64_t> uids;
  for (std::size_t i = 0; i < c.broadcasts; ++i) {
    (void)load.below(static_cast<std::size_t>(c.plan.horizon));
    (void)load.below(kPool);
    if (static_cast<std::uint32_t>(i % kShards) + 1 == k) uids.insert(i + 1);
  }
  return uids;
}

TEST(ShardIsolation, ProvisioningMatchesTheTopologyThisSuiteAssumes) {
  const std::vector<shard::ShardAssignment> a = shard::provision(
      make_universe(kPool), kShards, kReplication);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].replicas, (std::vector<ProcessId>{ProcessId(0), ProcessId(1)}));
  EXPECT_EQ(a[1].replicas, (std::vector<ProcessId>{ProcessId(1), ProcessId(2)}));
  EXPECT_EQ(a[2].replicas, (std::vector<ProcessId>{ProcessId(2), ProcessId(3)}));
}

TEST(ShardIsolation, TargetedChaosLeavesDisjointShardComplete) {
  // 30 adversarial schedules aimed only at {p0,p1}. Every shard's oracle
  // must stay clean (a wounded shard may stall, never lie), and shard 3 —
  // disjoint from the targets — must deliver its entire load in the same
  // total order at both replicas despite sharing the wire with the chaos.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const shard::ShardChaosConfig config = chaos_config();

    const shard::ShardChaosResult r = shard::run_shard_chaos_seed(seed, config);
    ASSERT_TRUE(r.ok) << r.failure << "\nplan:\n" << r.plan_text;
    EXPECT_GT(r.stats.fault_events, 0u) << "seed " << seed;

    ASSERT_EQ(r.orders.size(), kShards);
    const std::vector<std::vector<std::uint64_t>>& shard3 = r.orders[2];
    ASSERT_EQ(shard3.size(), kReplication);
    EXPECT_EQ(shard3[0], shard3[1])
        << "seed " << seed << ": shard 3 replicas disagree on total order";
    const std::set<std::uint64_t> got(shard3[0].begin(), shard3[0].end());
    EXPECT_EQ(got, uids_for_shard(seed, config, 3))
        << "seed " << seed << ": shard 3 lost or invented broadcasts";
    EXPECT_EQ(shard3[0].size(), got.size())
        << "seed " << seed << ": shard 3 delivered a uid twice";
  }
}

TEST(ShardIsolation, DisjointShardCommitLatencyStaysBoundedDuringOutage) {
  // Deterministic single-run version with a latency meter: both of shard
  // 1's replicas go dark mid-run, and a stream of broadcasts into shard 3
  // must keep committing at both replicas within a bound that is far below
  // any reconfiguration timescale.
  shard::ShardClusterConfig scc;
  scc.shards = kShards;
  scc.replication = kReplication;
  scc.base.n_processes = kPool;
  shard::ShardCluster sc(scc, /*seed=*/7);

  constexpr sim::Time kWarmup = 500 * sim::kMillisecond;
  constexpr sim::Time kGap = 50 * sim::kMillisecond;
  constexpr std::size_t kPings = 40;
  constexpr sim::Time kLatencyBound = 300 * sim::kMillisecond;

  sc.sim().schedule_at(kWarmup, [&sc] {
    sc.net().pause(ProcessId(0));
    sc.net().pause(ProcessId(1));
  });

  std::map<std::uint64_t, sim::Time> sent;
  for (std::size_t i = 0; i < kPings; ++i) {
    const std::uint64_t uid = 1000 + i;
    const sim::Time at = kWarmup + static_cast<sim::Time>(i + 1) * kGap;
    sent[uid] = at;
    const ProcessId local(static_cast<std::uint32_t>(i % kReplication));
    sc.sim().schedule_at(
        at, [&sc, uid, local] { sc.bcast(3, local, AppMsg{uid, local, "p"}); });
  }

  sc.start();
  sc.run_for(kWarmup + static_cast<sim::Time>(kPings + 10) * kGap);

  // Mid-outage: the disjoint shard never lost its primary.
  EXPECT_EQ(sc.primary_fraction(3), 1.0);

  // Every ping committed at BOTH replicas of shard 3, promptly.
  std::map<std::uint64_t, std::size_t> receivers;
  for (const tosys::Delivery& d : sc.shard(3).deliveries()) {
    const auto it = sent.find(d.msg.uid);
    ASSERT_NE(it, sent.end()) << "unexpected uid " << d.msg.uid;
    ++receivers[d.msg.uid];
    EXPECT_LE(d.at - it->second, kLatencyBound)
        << "uid " << d.msg.uid << " at p" << d.receiver.value();
  }
  for (const auto& [uid, at] : sent) {
    EXPECT_EQ(receivers[uid], kReplication) << "uid " << uid;
  }

  // Epilogue: heal, let the wounded shards recover, and require every
  // shard's oracle clean — isolation never came at the cost of the spec.
  sc.net().resume(ProcessId(0));
  sc.net().resume(ProcessId(1));
  sc.run_for(2 * sim::kSecond);
  EXPECT_TRUE(sc.check_invariants());
  EXPECT_TRUE(sc.oracle_ok()) << sc.violation_message();
  EXPECT_EQ(sc.min_primary_fraction(), 1.0);
}

}  // namespace
}  // namespace dvs
