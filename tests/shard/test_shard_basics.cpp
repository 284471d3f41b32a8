// Unit coverage for the sharding layer's parts: deterministic provisioning,
// the group-frame wire codec, the in-band GroupMux demux and its ports' id
// translation, the keyspace router, per-group conformance recording, and a
// small multi-shard ShardCluster smoke (including pool-member restarts).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/view.h"
#include "net/sim_network.h"
#include "shard/group_mux.h"
#include "shard/provision.h"
#include "shard/router.h"
#include "shard/shard_cluster.h"
#include "sim/simulator.h"
#include "spec/trace_recorder.h"
#include "vsys/wire.h"

namespace dvs {
namespace {

Bytes bytes(std::initializer_list<int> vals) {
  Bytes out;
  for (const int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

Bytes group_frame(std::uint32_t group, const Bytes& payload) {
  Writer w;
  vsys::encode_group_frame(group, payload, w);
  return w.take();
}

TEST(Provision, RoundRobinWindows) {
  const ProcessSet pool = make_universe(5);
  const auto a = shard::provision(pool, 3, 2);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].group, 1u);
  EXPECT_EQ(a[0].replicas, (std::vector<ProcessId>{ProcessId(0), ProcessId(1)}));
  EXPECT_EQ(a[1].replicas, (std::vector<ProcessId>{ProcessId(1), ProcessId(2)}));
  EXPECT_EQ(a[2].replicas, (std::vector<ProcessId>{ProcessId(2), ProcessId(3)}));
}

TEST(Provision, WrapsAroundThePool) {
  const ProcessSet pool = make_universe(3);
  const auto a = shard::provision(pool, 4, 2);
  // Shard 3 starts at pool[2] and wraps to pool[0]; replicas stay ascending.
  EXPECT_EQ(a[2].replicas, (std::vector<ProcessId>{ProcessId(0), ProcessId(2)}));
  EXPECT_EQ(a[3].replicas, (std::vector<ProcessId>{ProcessId(0), ProcessId(1)}));
}

TEST(Provision, ZeroReplicationMeansWholePool) {
  const ProcessSet pool = make_universe(4);
  const auto a = shard::provision(pool, 2, 0);
  for (const auto& s : a) {
    EXPECT_EQ(s.replicas.size(), 4u);
  }
  // K=1 full replication hosts the one column of the unsharded simulation
  // on the whole pool, local id = pool id.
  const auto one = shard::provision(pool, 1, 0);
  EXPECT_EQ(one[0].replicas,
            (std::vector<ProcessId>{ProcessId(0), ProcessId(1), ProcessId(2),
                                    ProcessId(3)}));
}

TEST(Provision, RejectsDegenerateInputs) {
  const ProcessSet pool = make_universe(3);
  EXPECT_THROW((void)shard::provision(pool, 0, 1), std::logic_error);
  EXPECT_THROW((void)shard::provision({}, 1, 0), std::logic_error);
  EXPECT_THROW((void)shard::provision(pool, 2, 4), std::logic_error);
}

TEST(Provision, PureFunctionOfInputs) {
  const ProcessSet pool = make_universe(7);
  EXPECT_EQ(shard::provision(pool, 5, 3), shard::provision(pool, 5, 3));
}

TEST(GroupFrame, RoundTrips) {
  const Bytes payload = bytes({0x01, 0xff, 0x00, 0x42});
  for (const std::uint32_t g : {1u, 7u, 300u, 0xFFFFFFFFu}) {
    const Bytes wire = group_frame(g, payload);
    ASSERT_TRUE(vsys::looks_like_group_frame(wire));
    vsys::GroupFrame f;
    vsys::decode_group_frame(wire, f);
    EXPECT_EQ(f.group, g);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(GroupFrame, TagDoesNotCollideWithVsTraffic) {
  // Every vsys message starts with its Tag byte (1..7) and batches with the
  // batcher's tag; 0x47 must stay distinct so untagged traffic routes to
  // the untagged port.
  const Bytes untagged = bytes({0x01, 0x02, 0x03});
  EXPECT_FALSE(vsys::looks_like_group_frame(untagged));
  EXPECT_FALSE(vsys::looks_like_group_frame({}));
}

TEST(GroupFrame, TruncatedHeaderThrows) {
  const Bytes wire = group_frame(90000, bytes({0xaa}));
  const Bytes cut(wire.begin(), wire.begin() + 2);  // mid-varuint
  vsys::GroupFrame f;
  EXPECT_THROW(vsys::decode_group_frame(cut, f), DecodeError);
}

TEST(GroupMux, InBandFramesDemuxToPorts) {
  sim::Simulator sim;
  Rng rng(5);
  const ProcessSet procs = make_universe(4);
  net::SimNetwork net(sim, rng, {}, procs);
  shard::GroupMux mux(net);
  auto& p1 = mux.open(1, {ProcessId(0), ProcessId(1)});
  auto& p2 = mux.open(2, {ProcessId(1), ProcessId(2)});
  EXPECT_THROW(mux.open(1, {ProcessId(0)}), std::logic_error);
  EXPECT_THROW(mux.open(0, {ProcessId(0)}), std::logic_error);

  std::vector<std::string> got;
  p1.attach(ProcessId(1), [&](ProcessId from, const Bytes&) {
    got.push_back("g1-from-" + from.to_string());
  });
  p2.attach(ProcessId(0), [&](ProcessId from, const Bytes&) {
    got.push_back("g2-from-" + from.to_string());
  });
  mux.untagged().attach(ProcessId(1), [&](ProcessId from, const Bytes& b) {
    got.push_back("untagged-from-" + from.to_string() + ":" +
                  std::to_string(b.size()));
  });

  // Group 1: pool 0 -> pool 1 is local 0 -> local 1.
  p1.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  // Group 2: pool 2 -> pool 1 is local 1 -> local 0.
  p2.send(ProcessId(1), ProcessId(0), bytes({0x01}));
  // Untagged (pool group) traffic to the same destination.
  mux.untagged().send(ProcessId(3), ProcessId(1), bytes({0x01, 0x02}));
  sim.run_until(sim::Time{1000000});

  // All on the base transport's single channel, but from different links,
  // so relative order is jitter-dependent — compare as a set.
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"g1-from-p0", "g2-from-p1",
                                           "untagged-from-p3:2"}));
  EXPECT_EQ(mux.unroutable(), 0u);
}

TEST(GroupMux, UnknownGroupAndForeignSenderAreCountedDrops) {
  sim::Simulator sim;
  Rng rng(5);
  net::SimNetwork net(sim, rng, {}, make_universe(3));
  shard::GroupMux mux(net);
  auto& p1 = mux.open(1, {ProcessId(0), ProcessId(1)});
  std::size_t deliveries = 0;
  p1.attach(ProcessId(1), [&](ProcessId, const Bytes&) { ++deliveries; });

  // A frame naming a group with no open port.
  net.send(ProcessId(0), ProcessId(1),
           group_frame(9, bytes({0x01})));
  // A well-formed group-1 frame from a process that is not a replica of
  // group 1 — must not reach the handler (to_local would have no mapping).
  net.send(ProcessId(2), ProcessId(1),
           group_frame(1, bytes({0x01})));
  sim.run_until(sim::Time{1000000});
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(mux.unroutable(), 2u);

  // Real traffic still flows.
  p1.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{2000000});
  EXPECT_EQ(deliveries, 1u);
}

TEST(GroupMux, PortTranslatesLocalIdsToPoolIds) {
  sim::Simulator sim;
  Rng rng(3);
  net::SimNetwork net(sim, rng, {}, make_universe(5));
  shard::GroupMux mux(net);
  // Shard hosted on pool {1, 3, 4}: local 0->1, 1->3, 2->4.
  auto& port = mux.open(1, {ProcessId(1), ProcessId(3), ProcessId(4)});
  EXPECT_EQ(port.to_pool(ProcessId(2)), ProcessId(4));
  EXPECT_EQ(port.to_local(ProcessId(3)), ProcessId(1));
  EXPECT_THROW((void)port.to_local(ProcessId(0)), std::logic_error);
  EXPECT_EQ(port.processes(), make_universe(3));
  EXPECT_EQ(mux.untagged().processes(), make_universe(5));

  std::vector<std::string> got;
  for (const std::uint32_t local : {0u, 1u, 2u}) {
    port.attach(ProcessId(local), [&got, local](ProcessId from, const Bytes&) {
      got.push_back(std::to_string(local) + "-from-local-" + from.to_string());
    });
  }
  port.send(ProcessId(2), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{1000000});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "1-from-local-p2");  // pool p4 translated back to local 2

  // A multicast encodes the frame once and reaches every target, each
  // datagram carrying the 2-byte group header.
  got.clear();
  const net::NetStats before = net.stats();
  port.multicast(ProcessId(0), port.processes(), bytes({0x01, 0x02}));
  sim.run_until(sim::Time{2000000});
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"0-from-local-p0", "1-from-local-p0",
                                           "2-from-local-p0"}));
  EXPECT_EQ(net.stats().sent - before.sent, 3u);
  EXPECT_EQ(net.stats().bytes_sent - before.bytes_sent, 3u * 4u);
}

TEST(GroupMux, PauseIsProcessGlobal) {
  sim::Simulator sim;
  Rng rng(7);
  net::SimNetwork net(sim, rng, {}, make_universe(3));
  shard::GroupMux mux(net);
  auto& g1 = mux.open(1, {ProcessId(0), ProcessId(1)});
  auto& g2 = mux.open(2, {ProcessId(1), ProcessId(2)});
  std::size_t deliveries = 0;
  const auto count = [&](ProcessId, const Bytes&) { ++deliveries; };
  g1.attach(ProcessId(1), count);  // pool p1
  g2.attach(ProcessId(0), count);  // pool p1
  mux.untagged().attach(ProcessId(1), count);
  const auto send_all = [&] {
    g1.send(ProcessId(0), ProcessId(1), bytes({0x01}));
    g2.send(ProcessId(1), ProcessId(0), bytes({0x01}));
    mux.untagged().send(ProcessId(0), ProcessId(1), bytes({0x01}));
  };

  net.pause(ProcessId(1));
  send_all();
  sim.run_until(sim::Time{1000000});
  EXPECT_EQ(deliveries, 0u);  // unplugging a machine unplugs every group
  net.resume(ProcessId(1));
  send_all();
  sim.run_until(sim::Time{2000000});
  EXPECT_EQ(deliveries, 3u);
  EXPECT_EQ(mux.unroutable(), 0u);
}

TEST(GroupMux, RemapStrandsFramesInFlightToTheOldHost) {
  sim::Simulator sim;
  Rng rng(9);
  net::SimNetwork net(sim, rng, {}, make_universe(3));
  shard::GroupMux mux(net);
  auto& port = mux.open(1, {ProcessId(0), ProcessId(1)});
  std::vector<std::string> got;
  port.attach(ProcessId(1), [&](ProcessId from, const Bytes&) {
    got.push_back("old-host-from-" + from.to_string());
  });

  // A frame to local 1 leaves while local 1 is still hosted on pool p1...
  port.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  // ...and local 1 migrates to pool p2 before it lands. The departed host's
  // handler is gone: the frame is counted, never delivered.
  port.remap(ProcessId(1), ProcessId(2));
  EXPECT_EQ(port.to_pool(ProcessId(1)), ProcessId(2));
  sim.run_until(sim::Time{1000000});
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(mux.unroutable(), 1u);

  // The new host attaches its own handler and traffic flows to it.
  port.attach(ProcessId(1), [&](ProcessId from, const Bytes&) {
    got.push_back("new-host-from-" + from.to_string());
  });
  port.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{2000000});
  EXPECT_EQ(got, (std::vector<std::string>{"new-host-from-p0"}));
  EXPECT_EQ(mux.unroutable(), 1u);
}

TEST(Router, StableKeyPlacement) {
  shard::ShardRouter router(4);
  const std::uint32_t s = router.shard_of("user/42");
  EXPECT_GE(s, 1u);
  EXPECT_LE(s, 4u);
  EXPECT_EQ(router.shard_of("user/42"), s);  // pure function of the key
  // FNV-1a reference value pins the hash across platforms.
  EXPECT_EQ(shard::key_hash(""), 0xcbf29ce484222325ULL);
}

TEST(Router, ContactPrefersHomeThenLiveReplica) {
  shard::ShardRouter router(2);
  const ProcessSet pool = make_universe(4);
  router.set_assignments(shard::provision(pool, 2, 2));
  router.set_pool_view(pool);
  // Shard 1 = {0,1}; a client homed on a replica stays local.
  EXPECT_EQ(router.contact(1, ProcessId(0)), ProcessId(0));
  // A client homed elsewhere contacts the first live replica.
  EXPECT_EQ(router.contact(1, ProcessId(3)), ProcessId(0));
  // When a replica leaves the pool view, contact moves to the survivor.
  router.set_pool_view(ProcessSet{ProcessId(1), ProcessId(2), ProcessId(3)});
  EXPECT_EQ(router.contact(1, ProcessId(3)), ProcessId(1));
}

TEST(Router, CountsReResolutions) {
  shard::ShardRouter router(2);
  const ProcessSet pool = make_universe(3);
  EXPECT_EQ(router.re_resolutions(), 0u);
  router.set_assignments(shard::provision(pool, 2, 2));
  router.set_pool_view(pool);
  EXPECT_EQ(router.re_resolutions(), 2u);
  // Identical installs are not changes.
  router.set_assignments(shard::provision(pool, 2, 2));
  router.set_pool_view(pool);
  EXPECT_EQ(router.re_resolutions(), 2u);
  router.set_pool_view(ProcessSet{ProcessId(0), ProcessId(1)});
  EXPECT_EQ(router.re_resolutions(), 3u);
}

TEST(ShardedTraceRecorder, GroupsAreIndependent) {
  spec::ShardedTraceRecorder rec;
  const ProcessSet u2 = make_universe(2);
  rec.add_group(1, u2, View(ViewId::initial(), u2));
  rec.add_group(2, u2, View(ViewId::initial(), u2));
  EXPECT_THROW(rec.add_group(1, u2, View(ViewId::initial(), u2)),
               std::logic_error);

  const AppMsg a{1, ProcessId(0), "x"};
  rec.record(1, spec::ToEvent{spec::EvBcast{ProcessId(0), a}});
  rec.record(1, spec::ToEvent{spec::EvBrcv{ProcessId(0), ProcessId(0), a}});
  EXPECT_TRUE(rec.ok());
  // Group 2 never saw the bcast: the same delivery must trip ITS oracle
  // (each group has its own spec state), and the violation names the shard.
  rec.record(2, spec::ToEvent{spec::EvBrcv{ProcessId(0), ProcessId(0), a}});
  EXPECT_FALSE(rec.ok());
  EXPECT_TRUE(rec.group(1).ok());
  EXPECT_FALSE(rec.group(2).ok());
  ASSERT_TRUE(rec.violation().has_value());
  EXPECT_NE(rec.violation()->layer.find("shard 2"), std::string::npos);
  EXPECT_EQ(rec.events_checked(),
            rec.group(1).events_checked() + rec.group(2).events_checked());
  EXPECT_TRUE(rec.check_invariants() == false);  // group 2 stays tripped
}

TEST(ShardCluster, MultiShardSmoke) {
  shard::ShardClusterConfig cfg;
  cfg.shards = 3;
  cfg.replication = 2;
  cfg.base.n_processes = 4;
  shard::ShardCluster sc(cfg, /*seed=*/42);
  ASSERT_EQ(sc.shard_count(), 3u);
  EXPECT_EQ(sc.assignment(2).replicas,
            (std::vector<ProcessId>{ProcessId(1), ProcessId(2)}));
  EXPECT_TRUE(sc.hosts(2, ProcessId(1)));
  EXPECT_FALSE(sc.hosts(2, ProcessId(0)));
  EXPECT_EQ(sc.local_id(2, ProcessId(2)), ProcessId(1));

  sc.start();
  sc.run_for(sim::Time{200000});
  // One broadcast into every shard at its local replica 0.
  for (std::uint32_t k = 1; k <= 3; ++k) {
    sc.bcast(k, ProcessId(0), AppMsg{k, ProcessId(0), "m"});
  }
  sc.run_for(sim::Time{2000000});

  for (std::uint32_t k = 1; k <= 3; ++k) {
    // Both replicas of shard k delivered exactly its own message.
    std::map<std::uint32_t, std::size_t> per_receiver;
    for (const auto& d : sc.shard(k).deliveries()) {
      EXPECT_EQ(d.msg.uid, k);
      ++per_receiver[d.receiver.value()];
    }
    EXPECT_EQ(per_receiver.size(), 2u) << "shard " << k;
    EXPECT_EQ(sc.primary_fraction(k), 1.0) << "shard " << k;
  }
  EXPECT_TRUE(sc.oracle_ok());
  EXPECT_TRUE(sc.check_invariants());
  EXPECT_EQ(sc.min_primary_fraction(), 1.0);

  const obs::MetricsSnapshot snap = sc.metrics_snapshot();
  EXPECT_TRUE(snap.gauges.contains("pool.shards"));
  EXPECT_EQ(snap.gauges.at("pool.shards"), 3);
  // Per-shard prefixes, and each column counter rolled up under its bare
  // key as the sum over the shards.
  bool saw_shard_prefix = false;
  for (const auto& [key, v] : snap.counters) {
    if (key.rfind("shard.2.", 0) != 0) continue;
    saw_shard_prefix = true;
    const std::string bare = key.substr(8);
    std::uint64_t sum = 0;
    for (const std::string k : {"1", "2", "3"}) {
      const auto it = snap.counters.find("shard." + k + "." + bare);
      if (it != snap.counters.end()) sum += it->second;
    }
    ASSERT_TRUE(snap.counters.contains(bare)) << bare;
    EXPECT_EQ(snap.counters.at(bare), sum) << bare;
  }
  EXPECT_TRUE(saw_shard_prefix);
}

TEST(ShardCluster, ReconfiguresOneShardWhileSiblingsCommit) {
  // The tentpole's isolation property in miniature: pause shard 2's only
  // non-overlapping replica window and watch shards 1 and 3 keep
  // committing. (The full statistical version is test_shard_isolation.)
  shard::ShardClusterConfig cfg;
  cfg.shards = 3;
  cfg.replication = 2;  // shard k hosted on {k-1, k mod 4}
  cfg.base.n_processes = 4;
  shard::ShardCluster sc(cfg, /*seed=*/7);
  sc.start();
  sc.run_for(sim::Time{200000});

  // ProcessId(3) hosts only shard 3... actually shard 3 = {2,3}. Pause p3:
  // shard 3 loses a member and reconfigures; shards 1 ({0,1}) and 2 ({1,2})
  // share no replica with the fault.
  sc.net().pause(ProcessId(3));
  sc.run_for(sim::Time{1000000});
  std::uint64_t uid = 100;
  for (std::uint32_t k = 1; k <= 2; ++k) {
    sc.bcast(k, ProcessId(0), AppMsg{uid++, ProcessId(0), "m"});
  }
  sc.run_for(sim::Time{2000000});
  for (std::uint32_t k = 1; k <= 2; ++k) {
    EXPECT_FALSE(sc.shard(k).deliveries().empty()) << "shard " << k;
    EXPECT_EQ(sc.primary_fraction(k), 1.0) << "shard " << k;
  }
  // Shard 3 took the fault; whatever view it settled in, its oracle (and
  // everyone else's) must still be clean.
  EXPECT_TRUE(sc.oracle_ok());
}

TEST(ShardCluster, RestartedPoolMemberKeepsItsEpochFloor) {
  shard::ShardClusterConfig cfg;
  cfg.base.n_processes = 3;
  cfg.base.persistence = true;
  shard::ShardCluster sc(cfg, /*seed=*/7);
  sc.start();
  sc.run_for(sim::Time{200000});
  // Cut p2 off long enough for the pool group to change views around it,
  // then let it merge back so its epoch journal is well past 0.
  sc.net().pause(ProcessId(2));
  sc.run_for(sim::Time{2000000});
  sc.net().resume(ProcessId(2));
  sc.run_for(sim::Time{2000000});
  ASSERT_NE(sc.pool_store(), nullptr);
  const std::uint64_t epoch =
      shard::pool_member_epoch(*sc.pool_store(), ProcessId(2));
  ASSERT_GT(epoch, 0u);
  // Two crash-restarts back to back, no view change in between: each
  // incarnation must journal the floor it recovered, not a fresh 0.
  for (int i = 1; i <= 2; ++i) {
    sc.restart(ProcessId(2));
    EXPECT_EQ(shard::pool_member_epoch(*sc.pool_store(), ProcessId(2)), epoch)
        << "after restart " << i;
  }
}

}  // namespace
}  // namespace dvs
