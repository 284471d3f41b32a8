// Unit coverage for the sharding layer's parts: deterministic provisioning,
// the group-frame wire codec, SimNetwork group channels behind GroupPort,
// the in-band GroupMux demux, the keyspace router, per-group conformance
// recording, and a small multi-shard ShardCluster smoke.
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
#include "shard/group_port.h"
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
  // K=1 full replication is the identity map that makes K=1 the unsharded
  // stack.
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
    const Bytes wire = vsys::encode_group_frame(g, payload);
    ASSERT_TRUE(vsys::looks_like_group_frame(wire));
    const vsys::GroupFrame f = vsys::decode_group_frame(wire);
    EXPECT_EQ(f.group, g);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(GroupFrame, TagDoesNotCollideWithVsTraffic) {
  // Every vsys message starts with its Tag byte (1..7) and batches with the
  // batcher's tag; 0x47 must stay distinct so untagged traffic routes to
  // the default handler.
  const Bytes untagged = bytes({0x01, 0x02, 0x03});
  EXPECT_FALSE(vsys::looks_like_group_frame(untagged));
  EXPECT_FALSE(vsys::looks_like_group_frame({}));
}

TEST(GroupFrame, TruncatedHeaderThrows) {
  const Bytes wire = vsys::encode_group_frame(90000, bytes({0xaa}));
  const Bytes cut(wire.begin(), wire.begin() + 2);  // mid-varuint
  EXPECT_THROW((void)vsys::decode_group_frame(cut), DecodeError);
}

TEST(GroupChannels, IndependentHandlersAndIsolation) {
  sim::Simulator sim;
  Rng rng(7);
  const ProcessSet procs = make_universe(3);
  net::SimNetwork net(sim, rng, {}, procs);
  net.open_group(1, 11);
  net.open_group(2, 22);
  EXPECT_TRUE(net.has_group(1));
  EXPECT_FALSE(net.has_group(3));
  EXPECT_THROW(net.open_group(1, 99), std::logic_error);
  EXPECT_THROW(net.open_group(0, 99), std::logic_error);

  std::vector<std::string> got;
  net.attach(ProcessId(1), [&](ProcessId from, const Bytes& b) {
    got.push_back("default:" + from.to_string() + ":" +
                  std::to_string(b.size()));
  });
  net.attach_group(1, ProcessId(1), [&](ProcessId from, const Bytes& b) {
    got.push_back("g1:" + from.to_string() + ":" + std::to_string(b.size()));
  });
  net.attach_group(2, ProcessId(1), [&](ProcessId from, const Bytes& b) {
    got.push_back("g2:" + from.to_string() + ":" + std::to_string(b.size()));
  });

  net.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  net.send_group(1, ProcessId(0), ProcessId(1), bytes({0x01, 0x02}));
  net.send_group(2, ProcessId(0), ProcessId(1), bytes({0x01, 0x02, 0x03}));
  sim.run_until(sim::Time{1000000});

  // Same link, but each channel dispatched to its own handler — the
  // out-of-band demux. Cross-channel arrival order is unspecified (each
  // channel draws jitter from its own Rng), so compare as a set.
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"default:p0:1", "g1:p0:2",
                                           "g2:p0:3"}));
}

TEST(GroupChannels, PauseIsProcessGlobal) {
  sim::Simulator sim;
  Rng rng(7);
  net::SimNetwork net(sim, rng, {}, make_universe(2));
  net.open_group(1, 11);
  std::size_t deliveries = 0;
  net.attach_group(1, ProcessId(1),
                   [&](ProcessId, const Bytes&) { ++deliveries; });
  net.pause(ProcessId(1));
  net.send_group(1, ProcessId(0), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{1000000});
  EXPECT_EQ(deliveries, 0u);  // unplugging a machine unplugs every channel
  net.resume(ProcessId(1));
  net.send_group(1, ProcessId(0), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{2000000});
  EXPECT_EQ(deliveries, 1u);
}

TEST(GroupPort, TranslatesLocalIdsToPoolIds) {
  sim::Simulator sim;
  Rng rng(3);
  net::SimNetwork net(sim, rng, {}, make_universe(5));
  // Shard hosted on pool {1, 3, 4}: local 0->1, 1->3, 2->4.
  shard::GroupPort port(net, 1, {ProcessId(1), ProcessId(3), ProcessId(4)},
                        123);
  EXPECT_EQ(port.to_pool(ProcessId(2)), ProcessId(4));
  EXPECT_EQ(port.to_local(ProcessId(3)), ProcessId(1));
  EXPECT_THROW((void)port.to_local(ProcessId(0)), std::logic_error);
  EXPECT_EQ(port.processes(), make_universe(3));

  std::vector<std::string> got;
  port.attach(ProcessId(1), [&](ProcessId from, const Bytes&) {
    got.push_back("from-local-" + from.to_string());
  });
  port.send(ProcessId(2), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{1000000});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "from-local-p2");  // pool p4 translated back to local 2
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
  mux.attach_default(ProcessId(1), [&](ProcessId from, const Bytes& b) {
    got.push_back("untagged-from-" + from.to_string() + ":" +
                  std::to_string(b.size()));
  });

  // Group 1: pool 0 -> pool 1 is local 0 -> local 1.
  p1.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  // Group 2: pool 2 -> pool 1 is local 1 -> local 0.
  p2.send(ProcessId(1), ProcessId(0), bytes({0x01}));
  // Untagged legacy traffic to the same destination.
  net.send(ProcessId(3), ProcessId(1), bytes({0x01, 0x02}));
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
           vsys::encode_group_frame(9, bytes({0x01})));
  // A well-formed group-1 frame from a process that is not a replica of
  // group 1 — must not reach the handler (to_local would have no mapping).
  net.send(ProcessId(2), ProcessId(1),
           vsys::encode_group_frame(1, bytes({0x01})));
  sim.run_until(sim::Time{1000000});
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(mux.unroutable(), 2u);

  // Real traffic still flows.
  p1.send(ProcessId(0), ProcessId(1), bytes({0x01}));
  sim.run_until(sim::Time{2000000});
  EXPECT_EQ(deliveries, 1u);
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

}  // namespace
}  // namespace dvs
