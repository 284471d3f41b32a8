// Dynamic shard re-provisioning conformance suite (tests the tentpole of
// shard/reprovision.h + ShardCluster dynamic mode):
//
//   1. plan_reprovision unit laws — slot stability, deterministic donor and
//      joiner choice, stall/loss accounting — plus the 0x48 transfer frame
//      and slot-snapshot codecs and the chunk reassembly path the daemon's
//      joiner bootstrap runs on.
//   2. The router pool-view regression: contact() must never hand a client
//      a replica the live pool view no longer contains when a live one
//      exists (the dvsd bug was a never-installed pool view).
//   3. The no-view-change differential: with a stable pool, dynamic mode is
//      BYTE-INERT — run_shard_chaos_seed with dynamic on and off must agree
//      on plans, verdicts, delivery orders and counters, seed for seed, at
//      any --jobs, and the workload runner's SLO JSON must match too.
//   4. Migration safety: kill a replica's pool process, let the pool view
//      drive a migration with state transfer, and check the shard comes
//      back primary with the established order intact (oracle PASS; orders
//      prefix-consistent and complete).
//   5. The crash-point sweep: inject a crash at EVERY persistence barrier
//      of a migration episode; recovery must roll the episode forward or
//      back — never a split-brain — and the migration must still complete.
//   6. The same episode functions over a storage::FileStableStore (dvsd's
//      store type), crashed at every barrier and recovered from a fresh
//      store over the same directory: the slot's live journals end up
//      exactly the donor snapshot (roll-forward) or exactly the prior
//      host's (roll-back).
//
// DVS_REPROVISION_SEEDS overrides the differential's per-n seed count
// (sanitizer gates shrink it; the default suite runs the full 200).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/seed_sweep.h"
#include "shard/reprovision.h"
#include "shard/router.h"
#include "shard/shard_chaos.h"
#include "shard/shard_cluster.h"
#include "storage/file_store.h"
#include "tosys/process_column.h"
#include "workload/runner.h"

namespace dvs {
namespace {

using shard::ShardAssignment;

// ===== 1. plan laws ==========================================================

std::vector<ShardAssignment> installed_4pool() {
  // Pool {0,1,2,3}, K=2, r=2: shard1={0,1}, shard2={1,2}.
  return shard::provision(make_universe(4), 2, 2);
}

TEST(ReprovisionPlan, StablePoolPlansNothing) {
  const auto plan = shard::plan_reprovision(installed_4pool(), make_universe(4));
  EXPECT_TRUE(plan.empty());
}

TEST(ReprovisionPlan, EmptyInstalledPlansNothing) {
  const auto plan = shard::plan_reprovision({}, make_universe(3));
  EXPECT_TRUE(plan.empty());
}

TEST(ReprovisionPlan, EmptyLiveViewLosesEveryColumn) {
  const auto plan = shard::plan_reprovision(installed_4pool(), ProcessSet{});
  EXPECT_TRUE(plan.migrations.empty());
  EXPECT_EQ(plan.lost, 2u);
}

TEST(ReprovisionPlan, DepartedSlotMovesOntoFreshCandidate) {
  // 0 departs: shard1 slot0 (host 0) must move; shard2 = {1,2} survives
  // untouched. Target over {1,2,3} gives shard1 = {1,2}; the only fresh
  // candidate is 2. Donor = the lowest-pool-id survivor, slot1 (host 1).
  const auto plan =
      shard::plan_reprovision(installed_4pool(), make_process_set({1, 2, 3}));
  ASSERT_EQ(plan.migrations.size(), 1u);
  const shard::GroupMigration& gm = plan.migrations.front();
  EXPECT_EQ(gm.group, 1u);
  EXPECT_EQ(gm.source_slot, ProcessId(1));
  ASSERT_EQ(gm.moves.size(), 1u);
  EXPECT_EQ(gm.moves.front(),
            (shard::SlotMove{ProcessId(0), ProcessId(0), ProcessId(2)}));
  EXPECT_EQ(plan.stalled, 0u);
  EXPECT_EQ(plan.lost, 0u);
}

TEST(ReprovisionPlan, ApplyPatchesOnlyMovedSlotsAndConverges) {
  const auto installed = installed_4pool();
  const ProcessSet live = make_process_set({1, 2, 3});
  const auto plan = shard::plan_reprovision(installed, live);
  const auto patched = shard::apply_plan(installed, plan);
  // Slot order is identity, not pool order: slot0 now hosts 2, slot1 keeps 1.
  EXPECT_EQ(patched[0].replicas, (std::vector<ProcessId>{ProcessId(2),
                                                          ProcessId(1)}));
  EXPECT_EQ(patched[1].replicas, installed[1].replicas);  // survivors stay
  // Fixpoint: the patched map is stable under the same live view.
  EXPECT_TRUE(shard::plan_reprovision(patched, live).empty());
}

TEST(ReprovisionPlan, MultipleDeparturesPairAscendingBySlot) {
  // Pool {0..5}, K=1, r=3: shard1={0,1,2}. 0 and 1 depart; target over
  // {2,3,4,5} is {2,3,4}, so fresh candidates {3,4} pair with slots 0,1 in
  // slot order. Donor is slot2 (host 2, the only survivor).
  const auto installed = shard::provision(make_universe(6), 1, 3);
  const auto plan =
      shard::plan_reprovision(installed, make_process_set({2, 3, 4, 5}));
  ASSERT_EQ(plan.migrations.size(), 1u);
  const shard::GroupMigration& gm = plan.migrations.front();
  EXPECT_EQ(gm.source_slot, ProcessId(2));
  ASSERT_EQ(gm.moves.size(), 2u);
  EXPECT_EQ(gm.moves[0],
            (shard::SlotMove{ProcessId(0), ProcessId(0), ProcessId(3)}));
  EXPECT_EQ(gm.moves[1],
            (shard::SlotMove{ProcessId(1), ProcessId(1), ProcessId(4)}));
}

TEST(ReprovisionPlan, PoolBelowReplicationStallsTheRefill) {
  // Pool {0,1}, K=1, r=2: shard1={0,1}. Only 1 survives; the clamped
  // target over {1} is {1}, already hosting — no candidate, so the refill
  // stalls (re-planned when the pool grows back).
  const auto installed = shard::provision(make_universe(2), 1, 2);
  const auto plan = shard::plan_reprovision(installed, make_process_set({1}));
  EXPECT_TRUE(plan.migrations.empty());
  EXPECT_EQ(plan.stalled, 1u);
  EXPECT_EQ(plan.lost, 0u);
}

TEST(ReprovisionPlan, AllReplicasDepartedIsLostNotMigrated) {
  // Nobody who holds shard1's state survives: nothing can migrate.
  const auto installed = shard::provision(make_universe(2), 1, 2);
  const auto plan = shard::plan_reprovision(installed, make_process_set({2, 3}));
  EXPECT_TRUE(plan.migrations.empty());
  EXPECT_EQ(plan.lost, 1u);
}

TEST(ReprovisionPlan, PlanIsAPureFunctionOfItsInputs) {
  const auto installed = installed_4pool();
  const ProcessSet live = make_process_set({1, 3});
  const auto a = shard::plan_reprovision(installed, live);
  const auto b = shard::plan_reprovision(installed, live);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.stalled, b.stalled);
  EXPECT_EQ(a.lost, b.lost);
}

// ===== 1b. transfer frame / snapshot codecs ==================================

Bytes bytes_of(std::initializer_list<int> vals) {
  Bytes b;
  for (int v : vals) b.push_back(static_cast<std::byte>(v));
  return b;
}

TEST(TransferCodec, FramesRoundTrip) {
  shard::TransferFrame req;
  req.kind = shard::TransferKind::kRequest;
  req.group = 3;
  req.slot = 1;
  req.episode = 17;
  const Bytes enc = shard::encode_transfer(req);
  EXPECT_TRUE(shard::looks_like_transfer_frame(enc));
  EXPECT_EQ(shard::decode_transfer(enc), req);

  shard::TransferFrame snap;
  snap.kind = shard::TransferKind::kSnapshot;
  snap.group = 2;
  snap.slot = 0;
  snap.episode = 17;
  snap.seq = 4;
  snap.total = 9;
  snap.payload = bytes_of({1, 2, 3, 0, 255});
  EXPECT_EQ(shard::decode_transfer(shard::encode_transfer(snap)), snap);
}

TEST(TransferCodec, SniffRejectsForeignPayloads) {
  EXPECT_FALSE(shard::looks_like_transfer_frame({}));
  EXPECT_FALSE(shard::looks_like_transfer_frame(bytes_of({0x48})));
  // Right tag, wrong version (v1 frames had no episode nonce).
  EXPECT_FALSE(shard::looks_like_transfer_frame(bytes_of({0x48, 1})));
  // The group-frame tag (0x47) and bare protocol frames never collide.
  EXPECT_FALSE(shard::looks_like_transfer_frame(bytes_of({0x47, 1, 0})));
}

TEST(TransferCodec, DecodeRejectsMalformedFrames) {
  shard::TransferFrame f;
  f.kind = shard::TransferKind::kSnapshot;
  f.seq = 0;
  f.total = 1;
  Bytes good = shard::encode_transfer(f);

  EXPECT_THROW(
      shard::decode_transfer(bytes_of({0x49, 2, 1, 0, 0, 0, 0, 0, 0})),
      DecodeError);  // bad tag
  EXPECT_THROW(
      shard::decode_transfer(bytes_of({0x48, 9, 1, 0, 0, 0, 0, 0, 0})),
      DecodeError);  // bad version
  EXPECT_THROW(
      shard::decode_transfer(bytes_of({0x48, 1, 1, 0, 0, 0, 0, 0})),
      DecodeError);  // v1 frame (no episode field) rejected at the version
  EXPECT_THROW(
      shard::decode_transfer(bytes_of({0x48, 2, 7, 0, 0, 0, 0, 0, 0})),
      DecodeError);  // unknown kind
  Bytes trailing = good;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(shard::decode_transfer(trailing), DecodeError);
  // Snapshot-specific structure: zero total, seq beyond total.
  shard::TransferFrame zero_total = f;
  zero_total.total = 0;
  EXPECT_THROW(shard::decode_transfer(shard::encode_transfer(zero_total)),
               DecodeError);
  shard::TransferFrame beyond = f;
  beyond.seq = 5;
  beyond.total = 5;
  EXPECT_THROW(shard::decode_transfer(shard::encode_transfer(beyond)),
               DecodeError);
}

TEST(TransferCodec, SnapshotRoundTripsIncludingEmptyJournals) {
  shard::SlotSnapshot s;
  s.vs = {};  // a never-written journal is a legal (empty) field
  s.dvs = bytes_of({9, 8, 7});
  s.to = bytes_of({1});
  s.next = 42;
  EXPECT_EQ(shard::decode_snapshot(shard::encode_snapshot(s)), s);
  EXPECT_EQ(shard::decode_snapshot(shard::encode_snapshot({})),
            shard::SlotSnapshot{});
}

TEST(TransferCodec, ChunkingCoversEveryByteAndEmptySnapshots) {
  Bytes enc;
  for (int i = 0; i < 1000; ++i) enc.push_back(static_cast<std::byte>(i));
  const auto frames = shard::chunk_snapshot(1, 0, /*episode=*/7, enc, 64);
  ASSERT_EQ(frames.size(), (enc.size() + 63) / 64);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].episode, 7u);  // every chunk echoes the request
    EXPECT_EQ(frames[i].seq, i);
    EXPECT_EQ(frames[i].total, frames.size());
  }
  // An empty snapshot still produces one (empty) terminating frame.
  const auto empty = shard::chunk_snapshot(1, 0, 1, {}, 64);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty.front().payload.empty());
}

TEST(TransferCodec, AssemblerReassemblesOutOfOrderWithDuplicates) {
  Bytes enc;
  for (int i = 0; i < 300; ++i) enc.push_back(static_cast<std::byte>(i * 7));
  const auto frames = shard::chunk_snapshot(2, 1, /*episode=*/1, enc, 32);
  shard::SnapshotAssembler asm_;
  // Reverse arrival order, every frame delivered twice.
  for (std::size_t i = frames.size(); i-- > 0;) {
    const bool complete = asm_.add(frames[i]);
    EXPECT_EQ(complete, i == 0);
    EXPECT_FALSE(asm_.add(frames[i]));  // duplicate never re-completes
  }
  EXPECT_TRUE(asm_.complete());
  EXPECT_EQ(asm_.take(), enc);
  EXPECT_FALSE(asm_.complete());  // take() resets for the next episode
  // Late duplicates of the taken episode never start a second assembly.
  EXPECT_FALSE(asm_.add(frames[0]));
  EXPECT_FALSE(asm_.complete());
}

TEST(TransferCodec, AssemblerNeverMixesEpisodes) {
  // Two answers to retried requests: same geometry, different content —
  // exactly the interleaving that used to assemble a decodable but
  // internally inconsistent snapshot.
  const auto ep1 = shard::chunk_snapshot(1, 0, 1, bytes_of({1, 2, 3, 4}), 2);
  const auto ep2 = shard::chunk_snapshot(1, 0, 2, bytes_of({5, 6, 7, 8}), 2);
  ASSERT_EQ(ep1.size(), 2u);
  shard::SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.add(ep1[0]));
  // A frame from a NEWER episode supersedes the partial assembly...
  EXPECT_FALSE(asm_.add(ep2[1]));
  // ...so the older episode's chunks are dropped, not mixed in.
  EXPECT_FALSE(asm_.add(ep1[1]));
  EXPECT_FALSE(asm_.complete());
  EXPECT_TRUE(asm_.add(ep2[0]));
  EXPECT_EQ(asm_.take(), bytes_of({5, 6, 7, 8}));

  // A donor whose state grew between answers ships a different chunk count:
  // the new episode replaces the old assembly wholesale.
  const auto small = shard::chunk_snapshot(1, 0, 3, bytes_of({9, 9, 9}), 2);
  const auto grown =
      shard::chunk_snapshot(1, 0, 4, bytes_of({1, 2, 3, 4, 5}), 2);
  EXPECT_FALSE(asm_.add(small[0]));
  for (const auto& f : grown) asm_.add(f);
  EXPECT_TRUE(asm_.complete());
  EXPECT_EQ(asm_.take(), bytes_of({1, 2, 3, 4, 5}));

  // Same episode, inconsistent geometry (an honest donor sends one answer
  // per episode): the frame is dropped as corrupt.
  const auto e5 = shard::chunk_snapshot(1, 0, 5, bytes_of({1, 2, 3, 4}), 2);
  shard::TransferFrame forged = e5[1];
  forged.total = 3;
  EXPECT_FALSE(asm_.add(e5[0]));
  EXPECT_FALSE(asm_.add(forged));
  EXPECT_TRUE(asm_.add(e5[1]));
  EXPECT_EQ(asm_.take(), bytes_of({1, 2, 3, 4}));
}

TEST(TransferCodec, AssemblerExpectQuarantinesPoisonedEpisodes) {
  // After a failed install the joiner quarantines everything it asked for
  // so far: duplicates of the poisoned episode must never re-complete.
  const auto ep1 = shard::chunk_snapshot(1, 0, 1, bytes_of({1, 2, 3}), 2);
  ASSERT_EQ(ep1.size(), 2u);
  shard::SnapshotAssembler asm_;
  EXPECT_FALSE(asm_.add(ep1[0]));
  EXPECT_TRUE(asm_.add(ep1[1]));
  (void)asm_.take();
  asm_.expect(2);
  for (const auto& f : ep1) EXPECT_FALSE(asm_.add(f));
  EXPECT_FALSE(asm_.complete());
  // The re-requested episode assembles normally.
  const auto ep2 = shard::chunk_snapshot(1, 0, 2, bytes_of({4, 5, 6}), 2);
  EXPECT_FALSE(asm_.add(ep2[0]));
  EXPECT_TRUE(asm_.add(ep2[1]));
  EXPECT_EQ(asm_.take(), bytes_of({4, 5, 6}));
}

// ===== 2. router pool-view regression ========================================

TEST(RouterPoolView, ContactSkipsReplicasTheLiveViewLost) {
  shard::ShardRouter router(1);
  ShardAssignment a;
  a.group = 1;
  a.replicas = {ProcessId(0), ProcessId(1), ProcessId(2)};
  router.set_assignments({a});
  // The dvsd regression: with no pool view installed the router can only
  // fall back to the first provisioned replica — even when it is dead.
  EXPECT_EQ(router.contact(1, ProcessId(5)), ProcessId(0));
  // With the live view installed, a departed first replica is skipped.
  router.set_pool_view(make_process_set({1, 2, 3}));
  EXPECT_EQ(router.contact(1, ProcessId(5)), ProcessId(1));
  // A hosting home always wins.
  EXPECT_EQ(router.contact(1, ProcessId(2)), ProcessId(2));
  // Nobody provisioned survives: fall back to the first replica (it may be
  // rejoining; the op times out and retries above the router).
  router.set_pool_view(make_process_set({7, 8}));
  EXPECT_EQ(router.contact(1, ProcessId(7)), ProcessId(0));
}

TEST(RouterPoolView, ReResolutionsCountActualChangesOnly) {
  shard::ShardRouter router(1);
  ShardAssignment a;
  a.group = 1;
  a.replicas = {ProcessId(0), ProcessId(1)};
  router.set_assignments({a});
  const std::uint64_t base = router.re_resolutions();
  router.set_pool_view(make_universe(3));
  EXPECT_EQ(router.re_resolutions(), base + 1);
  router.set_pool_view(make_universe(3));  // unchanged membership
  EXPECT_EQ(router.re_resolutions(), base + 1);
  router.set_pool_view(make_process_set({0, 1}));
  EXPECT_EQ(router.re_resolutions(), base + 2);
}

// ===== 3. the no-view-change differential ====================================

std::size_t seeds_per_n() {
  if (const char* env = std::getenv("DVS_REPROVISION_SEEDS")) {
    const std::size_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 200;
}

// A chaos mix whose pool views provably stay stable: every membership fault
// (partitions, pauses, restarts) and the high-rate drop windows are zeroed —
// a drop window at 0.4 loss can outlast the suspicion timeout and falsely
// evict a live pool member, which would make dynamic mode *correctly*
// migrate and the byte-compare meaningless. Dup bursts and the steady
// anomaly rates stay on: they stress delivery, never membership.
shard::ShardChaosConfig stable_pool_chaos(std::size_t n) {
  shard::ShardChaosConfig c;
  c.cluster.shards = 2;
  c.cluster.replication = 2;
  c.cluster.base.n_processes = n;
  c.plan.horizon = 2 * sim::kSecond;
  c.plan.events = 10;
  c.plan.w_partition = 0.0;
  c.plan.w_heal = 0.0;
  c.plan.w_crash = 0.0;
  c.plan.w_recover = 0.0;
  c.plan.w_restart = 0.0;
  c.plan.w_drop_window = 0.0;
  c.plan.w_dup_burst = 1.0;
  c.broadcasts = 40;
  c.settle = 1500 * sim::kMillisecond;
  // Both arms journal: dynamic mode requires persistence, and the arms must
  // run the identical stack for the byte-compare to mean anything.
  c.cluster.base.persistence = true;
  return c;
}

std::string orders_text(
    const std::vector<std::vector<std::vector<std::uint64_t>>>& orders) {
  std::string out;
  for (std::size_t s = 0; s < orders.size(); ++s) {
    out += "shard " + std::to_string(s + 1) + "\n";
    for (std::size_t r = 0; r < orders[s].size(); ++r) {
      out += "  p" + std::to_string(r) + ":";
      for (const std::uint64_t uid : orders[s][r]) {
        out += " " + std::to_string(uid);
      }
      out += "\n";
    }
  }
  return out;
}

/// Runs one seed with dynamic off and on; returns a diagnosis ("" = inert).
std::string compare_seed(std::uint64_t seed, std::size_t n) {
  const shard::ShardChaosConfig off = stable_pool_chaos(n);
  shard::ShardChaosConfig on = off;
  on.cluster.dynamic = true;

  const shard::ShardChaosResult a = run_shard_chaos_seed(seed, off);
  const shard::ShardChaosResult b = run_shard_chaos_seed(seed, on);

  auto ctx = [&](const std::string& what) {
    return "seed " + std::to_string(seed) + " n=" + std::to_string(n) + ": " +
           what;
  };
  if (b.migrations != 0 || b.migration_stalls != 0 || b.migrations_lost != 0) {
    return ctx("stable pool migrated: " + std::to_string(b.migrations) + "/" +
               std::to_string(b.migration_stalls) + "/" +
               std::to_string(b.migrations_lost));
  }
  if (a.plan_text != b.plan_text) return ctx("fault plans diverge");
  if (a.ok != b.ok) {
    return ctx("verdicts diverge: static " +
               std::string(a.ok ? "ok" : ("FAIL (" + a.failure + ")")) +
               ", dynamic " +
               std::string(b.ok ? "ok" : ("FAIL (" + b.failure + ")")));
  }
  if (!a.ok) return ctx("both modes violated the spec: " + a.failure);
  if (orders_text(a.orders) != orders_text(b.orders)) {
    return ctx("delivery orders diverge:\nstatic:\n" + orders_text(a.orders) +
               "dynamic:\n" + orders_text(b.orders));
  }
  const shard::ChaosStats& sa = a.stats;
  const shard::ChaosStats& sb = b.stats;
  const auto same = [&sa, &sb](const char* key) {
    return sa.metrics.counter_sum(key) == sb.metrics.counter_sum(key);
  };
  if (sa.events_checked != sb.events_checked ||
      sa.deliveries != sb.deliveries || !same("vs.views_installed") ||
      !same("vs.duplicates_suppressed") || !same("vs.decode_errors")) {
    return ctx("column counters diverge");
  }
  return {};
}

/// Fans `count` seeds over `jobs` threads. `total` is every diverging seed's
/// diagnosis, one line each, joined in seed order (empty when all agree);
/// only a seed that throws lands in `first_failure`.
parallel::SweepResult<std::string> sweep(std::size_t count, std::size_t n,
                                         std::size_t jobs) {
  const parallel::SeedSweepConfig config{
      .first_seed = 1, .num_seeds = count, .jobs = jobs};
  return parallel::sweep_seeds<std::string>(
      config, [n](std::uint64_t seed) -> std::string {
        const std::string diag = compare_seed(seed, n);
        return diag.empty() ? diag : diag + "\n";
      });
}

std::string failure_text(const parallel::SweepResult<std::string>& r) {
  return r.first_failure.has_value()
             ? "seed " + std::to_string(r.first_failure->seed) + " threw: " +
                   r.first_failure->message
             : std::string();
}

class ReprovisionDifferential : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(ReprovisionDifferential, StablePoolIsByteInert) {
  const std::size_t n = GetParam();
  const std::size_t count = seeds_per_n();
  const auto r = sweep(count, n, 0);
  EXPECT_EQ(r.seeds_failed, 0u) << failure_text(r);
  EXPECT_EQ(r.total, "") << count << " seeds at n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ReprovisionDifferential,
                         ::testing::Values(2, 3, 4));

TEST(ReprovisionDifferential, SweepIsJobsInvariant) {
  // Every seed's diagnosis, not just the counts: a job-count dependence
  // that moves a divergence from one seed to another must show.
  const std::size_t count = 12;
  const auto serial = sweep(count, 3, 1);
  const auto fanned = sweep(count, 3, 4);
  EXPECT_EQ(serial.total, fanned.total);
  EXPECT_EQ(serial.seeds_failed, fanned.seeds_failed);
  EXPECT_EQ(failure_text(serial), failure_text(fanned));
}

TEST(ReprovisionDifferential, SloReportsAreByteIdentical) {
  // The workload runner end to end: with a stable pool, `dynamic on` must
  // reproduce the static scenario's SLO report byte for byte.
  for (const std::size_t n : {3, 4}) {
    workload::Scenario sc;
    sc.name = "reprov-eq";
    sc.n = n;
    sc.shards = 2;
    sc.replication = 2;
    sc.persistence = true;  // both arms journal (dynamic would force it)
    sc.clients = 3;
    sc.horizon = 2 * sim::kSecond;
    sc.warmup = 300 * sim::kMillisecond;
    sc.settle = 1 * sim::kSecond;
    sc.net.drop_probability = 0.01;
    const std::size_t slo_seeds = std::min<std::size_t>(seeds_per_n(), 20);
    for (std::uint64_t seed = 1; seed <= slo_seeds; ++seed) {
      sc.dynamic = false;
      const workload::SeedOutcome a = workload::run_scenario_seed(sc, seed);
      sc.dynamic = true;
      const workload::SeedOutcome b = workload::run_scenario_seed(sc, seed);
      ASSERT_EQ(a.slo.to_json(), b.slo.to_json())
          << "n=" << n << " seed " << seed;
    }
  }
}

// ===== 4 & 5. migration safety and the crash-point sweep =====================

shard::ShardClusterConfig dynamic_cluster_config(std::size_t pool) {
  shard::ShardClusterConfig cfg;
  cfg.shards = 2;
  cfg.replication = 2;
  cfg.dynamic = true;
  cfg.base.n_processes = pool;
  cfg.base.persistence = true;  // journals are the transferable state
  return cfg;
}

/// The established order at one column slot, as client-message uids.
std::vector<std::uint64_t> order_uids(tosys::Cluster& column, ProcessId slot) {
  auto& at = column.to_node(slot).automaton();
  std::vector<std::uint64_t> uids;
  uids.reserve(at.order().size());
  for (const Label& l : at.order()) {
    const auto it = at.content().find(l);
    uids.push_back(it == at.content().end() ? 0 : it->second.uid);
  }
  return uids;
}

/// Asserts shard k's replicas agree on a common established prefix and that
/// the longest order contains every broadcast uid. (Per-receiver *delivery*
/// streams may legally re-deliver after a handoff; the established order may
/// not diverge — that would be the split-brain the oracle also catches.)
void expect_orders_consistent(shard::ShardCluster& sc, std::uint32_t k,
                              const std::vector<std::uint64_t>& sent) {
  tosys::Cluster& column = sc.shard(k);
  const std::size_t r = sc.assignment(k).replicas.size();
  std::vector<std::uint64_t> longest;
  for (std::size_t i = 0; i < r; ++i) {
    const auto uids =
        order_uids(column, ProcessId(static_cast<std::uint32_t>(i)));
    if (uids.size() > longest.size()) longest = uids;
  }
  for (std::size_t i = 0; i < r; ++i) {
    const auto uids =
        order_uids(column, ProcessId(static_cast<std::uint32_t>(i)));
    ASSERT_LE(uids.size(), longest.size());
    for (std::size_t j = 0; j < uids.size(); ++j) {
      ASSERT_EQ(uids[j], longest[j])
          << "shard " << k << " slot " << i << " diverges at index " << j;
    }
  }
  for (const std::uint64_t uid : sent) {
    EXPECT_NE(std::find(longest.begin(), longest.end(), uid), longest.end())
        << "shard " << k << " lost uid " << uid;
  }
}

TEST(MigrationSafety, KilledReplicaMigratesAndTheOrderCompletes) {
  // Pool {0,1,2,3}, K=2, r=2: shard1={0,1}, shard2={1,2}. Killing 0 leaves
  // shard1 without a quorum of its 2-member view — the pool view change
  // must refill slot0 on a survivor (2) via state transfer, after which the
  // shard is primary again and everything broadcast before, during and
  // after the outage establishes in one agreed order.
  shard::ShardCluster sc(dynamic_cluster_config(4), /*seed=*/7);
  std::uint64_t handoffs = 0;
  sc.set_handoff_hook([&](std::uint32_t, ProcessId) { ++handoffs; });
  sc.start();

  std::vector<std::uint64_t> sent1, sent2;
  std::uint64_t uid = 1;
  auto send = [&](std::uint32_t k, ProcessId slot) {
    AppMsg a;
    a.uid = uid++;
    a.origin = slot;
    a.payload = "m" + std::to_string(a.uid);
    sc.bcast(k, slot, a);
    (k == 1 ? sent1 : sent2).push_back(a.uid);
  };

  sc.run_for(500 * sim::kMillisecond);
  send(1, ProcessId(0));  // at the soon-to-die replica
  send(1, ProcessId(1));
  send(2, ProcessId(0));
  sc.run_for(500 * sim::kMillisecond);

  sc.net().pause(ProcessId(0));  // kill shard1's slot0 host
  // The pool view must evict 0 and the plan must migrate slot0.
  for (int i = 0; i < 40 && sc.migrations() == 0; ++i) {
    sc.run_for(100 * sim::kMillisecond);
  }
  ASSERT_GE(sc.migrations(), 1u) << "pool view change never migrated slot0";
  EXPECT_EQ(handoffs, sc.migrations());
  EXPECT_EQ(sc.assignment(1).replicas[0], ProcessId(2));
  EXPECT_EQ(sc.assignment(1).replicas[1], ProcessId(1));
  EXPECT_EQ(sc.assignment(2).replicas,
            (std::vector<ProcessId>{ProcessId(1), ProcessId(2)}));

  send(1, ProcessId(1));  // the refilled shard must accept new load
  send(2, ProcessId(1));
  sc.run_for(1 * sim::kSecond);
  sc.net().resume(ProcessId(0));  // the old host rejoins the pool...
  sc.run_for(3 * sim::kSecond);
  // ...but slot-stable planning moves nothing back.
  EXPECT_EQ(sc.assignment(1).replicas[0], ProcessId(2));

  EXPECT_TRUE(sc.oracle_ok()) << sc.violation_message();
  EXPECT_TRUE(sc.check_invariants());
  expect_orders_consistent(sc, 1, sent1);
  expect_orders_consistent(sc, 2, sent2);
  // The refill restored availability: every shard spent time primary.
  EXPECT_GT(sc.min_primary_fraction(), 0.0);
}

TEST(MigrationCrashSweep, EveryBarrierRollsForwardOrBackNeverSplitBrain) {
  // Pool {0,1,2}, K=2, r=2: shard1={0,1}, shard2={1,2}; killing 0 plans
  // exactly one move (shard1 slot0 → 2), whose episode crosses 10
  // persistence barriers. Crash at every one of them: the run-global
  // ordinal hook throws at barrier i *and every barrier after it* (the
  // node keeps crashing until the operator intervenes — so the sibling
  // pool members' replanning attempts crash too instead of silently
  // completing the episode for us), then recovery must roll the episode
  // forward (meta marker present) or back (re-planned) and converge.
  std::size_t clean_at = 0;
  for (std::size_t barrier = 0;; ++barrier) {
    ASSERT_LT(barrier, 64u) << "sweep failed to terminate";
    shard::ShardCluster sc(dynamic_cluster_config(3), /*seed=*/11);
    bool crashed = false;
    sc.set_migration_crash_hook([&](std::size_t ordinal) {
      if (ordinal >= barrier) throw shard::MigrationCrash(ordinal);
    });
    sc.start();

    std::vector<std::uint64_t> sent1, sent2;
    auto send = [&](std::uint32_t k, ProcessId slot, std::uint64_t uid) {
      AppMsg a;
      a.uid = uid;
      a.origin = slot;
      a.payload = "c" + std::to_string(uid);
      sc.bcast(k, slot, a);
      (k == 1 ? sent1 : sent2).push_back(uid);
    };
    auto run_catching = [&](sim::Time d) {
      try {
        sc.run_for(d);
      } catch (const shard::MigrationCrash&) {
        crashed = true;
      }
    };

    run_catching(400 * sim::kMillisecond);
    send(1, ProcessId(1), 100 + barrier);
    send(2, ProcessId(0), 200 + barrier);
    run_catching(400 * sim::kMillisecond);
    sc.net().pause(ProcessId(0));
    for (int i = 0; i < 40 && sc.migrations() == 0 && !crashed; ++i) {
      run_catching(100 * sim::kMillisecond);
    }

    if (crashed) {
      // Operator intervention: stop injecting, recover, settle.
      sc.set_migration_crash_hook({});
      sc.recover_migrations();
    } else {
      clean_at = barrier;
    }
    for (int i = 0; i < 40 && sc.migrations() == 0; ++i) {
      sc.run_for(100 * sim::kMillisecond);
    }
    ASSERT_GE(sc.migrations(), 1u)
        << "migration never completed after crash at barrier " << barrier;
    send(1, ProcessId(1), 300 + barrier);
    sc.run_for(3 * sim::kSecond);

    EXPECT_EQ(sc.assignment(1).replicas[0], ProcessId(2))
        << "barrier " << barrier;
    EXPECT_TRUE(sc.oracle_ok())
        << "barrier " << barrier << ": " << sc.violation_message();
    EXPECT_TRUE(sc.check_invariants()) << "barrier " << barrier;
    expect_orders_consistent(sc, 1, sent1);
    expect_orders_consistent(sc, 2, sent2);
    if (!crashed) break;  // the hook outran the episode: sweep complete
  }
  // The sweep must actually have crossed every barrier of one episode
  // (snapshot, 3 staging writes, meta commit, 3 installs, cutover, clear).
  EXPECT_GE(clean_at, 10u);
}

// ===== 6. the shared episode over a file store ===============================

Bytes text(const std::string& s) {
  Bytes out;
  for (const char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

TEST(MigrationCrashSweep, FileStoreEpisodeRollsForwardOrBack) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("dvs_episode_sweep_" + std::to_string(::getpid()));
  const ProcessId slot(1);
  const ProcessId prior_host(0);
  const ProcessId joiner(2);
  // What the slot's previous incarnation on this host left behind, and the
  // donor's snapshot (whose DVS journal was never written).
  const shard::SlotSnapshot prior{text("prior-vs"), text("prior-dvs"),
                                  text("prior-to"), 1};
  const shard::SlotSnapshot donor{text("donor-vs"), {}, text("donor-to"), 7};

  // The volatile half of the host: where the slot lives, as the cutover
  // re-points it. A crash forgets it; only recovery can move it again.
  ProcessId host = prior_host;
  std::size_t ordinal = 0;
  std::size_t crash_at = 0;
  shard::EpisodeHooks hooks;
  hooks.barrier = [&] {
    if (ordinal++ == crash_at) throw shard::MigrationCrash(crash_at);
  };
  hooks.cutover = [&](const shard::MigrationMarker& m) {
    EXPECT_EQ(m, (shard::MigrationMarker{joiner, donor.next}));
    host = m.to;
  };
  // Recovery after a crash: a fresh store over the same directory, as a
  // restarted daemon sees it; `crash_in_recovery` crashes recovery too.
  const auto recover = [&](std::size_t crash_in_recovery) {
    host = prior_host;
    ordinal = 0;
    crash_at = crash_in_recovery;
    storage::FileStableStore store(root.string());
    return shard::recover_episode(store, slot, hooks);
  };
  // A finished episode keeps no second copy of the slot's journals.
  const auto staging_empty = [&](const storage::FileStableStore& store) {
    for (const char* leaf : {"vs", "dvs", "to", "meta"}) {
      const std::optional<Bytes> v =
          store.load(shard::transfer_stage_key(slot, leaf));
      if (v.has_value() && !v->empty()) return false;
    }
    return true;
  };

  std::size_t forward = 0;
  std::size_t back = 0;
  for (std::size_t barrier = 0;; ++barrier) {
    ASSERT_LT(barrier, 32u) << "sweep failed to terminate";
    fs::remove_all(root);
    {
      storage::FileStableStore store(root.string());
      store.replace(tosys::ProcessColumn::storage_key(slot, "vs"), prior.vs);
      store.replace(tosys::ProcessColumn::storage_key(slot, "dvs"), prior.dvs);
      store.replace(tosys::ProcessColumn::storage_key(slot, "to"), prior.to);
    }
    host = prior_host;
    ordinal = 0;
    crash_at = barrier;
    bool crashed = false;
    try {
      storage::FileStableStore store(root.string());
      shard::run_episode(store, slot, joiner, donor, hooks);
    } catch (const shard::MigrationCrash&) {
      crashed = true;
    }
    if (!crashed) {
      // The hook outran the episode: every barrier was crossed.
      EXPECT_EQ(barrier, 9u) << "stage x3, marker, install x3, cutover, clear";
      EXPECT_EQ(host, joiner);
      storage::FileStableStore store(root.string());
      EXPECT_EQ(shard::snapshot_slot(store, slot, donor.next), donor);
      EXPECT_TRUE(staging_empty(store));
      EXPECT_FALSE(recover(SIZE_MAX)) << "a finished episode left its marker";
      break;
    }
    // The marker is the commit point: barrier 3 guards its write.
    const bool committed = barrier > 3;
    if (committed) {
      // Recovery may crash too, at each of its own barriers; a later clean
      // recovery still finishes the episode.
      for (std::size_t again = 0; again < 5; ++again) {
        EXPECT_THROW((void)recover(again), shard::MigrationCrash)
            << "barrier " << barrier << ", recovery crash " << again;
      }
    }
    EXPECT_EQ(recover(SIZE_MAX), committed) << "barrier " << barrier;
    storage::FileStableStore store(root.string());
    if (committed) {
      ++forward;
      EXPECT_EQ(host, joiner) << "barrier " << barrier;
      EXPECT_EQ(shard::snapshot_slot(store, slot, donor.next), donor)
          << "barrier " << barrier;
      EXPECT_TRUE(staging_empty(store)) << "barrier " << barrier;
    } else {
      ++back;
      EXPECT_EQ(host, prior_host) << "barrier " << barrier;
      EXPECT_EQ(shard::snapshot_slot(store, slot, prior.next), prior)
          << "barrier " << barrier;
    }
    EXPECT_FALSE(recover(SIZE_MAX)) << "marker left, barrier " << barrier;
  }
  EXPECT_EQ(back, 4u);
  EXPECT_EQ(forward, 5u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace dvs
