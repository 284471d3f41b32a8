// SST-style watermark stability (vsys/watermarks.h): unit tests of the
// incremental per-member watermark table, plus VS-level protocol tests
// pinning piggybacked watermark propagation, safe-requires-every-member,
// the retransmit-liveness regression (a stalled peer watermark must still
// trip the holdoff resend), and the on-delivery WATERMARK publish (a lone
// message is safe without waiting for a heartbeat, one frame per peer per
// instant, foreign frames never touch the table).
#include "vsys/watermarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/sim_network.h"
#include "spec/acceptors.h"
#include "vsys/vs_node.h"

namespace dvs::vsys {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(WatermarkTableTest, MinTracksMemberRows) {
  WatermarkTable t;
  t.resize(4);
  t.reset({0, 1, 2});
  EXPECT_EQ(t.min_delivered(), 0u);
  // raise returns true iff the column MINIMUM advanced — rows 1,2 still
  // hold it at 0 here.
  EXPECT_FALSE(t.raise_delivered(0, 5));
  EXPECT_EQ(t.min_delivered(), 0u);
  EXPECT_FALSE(t.raise_delivered(1, 3));
  EXPECT_EQ(t.min_delivered(), 0u);
  // The last binding row moves: min advances to the new column minimum.
  EXPECT_TRUE(t.raise_delivered(2, 7));
  EXPECT_EQ(t.min_delivered(), 3u);
  EXPECT_EQ(t.delivered(0), 5u);
  EXPECT_EQ(t.delivered(1), 3u);
  EXPECT_EQ(t.delivered(2), 7u);
}

TEST(WatermarkTableTest, RaiseIsMonotoneAndReportsAdvance) {
  WatermarkTable t;
  t.resize(2);
  t.reset({0, 1});
  EXPECT_FALSE(t.raise_delivered(0, 4));  // row 1 still binds the min at 0
  // A stale (lower or equal) watermark is ignored.
  EXPECT_FALSE(t.raise_delivered(0, 2));
  EXPECT_FALSE(t.raise_delivered(0, 4));
  EXPECT_EQ(t.delivered(0), 4u);
  // raise returns whether the *minimum* advanced, not the cell: moving the
  // last binding row reports the advance.
  EXPECT_TRUE(t.raise_delivered(1, 9));
  EXPECT_EQ(t.min_delivered(), 4u);
}

TEST(WatermarkTableTest, NonMemberRowsCannotDisturbTheMin) {
  WatermarkTable t;
  t.resize(4);
  t.reset({0, 1});
  // Row 3 is in the universe but not in the view: raising it must be a
  // no-op (a corrupted-but-decodable frame from a non-member must not move
  // stability).
  EXPECT_FALSE(t.raise_delivered(3, 100));
  EXPECT_EQ(t.delivered(3), 0u);
  t.raise_delivered(0, 2);
  t.raise_delivered(1, 2);
  EXPECT_EQ(t.min_delivered(), 2u);
  EXPECT_FALSE(t.raise_delivered(3, 1));
  EXPECT_EQ(t.min_delivered(), 2u);
}

TEST(WatermarkTableTest, ResetReinstallsMembership) {
  WatermarkTable t;
  t.resize(3);
  t.reset({0, 1, 2});
  t.raise_delivered(0, 5);
  t.raise_delivered(1, 5);
  t.raise_delivered(2, 5);
  EXPECT_EQ(t.min_delivered(), 5u);
  // New view with fewer members: rows zero, old member drops out.
  t.reset({0, 1});
  EXPECT_EQ(t.min_delivered(), 0u);
  EXPECT_EQ(t.delivered(0), 0u);
  EXPECT_FALSE(t.raise_delivered(2, 9));  // no longer a member
  t.raise_delivered(0, 1);
  t.raise_delivered(1, 1);
  EXPECT_EQ(t.min_delivered(), 1u);
}

TEST(WatermarkTableTest, DifferentialAgainstNaiveMin) {
  // Random raises on both columns; the incrementally maintained minimum
  // must always equal a from-scratch scan over the member rows.
  WatermarkTable t;
  constexpr std::size_t kRows = 5;
  t.resize(kRows);
  const std::vector<std::size_t> members{0, 2, 4};
  t.reset(members);
  std::vector<std::uint64_t> delivered(kRows, 0);
  std::vector<std::uint64_t> safe(kRows, 0);
  Rng rng(123);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t row = rng.below(kRows);  // non-members included
    const auto bump = static_cast<std::uint64_t>(rng.below(4));
    const bool which = rng.below(2) == 0;
    auto& shadow = which ? delivered : safe;
    const std::uint64_t v = shadow[row] + bump;
    if (which) {
      t.raise_delivered(row, v);
    } else {
      t.raise_safe(row, v);
    }
    if (std::find(members.begin(), members.end(), row) != members.end()) {
      shadow[row] = std::max(shadow[row], v);
    }
    auto naive = [&](const std::vector<std::uint64_t>& col) {
      std::uint64_t m = col[members.front()];
      for (std::size_t r : members) m = std::min(m, col[r]);
      return m;
    };
    ASSERT_EQ(t.min_delivered(), naive(delivered)) << "step " << step;
    ASSERT_EQ(t.min_safe(), naive(safe)) << "step " << step;
  }
}

// ----- VS-level protocol tests ---------------------------------------------

Msg opaque(std::uint64_t uid, unsigned sender) {
  return Msg{OpaqueMsg{uid, ProcessId{sender}}};
}

/// A little VS-only cluster with trace recording (mirrors the harness in
/// test_vs_node.cpp). With `members` < n, processes at or above `members`
/// are in the universe but run no node and are outside v0 (a test can
/// inject frames from them through net()).
class VsHarness {
 public:
  VsHarness(std::size_t n, std::uint64_t seed, VsConfig vs_config = {},
            net::NetConfig net_config = {}, std::size_t members = 0)
      : rng_(seed),
        universe_(make_universe(n)),
        v0_{ViewId::initial(), make_universe(members == 0 ? n : members)},
        net_(sim_, rng_, net_config, universe_) {
    for (ProcessId p : v0_.set()) {
      VsCallbacks cb;
      cb.on_newview = [this, p](const View& v) {
        trace_.push_back(spec::EvNewview{p, v});
        views_[p].push_back(v);
      };
      cb.on_gprcv = [this, p](const Msg& m, ProcessId from) {
        trace_.push_back(spec::EvGprcv<Msg>{from, p, m});
        delivered_[p].push_back(m);
      };
      cb.on_safe = [this, p](const Msg& m, ProcessId from) {
        trace_.push_back(spec::EvSafe<Msg>{from, p, m});
        safes_[p].push_back(m);
      };
      cb.on_gpsnd = [this, p](const Msg& m) {
        trace_.push_back(spec::EvGpsnd<Msg>{p, m});
      };
      nodes_[p] = std::make_unique<VsNode>(p, std::optional<View>{v0_}, net_,
                                           sim_, vs_config, std::move(cb));
    }
  }

  void start() {
    for (auto& [p, node] : nodes_) node->start();
  }

  void run_for(sim::Time d) { sim_.run_until(sim_.now() + d); }

  VsNode& node(unsigned p) { return *nodes_.at(ProcessId{p}); }
  net::SimNetwork& net() { return net_; }

  spec::AcceptResult check_trace() {
    spec::VsAcceptor acceptor(universe_, v0_);
    return acceptor.feed_all(trace_);
  }

  std::map<ProcessId, std::vector<Msg>> delivered_;
  std::map<ProcessId, std::vector<Msg>> safes_;
  std::map<ProcessId, std::vector<View>> views_;

 private:
  Rng rng_;
  ProcessSet universe_;
  View v0_;
  sim::Simulator sim_;
  net::SimNetwork net_;
  std::map<ProcessId, std::unique_ptr<VsNode>> nodes_;
  std::vector<spec::VsEvent> trace_;
};

TEST(WatermarkModeTest, StableGroupOrdersAndStabilizes) {
  VsHarness h(3, 1);
  h.start();
  h.run_for(100 * kMillisecond);
  // A rapid burst: several messages deliver between consecutive 20 ms
  // heartbeats, so the Data/Seq piggybacks carry fresher watermarks than
  // the last heartbeat — stability travels at data rate.
  constexpr unsigned kBurst = 30;
  for (unsigned k = 0; k < kBurst; ++k) {
    h.node(k % 3).gpsnd(opaque(k + 1, k % 3));
    h.run_for(2 * kMillisecond);
  }
  h.run_for(1 * kSecond);
  const auto& d0 = h.delivered_.at(ProcessId{0});
  ASSERT_EQ(d0.size(), kBurst);
  EXPECT_EQ(h.delivered_.at(ProcessId{1}), d0);
  EXPECT_EQ(h.delivered_.at(ProcessId{2}), d0);
  // Safes at everyone: the watermark minimum reached every message.
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(h.safes_[ProcessId{i}].size(), kBurst) << "p" << i;
  }
  // The piggyback path actually advanced rows ahead of the heartbeats.
  std::uint64_t updates = 0;
  for (unsigned i = 0; i < 3; ++i) {
    updates += h.node(i).stats().watermark_updates;
  }
  EXPECT_GT(updates, 0u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkModeTest, StalledWatermarkStillRetransmits) {
  // The liveness regression: a partition blip shorter than the suspect
  // timeout drops the SEQ in flight to p1/p2, so their published
  // watermarks stall at the pre-blip value. Heartbeats (which carry the
  // watermark columns) keep flowing after the heal; the sender's holdoff
  // cursor must treat the stalled watermark as lag and resend the un-acked
  // suffix — the message must get through without any view change.
  VsHarness h(3, 8);
  h.start();
  h.run_for(100 * kMillisecond);
  h.node(0).gpsnd(opaque(1, 0));
  h.net().set_partition({make_process_set({0}), make_process_set({1, 2})});
  h.run_for(30 * kMillisecond);  // below the 100 ms suspect timeout
  h.net().heal();
  h.run_for(2 * kSecond);
  ASSERT_EQ(h.delivered_[ProcessId{1}].size(), 1u);
  EXPECT_EQ(h.delivered_[ProcessId{1}].front(), opaque(1, 0));
  EXPECT_TRUE(h.views_[ProcessId{0}].empty()) << "no view change expected";
  // And stability completed after the resend: safes at the sender too.
  EXPECT_EQ(h.safes_[ProcessId{0}].size(), 1u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkModeTest, SafeRequiresEveryMemberUnderPause) {
  // A paused (but not yet suspected) member blocks stability: min over the
  // table cannot advance past a silent row.
  VsHarness h(3, 9);
  h.start();
  h.run_for(100 * kMillisecond);
  h.net().pause(ProcessId{2});
  h.node(0).gpsnd(opaque(1, 0));
  h.run_for(60 * kMillisecond);  // deliveries happen, stability must not
  EXPECT_TRUE(h.safes_[ProcessId{0}].empty());
  EXPECT_TRUE(h.safes_[ProcessId{1}].empty());
  h.net().resume(ProcessId{2});
  h.run_for(2 * kSecond);
  // After the resume (no view change needed at 60 ms < timeout... or after
  // one, either way) the message eventually stabilizes somewhere.
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

/// A heartbeat period far above the link delay (and a suspect timeout above
/// that), so within the first few milliseconds no tick has fired and only
/// protocol frames can carry watermarks.
VsConfig slow_heartbeats() {
  VsConfig c;
  c.heartbeat_period = 1 * kSecond;
  c.suspect_timeout = 5 * kSecond;
  return c;
}

TEST(WatermarkModeTest, LoneMessageIsSafeWithoutAHeartbeat) {
  // One gpsnd from a non-sequencer: DATA to p0, SEQ to all, then each
  // member's delivery publishes its row. Every member must emit safe
  // within a few link delays (1 ms base + 0.5 ms mean jitter each), long
  // before the first heartbeat at 1 s.
  VsHarness h(3, 3, slow_heartbeats());
  h.start();
  h.node(1).gpsnd(opaque(1, 1));
  h.run_for(20 * kMillisecond);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(h.safes_[ProcessId{i}].size(), 1u) << "p" << i;
    EXPECT_GT(h.node(i).stats().watermarks_published, 0u) << "p" << i;
  }
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkModeTest, SameInstantDeliveriesPublishOncePerPeer) {
  // With same-instant batching, the k SEQs the sequencer issues in one
  // instant travel in one envelope per member and are delivered in one
  // instant there: k deliveries cost one WATERMARK frame per peer. (An
  // unbatched link spaces its FIFO arrivals 1 us apart, so each would be
  // its own instant.)
  net::NetConfig net;
  net.batching = true;
  VsHarness h(3, 4, slow_heartbeats(), net);
  h.start();
  constexpr unsigned kBurst = 8;
  for (unsigned k = 0; k < kBurst; ++k) h.node(0).gpsnd(opaque(k + 1, 0));
  h.run_for(20 * kMillisecond);
  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_EQ(h.delivered_[ProcessId{i}].size(), kBurst) << "p" << i;
    EXPECT_EQ(h.safes_[ProcessId{i}].size(), kBurst) << "p" << i;
    EXPECT_LE(h.node(i).stats().watermarks_published, 2u) << "p" << i;
  }
}

TEST(WatermarkModeTest, ForeignWatermarkFramesLeaveTheTableUntouched) {
  // p3 is in the universe but not in v0. A well-formed WATERMARK from it,
  // or one from a member naming another view, must not raise any row; a
  // member's frame for the current view does.
  VsHarness h(4, 5, slow_heartbeats(), net::NetConfig{}, 3);
  h.start();
  const ViewId current = ViewId::initial();
  const ViewId other{current.epoch() + 1, ProcessId{1}};
  h.net().send(ProcessId{3}, ProcessId{0},
               encode(WireMsg{Watermark{current, 5, 5}}));
  h.net().send(ProcessId{1}, ProcessId{0},
               encode(WireMsg{Watermark{other, 5, 5}}));
  h.run_for(10 * kMillisecond);
  const WatermarkTable& wm = h.node(0).watermarks();
  for (std::size_t row = 0; row < 4; ++row) {
    EXPECT_EQ(wm.delivered(row), 0u) << "row " << row;
    EXPECT_EQ(wm.safe(row), 0u) << "row " << row;
  }
  EXPECT_EQ(h.node(0).stats().watermark_updates, 0u);
  EXPECT_EQ(h.node(0).stats().decode_errors, 0u);

  h.net().send(ProcessId{1}, ProcessId{0},
               encode(WireMsg{Watermark{current, 2, 1}}));
  h.run_for(10 * kMillisecond);
  EXPECT_EQ(wm.delivered(1), 2u);
  EXPECT_EQ(wm.safe(1), 1u);
  EXPECT_EQ(wm.min_delivered(), 0u);  // p0 and p2 still bind the minimum
  EXPECT_EQ(h.node(0).stats().watermark_updates, 1u);
}

}  // namespace
}  // namespace dvs::vsys
