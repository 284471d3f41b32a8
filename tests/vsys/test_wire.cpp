// Round-trip and robustness tests for the vsys wire protocol.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "vsys/wire.h"

namespace dvs::vsys {
namespace {

TEST(WireTest, HeartbeatRoundTrip) {
  Heartbeat hb;
  hb.max_epoch = 42;
  hb.view = ViewId{7, ProcessId{2}};
  hb.delivered = 19;
  const WireMsg m{hb};
  EXPECT_EQ(decode(encode(m)), m);

  Heartbeat no_view;
  no_view.max_epoch = 1;
  EXPECT_EQ(decode(encode(WireMsg{no_view})), WireMsg{no_view});
}

TEST(WireTest, MembershipMessagesRoundTrip) {
  const View v{ViewId{3, ProcessId{1}}, make_process_set({0, 1, 2})};
  EXPECT_EQ(decode(encode(WireMsg{Propose{v}})), WireMsg{Propose{v}});
  EXPECT_EQ(decode(encode(WireMsg{FlushAck{v.id()}})),
            WireMsg{FlushAck{v.id()}});
  EXPECT_EQ(decode(encode(WireMsg{Install{v}})), WireMsg{Install{v}});
}

TEST(WireTest, DataAndSeqRoundTrip) {
  const Data da{ViewId{2, ProcessId{0}}, 5,
                Msg{InfoMsg{View{ViewId{1, ProcessId{0}},
                                 make_process_set({0, 1})},
                            {}}}};
  EXPECT_EQ(decode(encode(WireMsg{da})), WireMsg{da});
  const Seq sq{ViewId{2, ProcessId{0}}, 9, ProcessId{1},
               Msg{RegisteredMsg{}}};
  EXPECT_EQ(decode(encode(WireMsg{sq})), WireMsg{sq});
}

TEST(WireTest, WatermarkPiggybacksRoundTrip) {
  // Stability-mode kWatermark rides delivered/safe counters on every Data
  // and Seq frame; a decode that dropped or reordered them would silently
  // stall (or falsely advance) stability.
  Data da{ViewId{2, ProcessId{0}}, 5, Msg{RegisteredMsg{}}};
  da.wm_delivered = 17;
  da.wm_safe = 13;
  EXPECT_EQ(decode(encode(WireMsg{da})), WireMsg{da});

  Seq sq{ViewId{2, ProcessId{0}}, 9, ProcessId{1}, Msg{RegisteredMsg{}}};
  sq.wm_delivered = 21;
  sq.wm_safe = 18;
  EXPECT_EQ(decode(encode(WireMsg{sq})), WireMsg{sq});
  // Distinct fields: a swap would still round-trip, so pin inequality.
  Seq swapped = sq;
  std::swap(swapped.wm_delivered, swapped.wm_safe);
  EXPECT_NE(WireMsg{swapped}, WireMsg{sq});
}

TEST(WireTest, HeartbeatCarriesSafeWatermark) {
  Heartbeat hb;
  hb.max_epoch = 4;
  hb.view = ViewId{2, ProcessId{1}};
  hb.delivered = 12;
  hb.safe = 9;
  const WireMsg m{hb};
  EXPECT_EQ(decode(encode(m)), m);
  Heartbeat zero = hb;
  zero.safe = 0;
  EXPECT_NE(WireMsg{zero}, m);
}

TEST(WireTest, WatermarkRoundTrip) {
  const Watermark wm{ViewId{5, ProcessId{2}}, 300, 290};
  EXPECT_EQ(decode(encode(WireMsg{wm})), WireMsg{wm});
  // Distinct fields: a swap would still round-trip, so pin inequality.
  const Watermark swapped{wm.view, wm.safe, wm.delivered};
  EXPECT_NE(WireMsg{swapped}, WireMsg{wm});
  // Same counters, not the same frame as a heartbeat.
  Heartbeat hb;
  hb.view = wm.view;
  hb.delivered = wm.delivered;
  hb.safe = wm.safe;
  EXPECT_NE(encode(WireMsg{hb}), encode(WireMsg{wm}));
}

TEST(WireTest, UnassignedTagsAreRejected) {
  // Every first byte without a vsys frame (0, the retired 7, and 9..255)
  // is a DecodeError, even when the body would parse as some frame: here a
  // view id and two u64s, which is the retired tag-7 layout.
  for (unsigned tag = 0; tag <= 255; ++tag) {
    if (tag >= 1 && tag <= 8 && tag != 7) continue;
    Writer w;
    w.u8(static_cast<std::uint8_t>(tag));
    w.view_id(ViewId{4, ProcessId{2}});
    w.u64(17);
    w.u64(42);
    EXPECT_THROW((void)decode(w.take()), DecodeError) << "tag " << tag;
  }
  // A heartbeat in the older layout, with a u64 between `delivered` and
  // `safe`, leaves trailing bytes and is rejected, not misread.
  for (std::uint64_t extra : {std::uint64_t{0}, std::uint64_t{5}}) {
    Writer w;
    w.u8(1);  // heartbeat
    w.u64(3);
    w.u8(1);
    w.view_id(ViewId{3, ProcessId{0}});
    w.u64(5);
    w.u64(extra);
    w.varuint(4);
    EXPECT_THROW((void)decode(w.take()), DecodeError) << "extra " << extra;
  }
}

TEST(WireTest, ToStringCoversAllVariants) {
  const View v{ViewId{3, ProcessId{1}}, make_process_set({0, 1})};
  EXPECT_NE(to_string(WireMsg{Heartbeat{}}).find("heartbeat"),
            std::string::npos);
  EXPECT_NE(to_string(WireMsg{Propose{v}}).find("propose"), std::string::npos);
  EXPECT_NE(to_string(WireMsg{FlushAck{v.id()}}).find("flush-ack"),
            std::string::npos);
  EXPECT_NE(to_string(WireMsg{Install{v}}).find("install"), std::string::npos);
  EXPECT_NE(to_string(WireMsg{Data{v.id(), 1, Msg{RegisteredMsg{}}}})
                .find("data"),
            std::string::npos);
  EXPECT_NE(to_string(WireMsg{Seq{v.id(), 1, ProcessId{0},
                                  Msg{RegisteredMsg{}}}})
                .find("seq"),
            std::string::npos);
  EXPECT_NE(to_string(WireMsg{Watermark{v.id(), 4, 3}}).find("watermark"),
            std::string::npos);
}

TEST(WireTest, TruncatedAndTrailingBytesRejected) {
  const View v{ViewId{3, ProcessId{1}}, make_process_set({0, 1, 2})};
  Bytes data = encode(WireMsg{Install{v}});
  Bytes truncated(data.begin(), data.begin() + 3);
  EXPECT_THROW((void)decode(truncated), DecodeError);
  Bytes padded = data;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)decode(padded), DecodeError);
}

TEST(WireTest, RandomBytesNeverCrashTheDecoder) {
  // Fuzz-ish robustness: decoding arbitrary bytes either succeeds (the
  // bytes happened to be a valid message) or throws DecodeError — it must
  // never crash, hang or read out of bounds.
  Rng rng(20260706);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng.below(256));
    try {
      (void)decode(junk);
      ++decoded;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, 5000u);
  EXPECT_GT(rejected, 0u);
}

TEST(WireTest, MutatedValidMessagesNeverCrashTheDecoder) {
  const View v{ViewId{3, ProcessId{1}}, make_process_set({0, 1, 2})};
  const Bytes base = encode(WireMsg{
      Seq{v.id(), 9, ProcessId{1},
          Msg{InfoMsg{v, {View{ViewId{4, ProcessId{2}},
                               make_process_set({1, 2})}}}}}});
  Rng rng(99);
  for (int trial = 0; trial < 5000; ++trial) {
    Bytes mutated = base;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] =
          static_cast<std::byte>(rng.below(256));
    }
    try {
      (void)decode(mutated);
    } catch (const DecodeError&) {
      // fine
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace dvs::vsys
