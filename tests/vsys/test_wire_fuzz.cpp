// Wire-robustness fuzz: adversarially damaged encodings of every wire.h
// message type must surface as a clean DecodeError — never a crash, an
// over-read, or a foreign exception (std::length_error / bad_alloc from a
// corrupted length prefix). This is the receiver-side contract the
// network's payload-truncation fault relies on (vsys drops datagrams whose
// decode throws DecodeError and counts them in stats().decode_errors).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "vsys/wire.h"

namespace dvs::vsys {
namespace {

View sample_view() {
  return View{ViewId{3, ProcessId{1}}, make_process_set({0, 1, 2})};
}

/// One representative of every WireMsg alternative, with the nested
/// payload variants (Summary and InfoMsg carry containers whose length
/// prefixes are the interesting attack surface) covered too.
std::vector<WireMsg> samples() {
  const Label l{ViewId{2, ProcessId{0}}, 5, ProcessId{1}};
  const AppMsg a{42, ProcessId{1}, "payload"};
  Summary x;
  x.con.emplace(l, a);
  x.ord.push_back(l);
  x.next = 2;
  x.high = ViewId{1, ProcessId{0}};
  InfoMsg info;
  info.act = sample_view();
  info.amb.push_back(sample_view());

  std::vector<WireMsg> out;
  Heartbeat hb;
  hb.max_epoch = 7;
  hb.view = ViewId{3, ProcessId{1}};
  hb.delivered = 9;
  hb.safe = 4;
  out.push_back(hb);
  out.push_back(Propose{sample_view()});
  out.push_back(FlushAck{ViewId{3, ProcessId{1}}});
  out.push_back(Install{sample_view()});
  out.push_back(Data{ViewId{3, ProcessId{1}}, 6, Msg{x}});
  out.push_back(Data{ViewId{3, ProcessId{1}}, 7, Msg{info}});
  out.push_back(Seq{ViewId{3, ProcessId{1}}, 8, ProcessId{2},
                    Msg{LabeledAppMsg{l, a}}});
  out.push_back(Seq{ViewId{3, ProcessId{1}}, 9, ProcessId{2},
                    Msg{StateMsg{ViewId{3, ProcessId{1}}, "blob"}}});
  // Delta-encoded state exchange: the flag byte plus the conditional
  // base_view/keep_len tail are new attack surface.
  StateMsg delta{ViewId{4, ProcessId{1}}, "suffix"};
  delta.is_delta = true;
  delta.base_view = ViewId{3, ProcessId{1}};
  delta.keep_len = 12;
  out.push_back(Seq{ViewId{4, ProcessId{1}}, 10, ProcessId{0}, Msg{delta}});
  // Multi-byte varuint counters, so truncations land inside them too.
  out.push_back(Watermark{ViewId{3, ProcessId{1}}, 300, 200});
  return out;
}

/// decode() must either succeed or throw DecodeError; anything else
/// (length_error, bad_alloc, out_of_range, a crash) is a bounds gap.
void expect_clean_decode(const Bytes& data) {
  try {
    (void)decode(data);
  } catch (const DecodeError&) {
    // The one acceptable failure mode.
  } catch (const std::exception& e) {
    FAIL() << "decode leaked a foreign exception: " << e.what();
  }
}

TEST(WireFuzzTest, EveryTruncationRaisesDecodeError) {
  for (const WireMsg& m : samples()) {
    const Bytes full = encode(m);
    ASSERT_FALSE(full.empty());
    for (std::size_t len = 0; len < full.size(); ++len) {
      const Bytes cut(full.begin(),
                      full.begin() + static_cast<std::ptrdiff_t>(len));
      // A strict prefix can never be a complete message: the layout is
      // self-describing, so the parser must run out of bytes (or reject a
      // now-impossible length prefix) before finishing.
      EXPECT_THROW((void)decode(cut), DecodeError)
          << to_string(m) << " truncated to " << len << " bytes";
    }
  }
}

TEST(WireFuzzTest, EverySingleBitFlipDecodesCleanlyOrRejects) {
  for (const WireMsg& m : samples()) {
    const Bytes full = encode(m);
    for (std::size_t byte = 0; byte < full.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes flipped = full;
        flipped[byte] ^= static_cast<std::byte>(1u << bit);
        expect_clean_decode(flipped);
      }
    }
  }
}

TEST(WireFuzzTest, DeltaStateMsgRoundTripsExactly) {
  StateMsg delta{ViewId{9, ProcessId{2}}, "tail-bytes"};
  delta.is_delta = true;
  delta.base_view = ViewId{7, ProcessId{0}};
  delta.keep_len = 1234;
  const WireMsg m = Seq{ViewId{9, ProcessId{2}}, 3, ProcessId{1}, Msg{delta}};
  const Bytes wire = encode(m);
  const WireMsg back = decode(wire);
  const auto& sq = std::get<Seq>(back);
  const auto& st = std::get<StateMsg>(sq.payload);
  EXPECT_TRUE(st.is_delta);
  EXPECT_EQ(st.base_view, delta.base_view);
  EXPECT_EQ(st.keep_len, delta.keep_len);
  EXPECT_EQ(st.blob, delta.blob);
  // Re-encode is byte-identical: the delta fields have one canonical form.
  EXPECT_EQ(encode(back), wire);
}

TEST(WireFuzzTest, StateMsgDeltaFlagAboveOneIsRejected) {
  StateMsg st{ViewId{9, ProcessId{2}}, "blob"};
  const WireMsg m = Seq{ViewId{9, ProcessId{2}}, 3, ProcessId{1}, Msg{st}};
  Bytes wire = encode(m);
  // The flag byte is the last byte of a non-delta StateMsg encoding (it is
  // the final field and the blob length precedes the blob bytes).
  ASSERT_EQ(static_cast<std::uint8_t>(wire.back()), 0u);
  wire.back() = std::byte{2};
  EXPECT_THROW((void)decode(wire), DecodeError);
}

TEST(WireFuzzTest, RandomGarbageNeverEscapesDecodeError) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.below(64));
    for (std::byte& b : junk) {
      b = static_cast<std::byte>(rng.below(256));
    }
    expect_clean_decode(junk);
  }
}

TEST(WireFuzzTest, CorruptedLengthPrefixIsRejectedBeforeAllocation) {
  // Blow up the container count inside a Summary-carrying Data message:
  // the varuint count must be rejected against the bytes remaining, not
  // handed to vector::reserve / map insertion loops.
  Summary x;
  const Label l{ViewId{2, ProcessId{0}}, 5, ProcessId{1}};
  x.con.emplace(l, AppMsg{42, ProcessId{1}, ""});
  x.ord.push_back(l);
  x.next = 1;
  x.high = ViewId{1, ProcessId{0}};
  const Bytes full = encode(Data{ViewId{3, ProcessId{1}}, 6, Msg{x}});
  // Overwrite every byte in turn with 0xff (a maximal varuint fragment —
  // wherever it lands on a length prefix it claims an enormous count).
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    Bytes evil = full;
    evil[byte] = std::byte{0xff};
    expect_clean_decode(evil);
  }
}

}  // namespace
}  // namespace dvs::vsys
