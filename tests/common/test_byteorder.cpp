// Byte-order regression suite: golden wire bytes.
//
// Everything the stack persists or transmits — Writer integers, WAL
// records (including their CRC), BATCH envelopes, the 128-bit state hash —
// must produce IDENTICAL bytes on every host, because real deployments mix
// machines (a trace written on one box is audited on another, a WAL may be
// inspected cross-host) and the exhaustive checker's state hashes are
// compared across runs. These tests pin the exact encodings against
// little-endian golden vectors captured from the reference implementation;
// any host-endianness leak (e.g. a raw memcpy load) changes the bytes and
// fails here on big-endian hardware while still passing on x86.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "net/batcher.h"
#include "parallel/state_hash.h"
#include "shard/reprovision.h"
#include "storage/wal.h"

namespace dvs {
namespace {

Bytes bytes_of(std::initializer_list<unsigned> values) {
  Bytes out;
  for (unsigned v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(ByteOrder, WriterEmitsLittleEndianGoldenBytes) {
  Writer w;
  w.u8(0xAB);
  w.u32(0x11223344u);
  w.u64(0x0102030405060708ULL);
  w.varuint(0);
  w.varuint(127);
  w.varuint(128);
  w.varuint(300);
  w.varuint(0xFFFFFFFFFFFFFFFFULL);
  w.str("hi");
  const Bytes expected = bytes_of({
      0xab,                                            // u8
      0x44, 0x33, 0x22, 0x11,                          // u32 LE
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64 LE
      0x00,                                            // varuint 0
      0x7f,                                            // varuint 127
      0x80, 0x01,                                      // varuint 128
      0xac, 0x02,                                      // varuint 300
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0x01,                                            // varuint max
      0x02, 0x68, 0x69,                                // str "hi"
  });
  EXPECT_EQ(w.buffer(), expected);
}

TEST(ByteOrder, WriterRoundTripsThroughReader) {
  Writer w;
  w.u32(0xDEADBEEFu);
  w.u64(0x123456789ABCDEF0ULL);
  w.varuint(1u << 20);
  w.str("round trip");
  const Bytes buf = w.take();
  Reader r(buf);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x123456789ABCDEF0ULL);
  EXPECT_EQ(r.varuint(), 1u << 20);
  EXPECT_EQ(r.str(), "round trip");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteOrder, Crc32MatchesPublishedVector) {
  // The canonical zlib/IEEE check value: crc32("abc") — independent of any
  // implementation in this repo.
  const Bytes abc = bytes_of({'a', 'b', 'c'});
  EXPECT_EQ(storage::crc32(abc), 0x352441C2u);
}

TEST(ByteOrder, WalFrameGoldenBytesIncludingCrc) {
  const Bytes frame =
      storage::Wal::frame(7, [](Writer& w) { w.str("hi"); });
  // magic | type | varuint len | payload | crc32 LE (covers magic..payload)
  const Bytes expected = bytes_of(
      {0xd5, 0x07, 0x03, 0x02, 0x68, 0x69, 0xfc, 0xb3, 0x6a, 0xc9});
  EXPECT_EQ(frame, expected);

  const storage::WalContents contents = storage::read_wal(frame);
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].type, 7);
  EXPECT_FALSE(contents.corrupt_tail);
}

TEST(ByteOrder, WalFrameFlippedByteFailsCrc) {
  Bytes frame = storage::Wal::frame(7, [](Writer& w) { w.str("hi"); });
  frame[4] ^= std::byte{0x01};  // flip one payload byte
  const storage::WalContents contents = storage::read_wal(frame);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_TRUE(contents.corrupt_tail);
}

TEST(ByteOrder, BatchEnvelopeGoldenBytes) {
  const std::vector<Bytes> frames = {bytes_of({0x01, 0x02}),
                                     bytes_of({0x03})};
  const Bytes envelope = net::encode_batch(frames);
  const Bytes expected =
      bytes_of({0xb5, 0x02, 0x02, 0x01, 0x02, 0x01, 0x03});
  EXPECT_EQ(envelope, expected);
  EXPECT_EQ(net::decode_batch(envelope), frames);
}

TEST(ByteOrder, MigrationMarkerGoldenBytes) {
  // The one commit marker of a shard migration episode, written by the
  // simulated pool and by dvsd alike: process_id(to) u32 LE | varuint next.
  const shard::MigrationMarker m{ProcessId(2), 300};
  const Bytes marker = shard::encode_marker(m);
  EXPECT_EQ(marker, bytes_of({0x02, 0x00, 0x00, 0x00, 0xac, 0x02}));
  EXPECT_EQ(shard::decode_marker(marker), m);
  Bytes trailing = marker;
  trailing.push_back(std::byte{0x00});
  EXPECT_THROW((void)shard::decode_marker(trailing), DecodeError);
  EXPECT_THROW((void)shard::decode_marker(bytes_of({0x02, 0x00})), DecodeError);
}

TEST(ByteOrder, Hash128KnownAnswers) {
  // Captured from the explicit little-endian implementation; a host-endian
  // block load would change these on big-endian machines. Lengths cover
  // the full-block path (43 = 2 blocks + 11 tail), a mixed tail (17), and
  // the empty input.
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  const auto h43 = parallel::hash128(
      reinterpret_cast<const std::byte*>(fox.data()), fox.size());
  EXPECT_EQ(h43.lo, 0x7d60fe408b0c8bf6ULL);
  EXPECT_EQ(h43.hi, 0x7834e568f8a89680ULL);

  const auto h17 = parallel::hash128(
      reinterpret_cast<const std::byte*>(fox.data()), 17);
  EXPECT_EQ(h17.lo, 0x32e49bb28da6d3faULL);
  EXPECT_EQ(h17.hi, 0x8658f3c038a6759fULL);

  const auto h0 = parallel::hash128(nullptr, 0);
  EXPECT_EQ(h0.lo, 0x893ec81e251a13c9ULL);
  EXPECT_EQ(h0.hi, 0x6a82f3ed5108db09ULL);
}

TEST(ByteOrder, Hash128BlockAndTailAgreeOnSlidingWindows) {
  // The block path (load64) and the tail path (explicit byte assembly)
  // must compose identically: hashing every prefix of a 64-byte pattern
  // exercises all 16 tail lengths against 0..4 full blocks.
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 131) & 0xFF);
  }
  parallel::Hash128 prev{};
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const auto h = parallel::hash128(data.data(), len);
    EXPECT_FALSE(h == prev) << "suspicious collision at len " << len;
    prev = h;
  }
}

}  // namespace
}  // namespace dvs
