#include "storage/wal.h"

#include <array>

namespace dvs::storage {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(const std::byte* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(data[i])) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

std::uint32_t crc32(const Bytes& data) { return crc32(data.data(), data.size()); }

void append_frame(Bytes& out, std::uint8_t type, const std::byte* payload,
                  std::size_t size) {
  const std::size_t start = out.size();
  out.push_back(static_cast<std::byte>(kWalMagic));
  out.push_back(static_cast<std::byte>(type));
  for (std::uint64_t v = size;; v >>= 7) {
    if (v < 0x80) {
      out.push_back(static_cast<std::byte>(v));
      break;
    }
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
  }
  out.insert(out.end(), payload, payload + size);
  const std::uint32_t crc = crc32(out.data() + start, out.size() - start);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>(crc >> (8 * i)));
  }
}

Bytes Wal::frame(std::uint8_t type,
                 const std::function<void(Writer&)>& encode) {
  Writer payload;
  encode(payload);
  Bytes record;
  append_frame(record, type, payload.buffer().data(), payload.size());
  return record;
}

void Wal::append(std::uint8_t type,
                 const std::function<void(Writer&)>& encode) {
  store_.append(key_, frame(type, encode));
  ++records_since_snapshot_;
}

void Wal::snapshot(std::uint8_t type,
                   const std::function<void(Writer&)>& encode) {
  store_.replace(key_, frame(type, encode));
  records_since_snapshot_ = 0;
}

WalContents read_wal(const Bytes& log) {
  WalContents out;
  // One reader over the whole log; each record's CRC is computed in place
  // over [start, end of payload), so decoding stays linear in the log size.
  Reader r(log);
  while (!r.exhausted()) {
    // Any framing failure (bad magic, truncation mid-record, CRC mismatch)
    // ends the clean prefix.
    const std::size_t start = log.size() - r.remaining();
    try {
      const std::uint8_t magic = r.u8();
      if (magic != kWalMagic) {
        out.corrupt_tail = true;
        break;
      }
      WalRecord rec;
      rec.type = r.u8();
      rec.payload = r.bytes_field();
      const std::size_t covered = log.size() - r.remaining() - start;
      const std::uint32_t want = crc32(log.data() + start, covered);
      const std::uint32_t got = r.u32();
      if (want != got) {
        out.corrupt_tail = true;
        break;
      }
      out.records.push_back(std::move(rec));
      out.bytes_consumed = log.size() - r.remaining();
    } catch (const DecodeError&) {
      out.corrupt_tail = true;
      break;
    }
  }
  return out;
}

WalContents read_wal(const StableStore& store, const std::string& key) {
  const std::optional<Bytes> log = store.load(key);
  if (!log.has_value()) return {};
  return read_wal(*log);
}

}  // namespace dvs::storage
