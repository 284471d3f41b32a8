// Write-ahead log framing over a StableStore key.
//
// A log is a flat byte sequence of CRC-framed records:
//
//   record := magic(0xD5) u8 | type u8 | varuint len | payload | crc32 u32
//
// The CRC (reflected IEEE CRC-32, the zlib polynomial) covers everything
// from the magic byte through the payload, so a flip anywhere in a record —
// including its length field — fails the check. Readers recover the longest
// clean prefix: decoding stops at the first record whose magic, framing, or
// CRC does not verify (a torn tail after a crash, or corruption), and
// everything before it is returned intact. Record types are per-log
// namespaces chosen by each layer's journal; duplicate records are legal
// and replay must be idempotent (the layers use max-merge / set-insert
// semantics), which is what makes "append, then maybe crash, then replay"
// safe without a commit marker.
//
// Compaction: `Wal::snapshot` rewrites the whole key as a single snapshot
// record (via StableStore::replace), resetting log growth. Every layer
// journal calls it when storage is attached; the VS, DVS and exchange
// journals also every N appends, the TO journal at each establishment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "storage/stable_store.h"

namespace dvs::storage {

/// Reflected IEEE CRC-32 (the zlib polynomial 0xEDB88320), table-driven.
[[nodiscard]] std::uint32_t crc32(const std::byte* data, std::size_t size);
[[nodiscard]] std::uint32_t crc32(const Bytes& data);

/// First byte of every record.
inline constexpr std::uint8_t kWalMagic = 0xD5;

/// Appends one framed record carrying `payload` to `out` (no allocation
/// beyond `out`'s own growth).
void append_frame(Bytes& out, std::uint8_t type, const std::byte* payload,
                  std::size_t size);

/// Appender for one log (one StableStore key).
class Wal {
 public:
  Wal(StableStore& store, std::string key) : store_(store), key_(std::move(key)) {}

  /// Appends one record whose payload is produced by `encode`.
  void append(std::uint8_t type, const std::function<void(Writer&)>& encode);

  /// Replaces the whole log with a single snapshot record (compaction).
  void snapshot(std::uint8_t type, const std::function<void(Writer&)>& encode);

  /// Records appended since the last snapshot (or construction); the layer
  /// journals compact when this crosses their threshold.
  [[nodiscard]] std::size_t records_since_snapshot() const {
    return records_since_snapshot_;
  }

  [[nodiscard]] const std::string& key() const { return key_; }

  /// Frames a single record (exposed for tests to build corrupt logs).
  [[nodiscard]] static Bytes frame(std::uint8_t type,
                                   const std::function<void(Writer&)>& encode);

 private:
  StableStore& store_;
  std::string key_;
  std::size_t records_since_snapshot_ = 0;
};

struct WalRecord {
  std::uint8_t type = 0;
  Bytes payload;
};

/// A decoded log: the longest clean prefix of records, plus whether a
/// corrupt/torn tail was discarded.
struct WalContents {
  std::vector<WalRecord> records;
  std::size_t bytes_consumed = 0;  // length of the clean prefix, in bytes
  bool corrupt_tail = false;       // true if trailing bytes failed to verify
};

/// Decodes a raw log. Never throws: corruption and truncation terminate the
/// scan, returning the verified prefix.
[[nodiscard]] WalContents read_wal(const Bytes& log);

/// Loads and decodes the log at `key`; an absent key is an empty log.
[[nodiscard]] WalContents read_wal(const StableStore& store,
                                   const std::string& key);

}  // namespace dvs::storage
