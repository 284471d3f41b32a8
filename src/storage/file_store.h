// FileStableStore: a directory-backed StableStore. Every key of one store
// lives in ONE append-only journal file, `<root>/journal`:
//
//   file    := record*                         (storage::Wal framing)
//   record  := magic(0xD5) u8 | op u8 | varuint len | payload | crc32 u32
//   op      := kName | kAppend | kReplace
//   payload(name)           := varuint key_id | key bytes
//   payload(append|replace) := varuint key_id | data bytes
//
// A key is named once per file (its first record is a kName binding the
// string to a small id), so a record costs its data plus about ten bytes.
// A key's contents are its last replace plus the appends after it.
//
// Writes are buffered: append/replace collect records in program order
// (consecutive appends to one key merge into one record) and sync() hands
// the whole buffer to the kernel with one write(). load() sees pending
// records too, so within the process the store behaves exactly like
// MemStableStore; only a crash tells the two apart — it loses the records
// not yet synced. dvsd therefore syncs once per event-loop wake, before
// any datagram or control reply of that wake leaves the process (see
// daemon.h); the destructor syncs whatever is left.
//
// Opening scans the file and keeps the longest clean prefix: a torn or
// corrupt tail (SIGKILL mid-write) is truncated away, so records appended
// by the new incarnation stay visible to the next scan. Every prefix of the
// file is a program-order prefix of the operations, so a crash leaves each
// key as some common prefix of the history left it.
//
// Dead bytes (records superseded by a later replace) are reclaimed by
// rewriting the file with live contents only (temp file + rename), and only
// in a sync that carries a replace once dead bytes exceed live bytes. A
// stable view journals appends only, so it never pays for a rewrite.
//
// A directory that still holds the older per-key layout ("*_.wal" files) is
// refused with an error naming it: mixing the two layouts would silently
// hide one of them from recovery.
//
// Simulation never uses this class (determinism across --jobs requires the
// in-memory store); it exists for dvsd and for benches that measure the
// same journal traffic against a real filesystem.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/stable_store.h"

namespace dvs::storage {

class FileStableStore final : public StableStore {
 public:
  /// Journal file name inside the root directory.
  static constexpr const char* kJournalFile = "journal";

  /// Creates `root` (and parents) if needed, opens its journal and rebuilds
  /// every key from it. Throws std::runtime_error on I/O errors and on a
  /// directory in the older per-key layout.
  explicit FileStableStore(std::string root);
  /// Syncs pending records, then closes the journal.
  ~FileStableStore() override;

  FileStableStore(const FileStableStore&) = delete;
  FileStableStore& operator=(const FileStableStore&) = delete;

  /// Writes every pending record with one write(); a no-op when nothing is
  /// pending. Reclaims dead bytes when this sync carries a replace and dead
  /// bytes exceed live bytes.
  void sync();

  /// Forgets every key and empties the journal (fresh-disk reset).
  void wipe();

  [[nodiscard]] const std::string& root() const { return root_; }
  [[nodiscard]] std::string journal_path() const;

  /// Journal size on disk, and the part of it the current contents need.
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }
  [[nodiscard]] std::uint64_t live_bytes() const { return live_bytes_; }
  /// Rewrites performed by this object (dead-byte reclaims).
  [[nodiscard]] std::uint64_t rewrites() const { return rewrites_; }
  /// True when opening found (and truncated) a torn or corrupt tail.
  [[nodiscard]] bool trimmed_torn_tail() const { return trimmed_; }

 protected:
  void do_append(const std::string& key, const Bytes& data) override;
  void do_replace(const std::string& key, const Bytes& data) override;
  [[nodiscard]] std::optional<Bytes> do_load(
      const std::string& key) const override;

 private:
  /// A run of a key's data bytes inside the file.
  struct Extent {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };
  struct Key {
    std::string name;
    bool named = false;    // a kName record for this id is on disk
    bool durable = false;  // some data record for this key is on disk
    std::vector<Extent> extents;  // on-disk contents, since the last replace
    std::uint64_t live = 0;       // framed bytes of the records above
  };
  /// One buffered operation; consecutive appends to a key share one.
  struct Op {
    std::uint32_t key = 0;
    std::uint8_t kind = 0;
    Bytes data;
  };

  [[nodiscard]] std::uint32_t key_id(const std::string& key);
  void push(std::uint32_t key, std::uint8_t kind, const Bytes& data);
  /// Scans the journal, rebuilds the index and truncates an unclean tail.
  void open_journal();
  /// Frames one record into `out`; returns the file offset of its data,
  /// given that `out` will land at file offset `base`.
  std::uint64_t frame(Bytes& out, std::uint64_t base, std::uint8_t kind,
                      std::uint32_t key, const std::byte* data,
                      std::size_t size);
  /// Applies one framed record to the index (open scan and sync share it).
  void index(std::uint32_t key, std::uint8_t kind, std::uint64_t data_offset,
             std::uint64_t data_size, std::uint64_t framed);
  void write_all(int fd, const Bytes& bytes) const;
  void reclaim();
  void append_durable(const Key& k, Bytes& out) const;

  std::string root_;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t rewrites_ = 0;
  bool trimmed_ = false;
  std::vector<Key> keys_;  // indexed by key id
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Op> pending_;
  Bytes out_;  // reused sync buffer
};

}  // namespace dvs::storage
