// Stable storage: the crash-surviving byte store underneath the write-ahead
// logs (wal.h). The paper's dynamic-voting protocol is only safe if a
// process remembers its attempted/registered view information across
// failures (Section 4; Invariants 4.1/4.2 quantify over *everything a
// process ever attempted*, not just what it currently holds in RAM) — a
// StableStore is the abstraction of "what survives a crash".
//
// Two implementations:
//   * MemStableStore — a deterministic in-memory map, for simulation. The
//     simulated machine's "disk" lives beside the simulated machine; chaos
//     sweeps stay byte-identical across --jobs because nothing here touches
//     the host OS.
//   * FileStableStore (file_store.h) — one journal file per directory, for
//     dvsd and benches.
//
// Keys are flat strings (by convention "p<process>/<layer>", e.g. "p2/dvs").
// Each key holds one append-only byte log; `replace` rewrites a key
// wholesale (snapshot compaction).
//
// Where the persistence barrier sits depends on the store. In
// MemStableStore every append/replace is one: the simulated disk holds the
// write the moment the call returns, and the crash-point sweep (tests/sys/
// test_crash_points.cpp) enumerates exactly these barriers via the barrier
// hook. FileStableStore buffers records until sync(); in dvsd the barrier
// is the one write per event-loop wake that precedes every datagram and
// control reply of that wake, so a crash loses only records that nothing
// outside the process has acted on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/serialize.h"

namespace dvs::storage {

/// Cumulative write/read accounting for one store (feeds the storage.*
/// metrics and the recovery benches' "WAL bytes written" axis).
struct StorageStats {
  std::uint64_t appends = 0;        // append() calls (WAL records written)
  std::uint64_t bytes_appended = 0; // bytes through append()
  std::uint64_t replaces = 0;       // replace() calls (snapshot compactions)
  std::uint64_t bytes_replaced = 0; // bytes through replace()
  std::uint64_t loads = 0;          // load() calls (recoveries read)

  /// Total bytes written to stable storage (log appends + snapshots).
  [[nodiscard]] std::uint64_t bytes_written() const {
    return bytes_appended + bytes_replaced;
  }
};

class StableStore {
 public:
  virtual ~StableStore() = default;

  /// Appends `data` to the log at `key` (creating it if absent). Durable
  /// on return in MemStableStore; at the owner's next sync() in
  /// FileStableStore.
  void append(const std::string& key, const Bytes& data);

  /// Replaces the entire contents of `key` with `data` (snapshot
  /// compaction). Same durability as append().
  void replace(const std::string& key, const Bytes& data);

  /// Full current contents of `key`; nullopt if the key was never written.
  [[nodiscard]] std::optional<Bytes> load(const std::string& key) const;

  [[nodiscard]] const StorageStats& stats() const { return stats_; }

  /// Invoked after every completed append/replace with the key written.
  /// Test instrumentation: the crash-point sweep records (sim-time, key)
  /// pairs here to enumerate every persistence barrier of a run, and the
  /// dvsd write-before-send test marks every record issued.
  void set_barrier_hook(std::function<void(const std::string& key)> hook) {
    barrier_hook_ = std::move(hook);
  }

 protected:
  virtual void do_append(const std::string& key, const Bytes& data) = 0;
  virtual void do_replace(const std::string& key, const Bytes& data) = 0;
  [[nodiscard]] virtual std::optional<Bytes> do_load(
      const std::string& key) const = 0;

 private:
  mutable StorageStats stats_;
  std::function<void(const std::string&)> barrier_hook_;
};

/// Deterministic in-memory stable store for simulation. A std::map keeps
/// iteration (and therefore any derived output) deterministic.
class MemStableStore final : public StableStore {
 public:
  /// All keys currently present (deterministic order), for tests.
  [[nodiscard]] std::map<std::string, Bytes> contents() const { return data_; }

  /// Test hook: overwrite a key's raw bytes (corruption injection).
  void poke(const std::string& key, Bytes data) {
    data_[key] = std::move(data);
  }

 protected:
  void do_append(const std::string& key, const Bytes& data) override;
  void do_replace(const std::string& key, const Bytes& data) override;
  [[nodiscard]] std::optional<Bytes> do_load(
      const std::string& key) const override;

 private:
  std::map<std::string, Bytes> data_;
};

}  // namespace dvs::storage
