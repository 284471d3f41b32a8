// On-disk spec-event traces for real (multi-process) deployments.
//
// A simulated Cluster feeds spec events straight into an in-process
// TraceRecorder; a dvsd process instead appends them to a per-process
// trace file, and the offline auditor (daemon/audit.h, `model_checker
// --audit`) later merges all files and replays them through the same
// acceptors. The file format reuses the WAL record framing
// (storage/wal.h): every record is CRC-32-guarded, so a SIGKILL mid-write
// leaves a torn tail that read_wal() trims to the longest clean prefix —
// the next incarnation truncates the file to that prefix before appending.
//
//   file   := record*                      (storage::Wal framing)
//   record := magic u8 | type u8 | varuint len | payload | crc32 u32
//   type   := kTraceMeta | kTraceVs | kTraceDvs | kTraceTo
//   payload(meta)  := u64 ts_us | varuint n | varuint initial | process_id
//   payload(event) := u64 ts_us | u8 tag | event fields        (see .cpp)
//
// Timestamps are CLOCK_REALTIME microseconds: all processes of a localhost
// cluster share one clock, so the auditor's cross-process merge can use
// them as its primary sort key (it tolerates skew — see audit.h).
// Integers use the common little-endian Writer/Reader, so a trace written
// on one architecture audits identically on any other.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "spec/events.h"

namespace dvs::daemon {

inline constexpr std::uint8_t kTraceMeta = 1;
inline constexpr std::uint8_t kTraceVs = 2;
inline constexpr std::uint8_t kTraceDvs = 3;
inline constexpr std::uint8_t kTraceTo = 4;

/// One incarnation header. Every file starts with one; a crash-restart
/// appends another, so metas.size() - 1 counts restarts.
struct TraceMeta {
  std::uint64_t ts_us = 0;
  std::size_t n = 0;
  std::size_t initial_members = 0;
  ProcessId self{};
  /// Shard group this file's column belongs to; 0 = the legacy unsharded
  /// deployment. Encoded as a trailing varuint only when nonzero, so
  /// unsharded traces are byte-identical to the pre-shard format and old
  /// files decode as group 0.
  std::uint32_t group = 0;
};

// ----- event codec (exposed for tests) --------------------------------------

void encode_event(Writer& w, const spec::VsEvent& event);
void encode_event(Writer& w, const spec::DvsEvent& event);
void encode_event(Writer& w, const spec::ToEvent& event);
[[nodiscard]] spec::VsEvent decode_vs_event(Reader& r);
[[nodiscard]] spec::DvsEvent decode_dvs_event(Reader& r);
[[nodiscard]] spec::ToEvent decode_to_event(Reader& r);

/// Append-side: one sink per dvsd column.
///
/// Opening truncates any torn tail a SIGKILLed predecessor left (clean
/// WAL prefix), then appends a fresh META record. Records collect in a
/// buffer that sync() hands to the kernel with one write; dvsd syncs once
/// per event-loop wake, before any datagram or control reply of that wake
/// leaves the process, so nothing an outside observer can see precedes its
/// trace record. SIGKILL loses at most the records of the wake in progress,
/// none of which anything outside the process has acted on (the page cache
/// survives the process; only machine crashes can lose more, and the
/// auditor's per-file clean-prefix rule absorbs that too).
class TraceSink {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  TraceSink(std::string path, const TraceMeta& meta);
  /// Syncs and closes (without fsync; see close()).
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void record(std::uint64_t ts_us, const spec::VsEvent& event);
  void record(std::uint64_t ts_us, const spec::DvsEvent& event);
  void record(std::uint64_t ts_us, const spec::ToEvent& event);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t records_written() const { return records_; }

  /// Writes every buffered record with one write(). Throws on I/O errors.
  void sync();

  /// Syncs, fsyncs and closes the file. Idempotent; further record()
  /// calls are silently dropped. Column teardown during dynamic
  /// re-provisioning MUST call this — holding the descriptor open leaks one
  /// fd per migrated column for the life of the daemon, and the handed-off
  /// trace must be durable before the slot's new host starts writing its
  /// own incarnation of the history.
  void close();
  /// True when opening found (and trimmed) a torn tail.
  [[nodiscard]] bool trimmed_torn_tail() const { return trimmed_; }

  /// Conventional file name for a process's trace within a shared dir.
  [[nodiscard]] static std::string path_for(const std::string& trace_dir,
                                            ProcessId p);
  /// Sharded variant: one file per (pool process, shard group) column,
  /// "p<N>.g<K>.trace". `p` is the POOL id (shard-local ids repeat across
  /// groups and would collide).
  [[nodiscard]] static std::string path_for(const std::string& trace_dir,
                                            ProcessId p, std::uint32_t group);

 private:
  void append(std::uint8_t type, const std::function<void(Writer&)>& encode);

  std::string path_;
  int fd_ = -1;
  Writer payload_;  // reused record encoder
  Bytes pending_;   // framed records not yet written
  std::uint64_t records_ = 0;
  bool trimmed_ = false;
};

// ----- load side (the auditor's input) --------------------------------------

/// One timestamped event from one process's file, local order preserved.
struct TracedEvent {
  std::uint64_t ts_us = 0;
  std::uint8_t layer = 0;  // kTraceVs / kTraceDvs / kTraceTo
  std::variant<spec::VsEvent, spec::DvsEvent, spec::ToEvent> event;
};

struct ProcessTrace {
  std::string path;
  std::vector<TraceMeta> metas;     // one per incarnation
  std::vector<TracedEvent> events;  // in file (= local) order
  bool corrupt_tail = false;        // file ended in a torn/corrupt record
  std::size_t undecodable = 0;      // CRC-clean frames that failed decoding

  [[nodiscard]] ProcessId self() const {
    return metas.empty() ? ProcessId{} : metas.front().self;
  }
  /// Shard group of this file's column (0 = unsharded).
  [[nodiscard]] std::uint32_t group() const {
    return metas.empty() ? 0 : metas.front().group;
  }
};

/// Decodes one trace file. Missing file → throws std::runtime_error; torn
/// tails and undecodable payloads are reported, not thrown (the auditor
/// decides whether they matter).
[[nodiscard]] ProcessTrace load_trace_file(const std::string& path);

/// Loads every "*.trace" file under `trace_dir`, sorted by path so the
/// result (and everything the auditor derives from it) is deterministic.
[[nodiscard]] std::vector<ProcessTrace> load_trace_dir(
    const std::string& trace_dir);

}  // namespace dvs::daemon
