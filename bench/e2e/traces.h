// What dvs_bench learns from the spec-event traces dvsd already writes.
//
// dvsd answers `put` with `ok uid=` before the command is ordered, so the
// driver learns commits by tailing each daemon's trace file during the run
// (TraceTail, filtered by brcv_of). Every benchmark command is
// "put k<key> v<index>", so each record maps back to its command. The VS
// and DVS records are decoded only after the daemons exit (decode_node),
// which is where each command's stage timestamps come from.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "storage/wal.h"

namespace dvs::bench {

/// The command index carried by a benchmark payload, -1 for any other.
[[nodiscard]] std::int64_t command_index(const std::string& payload);

/// Incremental reader of one trace file. Keeps the offset of the clean
/// record prefix, so a torn tail is re-read once complete and a restarted
/// daemon's trimmed-and-appended file continues where it left off.
class TraceTail {
 public:
  explicit TraceTail(std::string path) : path_(std::move(path)) {}
  ~TraceTail();

  TraceTail(const TraceTail&) = delete;
  TraceTail& operator=(const TraceTail&) = delete;

  /// Hands every record appended since the last call to `on_record`.
  void poll(const std::function<void(const storage::WalRecord&)>& on_record);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t offset_ = 0;
  Bytes chunk_;
};

/// The benchmark command a BRCV record applied, with the record's
/// timestamp; false for every other record.
[[nodiscard]] bool brcv_of(const storage::WalRecord& rec, std::int64_t& index,
                           std::uint64_t& ts_us);

/// One command's stage timestamps at one replica (0 = never observed).
struct Stamps {
  std::uint64_t vs_gprcv = 0;  // VS GPRCV of the labelled message
  std::uint64_t vs_safe = 0;   // VS SAFE of it
  std::uint64_t dvs_safe = 0;  // DVS SAFE of it (handed to TO)
  std::uint64_t brcv = 0;      // TO BRCV: applied to the replica's KV
};

/// Everything the post-run decode extracts from one daemon's trace.
struct NodeTrace {
  /// BRCV command indices in delivery order, one list per incarnation (a
  /// CRASH record starts the next).
  std::vector<std::vector<std::int64_t>> incarnations;
  std::vector<std::uint64_t> vs_views;   // VS NEWVIEW timestamps
  std::vector<std::uint64_t> dvs_views;  // DVS NEWVIEW timestamps
  std::vector<std::uint64_t> registers;  // DVS REGISTER timestamps
  std::vector<std::uint64_t> brcvs;      // every BRCV timestamp, in order
  /// BCASTs this node originated: command index -> (uid, timestamp).
  std::vector<std::array<std::uint64_t, 2>> bcasts;  // indexed by command
  std::vector<Stamps> stamps;                         // indexed by command
};

/// Decodes one trace file for `commands` benchmark commands.
[[nodiscard]] NodeTrace decode_node(const std::string& path,
                                    std::size_t commands);

/// "" when every replica's BRCV sequence (each incarnation a contiguous
/// run) fits one common total order; otherwise the first violation.
[[nodiscard]] std::string check_order(const std::vector<NodeTrace>& nodes);

/// One command's parent span (due -> BRCV at the last replica to apply it)
/// and its children measured at that critical replica. The children tile
/// the parent exactly: each starts where the previous one ends.
struct Span {
  std::int64_t cmd = 0;
  std::uint64_t start_us = 0;  // due time
  std::uint64_t end_us = 0;    // commit: BRCV at the critical replica
  int replica = 0;             // the critical replica
  /// submit (due -> BCAST at origin), order (-> VS GPRCV), safe (-> VS
  /// SAFE), handoff (-> DVS SAFE), confirm (-> BRCV).
  std::array<std::int64_t, 5> child{};
  /// False when a stage boundary was never recorded (a command ordered
  /// through a view change's state exchange): its time then falls to the
  /// child that ends at the next recorded boundary.
  bool complete = true;
};

/// Builds the span of command `cmd`, due at `due`, origin `origin`, whose
/// commit is the latest BRCV among `required` replicas.
[[nodiscard]] Span make_span(const std::vector<NodeTrace>& nodes,
                             std::int64_t cmd, std::uint64_t due, int origin,
                             const std::vector<int>& required);

}  // namespace dvs::bench
