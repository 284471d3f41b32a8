// Daemon: one dvsd OS process — a full VS/DVS/TO node over real UDP.
//
// The node runs one NodeRuntime column per shard group it hosts. An
// unsharded node (config `shards 0`) is the one-column case: group 0, run
// straight on the socket with no group framing (untagged wire), journals at
// the wal_dir root and trace file pN.trace. A sharded node runs its columns
// over a GroupMux, one WAL namespace wal_dir/gK and trace file pN.gK.trace
// per column.
//
// The protocol stack was written against sim::Simulator's virtual clock;
// the daemon reuses it unmodified by driving the simulator from the wall
// clock: simulated time is defined as "microseconds since daemon start"
// (CLOCK_MONOTONIC), the event loop advances the simulator to the current
// elapsed time before and after every socket wait, and the epoll timeout
// is bounded by the next pending timer so heartbeats fire on schedule.
// Everything stays single-threaded: timer callbacks, datagram handlers
// and control commands all run on the loop thread, exactly like in the
// simulator.
//
// A UDP control socket accepts one-datagram text commands (cluster.sh and
// the system tests drive workloads through it):
//
//   ping                 -> "pong <self> pid=<pid>"
//   put <key> <value...> -> broadcasts "put k v", replies "ok uid=<uid>"
//   del <key>            -> broadcasts "del k",   replies "ok uid=<uid>"
//   get <key>            -> the local replica's value, or "(nil)"
//   dump                 -> KvStateMachine::snapshot()
//   digest               -> "digest=<hex> applied=<n>"
//   view                 -> "view=<id> members=<k> primary=<0|1>" | "no-view"
//   stats                -> metrics snapshot (Prometheus-style text)
//   drop <probability>   -> sets the UDP send-drop knob, replies "ok"
//   fds                  -> open file descriptor count (fd-leak checks)
//   shardmap             -> current assignments: "g<k> <pool ids...>" per
//                           shard plus "migrations=<n>" (dynamic mode)
//   quit                 -> replies "ok", exits the loop gracefully
//
// Durable output reaches the kernel once per wake. Journal records (one
// FileStableStore per column directory, plus the pool's) and trace records
// collect in memory while the protocol runs; sync_outputs() writes each
// store and each trace sink with one write() before anything of that wake
// leaves the process — before transport_->flush() sends its datagrams and
// before the control socket sends its replies. That is the journal-before-
// act order docs/RECOVERY.md relies on: a peer or client can only have
// seen effects whose records are already in the page cache.
//
// Shutdown: `quit`, SIGTERM or SIGINT end the loop after the current
// iteration, and the loop syncs before it returns. SIGKILL loses at most
// the records of the wake in progress, none of which anything outside the
// process has seen; a record torn mid-write becomes a clean torn tail that
// the next incarnation trims (store and sink alike) and the auditor skips.
#pragma once

#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "daemon/config.h"
#include "daemon/runtime.h"
#include "daemon/trace_io.h"
#include "net/udp_transport.h"
#include "obs/metrics.h"
#include "shard/group_mux.h"
#include "shard/provision.h"
#include "shard/reprovision.h"
#include "shard/router.h"
#include "sim/simulator.h"
#include "storage/file_store.h"
#include "vsys/vs_node.h"

namespace dvs::daemon {

class Daemon {
 public:
  /// Opens sockets, storage and trace sinks; builds (and, when the WAL dir
  /// already holds journals, recovers) the node's columns. Throws on setup
  /// errors.
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Runs the event loop until `quit` or until *stop becomes nonzero
  /// (signal handlers set it). Returns the process exit code.
  int run(const volatile std::sig_atomic_t* stop = nullptr);

  /// The control socket's bound port (the config may say port 0 in tests).
  [[nodiscard]] std::uint16_t control_port() const { return control_port_; }

  /// One column this daemon hosts: the unsharded node's only one (group
  /// 0), or one per shard whose replica set contains this node.
  struct Column {
    std::uint32_t group = 0;
    shard::GroupMux::Port* port = nullptr;  // null for group 0
    std::unique_ptr<storage::FileStableStore> store;
    std::unique_ptr<TraceSink> sink;
    obs::MetricsRegistry metrics;
    std::unique_ptr<NodeRuntime> runtime;
  };
  [[nodiscard]] const std::vector<std::unique_ptr<Column>>& columns() const {
    return columns_;
  }

 private:
  /// One joiner bootstrap in flight: the transfer request retries until the
  /// donor's snapshot chunks assemble, then the column opens over them. The
  /// entry survives a failed install (the retry timer re-requests) and is
  /// only erased once the transferred journals are durably committed.
  struct PendingJoin {
    ProcessId slot{};   // shard-local id we are adopting
    ProcessId donor{};  // pool id serving the snapshot
    /// The group's assignment row BEFORE the plan adopted us: persisted in
    /// place of the live row until the transfer commits, so a joiner that
    /// crashes mid-transfer restarts without the slot (and the next pool
    /// view re-plans the move) instead of serving an empty column.
    shard::ShardAssignment prior;
    shard::SnapshotAssembler assembler;
  };

  void build_columns();
  /// Opens the column for `a` (group 0: the unsharded node). A nonzero
  /// `handoff_next` records HANDOFF(next) after the recovering runtime's
  /// CRASH: the column adopted a migration donor's journals.
  /// `store` is the journal object over the column's directory when the
  /// caller already holds one (a migration episode ran on it); exactly one
  /// object may own a journal file, so it is handed over, never reopened.
  Column& open_column(const shard::ShardAssignment& a,
                      std::uint64_t handoff_next,
                      std::unique_ptr<storage::FileStableStore> store = {});
  [[nodiscard]] std::string column_wal_dir(std::uint32_t group) const;
  void apply_pool_view(const View& view);
  void start_join(std::uint32_t group, ProcessId slot, ProcessId donor,
                  const shard::ShardAssignment& prior);
  void request_join(std::uint32_t group);
  void finish_join(std::uint32_t group, const Bytes& encoded);
  void handle_transfer(ProcessId from, const shard::TransferFrame& frame);
  void teardown_column(std::uint32_t group);
  void persist_assignments();
  [[nodiscard]] Column* column_for(std::uint32_t group);
  /// Writes every column's journal, then the pool's, then every trace
  /// sink: one write() each, and none when nothing is pending. Column
  /// journals go first because the pool's assignment row may only claim a
  /// column whose journals are on disk.
  void sync_outputs();
  void handle_control();
  [[nodiscard]] std::string execute(const std::string& command);
  [[nodiscard]] std::uint64_t elapsed_us() const;

  DaemonConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<net::UdpTransport> transport_;
  std::unique_ptr<shard::GroupMux> mux_;  // null when unsharded
  std::vector<std::unique_ptr<Column>> columns_;
  std::vector<shard::ShardAssignment> assignments_;
  shard::ShardRouter router_{1};  // rebuilt with K in build_columns()
  // Dynamic re-provisioning (config.dynamic): the pool membership group and
  // the in-flight joiner bootstraps.
  std::unique_ptr<storage::FileStableStore> pool_store_;
  std::unique_ptr<vsys::VsNode> pool_vs_;
  std::map<std::uint32_t, PendingJoin> joins_;
  /// Transfer-request nonce, monotone across every join this daemon runs:
  /// each kRequest gets a fresh episode so the assembler can tell two donor
  /// answers apart (and discard superseded ones).
  std::uint32_t xfer_episode_ = 0;
  std::uint64_t migrations_ = 0;
  obs::MetricsRegistry metrics_;
  int ctl_fd_ = -1;
  std::uint16_t control_port_ = 0;
  std::uint64_t t0_ns_ = 0;
  bool quit_ = false;
};

/// Wall-clock microseconds (CLOCK_REALTIME) — the trace timestamp domain
/// shared by every process on the host.
[[nodiscard]] std::uint64_t realtime_us();

}  // namespace dvs::daemon
