// NodeRuntime: one process's VS/DVS/TO column over an abstract Transport,
// with a replicated key-value state machine on top.
//
// The runtime holds exactly one tosys::ProcessColumn — the same column
// tosys::Cluster holds n of — over any Transport (a UdpTransport or a
// GroupMux port in dvsd, a shared SimNetwork in the sim-vs-real
// differential tests), and observes it: spec events go to an on-disk
// TraceSink (real deployments; the offline auditor replays them) and/or an
// in-memory log (in-process tests feed it to the same auditor without
// touching the filesystem), and every delivery is applied to the KV state
// machine.
//
// Recovery is automatic: if the stable store already holds journals for
// this process, the column is rebuilt from them exactly like
// Cluster::restart — the node starts with no view, rejoins through the
// membership protocol, and the column reports the spec::EvCrash that
// relaxes the TO sender-FIFO obligation for the lost incarnation — and the
// KV state is rebuilt from the recovered order prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/state_machine.h"
#include "common/types.h"
#include "common/view.h"
#include "daemon/trace_io.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"
#include "tosys/process_column.h"

namespace dvs::daemon {

struct RuntimeOptions : tosys::ColumnOptions {
  /// Keep every spec event in memory (events()); in-process tests audit
  /// these directly. dvsd turns it off — its events go to the TraceSink.
  bool record_in_memory = false;
};

class NodeRuntime : private tosys::ColumnObserver {
 public:
  /// `store` (nullable) enables persistence; `sink` (nullable) enables
  /// on-disk traces; `now_us` supplies event timestamps (CLOCK_REALTIME in
  /// dvsd, sim time in tests). Both pointers must outlive the runtime.
  NodeRuntime(ProcessId self, std::size_t n, std::size_t initial_members,
              net::Transport& net, sim::Simulator& sim, RuntimeOptions options,
              storage::StableStore* store, TraceSink* sink,
              std::function<std::uint64_t()> now_us);

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Attaches the net handler and arms the timers (VsNode::start).
  void start() { column_->start(); }

  /// True when the constructor found prior journals and rebuilt from them
  /// (this run is a crash-restart incarnation).
  [[nodiscard]] bool recovered() const { return recovered_; }

  /// Client broadcast of one state-machine command; returns the uid the
  /// command travels under (unique per origin across incarnations).
  std::uint64_t bcast_command(const std::string& command);

  [[nodiscard]] ProcessId self() const { return column_->self(); }
  [[nodiscard]] tosys::ProcessColumn& column() { return *column_; }
  [[nodiscard]] vsys::VsNode& vs() { return column_->vs(); }
  [[nodiscard]] dvsys::DvsNode& dvs() { return column_->dvs(); }
  [[nodiscard]] tosys::ToNode& to() { return column_->to(); }
  [[nodiscard]] const apps::KvStateMachine& kv() const { return kv_; }

  /// The in-memory spec-event log (empty unless record_in_memory).
  [[nodiscard]] const std::vector<TracedEvent>& events() const {
    return events_;
  }

  /// vs/dvs/to counters plus app.applied / app.deliveries.
  void bind_metrics(obs::MetricsRegistry& metrics);

 private:
  // ColumnObserver: every spec event goes to the sink and/or memory log;
  // deliveries also apply to the state machine.
  [[nodiscard]] bool wants_messages() const override { return true; }
  void on_vs(const spec::VsEvent& event) override;
  void on_dvs(const spec::DvsEvent& event) override;
  void on_to(const spec::ToEvent& event) override;

  bool record_in_memory_;
  TraceSink* sink_;
  std::function<std::uint64_t()> now_us_;
  bool recovered_ = false;
  apps::KvStateMachine kv_;
  std::uint64_t deliveries_ = 0;  // live BRCVs (recovery replay excluded)
  std::vector<TracedEvent> events_;
  std::uint64_t uid_salt_ = 0;
  std::unique_ptr<tosys::ProcessColumn> column_;  // last: observes the above
};

}  // namespace dvs::daemon
