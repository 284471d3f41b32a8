// Cluster: assembles the full distributed stack for one simulated run —
// simulator + partitionable network + one ProcessColumn (VS / DVS / TO) per
// process — and records the external traces of every layer so tests can
// replay them through the specification acceptors (experiment E8 of
// DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/labels.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/view.h"
#include "dvsys/dvs_node.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/stack_tracer.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "spec/acceptors.h"
#include "spec/events.h"
#include "spec/trace_recorder.h"
#include "storage/stable_store.h"
#include "tosys/process_column.h"
#include "tosys/to_node.h"
#include "vsys/vs_node.h"

namespace dvs::tosys {

/// Per-run configuration; the inherited ColumnOptions apply to every
/// process's column.
struct ClusterConfig : ColumnOptions {
  std::size_t n_processes = 3;
  /// Number of processes in the initial view v0 (the first k ids);
  /// 0 means all of them.
  std::size_t initial_members = 0;
  net::NetConfig net;
  /// Record per-layer external traces (costs memory on long runs).
  bool record_traces = true;
  /// Feed every external event through the spec acceptors as it happens
  /// (spec::TraceRecorder): the run itself is the conformance check, and
  /// the first violation is available via oracle(). Cheap (E13: acceptance
  /// replays millions of events/s), so it defaults on; benchmarks that want
  /// the raw stack can disable it together with record_traces.
  bool conformance_oracle = true;
  /// Always-on observability: every layer's stats publish into one
  /// obs::MetricsRegistry and the stack's external actions become causal
  /// spans in an obs::TraceLog (see obs::StackTracer). Cheap — counters are
  /// struct-backed and scraped only at snapshot time — but benchmarks that
  /// want the raw stack can disable it.
  bool observability = true;
  /// Crash-restart persistence: every layer journals its durable state
  /// (write-ahead, synchronous within the simulator event) into a stable
  /// store, and Cluster::restart(p) can tear a process down and rebuild it
  /// from that store alone — the kRestart fault. Off by default: the
  /// journaling hooks are never installed and the stack is byte-identical
  /// to the pre-persistence build.
  bool persistence = false;
  /// Where the journals live when persistence is on. Null = the cluster
  /// owns a deterministic in-memory store (simulation default); benches
  /// point this at a storage::FileStableStore to measure real WAL I/O. Must
  /// outlive the cluster.
  storage::StableStore* store = nullptr;

  // ----- host injection (sharded pools) --------------------------------------
  /// Run this cluster on an externally owned event loop / transport instead
  /// of building its own. A sharded pool (src/shard) hosts many protocol
  /// columns over ONE Simulator and ONE network; each column is a full
  /// Cluster with these two set. Both null (the default) keeps the legacy
  /// standalone behaviour: the cluster owns its Simulator and SimNetwork and
  /// is bit-for-bit identical to the pre-injection build. When `transport`
  /// is set, `sim` must be set too; both must outlive the cluster, and
  /// net() (the owned SimNetwork's fault surface) becomes unavailable —
  /// faults are injected on the shared substrate instead.
  sim::Simulator* sim = nullptr;
  net::Transport* transport = nullptr;
  /// With an injected transport: how primary_fraction() asks whether a
  /// process is currently fault-paused (the owned SimNetwork answers
  /// directly in standalone mode). Null = nobody is ever paused.
  std::function<bool(ProcessId)> paused_probe;
};

/// One delivered (BRCV) record.
struct Delivery {
  ProcessId receiver;
  ProcessId origin;
  AppMsg msg;
  sim::Time at;
};

class Cluster : private ColumnObserver {
 public:
  Cluster(ClusterConfig config, std::uint64_t seed);

  /// Starts every node (attaches handlers, starts timers).
  void start();

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  /// The owned simulated network's fault surface. Throws when the cluster
  /// runs on an injected transport (faults then belong to the host).
  [[nodiscard]] net::SimNetwork& net();
  /// The transport every node sends through (owned SimNetwork or injected).
  [[nodiscard]] net::Transport& transport() { return *transport_; }
  [[nodiscard]] const ProcessSet& universe() const { return universe_; }
  [[nodiscard]] const View& v0() const { return v0_; }

  [[nodiscard]] ProcessColumn& column(ProcessId p) { return *columns_.at(p); }
  [[nodiscard]] vsys::VsNode& vs_node(ProcessId p) { return column(p).vs(); }
  [[nodiscard]] dvsys::DvsNode& dvs_node(ProcessId p) {
    return column(p).dvs();
  }
  [[nodiscard]] ToNode& to_node(ProcessId p) { return column(p).to(); }

  /// Client broadcast at p (recorded in the TO trace).
  void bcast(ProcessId p, AppMsg a);

  /// Observer invoked on every BRCV delivery, after it is recorded. Lets
  /// applications (e.g. the replicated state-machine library in src/apps)
  /// apply commands as they commit instead of polling deliveries().
  void set_delivery_hook(std::function<void(const Delivery&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  /// Convenience: run the simulation for `duration` of simulated time.
  void run_for(sim::Time duration);

  // ----- crash-restart recovery ----------------------------------------------

  /// Crash-restarts p (FaultPlan kRestart): the whole per-process stack is
  /// destroyed and rebuilt from its stable storage only — VS keeps nothing
  /// but its epoch floor, DVS its att/reg knowledge (Invariants 4.1/4.2
  /// survive the crash), TO its content/order/confirm cursors. The new
  /// incarnation starts with no view and rejoins through the normal
  /// membership protocol; spec acceptors and the span tracer keep checking
  /// across the boundary. Requires persistence (throws otherwise). Safe to
  /// call from a scheduled simulator event — teardown and rebuild are
  /// synchronous, and in-flight datagrams simply arrive at the new
  /// incarnation (the epoch floor makes stale proposals harmless).
  void restart(ProcessId p);

  /// The stable store backing persistence (null when persistence is off).
  /// Tests install barrier hooks on it to enumerate crash points.
  [[nodiscard]] storage::StableStore* store() { return store_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

  // ----- recorded traces and checks ------------------------------------------

  [[nodiscard]] const std::vector<spec::VsEvent>& vs_trace() const {
    return recorder_.vs_trace();
  }
  [[nodiscard]] const std::vector<spec::DvsEvent>& dvs_trace() const {
    return recorder_.dvs_trace();
  }
  [[nodiscard]] const std::vector<spec::ToEvent>& to_trace() const {
    return recorder_.to_trace();
  }

  /// The always-on conformance oracle (acceptors fed online). ok() is false
  /// from the first event the specs cannot match; check_invariants()
  /// re-checks Invariants 4.1/4.2 on the resolved DVS state.
  [[nodiscard]] spec::TraceRecorder& oracle() { return recorder_; }
  [[nodiscard]] const spec::TraceRecorder& oracle() const {
    return recorder_;
  }
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return deliveries_;
  }
  [[nodiscard]] std::vector<Delivery> deliveries_at(ProcessId p) const;

  /// Replays the recorded traces through the spec acceptors: the executable
  /// statement that the distributed stack implements VS, DVS and TO.
  [[nodiscard]] spec::AcceptResult check_vs_trace() const;
  [[nodiscard]] spec::AcceptResult check_dvs_trace() const;
  [[nodiscard]] spec::AcceptResult check_to_trace() const;

  /// Fraction of processes currently operating in a primary view.
  [[nodiscard]] double primary_fraction() const;

  // ----- observability -------------------------------------------------------

  /// The cluster-wide metrics registry (layers publish through collectors;
  /// usable even with observability disabled — it is just empty).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// The causal span log (empty when observability is disabled).
  [[nodiscard]] const obs::TraceLog& trace() const { return trace_; }

  /// collect() + export of every layer's current counters/gauges plus the
  /// tracer's histograms. Deterministic per seed.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() {
    return metrics_.snapshot();
  }
  [[nodiscard]] std::string trace_json() const { return trace_.to_json(); }

 private:
  // ColumnObserver: the oracle, the span tracer and the delivery log hear
  // every column's external actions.
  [[nodiscard]] bool wants_messages() const override;
  void on_vs(const spec::VsEvent& event) override;
  void on_dvs(const spec::DvsEvent& event) override;
  void on_to(const spec::ToEvent& event) override;

  /// Builds p's column (fresh or recovered) and binds its metrics.
  void build_column(ProcessId p, bool recover);

  ClusterConfig config_;
  Rng rng_;
  ProcessSet universe_;
  View v0_;
  // Owned in standalone mode, absent with host injection; sim_ names
  // whichever Simulator the cluster actually runs on (declared after
  // owned_sim_ so the reference can bind to it).
  std::unique_ptr<sim::Simulator> owned_sim_;
  sim::Simulator& sim_;
  std::unique_ptr<net::SimNetwork> net_;  // null with an injected transport
  net::Transport* transport_ = nullptr;   // = net_.get() when owned
  std::unique_ptr<storage::MemStableStore> owned_store_;
  storage::StableStore* store_ = nullptr;  // null = persistence off
  std::map<ProcessId, std::unique_ptr<ProcessColumn>> columns_;
  std::map<ProcessId, std::vector<std::size_t>> collector_ids_;
  std::uint64_t restarts_ = 0;

  std::function<void(const Delivery&)> delivery_hook_;
  spec::TraceRecorder recorder_;
  std::vector<Delivery> deliveries_;

  obs::MetricsRegistry metrics_;
  obs::TraceLog trace_;
  std::unique_ptr<obs::StackTracer> tracer_;  // null when observability off
};

}  // namespace dvs::tosys
