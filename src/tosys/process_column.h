// ProcessColumn: one process's VS→DVS→TO protocol column.
//
// The paper specifies each layer once and stacks them per process: VS at
// the bottom, DVS on VS, TO on DVS. This class is the one place that builds
// that stack — bottom-up, either fresh or recovered from the process's
// journals in a stable store — wires each layer's callbacks into the layer
// above, attaches the journals, and forwards every external action (the
// events the spec acceptors judge) to one ColumnObserver.
//
// Every host of the protocol holds columns: tosys::Cluster holds n of them
// over a simulated network and observes them with the conformance oracle
// and the span tracer; daemon::NodeRuntime holds one over a real transport
// and observes it with the on-disk trace sink and the replicated KV state
// machine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/labels.h"
#include "common/types.h"
#include "common/view.h"
#include "dvsys/dvs_node.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "spec/events.h"
#include "storage/stable_store.h"
#include "tosys/to_node.h"
#include "vsys/vs_node.h"

namespace dvs::tosys {

/// The per-process protocol knobs every column host shares.
struct ColumnOptions {
  vsys::VsConfig vs;
  /// Ablation knobs (see bench_ablation): the paper's garbage-collection
  /// and registration mechanisms can be switched off to measure their
  /// contribution to adaptivity.
  bool gc_enabled = true;
  bool registration_enabled = true;
  /// TO-automaton behaviour switches, e.g. printed_figure_mode to
  /// re-inject the paper's Figure 5 errata (harness self-validation: the
  /// oracle must reject such runs).
  toimpl::DvsToToOptions to_options;
  /// Vote weights for weighted dynamic voting (empty = the paper's
  /// unweighted rule).
  WeightMap weights;
};

/// Hears a column's external actions, each one before the layer above
/// consumes it (so e.g. on REGISTER the DVS client view still names the
/// view being registered).
class ColumnObserver {
 public:
  /// Whether the per-message actions (GPSND, GPRCV and SAFE at VS and DVS)
  /// are forwarded. The spec acceptors need them; views, registrations,
  /// broadcasts, deliveries, crashes and handoffs are always forwarded.
  [[nodiscard]] virtual bool wants_messages() const = 0;
  virtual void on_vs(const spec::VsEvent& event) = 0;
  virtual void on_dvs(const spec::DvsEvent& event) = 0;
  virtual void on_to(const spec::ToEvent& event) = 0;

 protected:
  ~ColumnObserver() = default;
};

class ProcessColumn {
 public:
  /// Builds `self`'s column over `net`. A fresh column starts inside v0 when
  /// self is a member of it, otherwise with no view. A recovered column
  /// (`recover`) rebuilds every layer's durable state from self's journals
  /// in `store` — VS its epoch floor, DVS its att/reg knowledge, TO its
  /// content/order/cursors — starts with no view, rejoins through the
  /// membership protocol, and tells the observer CRASH_self once built.
  /// With a store every layer journals into it from here on, starting each
  /// journal with a baseline snapshot of the state it has. `net`, `sim`,
  /// `observer` and `store` must outlive the column.
  ProcessColumn(ProcessId self, const View& v0, net::Transport& net,
                sim::Simulator& sim, const ColumnOptions& options,
                ColumnObserver& observer, storage::StableStore* store,
                bool recover);

  ProcessColumn(const ProcessColumn&) = delete;
  ProcessColumn& operator=(const ProcessColumn&) = delete;

  /// Attaches the net handler and arms the timers.
  void start() { vs_->start(); }

  /// Client broadcast (BCAST), observed before the TO layer takes it.
  void bcast(const AppMsg& a);

  /// Tells the observer HANDOFF(next)_self: this incarnation adopted a
  /// migration donor's delivery cursor (see spec::EvHandoff). Call right
  /// after constructing a recovered column over transferred journals.
  void note_handoff(std::uint64_t next);

  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] vsys::VsNode& vs() { return *vs_; }
  [[nodiscard]] dvsys::DvsNode& dvs() { return *dvs_; }
  [[nodiscard]] ToNode& to() { return *to_; }

  /// Publishes the three layers' counters; returns the collector ids, which
  /// a host that rebuilds the column must remove first.
  std::vector<std::size_t> bind_metrics(obs::MetricsRegistry& metrics);

  /// Calls `fn` on every message of the total order this process already
  /// reported (positions 1..nextreport-1): what its application state must
  /// reflect after a recovery or a handoff, since the restored cursor
  /// suppresses their re-delivery.
  void for_each_reported(const std::function<void(const AppMsg&)>& fn) const;

  /// Stable-store key of p's `layer` journal ("vs" | "dvs" | "to"). Shard
  /// re-provisioning copies a slot's journals between hosts under it.
  [[nodiscard]] static std::string storage_key(ProcessId p, const char* layer);
  /// True when `store` holds any of p's journals: a prior incarnation ran.
  [[nodiscard]] static bool has_journals(const storage::StableStore& store,
                                         ProcessId p);

 private:
  void wire();

  ProcessId self_;
  ColumnObserver& observer_;
  // Declared bottom-up, so destruction runs top-down (TO references DVS
  // references VS).
  std::unique_ptr<vsys::VsNode> vs_;
  std::unique_ptr<dvsys::DvsNode> dvs_;
  std::unique_ptr<ToNode> to_;
};

}  // namespace dvs::tosys
