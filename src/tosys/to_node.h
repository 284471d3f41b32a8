// Distributed totally-ordered-broadcast node: the Figure 5 DVS-TO-TO
// automaton driven over the distributed DVS layer.
//
// As with dvsys::DvsNode, the protocol logic is the verified
// toimpl::DvsToTo automaton; this wrapper wires inputs to DVS callbacks and
// fires the enabled outputs/internal actions eagerly.
#pragma once

#include <cstdint>
#include <functional>

#include "common/labels.h"
#include "dvsys/dvs_node.h"
#include "storage/wal.h"
#include "toimpl/dvs_to_to.h"

namespace dvs::tosys {

struct ToCallbacks {
  /// BRCV(a)_{origin, self}: a is delivered in the global total order.
  std::function<void(const AppMsg&, ProcessId origin)> on_brcv;
};

struct ToNodeOptions {
  /// Issue DVS-REGISTER automatically once a view is established (the
  /// normal mode). Disabling it is an ablation: views never become totally
  /// registered, so the dynamic service can never garbage-collect and loses
  /// its adaptivity (see bench_ablation).
  bool auto_register = true;
  /// Behaviour switches of the underlying Figure 5 automaton (e.g.
  /// printed_figure_mode for mutation testing).
  toimpl::DvsToToOptions automaton;
};

struct ToNodeStats {
  std::uint64_t bcasts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t views_established = 0;
};

class ToNode {
 public:
  ToNode(ProcessId self, const View& v0, dvsys::DvsNode& dvs,
         ToCallbacks callbacks, ToNodeOptions options = {});

  /// Replaces the callbacks; must be called before any traffic flows.
  void set_callbacks(ToCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
  }

  /// Client broadcast (BCAST).
  void bcast(const AppMsg& a);

  /// The DVS callbacks to install on the underlying dvsys::DvsNode.
  [[nodiscard]] dvsys::DvsCallbacks dvs_callbacks();

  [[nodiscard]] ProcessId self() const { return automaton_.self(); }
  [[nodiscard]] const toimpl::DvsToTo& automaton() const { return automaton_; }
  [[nodiscard]] const ToNodeStats& stats() const { return stats_; }

  /// Registers a collector that publishes ToNodeStats as to.*{process="pN"}
  /// counters. Returns the collector id so an owner that rebuilds the node
  /// (crash-restart) can remove the stale collector.
  std::size_t bind_metrics(obs::MetricsRegistry& metrics);

  // ----- durability (crash-restart recovery) -------------------------------

  /// Starts journaling the automaton's durable transitions (content
  /// inserts, order appends, confirm/report advances — see
  /// toimpl::ToDurableState) into `store` at `key`, writing the current
  /// durable state as the baseline snapshot. The log is append-only from
  /// there on; only an establishment, which replaces `order` wholesale,
  /// rewrites it as a fresh snapshot. Call before any traffic (and after
  /// restore()).
  void attach_storage(storage::StableStore& store, const std::string& key);

  /// Reinstates recovered durable state after a crash-restart; forwards to
  /// toimpl::DvsToTo::restore. Call before any traffic.
  void restore(const toimpl::ToDurableState& recovered) {
    automaton_.restore(recovered);
  }

  /// Replays the journal at `key`. An empty/absent log yields a fresh
  /// state; corrupt tails are discarded (replay is idempotent, so a clean
  /// prefix is always a valid — possibly older — durable state). Journals
  /// written before establishments became snapshots still carry
  /// establishment records; those replay too.
  [[nodiscard]] static toimpl::ToDurableState recover(
      const storage::StableStore& store, const std::string& key);

 private:
  void drain();
  /// Replaces the whole log with one snapshot record of the current durable
  /// state (at attach and at establishment).
  void snapshot_state();

  toimpl::DvsToTo automaton_;
  dvsys::DvsNode& dvs_;
  ToCallbacks callbacks_;
  ToNodeOptions options_;
  ToNodeStats stats_;
  std::set<ViewId> counted_established_;
  std::optional<storage::Wal> wal_;  // durable-state journal, when attached
};

}  // namespace dvs::tosys
