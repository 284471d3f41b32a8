// Executable transcription of Figure 5: DVS-TO-TO_p, the application
// automaton that implements totally-ordered broadcast on top of DVS
// (a variant of Keidar–Dolev / Amir–Dolev–Keidar–Melliar-Smith–Moser).
//
// Normal activity: each BCAST is given a system-wide unique label, sent via
// DVS, tentatively ordered on receipt, confirmed when its safe indication
// arrives, and finally reported (BRCV) in confirmed order.
//
// Recovery activity: on a DVS-NEWVIEW each member multicasts a summary of
// its state; once summaries from all members arrive the node *establishes*
// the view — adopting fullorder(gotstate) as its tentative order — then
// registers it with DVS; when the state exchange is safe, all exchanged
// labels become confirmed.
//
// CORRECTIONS to the printed Figure 5 (reproduction findings; see
// EXPERIMENTS.md E6):
//  1. LABEL additionally requires status = normal. As printed, a label
//     created between DVS-NEWVIEW and the summary send leaks into the
//     summary's con, is placed into fullorder via knowncontent, and then
//     also arrives as a regular labelled message — ending up *twice* in
//     order, i.e. a duplicate client delivery. Found by the randomized
//     TO-IMPL sweep; reproduced as a unit test.
//  2. A labelled message received while status ≠ normal is recorded in
//     content but its order-append is deferred until establishment (as
//     printed, the append is overwritten by order := fullorder and the
//     label silently vanishes from this member's tentative order while
//     remaining in everyone else's — diverging confirmed orders). Deferred
//     appends are replayed after fullorder is adopted; pending deferrals
//     are discarded on the next view change (the labels stay in content and
//     are recovered through the state exchange).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/labels.h"
#include "common/messages.h"
#include "common/ring.h"
#include "common/types.h"
#include "common/view.h"

namespace dvs::toimpl {

/// Internal content/safe-label tables, backed by the process-wide node pool
/// (common/arena.h): `content` grows by one map node per delivered message,
/// so pooling turns the steady-state insert stream into recycled-node
/// handouts (one chunked allocation per 64 nodes at the high-water mark).
/// The durable snapshots (Summary, ToDurableState) keep the plain map types
/// — conversion happens only at view changes and crash recovery.
using PooledContentMap =
    std::map<Label, AppMsg, std::less<Label>,
             PoolAllocator<std::pair<const Label, AppMsg>>>;
using PooledLabelSet = std::set<Label, std::less<Label>, PoolAllocator<Label>>;

enum class Status { kNormal, kSend, kCollect };

[[nodiscard]] const char* to_string(Status s);

/// Behaviour switches for harness self-validation (mutation testing).
struct DvsToToOptions {
  /// Runs the automaton exactly as printed in Figure 5 — labels may be
  /// created during recovery, and deliveries racing the state exchange
  /// append to order immediately (both reverted corrections; see the class
  /// comment). Unsafe: exists so the test suite can demonstrate that the
  /// TO acceptance harness detects the paper's errata.
  bool printed_figure_mode = false;
};

/// The part of DVS-TO-TO_p state that must survive a crash for the TO
/// service to stay prefix-consistent: the confirmed/reported prefix
/// bookkeeping. `order`/`nextconfirm`/`highprimary` are what this node
/// contributes to the next state exchange (losing them when this node is
/// the only holder of a confirmed label would lose a confirmed delivery);
/// `nextreport` is the BRCV cursor (forgetting it re-delivers); `content`
/// maps the ordered labels back to payloads. Everything else — buffers,
/// gotstate, safe sets, registered/established, nextseqno — is
/// per-view/per-incarnation: a restarted process only ever acts in fresh
/// views with higher ids, so those reset cleanly (labels stay unique
/// because they are keyed by (viewid, seqno, origin) and view ids never
/// repeat across incarnations).
struct ToDurableState {
  ContentMap content;
  std::vector<Label> order;
  std::uint64_t nextconfirm = 1;
  std::uint64_t nextreport = 1;
  ViewId highprimary{};  // init g0

  friend bool operator==(const ToDurableState&,
                         const ToDurableState&) = default;
};

/// Write-ahead observers for the durable transitions, invoked synchronously
/// as the state changes (one simulator event = one atomic log+act unit).
/// The journal in tosys::ToNode appends one WAL record per call, except on
/// establishment, where it rewrites the log as one snapshot.
struct ToDurabilityHooks {
  std::function<void(const Label&, const AppMsg&)> on_content;  // content ∪=
  std::function<void(const Label&)> on_order_append;  // order := order + l
  // Establishment: order wholesale-replaced by fullorder(gotstate) (plus
  // deferred replays), nextconfirm and highprimary jump. Fires once the new
  // values are in place, so durable_state() reads them.
  std::function<void()> on_establish;
  std::function<void(std::uint64_t)> on_confirm;  // new nextconfirm
  std::function<void(std::uint64_t)> on_report;   // new nextreport
};

/// The DVS-TO-TO_p automaton of Figure 5.
class DvsToTo {
 public:
  DvsToTo(ProcessId self, const View& v0, DvsToToOptions options = {});

  // ----- inputs -------------------------------------------------------------

  /// input BCAST(a)_p: append a to the delay buffer.
  void on_bcast(const AppMsg& a);

  /// input DVS-GPRCV(m)_{q,p}: dispatches on labelled message vs summary.
  void on_dvs_gprcv(const ClientMsg& m, ProcessId q);

  /// input DVS-SAFE(m)_{q,p}: labelled message → safe-labels; summary →
  /// safe-exch (and mark the exchange safe when complete).
  void on_dvs_safe(const ClientMsg& m, ProcessId q);

  /// input DVS-NEWVIEW(v)_p: reset per-view state, start recovery.
  void on_dvs_newview(const View& v);

  // ----- internal actions -----------------------------------------------------

  /// internal LABEL(a)_p. Pre: a head of delay ∧ current ≠ ⊥ ∧
  /// status = normal (corrected; see header).
  [[nodiscard]] bool can_label() const;
  void apply_label();

  /// internal CONFIRM_p. Pre: order(nextconfirm) ∈ safe-labels.
  [[nodiscard]] bool can_confirm() const;
  void apply_confirm();

  /// Combined poll-and-take for the drain loops: returns the enabled
  /// DVS-GPSND output and applies its effect, or nullopt when disabled.
  /// Equivalent to next_gpsnd()+take_gpsnd() without building the message
  /// twice (the precondition check is the hot path of every drain).
  [[nodiscard]] std::optional<ClientMsg> poll_gpsnd();
  /// Combined poll-and-take for BRCV, same contract as poll_gpsnd().
  [[nodiscard]] std::optional<std::pair<AppMsg, ProcessId>> poll_brcv();

  // ----- outputs --------------------------------------------------------------

  /// output DVS-GPSND(⟨l,a⟩)_p. Pre: status = normal ∧ l head of buffer ∧
  /// ⟨l,a⟩ ∈ content. Returns the message to hand to DVS.
  [[nodiscard]] std::optional<ClientMsg> next_gpsnd() const;
  ClientMsg take_gpsnd();

  /// output DVS-REGISTER_p. Pre: current ≠ ⊥ ∧ established[current.id] ∧
  /// current.id ∉ registered.
  [[nodiscard]] bool can_register() const;
  void apply_register();

  /// output BRCV(a)_{q,p}. Pre: nextreport < nextconfirm ∧
  /// ⟨order(nextreport), a⟩ ∈ content ∧ q = order(nextreport).origin.
  /// Returns (a, q) — the payload and its original sender.
  [[nodiscard]] std::optional<std::pair<AppMsg, ProcessId>> next_brcv() const;
  std::pair<AppMsg, ProcessId> take_brcv();

  // ----- durability (crash-restart recovery) ---------------------------------

  /// Installs write-ahead observers for the durable transitions. The ctor
  /// fires no hooks; the journal snapshots durable_state() when it attaches.
  void set_durability_hooks(ToDurabilityHooks hooks);

  /// Reinstates recovered durable state after a crash-restart. Must be
  /// called before any input events. current becomes ⊥ and all volatile
  /// state resets; the node re-enters service at the next DVS-NEWVIEW,
  /// contributing its recovered order/content to that state exchange.
  void restore(const ToDurableState& recovered);

  /// Snapshot of the durable variables (journal compaction, checkers).
  [[nodiscard]] ToDurableState durable_state() const;

  // ----- observers (Figure 5 state + history variables) ----------------------

  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] const std::optional<View>& current() const { return current_; }
  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] const PooledContentMap& content() const { return content_; }
  [[nodiscard]] std::uint64_t nextseqno() const { return nextseqno_; }
  [[nodiscard]] const RingBuffer<Label>& buffer() const { return buffer_; }
  [[nodiscard]] const PooledLabelSet& safe_labels() const {
    return safe_labels_;
  }
  [[nodiscard]] const std::vector<Label>& order() const { return order_; }
  [[nodiscard]] std::uint64_t nextconfirm() const { return nextconfirm_; }
  [[nodiscard]] std::uint64_t nextreport() const { return nextreport_; }
  [[nodiscard]] const ViewId& highprimary() const { return highprimary_; }
  [[nodiscard]] const std::map<ProcessId, Summary>& gotstate() const {
    return gotstate_;
  }
  [[nodiscard]] const ProcessSet& safe_exch() const { return safe_exch_; }
  [[nodiscard]] const std::set<ViewId>& registered() const {
    return registered_;
  }
  [[nodiscard]] const RingBuffer<AppMsg>& delay() const { return delay_; }
  [[nodiscard]] bool established(const ViewId& g) const {
    return established_.contains(g);
  }
  [[nodiscard]] const std::set<ViewId>& established_set() const {
    return established_;
  }

  /// The summary this node would send during recovery:
  /// ⟨content, order, nextconfirm, highprimary⟩.
  [[nodiscard]] Summary make_summary() const;

  /// History variable (from the extended version [13], used by
  /// Invariant 6.3): the tentative order this node had built in view g —
  /// its final order while g was current, or the live order if g is
  /// current now.
  [[nodiscard]] std::optional<std::vector<Label>> buildorder(
      const ViewId& g) const;

 private:
  ProcessId self_;
  DvsToToOptions options_;
  ToDurabilityHooks durability_;

  std::optional<View> current_;
  Status status_ = Status::kNormal;
  PooledContentMap content_;
  std::uint64_t nextseqno_ = 1;
  RingBuffer<Label> buffer_;
  PooledLabelSet safe_labels_;
  std::vector<Label> order_;
  std::uint64_t nextconfirm_ = 1;
  std::uint64_t nextreport_ = 1;
  ViewId highprimary_{};  // init g0
  std::map<ProcessId, Summary> gotstate_;
  ProcessSet safe_exch_;
  std::set<ViewId> registered_;
  RingBuffer<AppMsg> delay_;
  std::set<ViewId> established_;

  // Labelled messages received during recovery, to be appended to the
  // adopted fullorder at establishment (correction 2; see header).
  std::vector<Label> deferred_labels_;

  // Memoized negative result for can_confirm(): the drain loops poll it on
  // every event, but its value can only flip to true when order_,
  // safe_labels_, or nextconfirm_ change — every such mutation re-arms the
  // flag. Pure cache: observable behaviour is identical.
  mutable bool confirm_check_needed_ = true;

  // History: order as of leaving each past view (checker support only).
  std::map<ViewId, std::vector<Label>> past_orders_;
};

}  // namespace dvs::toimpl
