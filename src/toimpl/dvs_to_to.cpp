#include "toimpl/dvs_to_to.h"

#include <algorithm>

#include "common/check.h"

namespace dvs::toimpl {

const char* to_string(Status s) {
  switch (s) {
    case Status::kNormal:
      return "normal";
    case Status::kSend:
      return "send";
    case Status::kCollect:
      return "collect";
  }
  return "?";
}

DvsToTo::DvsToTo(ProcessId self, const View& v0, DvsToToOptions options)
    : self_(self), options_(options) {
  if (v0.contains(self)) {
    current_ = v0;
    registered_.insert(v0.id());
  }
}

void DvsToTo::on_bcast(const AppMsg& a) { delay_.push_back(a); }

bool DvsToTo::can_label() const {
  if (delay_.empty() || !current_.has_value()) return false;
  // Correction 1: no labelling during recovery (Figure 5 as printed allows
  // it, which duplicates deliveries; printed_figure_mode reverts).
  return options_.printed_figure_mode || status_ == Status::kNormal;
}

void DvsToTo::apply_label() {
  DVS_REQUIRE("LABEL", can_label(), "at " << self_.to_string());
  const AppMsg a = delay_.front();
  delay_.pop_front();
  const Label l{current_->id(), nextseqno_, self_};
  if (content_.emplace(l, a).second && durability_.on_content) {
    durability_.on_content(l, a);
  }
  buffer_.push_back(l);
  ++nextseqno_;
}

std::optional<ClientMsg> DvsToTo::next_gpsnd() const {
  if (status_ == Status::kSend) {
    return ClientMsg{make_summary()};
  }
  if (status_ == Status::kNormal && !buffer_.empty()) {
    const Label& l = buffer_.front();
    auto it = content_.find(l);
    if (it != content_.end()) {
      return ClientMsg{LabeledAppMsg{l, it->second}};
    }
  }
  return std::nullopt;
}

ClientMsg DvsToTo::take_gpsnd() {
  auto m = next_gpsnd();
  DVS_REQUIRE("DVS-GPSND", m.has_value(), "at " << self_.to_string());
  if (status_ == Status::kSend) {
    status_ = Status::kCollect;
  } else {
    buffer_.pop_front();
  }
  return *m;
}

void DvsToTo::on_dvs_gprcv(const ClientMsg& m, ProcessId q) {
  confirm_check_needed_ = true;
  if (const auto* labeled = std::get_if<LabeledAppMsg>(&m)) {
    if (content_.emplace(labeled->label, labeled->msg).second &&
        durability_.on_content) {
      durability_.on_content(labeled->label, labeled->msg);
    }
    if (status_ == Status::kNormal || options_.printed_figure_mode) {
      order_.push_back(labeled->label);
      if (durability_.on_order_append) {
        durability_.on_order_append(labeled->label);
      }
    } else {
      // Defer the order append until establishment (correction 2). Deferred
      // labels are volatile: a crash before establishment loses them from
      // this replica, but they stay in content (journaled above) and are
      // recovered through the next state exchange.
      deferred_labels_.push_back(labeled->label);
    }
    return;
  }
  const auto* x = std::get_if<Summary>(&m);
  if (x == nullptr) {
    throw PreconditionViolation("DVS-TO-TO received an opaque client message");
  }
  for (const auto& [l, a] : x->con) {
    if (content_.emplace(l, a).second && durability_.on_content) {
      durability_.on_content(l, a);
    }
  }
  gotstate_[q] = *x;
  if (!current_.has_value()) return;
  const bool complete =
      std::all_of(current_->set().begin(), current_->set().end(),
                  [&](ProcessId r) { return gotstate_.contains(r); }) &&
      gotstate_.size() == current_->set().size();
  if (complete && status_ == Status::kCollect) {
    nextconfirm_ = maxnextconfirm(gotstate_);
    order_ = fullorder(gotstate_);
    // Replay deliveries that raced ahead of the state exchange
    // (correction 2). They carry labels created after the summaries were
    // built, so they cannot already be in fullorder; the guard is
    // defensive.
    std::set<Label> present(order_.begin(), order_.end());
    for (const Label& l : deferred_labels_) {
      if (present.insert(l).second) order_.push_back(l);
    }
    deferred_labels_.clear();
    highprimary_ = current_->id();
    if (durability_.on_establish) durability_.on_establish();
    status_ = Status::kNormal;
    established_.insert(current_->id());
  }
}

void DvsToTo::on_dvs_safe(const ClientMsg& m, ProcessId q) {
  confirm_check_needed_ = true;
  if (const auto* labeled = std::get_if<LabeledAppMsg>(&m)) {
    safe_labels_.insert(labeled->label);
    return;
  }
  if (!std::holds_alternative<Summary>(m)) {
    throw PreconditionViolation("DVS-TO-TO got safe for an opaque message");
  }
  safe_exch_.insert(q);
  if (current_.has_value() && safe_exch_ == current_->set()) {
    for (const Label& l : fullorder(gotstate_)) safe_labels_.insert(l);
  }
}

void DvsToTo::on_dvs_newview(const View& v) {
  confirm_check_needed_ = true;
  if (current_.has_value()) {
    past_orders_[current_->id()] = order_;
  }
  current_ = v;
  nextseqno_ = 1;
  buffer_.clear();
  gotstate_.clear();
  safe_exch_.clear();
  safe_labels_.clear();
  deferred_labels_.clear();
  status_ = Status::kSend;
}

bool DvsToTo::can_confirm() const {
  if (!confirm_check_needed_) return false;
  const bool enabled = nextconfirm_ <= order_.size() &&
                       safe_labels_.contains(order_[nextconfirm_ - 1]);
  if (!enabled) confirm_check_needed_ = false;
  return enabled;
}

void DvsToTo::apply_confirm() {
  DVS_REQUIRE("CONFIRM", can_confirm(), "at " << self_.to_string());
  ++nextconfirm_;
  if (durability_.on_confirm) durability_.on_confirm(nextconfirm_);
  confirm_check_needed_ = true;  // the next order_ slot may be safe already
}

bool DvsToTo::can_register() const {
  return current_.has_value() && established_.contains(current_->id()) &&
         !registered_.contains(current_->id());
}

void DvsToTo::apply_register() {
  DVS_REQUIRE("DVS-REGISTER", can_register(), "at " << self_.to_string());
  registered_.insert(current_->id());
}

std::optional<std::pair<AppMsg, ProcessId>> DvsToTo::next_brcv() const {
  if (nextreport_ >= nextconfirm_) return std::nullopt;
  const Label& l = order_[nextreport_ - 1];
  auto it = content_.find(l);
  if (it == content_.end()) return std::nullopt;
  return std::make_pair(it->second, l.origin);
}

std::pair<AppMsg, ProcessId> DvsToTo::take_brcv() {
  auto r = next_brcv();
  DVS_REQUIRE("BRCV", r.has_value(), "at " << self_.to_string());
  ++nextreport_;
  if (durability_.on_report) durability_.on_report(nextreport_);
  return *r;
}

std::optional<ClientMsg> DvsToTo::poll_gpsnd() {
  if (status_ == Status::kSend) {
    status_ = Status::kCollect;
    return ClientMsg{make_summary()};
  }
  if (status_ == Status::kNormal && !buffer_.empty()) {
    auto it = content_.find(buffer_.front());
    if (it != content_.end()) {
      const Label l = buffer_.front();
      buffer_.pop_front();
      return ClientMsg{LabeledAppMsg{l, it->second}};
    }
  }
  return std::nullopt;
}

std::optional<std::pair<AppMsg, ProcessId>> DvsToTo::poll_brcv() {
  auto r = next_brcv();
  if (r.has_value()) {
    ++nextreport_;
    if (durability_.on_report) durability_.on_report(nextreport_);
  }
  return r;
}

void DvsToTo::set_durability_hooks(ToDurabilityHooks hooks) {
  durability_ = std::move(hooks);
}

void DvsToTo::restore(const ToDurableState& recovered) {
  content_.clear();
  content_.insert(recovered.content.begin(), recovered.content.end());
  order_ = recovered.order;
  nextconfirm_ = recovered.nextconfirm;
  nextreport_ = recovered.nextreport;
  highprimary_ = recovered.highprimary;
  // Per-incarnation state resets: no current view until the next
  // DVS-NEWVIEW, nothing buffered, nothing safe, nothing registered or
  // established (old views never become current again — the VS epoch floor
  // guarantees fresh, higher ids — so those sets are only ever consulted
  // for views this incarnation has seen).
  current_ = std::nullopt;
  status_ = Status::kNormal;
  nextseqno_ = 1;
  buffer_.clear();
  safe_labels_.clear();
  gotstate_.clear();
  safe_exch_.clear();
  registered_.clear();
  delay_.clear();
  established_.clear();
  deferred_labels_.clear();
  past_orders_.clear();
  confirm_check_needed_ = true;
}

ToDurableState DvsToTo::durable_state() const {
  ToDurableState s;
  s.content.insert(content_.begin(), content_.end());
  s.order = order_;
  s.nextconfirm = nextconfirm_;
  s.nextreport = nextreport_;
  s.highprimary = highprimary_;
  return s;
}

Summary DvsToTo::make_summary() const {
  Summary x;
  x.con.insert(content_.begin(), content_.end());
  x.ord = order_;
  x.next = nextconfirm_;
  x.high = highprimary_;
  return x;
}

std::optional<std::vector<Label>> DvsToTo::buildorder(const ViewId& g) const {
  if (current_.has_value() && current_->id() == g) return order_;
  auto it = past_orders_.find(g);
  if (it == past_orders_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dvs::toimpl
