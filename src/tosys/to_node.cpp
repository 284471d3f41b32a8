#include "tosys/to_node.h"

#include <algorithm>

namespace dvs::tosys {

namespace {

// TO journal record types. Replay is idempotent: content/order records
// re-apply harmlessly against a snapshot that already contains them
// (map-emplace / establishment-reset), confirm/report records max-merge.
constexpr std::uint8_t kToSnapshot = 1;   // full ToDurableState
constexpr std::uint8_t kToContent = 2;    // content ∪= {⟨label, msg⟩}
constexpr std::uint8_t kToOrder = 3;      // order := order + label
constexpr std::uint8_t kToEstablish = 4;  // order/nextconfirm/highprimary :=
                                          // (read only: older journals)
constexpr std::uint8_t kToConfirm = 5;    // nextconfirm := max(·, value)
constexpr std::uint8_t kToReport = 6;     // nextreport := max(·, value)

void encode_snapshot(Writer& w, const toimpl::ToDurableState& s) {
  w.varuint(s.content.size());
  for (const auto& [l, a] : s.content) {
    w.label(l);
    w.app_msg(a);
  }
  w.varuint(s.order.size());
  for (const Label& l : s.order) w.label(l);
  w.varuint(s.nextconfirm);
  w.varuint(s.nextreport);
  w.view_id(s.highprimary);
}

toimpl::ToDurableState decode_snapshot(Reader& r) {
  toimpl::ToDurableState s;
  for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
    Label l = r.label();
    s.content.emplace(l, r.app_msg());
  }
  for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
    s.order.push_back(r.label());
  }
  s.nextconfirm = r.varuint();
  s.nextreport = r.varuint();
  s.highprimary = r.view_id();
  return s;
}

}  // namespace

ToNode::ToNode(ProcessId self, const View& v0, dvsys::DvsNode& dvs,
               ToCallbacks callbacks, ToNodeOptions options)
    : automaton_(self, v0, options.automaton),
      dvs_(dvs),
      callbacks_(std::move(callbacks)),
      options_(options) {}

void ToNode::bcast(const AppMsg& a) {
  automaton_.on_bcast(a);
  ++stats_.bcasts;
  drain();
}

dvsys::DvsCallbacks ToNode::dvs_callbacks() {
  dvsys::DvsCallbacks cb;
  cb.on_newview = [this](const View& v) {
    automaton_.on_dvs_newview(v);
    drain();
  };
  cb.on_gprcv = [this](const ClientMsg& m, ProcessId from) {
    automaton_.on_dvs_gprcv(m, from);
    drain();
  };
  cb.on_safe = [this](const ClientMsg& m, ProcessId from) {
    automaton_.on_dvs_safe(m, from);
    drain();
  };
  return cb;
}

void ToNode::snapshot_state() {
  const toimpl::ToDurableState s = automaton_.durable_state();
  wal_->snapshot(kToSnapshot, [&](Writer& w) { encode_snapshot(w, s); });
}

void ToNode::attach_storage(storage::StableStore& store,
                            const std::string& key) {
  wal_.emplace(store, key);
  snapshot_state();
  toimpl::ToDurabilityHooks hooks;
  hooks.on_content = [this](const Label& l, const AppMsg& a) {
    wal_->append(kToContent, [&](Writer& w) {
      w.label(l);
      w.app_msg(a);
    });
  };
  hooks.on_order_append = [this](const Label& l) {
    wal_->append(kToOrder, [&](Writer& w) { w.label(l); });
  };
  // Establishment replaces order wholesale, and its state exchange already
  // costs O(history), so it rewrites the journal as one snapshot.
  hooks.on_establish = [this] { snapshot_state(); };
  hooks.on_confirm = [this](std::uint64_t nextconfirm) {
    wal_->append(kToConfirm, [&](Writer& w) { w.varuint(nextconfirm); });
  };
  hooks.on_report = [this](std::uint64_t nextreport) {
    wal_->append(kToReport, [&](Writer& w) { w.varuint(nextreport); });
  };
  automaton_.set_durability_hooks(std::move(hooks));
}

toimpl::ToDurableState ToNode::recover(const storage::StableStore& store,
                                       const std::string& key) {
  toimpl::ToDurableState s;
  for (const storage::WalRecord& rec : storage::read_wal(store, key).records) {
    try {
      Reader r(rec.payload);
      switch (rec.type) {
        case kToSnapshot:
          s = decode_snapshot(r);
          break;
        case kToContent: {
          Label l = r.label();
          s.content.emplace(l, r.app_msg());
          break;
        }
        case kToOrder: {
          // Adjacent-duplicate suppression keeps replay idempotent when an
          // append is doubled (the automaton never appends the same label
          // twice in a row, so a repeat can only be a duplicated record).
          Label l = r.label();
          if (s.order.empty() || s.order.back() != l) s.order.push_back(l);
          break;
        }
        case kToEstablish: {
          std::vector<Label> order;
          for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
            order.push_back(r.label());
          }
          s.order = std::move(order);
          s.nextconfirm = std::max(s.nextconfirm, r.varuint());
          s.highprimary = r.view_id();
          break;
        }
        case kToConfirm:
          s.nextconfirm = std::max(s.nextconfirm, r.varuint());
          break;
        case kToReport:
          s.nextreport = std::max(s.nextreport, r.varuint());
          break;
        default:
          break;  // unknown record type: ignore (forward compatibility)
      }
    } catch (const DecodeError&) {
      break;  // undecodable payload ends the usable prefix
    }
  }
  return s;
}

std::size_t ToNode::bind_metrics(obs::MetricsRegistry& metrics) {
  const std::string label = "{process=\"" + self().to_string() + "\"}";
  return metrics.add_collector([this, &metrics, label] {
    metrics.counter("to.bcasts" + label).set(stats_.bcasts);
    metrics.counter("to.deliveries" + label).set(stats_.deliveries);
    metrics.counter("to.views_established" + label)
        .set(stats_.views_established);
  });
}

void ToNode::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    while (automaton_.can_label()) {
      automaton_.apply_label();
      progressed = true;
    }
    while (auto m = automaton_.poll_gpsnd()) {
      dvs_.gpsnd(*m);
      progressed = true;
    }
    if (options_.auto_register && automaton_.can_register()) {
      automaton_.apply_register();
      dvs_.register_view();
      progressed = true;
    }
    while (automaton_.can_confirm()) {
      automaton_.apply_confirm();
      progressed = true;
    }
    while (auto r = automaton_.poll_brcv()) {
      ++stats_.deliveries;
      if (callbacks_.on_brcv) callbacks_.on_brcv(r->first, r->second);
      progressed = true;
    }
    if (automaton_.current().has_value() &&
        automaton_.established(automaton_.current()->id()) &&
        counted_established_.insert(automaton_.current()->id()).second) {
      ++stats_.views_established;
    }
  }
}

}  // namespace dvs::tosys
