#include "tosys/process_column.h"

#include <optional>
#include <stdexcept>

namespace dvs::tosys {

ProcessColumn::ProcessColumn(ProcessId self, const View& v0,
                             net::Transport& net, sim::Simulator& sim,
                             const ColumnOptions& options,
                             ColumnObserver& observer,
                             storage::StableStore* store, bool recover)
    : self_(self), observer_(observer) {
  if (recover && store == nullptr) {
    throw std::logic_error("ProcessColumn: recovery requires a stable store");
  }
  std::optional<View> initial;
  if (!recover && v0.contains(self)) initial = v0;
  vs_ = std::make_unique<vsys::VsNode>(self, initial, net, sim, options.vs,
                                       vsys::VsCallbacks{});
  dvs_ = std::make_unique<dvsys::DvsNode>(
      self, v0, *vs_, dvsys::DvsCallbacks{},
      dvsys::DvsNodeOptions{.auto_gc = options.gc_enabled,
                            .weights = options.weights});
  to_ = std::make_unique<ToNode>(
      self, v0, *dvs_, ToCallbacks{},
      ToNodeOptions{.auto_register = options.registration_enabled,
                    .automaton = options.to_options});
  if (recover) {
    vs_->restore_epoch(
        vsys::VsNode::recover_epoch(*store, storage_key(self, "vs")));
    dvs_->restore(
        dvsys::DvsNode::recover(*store, storage_key(self, "dvs"), self, v0));
    to_->restore(ToNode::recover(*store, storage_key(self, "to")));
  }
  wire();
  if (store != nullptr) {
    vs_->attach_storage(*store, storage_key(self, "vs"));
    dvs_->attach_storage(*store, storage_key(self, "dvs"));
    to_->attach_storage(*store, storage_key(self, "to"));
  }
  // Broadcasts the lost incarnation accepted but had not yet ordered leave
  // the TO sender-FIFO obligation (spec::EvCrash); it precedes every event
  // of this incarnation.
  if (recover) observer_.on_to(spec::ToEvent{spec::EvCrash{self}});
}

std::string ProcessColumn::storage_key(ProcessId p, const char* layer) {
  return p.to_string() + "/" + layer;
}

bool ProcessColumn::has_journals(const storage::StableStore& store,
                                 ProcessId p) {
  for (const char* layer : {"vs", "dvs", "to"}) {
    if (store.load(storage_key(p, layer)).has_value()) return true;
  }
  return false;
}

void ProcessColumn::wire() {
  const ProcessId p = self_;
  ColumnObserver& obs = observer_;
  const bool messages = obs.wants_messages();

  ToCallbacks to_cb;
  to_cb.on_brcv = [&obs, p](const AppMsg& a, ProcessId origin) {
    obs.on_to(spec::ToEvent{spec::EvBrcv{origin, p, a}});
  };
  to_->set_callbacks(std::move(to_cb));

  // DVS layer, forwarding into the TO automaton.
  dvsys::DvsCallbacks dvs_cb = to_->dvs_callbacks();
  {
    auto fwd_newview = std::move(dvs_cb.on_newview);
    dvs_cb.on_newview = [&obs, p, fwd_newview](const View& v) {
      obs.on_dvs(spec::DvsEvent{spec::EvNewview{p, v}});
      if (fwd_newview) fwd_newview(v);
    };
    dvs_cb.on_register = [&obs, p] {
      obs.on_dvs(spec::DvsEvent{spec::EvRegister{p}});
    };
  }
  if (messages) {
    auto fwd_gprcv = std::move(dvs_cb.on_gprcv);
    dvs_cb.on_gprcv = [&obs, p, fwd_gprcv](const ClientMsg& m,
                                           ProcessId from) {
      obs.on_dvs(spec::DvsEvent{spec::EvGprcv<ClientMsg>{from, p, m}});
      if (fwd_gprcv) fwd_gprcv(m, from);
    };
    auto fwd_safe = std::move(dvs_cb.on_safe);
    dvs_cb.on_safe = [&obs, p, fwd_safe](const ClientMsg& m, ProcessId from) {
      obs.on_dvs(spec::DvsEvent{spec::EvSafe<ClientMsg>{from, p, m}});
      if (fwd_safe) fwd_safe(m, from);
    };
    dvs_cb.on_gpsnd = [&obs, p](const ClientMsg& m) {
      obs.on_dvs(spec::DvsEvent{spec::EvGpsnd<ClientMsg>{p, m}});
    };
  }
  dvs_->set_callbacks(std::move(dvs_cb));

  // VS layer, forwarding into the DVS automaton.
  vsys::VsCallbacks vs_cb = dvs_->vs_callbacks();
  {
    auto fwd_newview = std::move(vs_cb.on_newview);
    vs_cb.on_newview = [&obs, p, fwd_newview](const View& v) {
      obs.on_vs(spec::VsEvent{spec::EvNewview{p, v}});
      if (fwd_newview) fwd_newview(v);
    };
  }
  if (messages) {
    auto fwd_gprcv = std::move(vs_cb.on_gprcv);
    vs_cb.on_gprcv = [&obs, p, fwd_gprcv](const Msg& m, ProcessId from) {
      obs.on_vs(spec::VsEvent{spec::EvGprcv<Msg>{from, p, m}});
      if (fwd_gprcv) fwd_gprcv(m, from);
    };
    auto fwd_safe = std::move(vs_cb.on_safe);
    vs_cb.on_safe = [&obs, p, fwd_safe](const Msg& m, ProcessId from) {
      obs.on_vs(spec::VsEvent{spec::EvSafe<Msg>{from, p, m}});
      if (fwd_safe) fwd_safe(m, from);
    };
    vs_cb.on_gpsnd = [&obs, p](const Msg& m) {
      obs.on_vs(spec::VsEvent{spec::EvGpsnd<Msg>{p, m}});
    };
  }
  vs_->set_callbacks(std::move(vs_cb));
}

void ProcessColumn::bcast(const AppMsg& a) {
  observer_.on_to(spec::ToEvent{spec::EvBcast{self_, a}});
  to_->bcast(a);
}

void ProcessColumn::note_handoff(std::uint64_t next) {
  observer_.on_to(spec::ToEvent{spec::EvHandoff{self_, next}});
}

std::vector<std::size_t> ProcessColumn::bind_metrics(
    obs::MetricsRegistry& metrics) {
  return {vs_->bind_metrics(metrics), dvs_->bind_metrics(metrics),
          to_->bind_metrics(metrics)};
}

void ProcessColumn::for_each_reported(
    const std::function<void(const AppMsg&)>& fn) const {
  const toimpl::DvsToTo& at = to_->automaton();
  for (std::uint64_t i = 1; i < at.nextreport() && i <= at.order().size();
       ++i) {
    const auto it = at.content().find(at.order()[i - 1]);
    if (it != at.content().end()) fn(it->second);
  }
}

}  // namespace dvs::tosys
