#include "daemon/runtime.h"

namespace dvs::daemon {

NodeRuntime::NodeRuntime(ProcessId self, std::size_t n,
                         std::size_t initial_members, net::Transport& net,
                         sim::Simulator& sim, RuntimeOptions options,
                         storage::StableStore* store, TraceSink* sink,
                         std::function<std::uint64_t()> now_us)
    : record_in_memory_(options.record_in_memory),
      sink_(sink),
      now_us_(std::move(now_us)) {
  // A prior incarnation leaves journals behind; their presence IS the
  // crash-restart signal (the daemon has no other memory of having run).
  recovered_ = store != nullptr &&
               tosys::ProcessColumn::has_journals(*store, self);
  const View v0{ViewId::initial(),
                make_universe(initial_members == 0 ? n : initial_members)};
  tosys::ColumnObserver& observer = *this;
  column_ = std::make_unique<tosys::ProcessColumn>(
      self, v0, net, sim, options, observer, store, recovered_);
  // The restored cursor (nextreport) suppresses re-delivery of the
  // already-reported prefix, so the application is rebuilt from the durable
  // order directly. app.deliveries counts only live deliveries — replay is
  // application state reconstruction, not a re-observation of the protocol.
  column_->for_each_reported([this](const AppMsg& a) { kv_.apply(a.payload); });
}

void NodeRuntime::on_vs(const spec::VsEvent& event) {
  const std::uint64_t ts = now_us_();
  if (sink_ != nullptr) sink_->record(ts, event);
  if (record_in_memory_) events_.push_back({ts, kTraceVs, event});
}

void NodeRuntime::on_dvs(const spec::DvsEvent& event) {
  const std::uint64_t ts = now_us_();
  if (sink_ != nullptr) sink_->record(ts, event);
  if (record_in_memory_) events_.push_back({ts, kTraceDvs, event});
}

void NodeRuntime::on_to(const spec::ToEvent& event) {
  const std::uint64_t ts = now_us_();
  if (sink_ != nullptr) sink_->record(ts, event);
  if (record_in_memory_) events_.push_back({ts, kTraceTo, event});
  if (const auto* brcv = std::get_if<spec::EvBrcv>(&event)) {
    ++deliveries_;
    kv_.apply(brcv->a.payload);
  }
}

std::uint64_t NodeRuntime::bcast_command(const std::string& command) {
  // (uid, origin) must be unique across incarnations — a restart loses the
  // counter, so fold the clock in: restarts are many microseconds apart,
  // and the low bits disambiguate bursts within one microsecond.
  const std::uint64_t uid = (now_us_() << 12) | (uid_salt_++ & 0xFFF);
  column_->bcast(AppMsg{uid, self(), command});
  return uid;
}

void NodeRuntime::bind_metrics(obs::MetricsRegistry& metrics) {
  (void)column_->bind_metrics(metrics);
  metrics.add_collector([this, &metrics] {
    metrics.counter("app.applied").set(kv_.applied());
    metrics.counter("app.deliveries").set(deliveries_);
  });
}

}  // namespace dvs::daemon
