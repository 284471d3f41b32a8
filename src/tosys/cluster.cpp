#include "tosys/cluster.h"

#include <stdexcept>

namespace dvs::tosys {

Cluster::Cluster(ClusterConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      universe_(make_universe(config.n_processes)),
      v0_{ViewId::initial(),
          make_universe(config.initial_members == 0 ? config.n_processes
                                                    : config.initial_members)},
      owned_sim_(config.sim == nullptr ? std::make_unique<sim::Simulator>()
                                       : nullptr),
      sim_(config.sim != nullptr ? *config.sim : *owned_sim_),
      recorder_(universe_, v0_,
                spec::TraceRecorderOptions{
                    .keep_traces = config.record_traces,
                    .check_online = config.conformance_oracle}) {
  if (config_.transport != nullptr) {
    if (config_.sim == nullptr) {
      throw std::logic_error(
          "Cluster: an injected transport requires an injected simulator");
    }
    transport_ = config_.transport;
  } else {
    net_ =
        std::make_unique<net::SimNetwork>(sim_, rng_, config_.net, universe_);
    transport_ = net_.get();
  }
  if (config_.persistence) {
    if (config_.store == nullptr) {
      owned_store_ = std::make_unique<storage::MemStableStore>();
    }
    store_ = config_.store != nullptr ? config_.store : owned_store_.get();
  }

  // Observability: one registry for every layer's counters plus the causal
  // span tracer, driven by the same column observer as the oracle.
  if (config_.observability) {
    tracer_ = std::make_unique<obs::StackTracer>(metrics_, trace_);
    // An injected transport belongs to the host, which binds its metrics
    // once at pool level (per-column net.* counters would double-count).
    if (net_ != nullptr) net_->bind_metrics(metrics_);
    if (store_ != nullptr) {
      // Cluster-wide persistence counters; this collector references the
      // store and the cluster, never a node, so it survives restarts.
      metrics_.add_collector([this] {
        const storage::StorageStats& s = store_->stats();
        metrics_.counter("storage.appends").set(s.appends);
        metrics_.counter("storage.bytes_appended").set(s.bytes_appended);
        metrics_.counter("storage.replaces").set(s.replaces);
        metrics_.counter("storage.bytes_replaced").set(s.bytes_replaced);
        metrics_.counter("storage.loads").set(s.loads);
        metrics_.counter("storage.bytes_written").set(s.bytes_written());
        metrics_.counter("storage.restarts").set(restarts_);
      });
    }
  }
  for (ProcessId p : universe_) build_column(p, /*recover=*/false);
}

void Cluster::build_column(ProcessId p, bool recover) {
  ColumnObserver& observer = *this;
  columns_[p] = std::make_unique<ProcessColumn>(
      p, v0_, *transport_, sim_, config_, observer, store_, recover);
  if (config_.observability) {
    collector_ids_[p] = columns_.at(p)->bind_metrics(metrics_);
  }
}

bool Cluster::wants_messages() const {
  return config_.record_traces || config_.conformance_oracle;
}

// The recorder stores the traces and/or feeds the spec acceptors online
// (the conformance oracle), per its options; the span tracer turns the same
// actions into latency spans.
void Cluster::on_vs(const spec::VsEvent& event) {
  recorder_.record(event);
  if (!tracer_) return;
  if (const auto* nv = std::get_if<spec::EvNewview>(&event)) {
    tracer_->on_vs_newview(nv->p, nv->v, sim_.now());
  }
}

void Cluster::on_dvs(const spec::DvsEvent& event) {
  recorder_.record(event);
  if (!tracer_) return;
  if (const auto* nv = std::get_if<spec::EvNewview>(&event)) {
    tracer_->on_dvs_newview(nv->p, nv->v, sim_.now());
  } else if (const auto* reg = std::get_if<spec::EvRegister>(&event)) {
    // Observed before the automaton consumes the event, so client-cur
    // still names the view being registered.
    const std::optional<View>& v = columns_.at(reg->p)->dvs().primary_view();
    if (v.has_value()) tracer_->on_register(reg->p, *v, sim_.now());
  }
}

void Cluster::on_to(const spec::ToEvent& event) {
  if (const auto* brcv = std::get_if<spec::EvBrcv>(&event)) {
    const Delivery d{brcv->receiver, brcv->sender, brcv->a, sim_.now()};
    deliveries_.push_back(d);
    recorder_.record(event);
    if (tracer_) {
      tracer_->on_brcv(d.receiver, d.origin, d.msg.uid, sim_.now());
    }
    if (delivery_hook_) delivery_hook_(d);
    return;
  }
  recorder_.record(event);
  if (!tracer_) return;
  if (const auto* bcast = std::get_if<spec::EvBcast>(&event)) {
    tracer_->on_bcast(bcast->p, bcast->a.uid, sim_.now());
  } else if (const auto* crash = std::get_if<spec::EvCrash>(&event)) {
    tracer_->on_restart(crash->p, sim_.now());
  }
}

void Cluster::start() {
  // Members of v0 begin inside an active view without any DVS-NEWVIEW
  // event; open their initial view_active spans.
  if (tracer_) tracer_->on_start(v0_, sim_.now());
  for (ProcessId p : universe_) columns_.at(p)->start();
}

void Cluster::restart(ProcessId p) {
  if (store_ == nullptr) {
    throw std::logic_error("Cluster::restart requires persistence");
  }
  ++restarts_;
  // The stale collectors hold raw pointers into the dying incarnation.
  for (std::size_t id : collector_ids_[p]) metrics_.remove_collector(id);
  collector_ids_[p].clear();
  // The old ticker's in-flight events no-op (PeriodicTimer liveness flag);
  // in-flight datagrams resolve the handler at delivery time, so they
  // arrive at the new incarnation — where the epoch floor makes stale view
  // traffic harmless. The rebuilt column reports CRASH_p, which releases
  // the TO oracle's FIFO hold on p's unordered broadcasts (spec::EvCrash)
  // and closes p's spans in the tracer.
  columns_.erase(p);
  build_column(p, /*recover=*/true);
  columns_.at(p)->start();  // attaches the net handler, arms a fresh ticker
}

void Cluster::bcast(ProcessId p, AppMsg a) { columns_.at(p)->bcast(a); }

void Cluster::run_for(sim::Time duration) {
  sim_.run_until(sim_.now() + duration);
}

std::vector<Delivery> Cluster::deliveries_at(ProcessId p) const {
  std::vector<Delivery> out;
  for (const Delivery& d : deliveries_) {
    if (d.receiver == p) out.push_back(d);
  }
  return out;
}

spec::AcceptResult Cluster::check_vs_trace() const {
  spec::VsAcceptor acceptor(universe_, v0_);
  return acceptor.feed_all(recorder_.vs_trace());
}

spec::AcceptResult Cluster::check_dvs_trace() const {
  spec::DvsAcceptor acceptor(universe_, v0_);
  return acceptor.feed_all(recorder_.dvs_trace());
}

spec::AcceptResult Cluster::check_to_trace() const {
  spec::ToAcceptor acceptor(universe_);
  return acceptor.feed_all(recorder_.to_trace());
}

net::SimNetwork& Cluster::net() {
  if (net_ == nullptr) {
    throw std::logic_error(
        "Cluster::net: cluster runs on an injected transport");
  }
  return *net_;
}

double Cluster::primary_fraction() const {
  std::size_t in_primary = 0;
  for (const auto& [p, column] : columns_) {
    const bool paused = net_ != nullptr ? net_->paused(p)
                        : config_.paused_probe ? config_.paused_probe(p)
                                               : false;
    if (column->dvs().in_primary() && !paused) ++in_primary;
  }
  return static_cast<double>(in_primary) /
         static_cast<double>(universe_.size());
}

}  // namespace dvs::tosys
