#include "shard/shard_cluster.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dvs::shard {
namespace {

/// Decorrelates the network's fault Rng from net::FaultPlan::random and the
/// other draws a chaos or scenario run seeds with the bare seed.
constexpr std::uint64_t kNetRngSalt = 0x706f6f6c00005eedULL;

}  // namespace

void roll_up_shard(obs::MetricsSnapshot& pool, std::uint32_t group,
                   const obs::MetricsSnapshot& shard) {
  pool += shard;
  if (group == 0) return;
  const std::string prefix = "shard." + std::to_string(group) + ".";
  for (const auto& [key, v] : shard.counters) pool.counters[prefix + key] = v;
  for (const auto& [key, v] : shard.gauges) pool.gauges[prefix + key] = v;
  for (const auto& [key, v] : shard.histograms) {
    pool.histograms[prefix + key] = v;
  }
}

ShardCluster::ShardCluster(ShardClusterConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      net_rng_(seed ^ kNetRngSalt),
      pool_(make_universe(config_.base.n_processes)),
      router_(config_.shards) {
  if (config_.shards == 0) {
    throw std::logic_error("ShardCluster: zero shards");
  }
  if (config_.base.sim != nullptr || config_.base.transport != nullptr) {
    throw std::logic_error(
        "ShardCluster: base config must not inject sim/transport");
  }
  if (config_.dynamic && !config_.base.persistence) {
    throw std::logic_error(
        "ShardCluster: dynamic re-provisioning requires persistence "
        "(journals are the transferable state)");
  }
  live_pool_ = pool_;
  net_ = std::make_unique<net::SimNetwork>(sim_, net_rng_, config_.base.net,
                                           pool_);
  mux_ = std::make_unique<GroupMux>(*net_);
  if (config_.base.persistence) {
    pool_store_ = std::make_unique<storage::MemStableStore>();
  }

  assignments_ = provision(pool_, config_.shards, config_.replication);
  router_.set_assignments(assignments_);
  router_.set_pool_view(pool_);

  // The top-level VS group: every pool process is a member of pool v0.
  for (ProcessId p : pool_) {
    pool_views_.emplace(p, View(ViewId::initial(), pool_));
    build_pool_node(p);
  }

  // One full protocol column per shard, over its own mux port.
  shards_.reserve(assignments_.size());
  for (const ShardAssignment& a : assignments_) {
    Shard s;
    s.port = &mux_->open(a.group, a.replicas);
    tosys::ClusterConfig cc = config_.base;
    cc.n_processes = a.replicas.size();
    // initial_members is a prefix count over the column's local universe,
    // clamped to the column (0 = every replica starts as a member).
    cc.initial_members =
        std::min(config_.base.initial_members, a.replicas.size());
    cc.sim = &sim_;
    cc.transport = s.port;
    cc.paused_probe = [this, port = s.port](ProcessId local) {
      return net_->paused(port->to_pool(local));
    };
    cc.store = nullptr;  // each column owns its own deterministic store
    s.cluster = std::make_unique<tosys::Cluster>(cc, seed);
    shards_.push_back(std::move(s));
  }

  if (config_.base.observability) {
    net_->bind_metrics(pool_metrics_);
    pool_metrics_.add_collector([this] {
      pool_metrics_.gauge("pool.shards").set(
          static_cast<std::int64_t>(shards_.size()));
      pool_metrics_.gauge("pool.processes").set(
          static_cast<std::int64_t>(pool_.size()));
      pool_metrics_.counter("pool.restarts").set(restarts_);
      pool_metrics_.counter("pool.migrations").set(migrations_);
      pool_metrics_.counter("pool.migration_stalls").set(stalls_);
      pool_metrics_.counter("pool.migration_lost").set(lost_);
      pool_metrics_.counter("pool.router_re_resolutions")
          .set(router_.re_resolutions());
      std::uint64_t views = 0;
      for (const auto& [p, node] : pool_vs_) {
        views += node->stats().views_installed;
      }
      pool_metrics_.counter("pool.vs_views_installed").set(views);
      pool_metrics_.counter("shard.unroutable").set(mux_->unroutable());
    });
  }
}

void ShardCluster::build_pool_node(ProcessId p) {
  vsys::VsCallbacks cb;
  cb.on_newview = [this, p](const View& v) {
    pool_views_[p] = v;
    // Any member's pool view change re-resolves routing; contact resolution
    // uses the live membership. Keys never migrate (shard count is fixed);
    // with dynamic provisioning the *replicas* hosting a column do.
    router_.set_pool_view(v.set());
    if (config_.dynamic) {
      live_pool_ = v.set();
      maybe_reprovision();
    }
  };
  pool_vs_[p] =
      build_pool_member(p, pool_.size(), mux_->untagged(), sim_,
                        config_.base.vs, std::move(cb), pool_store_.get());
}

void ShardCluster::start() {
  for (ProcessId p : pool_) pool_vs_.at(p)->start();
  for (Shard& s : shards_) s.cluster->start();
}

void ShardCluster::run_for(sim::Time duration) {
  sim_.run_until(sim_.now() + duration);
}

bool ShardCluster::hosts(std::uint32_t k, ProcessId pool_p) const {
  for (const ProcessId r : assignment(k).replicas) {
    if (r == pool_p) return true;
  }
  return false;
}

void ShardCluster::restart(ProcessId pool_p) {
  if (!config_.base.persistence) {
    throw std::logic_error("ShardCluster::restart requires persistence");
  }
  ++restarts_;
  // Pool membership node first: it recovers its epoch floor from its
  // journal and rejoins with no view — the same recovery discipline as a
  // shard column's VS layer.
  pool_vs_.erase(pool_p);
  build_pool_node(pool_p);
  pool_vs_.at(pool_p)->start();
  // Then every shard column hosting this process restarts its local
  // replica from that column's own journals.
  for (const ShardAssignment& a : assignments_) {
    if (!hosts(a.group, pool_p)) continue;
    shards_[a.group - 1].cluster->restart(local_id(a.group, pool_p));
  }
}

void ShardCluster::maybe_reprovision() {
  if (migrating_) return;  // a cutover's own events must not re-plan mid-move
  migrating_ = true;
  const ReprovisionPlan plan = plan_reprovision(assignments_, live_pool_);
  // Stall/loss observations accumulate per planning round: a shortage that
  // persists across views is counted each time it blocks a refill.
  stalls_ += plan.stalled;
  lost_ += plan.lost;
  for (const GroupMigration& gm : plan.migrations) {
    for (const SlotMove& m : gm.moves) {
      migrate_slot(gm.group, gm.source_slot, m);
    }
  }
  migrating_ = false;
}

void ShardCluster::migration_barrier() {
  const std::size_t i = migration_barriers_++;
  if (migration_crash_hook_) migration_crash_hook_(i);
}

EpisodeHooks ShardCluster::episode_hooks(std::uint32_t group, ProcessId slot) {
  EpisodeHooks hooks;
  hooks.barrier = [this] { migration_barrier(); };
  // Volatile cutover, synchronous within the current simulator event so no
  // message can observe a half-moved slot: re-point the slot (dropping the
  // departed process's handler from the mux), and crash-restart the column
  // replica from the journals just installed. The restart records CRASH;
  // HANDOFF then tells the oracle the new incarnation adopted the donor's
  // delivery cursor (spec::EvHandoff — re-delivery is legal, invention is
  // not).
  hooks.cutover = [this, group, slot](const MigrationMarker& m) {
    Shard& s = shards_[group - 1];
    s.port->remap(slot, m.to);
    s.cluster->restart(slot);
    s.cluster->column(slot).note_handoff(m.next);
    assignments_[group - 1].replicas[slot.value()] = m.to;
    router_.set_assignments(assignments_);
    ++migrations_;
    if (handoff_hook_) handoff_hook_(group, slot);
  };
  return hooks;
}

void ShardCluster::migrate_slot(std::uint32_t group, ProcessId source_slot,
                                const SlotMove& m) {
  tosys::Cluster& column = *shards_[group - 1].cluster;
  // In-process the "transfer" is a staging copy inside the column's store
  // (the simulated pool shares one address space); the real-transport
  // daemon ships the same snapshot as 0x48 frames.
  migration_barrier();
  const SlotSnapshot snap =
      snapshot_slot(*column.store(), source_slot,
                    column.to_node(source_slot).automaton().nextreport());
  run_episode(*column.store(), m.slot, m.to, snap,
              episode_hooks(group, m.slot));
}

void ShardCluster::recover_migrations() {
  migrating_ = false;  // a crash mid-episode left the guard set
  // Roll forward every episode whose commit marker is present (the staged
  // journals are complete by construction of the marker order)...
  for (std::size_t k = 1; k <= shards_.size(); ++k) {
    const auto group = static_cast<std::uint32_t>(k);
    const std::size_t r = assignments_[k - 1].replicas.size();
    for (std::size_t i = 0; i < r; ++i) {
      const ProcessId slot(static_cast<std::uint32_t>(i));
      (void)recover_episode(*shards_[k - 1].cluster->store(), slot,
                            episode_hooks(group, slot));
    }
  }
  // ...then re-plan from the live view: rolled-back moves are simply
  // replayed as fresh episodes. Callers clear the crash hook first or the
  // sweep would crash the recovery too.
  maybe_reprovision();
}

bool ShardCluster::oracle_ok() const {
  for (const Shard& s : shards_) {
    if (!s.cluster->oracle().ok()) return false;
  }
  return true;
}

std::string ShardCluster::violation_message() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& oracle = shards_[i].cluster->oracle();
    if (oracle.ok()) continue;
    const std::string tail = oracle.tail();
    return "shard " + std::to_string(i + 1) + ": " +
           oracle.violation()->to_string() +
           (tail.empty() ? "" : "\ntrace tail:\n" + tail);
  }
  return {};
}

bool ShardCluster::check_invariants() {
  bool all_ok = true;
  for (Shard& s : shards_) {
    if (!s.cluster->oracle().check_invariants()) all_ok = false;
  }
  return all_ok;
}

double ShardCluster::min_primary_fraction() const {
  double min = 1.0;
  for (std::size_t k = 1; k <= shards_.size(); ++k) {
    const double f = primary_fraction(static_cast<std::uint32_t>(k));
    if (f < min) min = f;
  }
  return min;
}

obs::MetricsSnapshot ShardCluster::metrics_snapshot() {
  obs::MetricsSnapshot out = pool_metrics_.snapshot();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    roll_up_shard(out, static_cast<std::uint32_t>(i + 1),
                  shards_[i].cluster->metrics_snapshot());
  }
  return out;
}

}  // namespace dvs::shard
