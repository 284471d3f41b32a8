#include "shard/shard_chaos.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault_plan.h"
#include "obs/stack_tracer.h"
#include "shard/provision.h"
#include "shard/shard_cluster.h"
#include "tosys/cluster.h"

namespace dvs::shard {

void validate(const ShardChaosConfig& config) {
  const ShardClusterConfig& c = config.cluster;
  (void)provision(make_universe(c.base.n_processes), c.shards, c.replication);
  if (c.base.initial_members > c.base.n_processes) {
    throw std::logic_error("chaos: initial members exceed the pool");
  }
}

ChaosStats& operator+=(ChaosStats& a, const ChaosStats& b) {
  a.events_checked += b.events_checked;
  a.invariant_checks += b.invariant_checks;
  a.broadcasts += b.broadcasts;
  a.deliveries += b.deliveries;
  a.fault_events += b.fault_events;
  a.restarts += b.restarts;
  a.metrics += b.metrics;
  return a;
}

ShardChaosResult run_shard_chaos_seed(std::uint64_t seed,
                                      const ShardChaosConfig& config) {
  ShardClusterConfig scc = config.cluster;
  // Restart adversaries, and migrations, need somewhere to recover from.
  scc.base.persistence = scc.base.persistence || config.crashes_restart ||
                         config.plan.w_restart > 0 || scc.dynamic;
  ShardCluster sc(scc, seed);

  const net::FaultPlan plan = net::FaultPlan::random(
      seed, config.fault_targets.empty() ? sc.pool() : config.fault_targets,
      config.plan);
  ShardChaosResult out;
  out.plan_text = plan.to_string();
  net::FaultPlan::ScheduleHooks hooks;
  hooks.crashes_restart = config.crashes_restart;
  if (scc.base.persistence) {
    hooks.restart = [&sc](ProcessId p) { sc.restart(p); };
  }
  plan.schedule(sc.sim(), sc.net(), hooks);

  // Client load at seeded times across the horizon, decorrelated from both
  // the network rngs and the plan generator so the sources of randomness
  // never lock step. Broadcast i goes to shard (i mod K) + 1 at the replica
  // its drawn pool process folds onto.
  const std::size_t shard_count = sc.shard_count();
  Rng load(seed ^ 0xb0adca5700150adULL);
  const std::vector<ProcessId> procs(sc.pool().begin(), sc.pool().end());
  for (std::size_t i = 0; i < config.broadcasts; ++i) {
    const auto at = static_cast<sim::Time>(
        1 + load.below(static_cast<std::size_t>(config.plan.horizon)));
    const ProcessId p = procs[load.below(procs.size())];
    const auto k = static_cast<std::uint32_t>(i % shard_count) + 1;
    const ProcessId local(static_cast<std::uint32_t>(
        p.value() % sc.assignment(k).replicas.size()));
    sc.sim().schedule_at(at, [&sc, k, local, m = AppMsg{i + 1, local, "x"}] {
      sc.bcast(k, local, m);
    });
  }

  // Mid-run Invariant 4.1/4.2 checks against the oracles' resolved DVS
  // state — a transiently bad state between events is caught even if the
  // event stream itself stays acceptable.
  if (config.invariant_check_period > 0) {
    for (sim::Time t = config.invariant_check_period; t < config.plan.horizon;
         t += config.invariant_check_period) {
      sc.sim().schedule_at(t, [&sc] { (void)sc.check_invariants(); });
    }
  }

  sc.start();
  sc.run_for(config.plan.horizon);
  // Recovery phase: full connectivity back, everyone resumed, and time to
  // converge — the oracles watch the repair traffic too.
  sc.net().heal();
  for (ProcessId p : sc.pool()) sc.net().resume(p);
  sc.run_for(config.settle);
  (void)sc.check_invariants();

  if (!sc.oracle_ok()) {
    out.ok = false;
    out.failure = "chaos seed " + std::to_string(seed) +
                  " (n=" + std::to_string(scc.base.n_processes) +
                  "): " + sc.violation_message() +
                  "\nfault plan (replay with net::FaultPlan::parse):\n" +
                  out.plan_text;
  }

  out.orders.resize(shard_count);
  ChaosStats& s = out.stats;
  s.broadcasts = config.broadcasts;
  s.fault_events = plan.events.size();
  s.restarts = sc.restarts();
  for (std::size_t k = 1; k <= shard_count; ++k) {
    tosys::Cluster& column = sc.shard(static_cast<std::uint32_t>(k));
    out.orders[k - 1].resize(sc.assignment(k).replicas.size());
    for (const tosys::Delivery& d : column.deliveries()) {
      out.orders[k - 1][d.receiver.value()].push_back(d.msg.uid);
    }
    s.events_checked += column.oracle().events_checked();
    s.invariant_checks += column.oracle().invariant_checks();
    s.deliveries += column.deliveries().size();
    // The end-of-run span-invariant check travels inside the snapshot
    // (all-zero on a conforming run).
    obs::publish_span_invariants(obs::check_span_invariants(column.trace()),
                                 column.metrics());
  }
  s.metrics = sc.metrics_snapshot();
  out.migrations = sc.migrations();
  out.migration_stalls = sc.migration_stalls();
  out.migrations_lost = sc.migrations_lost();
  return out;
}

ChaosStats run_chaos_seed(std::uint64_t seed,
                          const ShardChaosConfig& config) {
  ShardChaosResult r = run_shard_chaos_seed(seed, config);
  if (!r.ok) throw ChaosFailure(seed, r.failure);
  return std::move(r.stats);
}

}  // namespace dvs::shard
