#include "shard/shard_chaos.h"

#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault_plan.h"
#include "obs/stack_tracer.h"
#include "shard/shard_cluster.h"
#include "tosys/cluster.h"

namespace dvs::shard {
namespace {

tosys::ClusterConfig make_base(const tosys::ChaosConfig& c) {
  tosys::ClusterConfig cc;
  cc.n_processes = c.n_processes;
  cc.initial_members = c.initial_members;
  cc.net.drop_probability = c.drop_probability;
  cc.net.duplicate_probability = c.duplicate_probability;
  cc.net.max_duplicates = c.max_duplicates;
  cc.net.reorder_probability = c.reorder_probability;
  cc.net.reorder_window = c.reorder_window;
  cc.net.truncate_probability = c.truncate_probability;
  cc.net.batching = c.batching;
  cc.record_traces = true;
  cc.conformance_oracle = true;
  cc.to_options = c.to_options;
  // Restart adversaries need somewhere to recover from.
  cc.persistence =
      c.persistence || c.crashes_restart || c.plan.w_restart > 0;
  return cc;
}

}  // namespace

ShardChaosResult run_shard_chaos_seed(std::uint64_t seed,
                                      const ShardChaosConfig& config) {
  const tosys::ChaosConfig& c = config.chaos;
  ShardClusterConfig scc;
  scc.shards = config.shards;
  scc.replication = config.replication;
  scc.dynamic = config.dynamic;
  scc.base = make_base(c);
  if (scc.dynamic) scc.base.persistence = true;
  ShardCluster sc(scc, seed);

  const net::FaultPlan plan = net::FaultPlan::random(
      seed, config.fault_targets.empty() ? sc.pool() : config.fault_targets,
      c.plan);
  ShardChaosResult out;
  out.plan_text = plan.to_string();
  net::FaultPlan::ScheduleHooks hooks;
  hooks.crashes_restart = c.crashes_restart;
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
  for (std::size_t i = 0; i < c.broadcasts; ++i) {
    const auto at = static_cast<sim::Time>(
        1 + load.below(static_cast<std::size_t>(c.plan.horizon)));
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
  if (c.invariant_check_period > 0) {
    for (sim::Time t = c.invariant_check_period; t < c.plan.horizon;
         t += c.invariant_check_period) {
      sc.sim().schedule_at(t, [&sc] { (void)sc.check_invariants(); });
    }
  }

  sc.start();
  sc.run_for(c.plan.horizon);
  // Recovery phase: full connectivity back, everyone resumed, and time to
  // converge — the oracles watch the repair traffic too.
  sc.net().heal();
  for (ProcessId p : sc.pool()) sc.net().resume(p);
  sc.run_for(c.settle);
  (void)sc.check_invariants();

  if (!sc.oracle_ok()) {
    out.ok = false;
    out.failure = "chaos seed " + std::to_string(seed) +
                  " (n=" + std::to_string(c.n_processes) +
                  "): " + sc.violation_message() +
                  "\nfault plan (replay with net::FaultPlan::parse):\n" +
                  out.plan_text;
  }

  out.orders.resize(shard_count);
  tosys::ChaosStats& s = out.stats;
  s.broadcasts = c.broadcasts;
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

tosys::ChaosStats run_chaos_seed(std::uint64_t seed,
                                 const ShardChaosConfig& config) {
  ShardChaosResult r = run_shard_chaos_seed(seed, config);
  if (!r.ok) throw tosys::ChaosFailure(seed, r.failure);
  return std::move(r.stats);
}

}  // namespace dvs::shard
