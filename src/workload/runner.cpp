#include "workload/runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/state_machine.h"
#include "common/labels.h"
#include "net/fault_plan.h"
#include "obs/stack_tracer.h"
#include "parallel/seed_sweep.h"
#include "shard/shard_cluster.h"
#include "tosys/cluster.h"

namespace dvs::workload {

namespace {

constexpr sim::Time kInvariantCheckPeriod = 100 * sim::kMillisecond;

/// A write in flight: who issued it, when, and in which phase.
struct PendingWrite {
  std::size_t client = 0;
  sim::Time submitted = 0;
  std::size_t phase = 0;
  bool committed = false;
};

struct ClientState {
  OpGenerator gen;
  ProcessId home{};
  std::uint64_t waiting_uid = 0;  // closed loop: the outstanding write
};

/// Skeleton report: scenario identity, declared SLOs and the phase
/// structure with all measurements zero. Sweeps merge every passing seed
/// into this, so even an all-failed sweep serializes coherently.
SloReport skeleton_report(const Scenario& sc) {
  SloReport r;
  r.scenario = sc.name;
  r.n = sc.n;
  r.seeds = 0;
  r.first_seed = sc.seed;
  r.slo_availability_ppm = sc.slo_availability_ppm;
  r.slo_p99_commit_ms = sc.slo_p99_commit_ms;
  for (const Phase& ph : sc.effective_phases()) {
    PhaseSlo p;
    p.name = ph.name;
    r.phases.push_back(std::move(p));
  }
  return r;
}

std::string failure_message(std::uint64_t seed, const Scenario& sc,
                            const net::FaultPlan& plan,
                            const shard::ShardCluster& cluster) {
  std::string out = "scenario '" + sc.name + "' seed " + std::to_string(seed) +
                    " (n=" + std::to_string(sc.n) +
                    "): " + cluster.violation_message();
  out += "\nfault plan (replay with net::FaultPlan::parse):\n";
  out += plan.to_string();
  return out;
}

}  // namespace

SeedOutcome run_scenario_seed(const Scenario& sc, std::uint64_t seed) {
  sc.validate();

  shard::ShardClusterConfig scc;
  scc.shards = std::max<std::size_t>(sc.shards, 1);  // 0 = one column
  scc.replication = sc.replication;
  scc.dynamic = sc.dynamic;
  tosys::ClusterConfig& cc = scc.base;
  cc.n_processes = sc.n;
  cc.initial_members = sc.initial;
  cc.net = sc.net;
  if (sc.heartbeat_ms != 0) {
    cc.vs.heartbeat_period = sc.heartbeat_ms * sim::kMillisecond;
  }
  if (sc.suspect_ms != 0) {
    cc.vs.suspect_timeout = sc.suspect_ms * sim::kMillisecond;
  }
  if (sc.propose_ms != 0) {
    cc.vs.propose_timeout = sc.propose_ms * sim::kMillisecond;
  }
  // The oracle checks every event ONLINE; storing the full event streams as
  // well would hold a copy of every TO summary exchanged at every primary
  // establishment — O(history x views) memory on long churny horizons — so
  // trace retention stays off. A failing seed is replayed from its embedded
  // fault plan instead of a stored tail.
  cc.record_traces = false;
  cc.conformance_oracle = true;
  cc.persistence = sc.needs_persistence();
  shard::ShardCluster cluster(scc, seed);
  const std::size_t shard_count = cluster.shard_count();

  const net::FaultPlan plan = sc.compile_faults(seed);
  net::FaultPlan::ScheduleHooks hooks;
  hooks.crashes_restart = sc.crashes_restart();
  if (cc.persistence) {
    hooks.restart = [&cluster](ProcessId p) { cluster.restart(p); };
  }
  plan.schedule(cluster.sim(), cluster.net(), hooks);

  // ----- measurement state ---------------------------------------------------
  SloReport report = skeleton_report(sc);
  report.seeds = 1;
  report.first_seed = seed;
  report.measured_us = sc.horizon - sc.warmup;

  const std::vector<Phase> phases = sc.effective_phases();
  std::vector<sim::Time> phase_edge;
  {
    sim::Time edge = 0;
    for (const Phase& ph : phases) {
      edge += ph.duration;
      phase_edge.push_back(edge);
    }
    for (std::size_t i = 0; i < phases.size(); ++i) {
      report.phases[i].duration_us = phases[i].duration;
    }
  }
  auto phase_index = [&phase_edge](sim::Time t) {
    for (std::size_t i = 0; i + 1 < phase_edge.size(); ++i) {
      if (t < phase_edge[i]) return i;
    }
    return phase_edge.size() - 1;
  };

  obs::Histogram commit_hist(obs::latency_buckets_us());
  obs::Histogram delivery_hist(obs::latency_buckets_us());
  std::vector<std::unique_ptr<obs::Histogram>> phase_hist;
  phase_hist.reserve(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phase_hist.push_back(
        std::make_unique<obs::Histogram>(obs::latency_buckets_us()));
  }

  // ----- replicated application ---------------------------------------------
  // One KV replica per (shard, shard-local process): each shard's column
  // replicates exactly its own key partition.
  std::vector<std::vector<apps::KvStateMachine>> kv;
  kv.reserve(shard_count);
  for (std::size_t k = 1; k <= shard_count; ++k) {
    kv.emplace_back(
        cluster.assignment(static_cast<std::uint32_t>(k)).replicas.size());
  }
  std::unordered_map<std::uint64_t, PendingWrite> pending;
  std::uint64_t next_uid = 1;

  std::vector<ClientState> clients;
  clients.reserve(sc.clients);
  for (std::size_t i = 0; i < sc.clients; ++i) {
    clients.push_back(ClientState{
        OpGenerator(sc.mix, client_stream_seed(seed, i)),
        ProcessId{static_cast<ProcessId::Rep>(i % sc.n)}, 0});
  }

  // A write that cannot commit (home crashed mid-protocol) must not wedge
  // its closed-loop client: give the stack ample time to change views and
  // recover, then abandon the wait.
  const sim::Time op_timeout =
      std::max<sim::Time>(2 * sim::kSecond, 10 * cc.vs.suspect_timeout);

  sim::Simulator& sim = cluster.sim();

  // Continuation cycles (closed-loop think chains, open-loop arrival
  // chains); function-scope so scheduled events can reference them safely.
  std::function<void(std::size_t)> issue_op;
  std::function<void(std::size_t)> arm_open;
  auto schedule_next = [&](std::size_t ci) {
    const sim::Time now = sim.now();
    if (now >= sc.horizon) return;
    const double mult = sc.rate_mult_at(now);
    const double mean = std::max(
        1.0, static_cast<double>(sc.think == 0 ? 1 : sc.think) / mult);
    const sim::Time at = now + clients[ci].gen.arrival_gap_us(mean);
    if (at >= sc.horizon) return;
    sim.schedule_at(at, [&issue_op, ci] { issue_op(ci); });
  };

  for (std::size_t k = 1; k <= shard_count; ++k) {
    const auto g = static_cast<std::uint32_t>(k);
    cluster.shard(g).set_delivery_hook([&, k](const tosys::Delivery& d) {
      kv[k - 1][d.receiver.value()].apply(d.msg.payload);
      auto it = pending.find(d.msg.uid);
      if (it == pending.end()) return;
      PendingWrite& w = it->second;
      const sim::Time lat = d.at - w.submitted;
      delivery_hist.observe(lat);
      if (d.receiver != d.msg.origin || w.committed) return;
      w.committed = true;
      commit_hist.observe(lat);
      phase_hist[w.phase]->observe(lat);
      ++report.commits;
      ++report.completed;
      ++report.phases[w.phase].completed;
      ClientState& c = clients[w.client];
      if (sc.closed_loop && c.waiting_uid == d.msg.uid) {
        c.waiting_uid = 0;
        schedule_next(w.client);
      }
    });
  }

  // After a migration the slot's new incarnation owns the donor's delivered
  // prefix — positions the old KV mirror may never have applied (the donor
  // was ahead) or has already applied (the donor lagged; re-deliveries
  // re-apply idempotently through the delivery hook). Rebuild the mirror
  // from the column's recovered order so the digest-convergence check stays
  // meaningful across re-provisioning.
  if (scc.dynamic) {
    cluster.set_handoff_hook([&](std::uint32_t g, ProcessId slot) {
      apps::KvStateMachine fresh;
      cluster.shard(g).column(slot).for_each_reported(
          [&fresh](const AppMsg& a) { fresh.apply(a.payload); });
      kv[g - 1][slot.value()] = std::move(fresh);
    });
  }

  // key -> (shard, shard-local replica the client talks to). The router
  // resolves the contact from the live pool view; the port map translates
  // it into the column's local id space.
  auto route = [&](const std::string& key, ProcessId home) {
    const std::uint32_t g = cluster.router().shard_of(key);
    const ProcessId contact = cluster.router().contact(g, home);
    return std::pair<std::uint32_t, ProcessId>(g,
                                               cluster.local_id(g, contact));
  };

  issue_op = [&](std::size_t ci) {
    const sim::Time now = sim.now();
    if (now >= sc.horizon) return;
    ClientState& c = clients[ci];
    const Op op = c.gen.next();
    const std::size_t ph = phase_index(now);
    ++report.issued;
    ++report.phases[ph].issued;
    const std::string key = "k" + std::to_string(op.key);
    switch (op.kind) {
      case OpKind::kRead: {
        ++report.reads;
        ++report.phases[ph].reads;
        const auto [g, local] = route(key, c.home);
        (void)kv[g - 1][local.value()].get(key);
        ++report.completed;
        ++report.phases[ph].completed;
        if (sc.closed_loop) schedule_next(ci);
        break;
      }
      case OpKind::kScan: {
        ++report.scans;
        ++report.phases[ph].scans;
        // Scans read the contact replica of the key's home shard; keys
        // hashing to sibling shards are out of partition by design.
        const auto [g, local] = route(key, c.home);
        const auto& data = kv[g - 1][local.value()].data();
        auto it = data.lower_bound(key);
        for (std::size_t k = 0; k < op.scan_len && it != data.end();
             ++k, ++it) {
        }
        ++report.completed;
        ++report.phases[ph].completed;
        if (sc.closed_loop) schedule_next(ci);
        break;
      }
      case OpKind::kWrite: {
        ++report.writes;
        ++report.phases[ph].writes;
        const std::uint64_t uid = next_uid++;
        pending.emplace(uid, PendingWrite{ci, now, ph, false});
        if (sc.closed_loop) {
          c.waiting_uid = uid;
          sim.schedule_at(now + op_timeout, [&, ci, uid] {
            if (clients[ci].waiting_uid != uid) return;
            clients[ci].waiting_uid = 0;
            ++report.timeouts;
            schedule_next(ci);
          });
        }
        const auto [g, local] = route(key, c.home);
        cluster.bcast(g, local, AppMsg{uid, local, "put " + key + " " +
                                                       op.value});
        break;
      }
    }
  };

  if (sc.closed_loop) {
    // Stagger the first operations so clients never lock step at warmup.
    for (std::size_t i = 0; i < sc.clients; ++i) {
      sim.schedule_at(sc.warmup + static_cast<sim::Time>(i + 1) * 100,
                      [&issue_op, i] { issue_op(i); });
    }
  } else {
    // Open loop: per-client Poisson arrival chains targeting the aggregate
    // rate, scaled by the phase/burst multiplier at arming time.
    arm_open = [&](std::size_t ci) {
      const sim::Time now = std::max(sim.now(), sc.warmup);
      const double per_client =
          sc.rate * sc.rate_mult_at(now) / static_cast<double>(sc.clients);
      const sim::Time at =
          now + clients[ci].gen.arrival_gap_us(1e6 / per_client);
      if (at >= sc.horizon) return;
      sim.schedule_at(at, [&, ci] {
        issue_op(ci);
        arm_open(ci);
      });
    };
    for (std::size_t i = 0; i < sc.clients; ++i) arm_open(i);
  }

  // ----- availability sampling and mid-run invariant checks ------------------
  // "Available" = every shard has a primary-capable member (the pool serves
  // its whole keyspace); at K=1 this is exactly the unsharded sample.
  for (sim::Time t = sc.warmup; t < sc.horizon; t += sc.sample_period) {
    sim.schedule_at(t, [&, t] {
      const std::size_t ph = phase_index(t);
      ++report.samples;
      ++report.phases[ph].samples;
      if (cluster.min_primary_fraction() > 0.0) {
        ++report.available_samples;
        ++report.phases[ph].available_samples;
      }
    });
  }
  // Mid-run state-invariant checks (Invariants 4.1/4.2): every 100ms on
  // short runs, stretched to ~200 checks total on long soaks.
  const sim::Time check_period =
      std::max(kInvariantCheckPeriod, sc.horizon / 200);
  for (sim::Time t = check_period; t < sc.horizon; t += check_period) {
    sim.schedule_at(t, [&cluster] { (void)cluster.check_invariants(); });
  }

  // ----- run -----------------------------------------------------------------
  cluster.start();
  cluster.run_for(sc.horizon);

  // Recovery epilogue, as in the chaos harness: heal, resume everyone, let
  // the stack converge, and keep the oracle watching the repair traffic.
  cluster.net().heal();
  for (ProcessId p : cluster.pool()) cluster.net().resume(p);
  cluster.run_for(sc.settle);
  // A churny plan can leave the last rejoin's view change mid-flight at the
  // settle deadline; give the membership layer bounded extra rounds to
  // quiesce (a genuinely wedged stack still fails the span check below).
  auto open_view_changes = [&] {
    std::size_t open = 0;
    for (std::size_t k = 1; k <= shard_count; ++k) {
      const auto& column = cluster.shard(static_cast<std::uint32_t>(k));
      open += obs::check_span_invariants(column.trace()).open_view_change;
    }
    return open;
  };
  for (int round = 0; round < 8 && open_view_changes() > 0; ++round) {
    cluster.run_for(sc.settle);
  }
  (void)cluster.check_invariants();

  if (!cluster.oracle_ok()) {
    throw ScenarioFailure(seed, failure_message(seed, sc, plan, cluster));
  }

  // ----- report assembly -----------------------------------------------------
  report.commit_latency = commit_hist.snapshot();
  report.delivery_latency = delivery_hist.snapshot();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    report.phases[i].commit_latency = phase_hist[i]->snapshot();
  }
  report.fault_events = plan.events.size();
  report.restarts = cluster.restarts();
  bool converged = true;
  std::size_t span_violations = 0;
  for (std::size_t k = 1; k <= shard_count; ++k) {
    const auto g = static_cast<std::uint32_t>(k);
    tosys::Cluster& column = cluster.shard(g);
    for (ProcessId local : column.universe()) {
      report.views_installed += column.vs_node(local).stats().views_installed;
    }
    for (std::size_t i = 1; i < kv[k - 1].size(); ++i) {
      if (kv[k - 1][i].digest() != kv[k - 1][0].digest()) converged = false;
    }
    const obs::SpanInvariantReport spans =
        obs::check_span_invariants(column.trace());
    obs::publish_span_invariants(spans, column.metrics());
    span_violations += spans.open_view_change + spans.non_nested_delivery +
                       spans.overlapping_registration;
  }
  report.converged_seeds = converged ? 1 : 0;
  report.span_violations = span_violations;

  SeedOutcome out;
  out.slo = std::move(report);
  out.metrics = cluster.metrics_snapshot();
  return out;
}

ScenarioSweepResult run_scenario(const Scenario& sc, std::size_t jobs) {
  sc.validate();
  const parallel::SeedSweepConfig config{
      .first_seed = sc.seed, .num_seeds = sc.seeds, .jobs = jobs};
  // Seed-order merge into the skeleton, so even an all-failed sweep
  // serializes coherently.
  parallel::SweepResult<SeedOutcome> r = parallel::sweep_seeds<SeedOutcome>(
      config, [&sc](std::uint64_t seed) { return run_scenario_seed(sc, seed); },
      SeedOutcome{skeleton_report(sc), {}});
  ScenarioSweepResult result;
  result.slo = std::move(r.total.slo);
  result.metrics = std::move(r.total.metrics);
  result.seeds_run = r.seeds_run - r.seeds_failed;
  result.seeds_failed = r.seeds_failed;
  if (r.first_failure.has_value()) {
    result.first_failing_seed = r.first_failure->seed;
    result.first_failure = std::move(r.first_failure->message);
  }
  return result;
}

}  // namespace dvs::workload
