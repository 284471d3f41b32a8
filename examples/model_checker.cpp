// Command-line front end for the verification harness: explores the
// composed systems of the paper under a seeded random scheduler, checking
// every invariant (3.1, 4.1–4.2, 5.1–5.6, 6.1–6.3), the DVS refinement
// (Theorem 5.9) and TO trace acceptance (Theorem 6.4) at every step.
//
//   $ ./build/examples/model_checker [n_processes] [steps] [seeds]
//   $ ./build/examples/model_checker --jobs N [n_processes] [steps] [seeds]
//   $ ./build/examples/model_checker --exhaustive [n_processes]
//   $ ./build/examples/model_checker --exhaustive [n] --jobs N
//   $ ./build/examples/model_checker --chaos [n] [seeds] --jobs N
//   $ ./build/examples/model_checker --chaos --smoke
//   $ ./build/examples/model_checker --chaos --erratum [n] [seeds]
//   $ ./build/examples/model_checker --chaos --metrics [n] [seeds] --jobs N
//   $ ./build/examples/model_checker --chaos --batch [n] [seeds] --jobs N
//   $ ./build/examples/model_checker --chaos --restart [n] [seeds] --jobs N
//   $ ./build/examples/model_checker --chaos --shards K [--replication r] [n] [seeds]
//   $ ./build/examples/model_checker --audit <trace-dir>
//   $ ./build/examples/model_checker --scenario <file.scn> --jobs N
//
// The default mode runs seeded random exploration of DVS-IMPL and TO-IMPL
// with every checker armed. `--jobs N` fans the seeds across N worker
// threads (0 = one per hardware thread) with deterministic aggregation —
// same totals and same reported (lowest) failing seed for any N.
// --exhaustive instead enumerates ALL reachable DVS-specification states
// for a bounded environment (small-scope proof); with --jobs it runs the
// level-synchronized parallel BFS.
// --chaos runs FaultPlan-driven adversarial executions of the FULL
// distributed stack (simulated network with loss/duplication/reordering/
// truncation + scripted crash/partition schedules) with the
// spec-conformance oracles attached to every run; the chaos report is
// byte-identical for any --jobs value. --smoke shrinks the sweep for CI
// sanitizer gates. --erratum re-injects the paper's Figure 5 errata
// (printed_figure_mode) and *expects* the oracle to reject — a self-test
// that the harness detects real specification violations. --restart arms
// the crash-restart adversary: per-node write-ahead persistence on,
// scripted kRestart faults in the plan, and kCrash upgraded to real
// crashes (volatile state wiped, node rebuilt from its journal) — the
// oracles keep checking across every restart.
// --shards K multiplexes K independent DVS/TO shard columns over ONE
// shared pool and network (src/shard; without it K=1, the unsharded stack)
// and chaos-sweeps the whole cluster with every shard's conformance oracle
// attached — a violation names its shard; every other --chaos flag applies
// at any K. --replication r bounds each shard to r round-robin replicas
// (0 = every pool member hosts every shard).
// --scenario runs a declarative .scn workload/topology/fault scenario
// (src/workload) over its seed range with the conformance oracle and span
// invariants always on, and prints the SLO report as pure JSON on stdout —
// byte-identical for any --jobs value. Exit 0 = every seed passed the
// oracle AND the report meets the scenario's declared SLOs.
// --audit replays a real deployment's on-disk spec-event traces (recorded
// by dvsd processes) through the same acceptors: per-process local order
// is preserved, the cross-process interleaving is merged by timestamp
// with deferral, and DVS Invariants 4.1/4.2 are re-checked on the merged
// state. The report is byte-identical regardless of --jobs.
//
// Exit code 0 = no violation found (or, under --erratum, the expected
// violation was found). On failure, the counterexample's seed, replayable
// fault plan and action/trace tail are printed for deterministic replay.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "daemon/audit.h"
#include "shard/shard_chaos.h"
#include "explorer/exhaustive.h"
#include "explorer/explorer.h"
#include "explorer/to_explorer.h"
#include "parallel/seed_sweep.h"
#include "parallel/thread_pool.h"
#include "workload/runner.h"
#include "workload/scenario.h"

using namespace dvs;  // NOLINT

namespace {

int run_exhaustive(std::size_t n, std::size_t jobs) {
  explorer::ExhaustiveConfig config;
  // A shrink-and-overlap candidate pool scaled to n.
  ProcessSet shrink;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) shrink.insert(ProcessId{static_cast<ProcessId::Rep>(i)});
  }
  config.candidate_views = {
      View{ViewId{1, ProcessId{0}}, make_universe(n)},
      View{ViewId{2, ProcessId{0}}, shrink.empty() ? make_universe(n) : shrink},
  };
  config.send_budget = 1;
  config.jobs = jobs;
  try {
    const auto stats = explorer::exhaustive_check_dvs_spec(
        make_universe(n), initial_view(make_universe(n)), config);
    std::printf("exhaustive DVS check at n=%zu: %zu states, %zu transitions, "
                "frontier peak %zu%s — all invariants hold on every "
                "reachable state.\n",
                n, stats.states_visited, stats.transitions,
                stats.frontier_peak,
                stats.truncated ? " (TRUNCATED at the state cap)" : "");
  } catch (const std::exception& e) {
    std::printf("COUNTEREXAMPLE FOUND: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_sweep(std::size_t n, std::size_t steps, std::uint64_t seeds,
              std::size_t jobs) {
  explorer::ExplorerConfig config;
  config.steps = steps;
  const ProcessSet universe = make_universe(n);
  const View v0 = initial_view(universe);

  parallel::SeedSweepConfig sweep_config;
  sweep_config.first_seed = 1;
  sweep_config.num_seeds = seeds;
  sweep_config.jobs = jobs;

  // One task runs BOTH stacks for its seed, mirroring the sequential
  // mode's per-seed work (TO-IMPL uses the same decorrelated seed).
  const auto dvs_task = parallel::dvs_impl_task(universe, v0, config);
  const auto to_task = parallel::to_impl_task(universe, v0, config);
  const parallel::SeedSweepResult result =
      parallel::sweep_seeds<explorer::ExplorationStats>(
          sweep_config, [&](std::uint64_t seed) {
            explorer::ExplorationStats stats = dvs_task(seed);
            stats += to_task(seed ^ 0x5eed);
            return stats;
          });

  if (result.first_failure.has_value()) {
    std::printf("COUNTEREXAMPLE FOUND (lowest failing seed %llu of %zu "
                "failing):\n%s\n",
                static_cast<unsigned long long>(result.first_failure->seed),
                result.seeds_failed, result.first_failure->message.c_str());
    return 1;
  }
  std::printf("swept %zu seeds × %zu steps at n=%zu over %zu worker(s): "
              "%zu steps taken, %zu external events, %zu views, "
              "%zu invariant checks, zero violations.\n",
              result.seeds_run, steps, n,
              parallel::resolve_jobs(jobs, seeds), result.total.steps_taken,
              result.total.external_events, result.total.views_created,
              result.total.invariant_checks);
  return 0;
}

int run_chaos(std::size_t n, std::size_t shards, std::size_t replication,
              std::uint64_t seeds, std::size_t jobs, bool smoke, bool erratum,
              bool metrics, bool batch, bool restart) {
  shard::ShardChaosConfig config;
  config.cluster.shards = shards;
  config.cluster.replication = replication;
  tosys::ClusterConfig& base = config.cluster.base;
  base.n_processes = n;
  base.net.batching = batch;
  base.to_options.printed_figure_mode = erratum;
  if (restart) {
    config.crashes_restart = true;
    config.plan.w_restart = 0.15;
  }
  if (erratum) {
    // The reverted corrections misbehave when client messages are queued
    // while a node has no established view — most robustly at a late
    // joiner, whose whole backlog is labelled during its first exchange
    // and delivered twice. Run with one process outside v0 and a denser
    // client load so broadcasts land in those windows.
    if (n > 1) base.initial_members = n - 1;
    config.broadcasts = 200;
  }
  if (smoke) {
    // CI sanitizer gate: fewer seeds over a shorter horizon.
    config.plan.horizon = 2 * sim::kSecond;
    config.plan.events = 8;
    config.broadcasts = 30;
    config.settle = 2 * sim::kSecond;
  }

  parallel::SeedSweepConfig sweep;
  sweep.first_seed = 1;
  sweep.num_seeds = seeds;
  sweep.jobs = jobs;
  const parallel::ChaosSweepResult result =
      parallel::run_chaos_sweep(sweep, config);

  if (erratum) {
    // Self-test: with the Figure 5 errata re-injected, a clean sweep means
    // the oracle is blind — that is the failure.
    if (!result.first_failure.has_value()) {
      std::printf("ERRATUM SELF-TEST FAILED: printed_figure_mode ran %zu "
                  "chaos seeds at n=%zu without any oracle rejection.\n",
                  result.seeds_run, n);
      return 1;
    }
    std::printf("erratum self-test passed: oracle rejected %zu of %zu seeds; "
                "lowest failing seed %llu:\n%s\n",
                result.seeds_failed, result.seeds_run,
                static_cast<unsigned long long>(result.first_failure->seed),
                result.first_failure->message.c_str());
    return 0;
  }

  if (result.first_failure.has_value()) {
    std::printf("COUNTEREXAMPLE FOUND (lowest failing seed %llu of %zu "
                "failing):\n%s\n",
                static_cast<unsigned long long>(result.first_failure->seed),
                result.seeds_failed, result.first_failure->message.c_str());
    return 1;
  }
  // NOTE: deliberately does not print the worker count — the chaos report
  // is byte-identical across --jobs values, and that property is asserted
  // by tests and scripts/check.sh.
  if (metrics) {
    // Pure JSON: the seed-order-merged metric snapshot of the whole sweep
    // (every layer's counters, latency histograms, span-invariant counts).
    // Byte-identical for any --jobs value; scripts redirect it to a file.
    std::fputs(result.total.metrics.to_json().c_str(), stdout);
    return 0;
  }
  const shard::ChaosStats& t = result.total;
  const auto sum = [&t](const char* counter) {
    return static_cast<unsigned long long>(t.metrics.counter_sum(counter));
  };
  // The shard topology is named only when the sweep is actually sharded.
  std::string topology;
  if (shards > 1 || replication != 0) {
    topology = " K=" + std::to_string(shards) + " r=" +
               (replication == 0 ? "all" : std::to_string(replication));
  }
  std::printf(
      "chaos-swept %zu seeds at n=%zu%s: %llu oracle events, %llu invariant "
      "checks, %llu views, %llu broadcasts, %llu TO deliveries, %llu "
      "scripted faults; injected %llu dups / %llu reorders / %llu "
      "truncations (%llu decode errors, %llu dups suppressed) — zero "
      "violations.\n",
      result.seeds_run, n, topology.c_str(),
      static_cast<unsigned long long>(t.events_checked),
      static_cast<unsigned long long>(t.invariant_checks),
      sum("vs.views_installed"),
      static_cast<unsigned long long>(t.broadcasts),
      static_cast<unsigned long long>(t.deliveries),
      static_cast<unsigned long long>(t.fault_events),
      sum("net.duplicated"), sum("net.reordered"), sum("net.truncated"),
      sum("vs.decode_errors"), sum("vs.duplicates_suppressed"));
  if (batch) {
    std::printf("batching: %llu logical messages coalesced into %llu BATCH "
                "envelopes (%llu datagrams on the wire vs %llu sends).\n",
                sum("net.batched_msgs"), sum("net.batches"),
                sum("net.datagrams"), sum("net.sent"));
  }
  if (restart) {
    std::printf("crash-restart: %llu restarts recovered from stable storage "
                "(%llu WAL records, %llu bytes written) — every node came "
                "back from its journal alone.\n",
                static_cast<unsigned long long>(t.restarts),
                sum("storage.appends"), sum("storage.bytes_written"));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out `--jobs N` wherever it appears; remaining args keep their
  // positional meaning.
  std::size_t jobs = 1;
  bool sweep_mode = false;
  bool chaos_mode = false;
  const char* audit_dir = nullptr;
  const char* scenario_file = nullptr;
  bool smoke = false;
  bool erratum = false;
  bool metrics = false;
  bool batch = false;
  bool restart = false;
  std::size_t shards = 1;
  std::size_t replication = 0;
  std::vector<char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::strtoul(argv[++i], nullptr, 10);
      sweep_mode = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::max<std::size_t>(1, std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--replication") == 0 && i + 1 < argc) {
      replication = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--audit") == 0 && i + 1 < argc) {
      audit_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario_file = argv[++i];
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos_mode = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--erratum") == 0) {
      erratum = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = true;
    } else if (std::strcmp(argv[i], "--restart") == 0) {
      restart = true;
    } else {
      args.push_back(argv[i]);
    }
  }

  try {
    if (audit_dir != nullptr) {
      // Offline audit of a real deployment's on-disk spec-event traces
      // (written by dvsd; see docs/DEPLOYMENT.md). Single-threaded and
      // deterministic: the report is byte-identical for any --jobs value.
      const daemon::AuditReport report = daemon::audit_dir(audit_dir);
      std::fputs(report.to_string().c_str(), stdout);
      return report.ok ? 0 : 1;
    }
    if (scenario_file != nullptr) {
      // Declarative workload/topology/fault scenario. stdout is PURE JSON
      // (the SLO report) so scripts can byte-compare across --jobs values;
      // diagnostics go to stderr.
      const workload::Scenario sc = workload::Scenario::parse_file(
          scenario_file);
      const workload::ScenarioSweepResult result =
          workload::run_scenario(sc, jobs);
      if (!result.ok()) {
        std::fprintf(stderr,
                     "SCENARIO FAILURE (lowest failing seed %llu of %zu "
                     "failing):\n%s\n",
                     static_cast<unsigned long long>(result.first_failing_seed),
                     result.seeds_failed, result.first_failure.c_str());
        return 1;
      }
      std::fputs(result.slo.to_json().c_str(), stdout);
      if (!result.slo.slo_pass()) {
        std::fprintf(stderr, "\nDECLARED SLO NOT MET for scenario '%s'.\n",
                     result.slo.scenario.c_str());
        return 1;
      }
      return 0;
    }
    if (chaos_mode) {
      const std::size_t n =
          !args.empty() ? std::strtoul(args[0], nullptr, 10) : 3;
      const std::uint64_t seeds =
          args.size() > 1 ? std::strtoull(args[1], nullptr, 10)
                          : (smoke ? 25 : (erratum ? 60 : 500));
      return run_chaos(n, shards, replication, seeds, jobs, smoke, erratum,
                       metrics, batch, restart);
    }
    if (!args.empty() && std::strcmp(args[0], "--exhaustive") == 0) {
      const std::size_t n_ex =
          args.size() > 1 ? std::strtoul(args[1], nullptr, 10) : 2;
      return run_exhaustive(n_ex, jobs);
    }
    const std::size_t n =
        !args.empty() ? std::strtoul(args[0], nullptr, 10) : 3;
    const std::size_t steps =
        args.size() > 1 ? std::strtoul(args[1], nullptr, 10) : 3000;
    const std::uint64_t seeds =
        args.size() > 2 ? std::strtoull(args[2], nullptr, 10) : 10;

    if (sweep_mode) return run_sweep(n, steps, seeds, jobs);

    explorer::ExplorerConfig config;
    config.steps = steps;

    const ProcessSet universe = make_universe(n);
    const View v0 = initial_view(universe);

    std::size_t total_events = 0;
    std::size_t total_views = 0;
    try {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        explorer::DvsImplExplorer dvs_ex(universe, v0, config, seed);
        const auto s1 = dvs_ex.run();
        explorer::ToImplExplorer to_ex(universe, v0, config, seed ^ 0x5eed);
        const auto s2 = to_ex.run();
        total_events += s1.external_events + s2.external_events;
        total_views += s1.views_created + s2.views_created;
        std::printf("seed %3llu: DVS-IMPL %zu steps (%zu attempts), TO-IMPL "
                    "%zu steps (%zu deliveries) — all checks passed\n",
                    static_cast<unsigned long long>(seed), s1.steps_taken,
                    s1.dvs_views_attempted, s2.steps_taken, s2.msgs_delivered);
      }
    } catch (const explorer::ExplorationFailure& e) {
      std::printf("COUNTEREXAMPLE FOUND:\n%s\n", e.what());
      return 1;
    }
    std::printf("\nexplored %llu seeds × %zu steps at n=%zu: %zu external "
                "events, %zu views, zero violations.\n",
                static_cast<unsigned long long>(seeds), steps, n, total_events,
                total_views);
    return 0;
  } catch (const std::exception& e) {
    std::printf("harness error: %s\n", e.what());
    return 2;
  }
}
