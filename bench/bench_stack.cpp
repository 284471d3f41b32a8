// Simulation-rate benchmark of the full distributed stack (experiment E8's
// machinery): wall-clock cost per simulated second and per delivered
// message, with and without trace recording.
#include <benchmark/benchmark.h>

#include <time.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "daemon/runtime.h"
#include "net/udp_transport.h"
#include "shard/shard_cluster.h"
#include "storage/file_store.h"
#include "tosys/cluster.h"
#include "workload/runner.h"
#include "workload/scenario.h"

namespace {

using namespace dvs;         // NOLINT
using namespace dvs::tosys;  // NOLINT
using sim::kMillisecond;
using sim::kSecond;

void BM_StableClusterSecond(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool record = state.range(1) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.n_processes = n;
    cfg.record_traces = record;
    Cluster c(cfg, seed++);
    c.start();
    std::uint64_t uid = 1;
    for (int i = 0; i < 50; ++i) {
      const ProcessId p{static_cast<ProcessId::Rep>(uid % n)};
      c.bcast(p, AppMsg{uid++, p, ""});
      c.run_for(20 * kMillisecond);
    }
    benchmark::DoNotOptimize(c.deliveries().size());
  }
  state.SetItemsProcessed(state.iterations() * 50);
  state.SetLabel(record ? "traces on" : "traces off");
}
BENCHMARK(BM_StableClusterSecond)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({5, 0})
    ->Args({9, 0});

void BM_ViewChange(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.n_processes = n;
    cfg.record_traces = false;
    Cluster c(cfg, seed++);
    c.start();
    c.run_for(300 * kMillisecond);
    c.net().pause(ProcessId{1});
    c.run_for(2 * kSecond);
    c.net().resume(ProcessId{1});
    c.run_for(2 * kSecond);
    benchmark::DoNotOptimize(c.primary_fraction());
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two view changes
}
BENCHMARK(BM_ViewChange)->Arg(3)->Arg(5)->Arg(9);

/// Raw-stack config for the BM_Stack* benches: tracing, oracle and
/// observability off so the measurement is the protocol + transport hot
/// path alone. The one axis is same-tick BATCH coalescing on the wire
/// (`--batch` / NetConfig::batching).
ClusterConfig raw_stack(std::size_t n, bool batching) {
  ClusterConfig cfg;
  cfg.n_processes = n;
  cfg.record_traces = false;
  cfg.conformance_oracle = false;
  cfg.observability = false;
  cfg.net.batching = batching;
  return cfg;
}

void BM_StackBurstThroughput(benchmark::State& state) {
  // Bursty app load over a WAN-ish link — every process broadcasts a
  // clutch of messages each heartbeat tick while the one-way delay spans
  // several ticks, so every message stays un-acked (a resend candidate)
  // for its whole flight. The retransmission cursors skip resends whose
  // covering copy is still in flight, and batching coalesces each tick's
  // clutch (DATA, SEQ, heartbeat to one destination) into a single
  // datagram.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batching = state.range(1) != 0;
  constexpr int kBurstsPerRun = 50;
  constexpr std::uint64_t kMsgsPerProcessPerBurst = 4;
  std::uint64_t seed = 1;
  std::size_t delivered = 0;
  for (auto _ : state) {
    ClusterConfig cfg = raw_stack(n, batching);
    // ~3 ticks one-way: acks lag ~6 ticks, so in-flight copies stay resend
    // candidates for several ticks in a row.
    cfg.net.base_delay = 55 * kMillisecond;
    Cluster c(cfg, seed++);
    c.start();
    std::uint64_t uid = 1;
    for (int burst = 0; burst < kBurstsPerRun; ++burst) {
      for (std::size_t q = 0; q < n; ++q) {
        const ProcessId p{static_cast<ProcessId::Rep>(q)};
        for (std::uint64_t k = 0; k < kMsgsPerProcessPerBurst; ++k) {
          c.bcast(p, AppMsg{uid++, p, ""});
        }
      }
      c.run_for(20 * kMillisecond);
    }
    c.run_for(2 * kSecond);
    delivered = c.deliveries().size();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              kBurstsPerRun * n * kMsgsPerProcessPerBurst));
  state.SetLabel(std::string(batching ? "batched" : "unbatched") + ", " +
                 std::to_string(delivered) + " delivered");
}
BENCHMARK(BM_StackBurstThroughput)
    ->ArgsProduct({{3, 5, 9}, {0, 1}});

void BM_StackSteadyState(benchmark::State& state) {
  // Long stable-view run: five simulated seconds of one broadcast per 20 ms
  // heartbeat tick, no faults, no view changes — the regime the watermark
  // table and the recycled containers are built for, over the batched
  // transport.
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr sim::Time kRun = 5 * kSecond;
  constexpr sim::Time kTick = 20 * kMillisecond;
  std::uint64_t seed = 1;
  std::size_t delivered = 0;
  for (auto _ : state) {
    Cluster c(raw_stack(n, true), seed++);
    c.start();
    std::uint64_t uid = 1;
    for (sim::Time t = 0; t < kRun; t += kTick) {
      const ProcessId p{static_cast<ProcessId::Rep>(uid % n)};
      c.bcast(p, AppMsg{uid++, p, ""});
      c.run_for(kTick);
    }
    c.run_for(1 * kSecond);
    delivered = c.deliveries().size();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRun / kTick));
  state.SetLabel(std::to_string(delivered) + " delivered");
}
BENCHMARK(BM_StackSteadyState)->Arg(5)->Arg(9);

void BM_StackRestart(benchmark::State& state) {
  // Crash-restart cost of the persistent stack (experiment E19). One
  // episode = 10 simulated seconds (10k 1 ms heartbeat ticks) of steady
  // client load on n=3 with write-ahead persistence on; the restart-rate
  // axis injects {0, 1, 10} crash-restarts per episode, evenly spaced,
  // alternating victims. The label carries the deterministic outcome
  // counters: recovery latency (restart → first post-recovery delivery at
  // the restarted node, from the tracer's trace.recovery_us histogram),
  // total WAL bytes written, and deliveries. The second axis swaps the
  // deterministic in-memory store for the file-backed store, so the same
  // journal traffic is measured against a real filesystem.
  const int restarts = static_cast<int>(state.range(0));
  const bool file_backed = state.range(1) != 0;
  constexpr sim::Time kEpisode = 10 * kSecond;
  std::uint64_t seed = 1;
  std::uint64_t wal_bytes = 0;
  std::uint64_t recovery_p50 = 0;
  std::uint64_t recoveries = 0;
  std::size_t delivered = 0;
  const std::string root =
      (std::filesystem::temp_directory_path() / "dvs_bench_recovery_store")
          .string();
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.n_processes = 3;
    cfg.record_traces = false;
    cfg.conformance_oracle = false;
    cfg.persistence = true;  // observability stays on: it times recovery
    std::unique_ptr<storage::FileStableStore> disk;
    if (file_backed) {
      disk = std::make_unique<storage::FileStableStore>(root);
      disk->wipe();
      cfg.store = disk.get();
    }
    Cluster c(cfg, seed++);
    c.start();
    for (int i = 0; i < restarts; ++i) {
      const ProcessId victim{static_cast<ProcessId::Rep>(1 + i % 2)};
      const sim::Time at =
          kSecond + static_cast<sim::Time>(i + 1) * (8 * kSecond) /
                        static_cast<sim::Time>(restarts + 1);
      c.sim().schedule_at(at, [&c, victim] { c.restart(victim); });
    }
    std::uint64_t uid = 1;
    for (sim::Time t = 0; t < kEpisode; t += 20 * kMillisecond) {
      const ProcessId p{static_cast<ProcessId::Rep>(uid % 3)};
      c.bcast(p, AppMsg{uid++, p, ""});
      c.run_for(20 * kMillisecond);
    }
    c.run_for(2 * kSecond);  // let the last recovery complete
    delivered = c.deliveries().size();
    wal_bytes = c.store()->stats().bytes_written();
    const obs::HistogramSnapshot h =
        c.metrics().histogram("trace.recovery_us").snapshot();
    recoveries = h.count;
    recovery_p50 = h.p50();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(delivered));
  state.SetLabel(std::to_string(restarts) + " restarts/10k ticks, " +
                 (file_backed ? "file store" : "mem store") + ", " +
                 std::to_string(recoveries) + " recoveries p50=" +
                 std::to_string(recovery_p50) + "us, wal=" +
                 std::to_string(wal_bytes) + "B, " +
                 std::to_string(delivered) + " delivered");
}
BENCHMARK(BM_StackRestart)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({10, 0})
    ->Args({10, 1});

void BM_TraceAcceptance(benchmark::State& state) {
  // Cost of replaying a recorded run through all three spec acceptors.
  ClusterConfig cfg;
  cfg.n_processes = 4;
  Cluster c(cfg, 99);
  c.start();
  std::uint64_t uid = 1;
  for (int i = 0; i < 100; ++i) {
    const ProcessId p{static_cast<ProcessId::Rep>(uid % 4)};
    c.bcast(p, AppMsg{uid++, p, ""});
    c.run_for(10 * kMillisecond);
  }
  c.run_for(1 * kSecond);
  const std::size_t events =
      c.vs_trace().size() + c.dvs_trace().size() + c.to_trace().size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.check_vs_trace().ok);
    benchmark::DoNotOptimize(c.check_dvs_trace().ok);
    benchmark::DoNotOptimize(c.check_to_trace().ok);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceAcceptance);

void BM_Scenario(benchmark::State& state) {
  // One full scenario seed per iteration: client swarm + compiled fault
  // plan + online oracle + SLO accounting, i.e. the whole workload-engine
  // path over the stack. Axis 0 is the faultless closed-loop baseline;
  // axis 1 adds crash-restart churn with persistence underneath. The
  // label counters (completed ops, views, restarts, availability) are
  // deterministic — the review surface; wall clock is indicative.
  const bool churny = state.range(0) != 0;
  workload::Scenario sc;
  sc.name = churny ? "bench-churn" : "bench-steady";
  sc.n = 3;
  sc.seeds = 1;
  sc.seed = 7;
  sc.warmup = 200 * kMillisecond;
  sc.horizon = 2 * kSecond;
  sc.settle = 1 * kSecond;
  sc.clients = 2;
  sc.think = 5 * kMillisecond;
  sc.mix.keys = 100;
  if (churny) {
    sc.churn = workload::ChurnSpec{1.0, true, 200 * kMillisecond,
                                   600 * kMillisecond};
  }
  sc.validate();

  workload::SeedOutcome out;
  for (auto _ : state) {
    out = workload::run_scenario_seed(sc, sc.seed);
    benchmark::DoNotOptimize(out.slo.completed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.slo.completed));
  state.counters["completed"] = static_cast<double>(out.slo.completed);
  state.counters["commits"] = static_cast<double>(out.slo.commits);
  state.counters["views"] = static_cast<double>(out.slo.views_installed);
  state.counters["restarts"] = static_cast<double>(out.slo.restarts);
  state.counters["avail_ppm"] = static_cast<double>(out.slo.availability_ppm());
  state.SetLabel(churny ? "churn-restart" : "faultless");
}
BENCHMARK(BM_Scenario)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ----- real-transport axis (E21) ---------------------------------------------
// The same NodeRuntime stack the sim benchmarks exercise, but over real UDP
// sockets on loopback: n transports + n runtimes in one process, the timer
// queue slaved to the wall clock exactly like dvsd's event loop. Measures
// end-to-end replicated-command cost over real sockets — syscalls, kernel
// queues and heartbeat-paced stability included, which is why these numbers
// are wall-clock honest rather than simulated. Skipped under DVS_NO_NET=1.

std::uint64_t bench_monotonic_us() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

struct UdpLoopbackStack {
  sim::Simulator sim;
  std::vector<std::unique_ptr<net::UdpTransport>> nets;
  std::vector<std::unique_ptr<storage::FileStableStore>> stores;
  std::vector<std::unique_ptr<daemon::NodeRuntime>> nodes;
  std::uint64_t start_us = 0;

  /// A non-empty `store_root` gives every node a FileStableStore under
  /// store_root/pN, synced where dvsd syncs: after the protocol step,
  /// before the datagrams leave.
  explicit UdpLoopbackStack(std::size_t n, const std::string& store_root = "") {
    if (!store_root.empty()) std::filesystem::remove_all(store_root);
    for (std::size_t i = 0; i < n; ++i) {
      net::UdpConfig cfg;
      cfg.self = ProcessId{static_cast<std::uint32_t>(i)};
      cfg.bind_port = 0;
      nets.push_back(
          std::make_unique<net::UdpTransport>(cfg, make_universe(n)));
    }
    for (auto& t : nets) {
      for (std::size_t j = 0; j < n; ++j) {
        t->set_peer(ProcessId{static_cast<std::uint32_t>(j)},
                    {"127.0.0.1", nets[j]->local_port()});
      }
    }
    start_us = bench_monotonic_us();
    for (std::size_t i = 0; i < n; ++i) {
      if (!store_root.empty()) {
        stores.push_back(std::make_unique<storage::FileStableStore>(
            store_root + "/p" + std::to_string(i)));
      }
      nodes.push_back(std::make_unique<daemon::NodeRuntime>(
          ProcessId{static_cast<std::uint32_t>(i)}, n, n, *nets[i], sim,
          daemon::RuntimeOptions{}, stores.empty() ? nullptr : stores[i].get(),
          nullptr, [this] { return bench_monotonic_us() - start_us; }));
    }
    for (auto& rt : nodes) rt->start();
  }

  /// One event-loop step for every node (busy loop — latency benchmark).
  void step() {
    sim.run_until(bench_monotonic_us() - start_us);
    for (auto& s : stores) s->sync();
    for (auto& t : nets) t->flush();
    for (auto& t : nets) t->drain();
  }

  bool run_until(const std::function<bool()>& pred, std::uint64_t limit_us) {
    const std::uint64_t deadline = bench_monotonic_us() + limit_us;
    while (!pred()) {
      step();
      if (bench_monotonic_us() > deadline) return false;
    }
    return true;
  }

  [[nodiscard]] bool all_applied(std::uint64_t want) const {
    for (const auto& rt : nodes) {
      if (rt->kv().applied() < want) return false;
    }
    return true;
  }
};

void BM_ShardedThroughput(benchmark::State& state) {
  // Multi-group scaling axis (experiment E23): K independent shard columns
  // over ONE fixed 8-node pool at replication 2, all multiplexed on one
  // simulator and one network. Offered load is one broadcast per shard per
  // 20 ms tick for 2 simulated seconds, so the aggregate committed load
  // grows with K while the per-column load stays constant. The label's
  // commit counts are deterministic (the review surface); wall time is the
  // cost of multiplexing K columns through one event loop.
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPool = 8;
  constexpr std::size_t kReplication = 2;
  constexpr sim::Time kRun = 2 * kSecond;
  constexpr sim::Time kTick = 20 * kMillisecond;
  std::uint64_t seed = 1;
  std::uint64_t committed = 0;
  for (auto _ : state) {
    shard::ShardClusterConfig cfg;
    cfg.shards = shards;
    cfg.replication = kReplication;
    cfg.base.n_processes = kPool;
    cfg.base.record_traces = false;
    cfg.base.conformance_oracle = false;
    cfg.base.observability = false;
    shard::ShardCluster c(cfg, seed++);
    c.start();
    std::uint64_t uid = 1;
    for (sim::Time t = 0; t < kRun; t += kTick) {
      for (std::size_t k = 1; k <= shards; ++k) {
        const ProcessId local{static_cast<ProcessId::Rep>(uid % kReplication)};
        c.bcast(static_cast<std::uint32_t>(k), local, AppMsg{uid++, local, ""});
      }
      c.run_for(kTick);
    }
    c.run_for(1 * kSecond);  // settle: drain in-flight commits
    committed = 0;
    for (std::size_t k = 1; k <= shards; ++k) {
      committed += c.shard(static_cast<std::uint32_t>(k)).deliveries().size() /
                   kReplication;
    }
    benchmark::DoNotOptimize(committed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(committed));
  const std::uint64_t per_sim_s = committed / (kRun / kSecond);
  state.counters["commits"] = static_cast<double>(committed);
  state.counters["commits_per_sim_s"] = static_cast<double>(per_sim_s);
  state.SetLabel("K=" + std::to_string(shards) + ", pool 8 r=2, " +
                 std::to_string(committed) + " commits, " +
                 std::to_string(per_sim_s) + "/sim-s");
}
BENCHMARK(BM_ShardedThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_ShardMigration(benchmark::State& state) {
  // Migration cost vs column state size (experiment E24): a K=4 r=2
  // dynamic pool of 4, shard g3 pre-loaded with S committed commands, then
  // its co-host (process 3, also on g4) drops off the network. The timed
  // region spans suspicion, the pool view change and BOTH state-transfer
  // episodes — journal snapshot, chunked 0x48 transfer, replay and cutover
  // — until the cluster reports the two slots migrated. The preload and
  // teardown run outside the timer, so the axis isolates how episode cost
  // grows with the transferred journal prefix.
  const auto preload = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kPool = 4;
  constexpr sim::Time kTick = 20 * kMillisecond;
  std::uint64_t seed = 1;
  std::optional<shard::ShardCluster> c;
  for (auto _ : state) {
    state.PauseTiming();
    shard::ShardClusterConfig cfg;
    cfg.shards = 4;
    cfg.replication = 2;
    cfg.dynamic = true;
    cfg.base.n_processes = kPool;
    cfg.base.persistence = true;
    cfg.base.record_traces = false;
    cfg.base.conformance_oracle = false;
    cfg.base.observability = false;
    c.emplace(cfg, seed++);
    c->start();
    // Commit S commands into g3 (hosts {2,3}) — the journal prefix the
    // donor must snapshot and the joiner must replay.
    std::uint64_t uid = 1;
    while (uid <= preload) {
      for (int burst = 0; burst < 8 && uid <= preload; ++burst) {
        const ProcessId local{static_cast<ProcessId::Rep>(uid % 2)};
        c->bcast(3, local, AppMsg{uid, local, "put k" + std::to_string(uid)});
        ++uid;
      }
      c->run_for(kTick);
    }
    for (int guard = 0; guard < 200 && c->shard(3).deliveries().size() <
                                           2 * preload;
         ++guard) {
      c->run_for(100 * kMillisecond);
    }
    state.ResumeTiming();
    c->net().pause(ProcessId{3});
    while (c->migrations() < 2) c->run_for(50 * kMillisecond);
    state.PauseTiming();
    benchmark::DoNotOptimize(c->migrations());
    c.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(preload));
  state.counters["preloaded_cmds"] = static_cast<double>(preload);
  state.SetLabel("pool 4 K=4 r=2, " + std::to_string(preload) +
                 " cmds transferred across 2 slot migrations");
}
BENCHMARK(BM_ShardMigration)
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

bool bench_no_net() {
  const char* env = std::getenv("DVS_NO_NET");
  return env != nullptr && env[0] == '1';
}

void BM_UdpLoopbackCommand(benchmark::State& state) {
  // Latency axis: one replicated put at a time, timed until EVERY replica
  // has applied it (total-order delivery + stability over real sockets).
  if (bench_no_net()) {
    state.SkipWithError("DVS_NO_NET=1");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  UdpLoopbackStack stack(n);
  if (!stack.run_until(
          [&] {
            for (const auto& rt : stack.nodes) {
              if (!rt->vs().view() || rt->vs().view()->size() != n)
                return false;
            }
            return true;
          },
          5'000'000)) {
    state.SkipWithError("initial view never formed");
    return;
  }
  std::uint64_t want = 0;
  for (auto _ : state) {
    stack.nodes[0]->bcast_command("put k v");
    ++want;
    if (!stack.run_until([&] { return stack.all_applied(want); },
                         5'000'000)) {
      state.SkipWithError("command never applied everywhere");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("udp loopback, applied on all " + std::to_string(n));
}
BENCHMARK(BM_UdpLoopbackCommand)
    ->Arg(3)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_UdpLoopbackBurst(benchmark::State& state) {
  // Throughput axis: 50 pipelined puts round-robin across members, timed
  // until every replica applied all of them. Batching coalesces the burst
  // into few datagrams; items/s is replicated commands per wall second.
  // The second axis gives each replica dvsd's journal (a FileStableStore,
  // one write per store per loop step), so the pair prices the store.
  if (bench_no_net()) {
    state.SkipWithError("DVS_NO_NET=1");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool file_backed = state.range(1) != 0;
  constexpr std::uint64_t kBurst = 50;
  UdpLoopbackStack stack(
      n, file_backed ? (std::filesystem::temp_directory_path() /
                        "dvs_bench_udp_store")
                           .string()
                     : "");
  if (!stack.run_until(
          [&] {
            for (const auto& rt : stack.nodes) {
              if (!rt->vs().view() || rt->vs().view()->size() != n)
                return false;
            }
            return true;
          },
          5'000'000)) {
    state.SkipWithError("initial view never formed");
    return;
  }
  std::uint64_t want = 0;
  for (auto _ : state) {
    for (std::uint64_t x = 0; x < kBurst; ++x) {
      stack.nodes[x % n]->bcast_command("put k" + std::to_string(x) + " v");
      stack.step();
    }
    want += kBurst;
    if (!stack.run_until([&] { return stack.all_applied(want); },
                         10'000'000)) {
      state.SkipWithError("burst never applied everywhere");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBurst));
  state.SetLabel("udp loopback, " + std::to_string(kBurst) +
                 " cmds/burst, n=" + std::to_string(n) +
                 (file_backed ? ", file store" : ", no store"));
}
BENCHMARK(BM_UdpLoopbackBurst)->Args({3, 0})->Args({3, 1})->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
