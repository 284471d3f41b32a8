// E13b: scaling of the parallel verification engine.
//
// Two workloads, each swept over worker counts {1, 2, 4, 8}:
//   * seed sweep — DVS-IMPL randomized exploration, one task per seed
//     (embarrassingly parallel; the determinism contract makes the output
//     identical at every width);
//   * exhaustive BFS — level-synchronized sharded search of the DVS spec
//     (shared visited set; scaling bounded by level widths and shard
//     contention).
//
// Reports wall time, throughput (steps/s resp. states/s) and speedup vs
// jobs=1. On a single-core host the expected speedup is ~1.0× throughout —
// the table then documents the parallel overhead rather than the scaling.
//
//   $ ./build/bench/bench_parallel [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "explorer/exhaustive.h"
#include "explorer/explorer.h"
#include "parallel/seed_sweep.h"
#include "parallel/thread_pool.h"

using namespace dvs;  // NOLINT

namespace {

double seconds_since(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void run_seed_sweep_table(bool smoke) {
  const ProcessSet universe = make_universe(3);
  const View v0 = initial_view(universe);
  explorer::ExplorerConfig config;
  config.steps = smoke ? 200 : 1500;
  const std::uint64_t num_seeds = smoke ? 8 : 32;
  const auto task = parallel::dvs_impl_task(universe, v0, config);

  std::printf("\nseed sweep: DVS-IMPL, %llu seeds x %zu steps, n=3 (all "
              "checkers armed)\n",
              static_cast<unsigned long long>(num_seeds), config.steps);
  std::printf("%6s  %10s  %12s  %8s\n", "jobs", "wall(s)", "steps/s",
              "speedup");
  double base = 0.0;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    parallel::SeedSweepConfig sweep_config;
    sweep_config.first_seed = 1;
    sweep_config.num_seeds = num_seeds;
    sweep_config.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = parallel::sweep_seeds(sweep_config, task);
    const double wall = seconds_since(t0);
    if (jobs == 1) base = wall;
    std::printf("%6zu  %10.3f  %12.0f  %7.2fx%s\n", jobs, wall,
                static_cast<double>(result.total.steps_taken) / wall,
                base / wall,
                result.first_failure.has_value() ? "  (FAILURE?)" : "");
  }
}

void run_exhaustive_table(bool smoke) {
  const std::size_t n = smoke ? 2 : 3;
  const ProcessSet universe = make_universe(n);
  const View v0 = initial_view(universe);
  explorer::ExhaustiveConfig config;
  ProcessSet shrink;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    shrink.insert(ProcessId{static_cast<ProcessId::Rep>(i)});
  }
  config.candidate_views = {
      View{ViewId{1, ProcessId{0}}, universe},
      View{ViewId{2, ProcessId{0}}, shrink.empty() ? universe : shrink},
  };
  config.send_budget = 1;

  std::printf("\nexhaustive BFS: DVS spec, n=%zu, 2 candidate views, "
              "1 send\n", n);
  std::printf("%6s  %10s  %10s  %12s  %8s\n", "jobs", "wall(s)", "states",
              "states/s", "speedup");
  double base = 0.0;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    config.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = explorer::exhaustive_check_dvs_spec(universe, v0,
                                                           config);
    const double wall = seconds_since(t0);
    if (jobs == 1) base = wall;
    std::printf("%6zu  %10.3f  %10zu  %12.0f  %7.2fx\n", jobs, wall,
                stats.states_visited,
                static_cast<double>(stats.states_visited) / wall,
                base / wall);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("E13b: parallel verification scaling (hardware threads: %zu)\n",
              parallel::resolve_jobs(0));
  run_seed_sweep_table(smoke);
  run_exhaustive_table(smoke);
  std::printf(
      "\nshape check: per-jobs outputs are identical by construction "
      "(deterministic aggregation); speedup should approach the smaller of "
      "jobs and the hardware thread count.\n");
  return 0;
}
