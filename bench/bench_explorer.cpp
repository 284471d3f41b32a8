// Cost of the verification machinery (experiments E1–E7): steps/second of
// the randomized explorers, with and without the per-step checkers. The
// interesting ratio is how much the paper's invariants + the step-wise
// refinement check cost on top of raw execution. The parallel-engine
// entries (BM_SeedSweep, BM_ExhaustiveBfs) sweep the jobs count; see
// bench_parallel for the full scaling tables and docs/PERFORMANCE.md for
// what determinism they promise.
#include <benchmark/benchmark.h>

#include "explorer/exhaustive.h"
#include "explorer/explorer.h"
#include "explorer/to_explorer.h"
#include "parallel/seed_sweep.h"

namespace {

using namespace dvs;  // NOLINT

void BM_VsSpecExplorer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    explorer::ExplorerConfig config;
    config.steps = 500;
    explorer::VsSpecExplorer ex(make_universe(n),
                                initial_view(make_universe(n)), config,
                                seed++);
    benchmark::DoNotOptimize(ex.run());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_VsSpecExplorer)->Arg(3)->Arg(5);

void BM_DvsSpecExplorer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    explorer::ExplorerConfig config;
    config.steps = 500;
    explorer::DvsSpecExplorer ex(make_universe(n),
                                 initial_view(make_universe(n)), config,
                                 seed++);
    benchmark::DoNotOptimize(ex.run());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_DvsSpecExplorer)->Arg(3)->Arg(5);

void BM_DvsImplExplorer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool check_refinement = state.range(1) != 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    explorer::ExplorerConfig config;
    config.steps = 500;
    config.check_refinement = check_refinement;
    config.check_acceptance = check_refinement;
    explorer::DvsImplExplorer ex(make_universe(n),
                                 initial_view(make_universe(n)), config,
                                 seed++);
    benchmark::DoNotOptimize(ex.run());
  }
  state.SetItemsProcessed(state.iterations() * 500);
  state.SetLabel(check_refinement ? "checkers on" : "checkers off");
}
BENCHMARK(BM_DvsImplExplorer)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0})
    ->Args({4, 1});

void BM_ToImplExplorer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    explorer::ExplorerConfig config;
    config.steps = 500;
    explorer::ToImplExplorer ex(make_universe(n),
                                initial_view(make_universe(n)), config,
                                seed++);
    benchmark::DoNotOptimize(ex.run());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_ToImplExplorer)->Arg(3)->Arg(4);

void BM_SeedSweep(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const ProcessSet universe = make_universe(3);
  const View v0 = initial_view(universe);
  explorer::ExplorerConfig config;
  config.steps = 300;
  const auto task = parallel::dvs_spec_task(universe, v0, config);
  parallel::SeedSweepConfig sweep;
  sweep.num_seeds = 8;
  sweep.jobs = jobs;
  for (auto _ : state) {
    const auto result = parallel::sweep_seeds(sweep, task);
    if (result.seeds_failed != 0) state.SkipWithError("seed failed");
    benchmark::DoNotOptimize(result.total);
  }
  state.SetItemsProcessed(state.iterations() * sweep.num_seeds * 300);
}
BENCHMARK(BM_SeedSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ExhaustiveBfs(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const ProcessSet universe = make_universe(2);
  const View v0 = initial_view(universe);
  explorer::ExhaustiveConfig config;
  config.candidate_views = {View{ViewId{1, ProcessId{0}}, universe},
                            View{ViewId{2, ProcessId{0}},
                                 ProcessSet{ProcessId{0}}}};
  config.send_budget = 1;
  config.jobs = jobs;
  std::size_t states = 0;
  for (auto _ : state) {
    const auto stats = explorer::exhaustive_check_dvs_spec(universe, v0, config);
    states = stats.states_visited;
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(states));
}
BENCHMARK(BM_ExhaustiveBfs)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
