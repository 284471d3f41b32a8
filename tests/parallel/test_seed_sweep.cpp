// Determinism contract of the parallel seed sweeps: the aggregated stats
// and the reported (lowest) failing seed must be byte-identical for any
// worker count — see docs/PERFORMANCE.md.
#include "parallel/seed_sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "common/types.h"
#include "common/view.h"
#include "explorer/explorer.h"
#include "parallel/thread_pool.h"

namespace dvs::parallel {
namespace {

explorer::ExplorerConfig small_config() {
  explorer::ExplorerConfig config;
  config.steps = 400;
  return config;
}

SeedSweepResult sweep_with_jobs(const SeedTask& task, std::size_t jobs,
                                std::uint64_t num_seeds = 64) {
  SeedSweepConfig config;
  config.first_seed = 1;
  config.num_seeds = num_seeds;
  config.jobs = jobs;
  return sweep_seeds(config, task);
}

void expect_equal(const SeedSweepResult& a, const SeedSweepResult& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.seeds_run, b.seeds_run);
  EXPECT_EQ(a.seeds_failed, b.seeds_failed);
  ASSERT_EQ(a.first_failure.has_value(), b.first_failure.has_value());
  if (a.first_failure.has_value()) {
    EXPECT_EQ(a.first_failure->seed, b.first_failure->seed);
    EXPECT_EQ(a.first_failure->message, b.first_failure->message);
  }
}

TEST(SeedSweepTest, ResolveJobs) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
  // Never more workers than tasks, never fewer than one.
  EXPECT_EQ(resolve_jobs(1'000'000, 3), 3u);
  EXPECT_EQ(resolve_jobs(2, 3), 2u);
  EXPECT_EQ(resolve_jobs(4, 0), 1u);
  EXPECT_GE(resolve_jobs(0, 2), 1u);
  EXPECT_LE(resolve_jobs(0, 2), 2u);
}

TEST(SeedSweepTest, AggregateMatchesSequentialLoop) {
  const ProcessSet universe = make_universe(3);
  const View v0 = initial_view(universe);
  const SeedTask task = dvs_spec_task(universe, v0, small_config());

  explorer::ExplorationStats expected;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    explorer::DvsSpecExplorer ex(universe, v0, small_config(), seed);
    expected += ex.run();
  }

  const SeedSweepResult swept = sweep_with_jobs(task, 4);
  EXPECT_EQ(swept.total, expected);
  EXPECT_EQ(swept.seeds_run, 64u);
  EXPECT_EQ(swept.seeds_failed, 0u);
  EXPECT_FALSE(swept.first_failure.has_value());
}

TEST(SeedSweepTest, StatsIdenticalAcrossThreadCounts) {
  const ProcessSet universe = make_universe(3);
  const View v0 = initial_view(universe);

  for (const SeedTask& task :
       {vs_spec_task(universe, v0, small_config()),
        dvs_impl_task(universe, v0, small_config()),
        to_impl_task(universe, v0, small_config())}) {
    const SeedSweepResult one = sweep_with_jobs(task, 1);
    const SeedSweepResult two = sweep_with_jobs(task, 2);
    const SeedSweepResult eight = sweep_with_jobs(task, 8);
    expect_equal(one, two);
    expect_equal(one, eight);
    EXPECT_FALSE(one.first_failure.has_value());
  }
}

// Re-inject the paper's printed-figure erratum (the uncorrected Figure 4
// pseudocode): many seeds catch the DVS-SAFE violation. Whatever the
// thread count, the sweep must finish every seed and name the LOWEST
// failing one, so the counterexample found with --jobs 8 replays exactly
// with --jobs 1.
TEST(SeedSweepTest, LowestFailingSeedIsThreadCountIndependent) {
  const ProcessSet universe = make_universe(2);
  const View v0 = initial_view(universe);
  explorer::ExplorerConfig config;
  config.steps = 1500;
  impl::VsToDvsOptions printed;
  printed.printed_figure_mode = true;
  const SeedTask task = dvs_impl_task(universe, v0, config, printed);

  const SeedSweepResult one = sweep_with_jobs(task, 1);
  const SeedSweepResult two = sweep_with_jobs(task, 2);
  const SeedSweepResult eight = sweep_with_jobs(task, 8);

  ASSERT_TRUE(one.first_failure.has_value())
      << "expected the erratum to produce failing seeds in [1, 64]";
  EXPECT_GT(one.seeds_failed, 0u);
  EXPECT_EQ(one.seeds_run, 64u);
  EXPECT_NE(one.first_failure->message.find("DVS-SAFE"), std::string::npos);
  expect_equal(one, two);
  expect_equal(one, eight);

  // The reported seed really is the lowest failing one: every seed below
  // it passes when run alone.
  for (std::uint64_t seed = 1; seed < one.first_failure->seed; ++seed) {
    EXPECT_NO_THROW((void)task(seed)) << "seed " << seed;
  }
  EXPECT_THROW((void)task(one.first_failure->seed),
               explorer::ExplorationFailure);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasksAcrossWaves) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.submit([&counter]() noexcept { ++counter; });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (wave + 1) * 100);
  }
}

}  // namespace
}  // namespace dvs::parallel
