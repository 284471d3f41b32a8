// Deterministic multi-threaded seed sweeps over the randomized explorers.
//
// A sweep fans the seeds [first_seed, first_seed + num_seeds) across a
// thread pool, one task per seed. Each seed's exploration is fully
// self-contained (its own automaton copy and Rng), so the only shared
// state is the result table, which is indexed by seed — never by worker —
// and aggregated in seed order after the pool drains. That gives the
// determinism contract the verification harness needs:
//
//   * the aggregated ExplorationStats are byte-identical for any thread
//     count, and identical to a sequential loop over the same seeds;
//   * when one or more seeds fail, the sweep always reports the LOWEST
//     failing seed (with its full failure message), so a counterexample
//     reproduces with `--jobs 1` exactly as it was found with `--jobs N`.
//
// See docs/PERFORMANCE.md for the full contract and measurements.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "explorer/explorer.h"
#include "impl/vs_to_dvs.h"
#include "parallel/thread_pool.h"
#include "shard/shard_chaos.h"
#include "toimpl/dvs_to_to.h"

namespace dvs::parallel {

struct SeedSweepConfig {
  std::uint64_t first_seed = 1;
  std::uint64_t num_seeds = 16;
  /// Worker threads; 0 = hardware_concurrency(). Never more than the
  /// sweep has seeds (resolve_jobs).
  std::size_t jobs = 0;
};

/// The lowest failing seed of a sweep and its failure account (the
/// ExplorationFailure::what(), which embeds the seed and action tail).
struct SeedFailure {
  std::uint64_t seed = 0;
  std::string message;
};

/// A sweep's aggregate: `total` folds the passing seeds' results in seed
/// order and `first_failure` is always the LOWEST failing seed, so every
/// field is byte-identical for any thread count.
template <typename Stats>
struct SweepResult {
  Stats total;
  std::size_t seeds_run = 0;
  std::size_t seeds_failed = 0;
  /// Failure of the lowest failing seed, if any seed failed.
  std::optional<SeedFailure> first_failure;
};

/// The one seed fan-out behind every sweep (explorers, chaos, scenarios):
/// runs `task` for each seed of `config` on a thread pool — a seed fails by
/// throwing, and keeps its what() — then folds the results into `total`
/// with += in seed order. Never throws for seed failures: the sweep always
/// completes every seed and the lowest failing one is known.
template <typename Stats>
[[nodiscard]] SweepResult<Stats> sweep_seeds(
    const SeedSweepConfig& config,
    const std::function<Stats(std::uint64_t seed)>& task, Stats total = {}) {
  struct Slot {
    std::optional<Stats> stats;
    std::string error;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(config.num_seeds));
  {
    ThreadPool pool(resolve_jobs(config.jobs, slots.size()));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      pool.submit([&task, &slot = slots[i],
                   seed = config.first_seed + i]() noexcept {
        try {
          slot.stats = task(seed);
        } catch (const std::exception& e) {
          slot.error = e.what();
        } catch (...) {
          slot.error = "unknown exception";
        }
      });
    }
    pool.wait_idle();
  }
  SweepResult<Stats> result;
  result.total = std::move(total);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ++result.seeds_run;
    if (slots[i].stats.has_value()) {
      result.total += *slots[i].stats;
    } else {
      ++result.seeds_failed;
      if (!result.first_failure.has_value()) {
        result.first_failure =
            SeedFailure{config.first_seed + i, std::move(slots[i].error)};
      }
    }
  }
  return result;
}

using SeedSweepResult = SweepResult<explorer::ExplorationStats>;

/// Runs one seed to completion and returns its stats; throws
/// explorer::ExplorationFailure (or any exception) to report a failure.
using SeedTask =
    std::function<explorer::ExplorationStats(std::uint64_t seed)>;

// ----- canned tasks for the four randomized explorers -----------------------

[[nodiscard]] SeedTask vs_spec_task(ProcessSet universe, View v0,
                                    explorer::ExplorerConfig config);
[[nodiscard]] SeedTask dvs_spec_task(ProcessSet universe, View v0,
                                     explorer::ExplorerConfig config);
[[nodiscard]] SeedTask dvs_impl_task(ProcessSet universe, View v0,
                                     explorer::ExplorerConfig config,
                                     impl::VsToDvsOptions node_options = {});
[[nodiscard]] SeedTask to_impl_task(ProcessSet universe, View v0,
                                    explorer::ExplorerConfig config,
                                    toimpl::DvsToToOptions node_options = {});

// ----- chaos sweeps ----------------------------------------------------------

using ChaosSweepResult = SweepResult<shard::ChaosStats>;

/// Runs the FaultPlan-driven full-stack chaos executions
/// (shard/shard_chaos.h; `chaos.cluster.shards` columns over one pool) for
/// the seeds in `config`, each with the conformance oracles attached. An
/// invalid `chaos` throws std::logic_error before any seed runs
/// (shard::validate). Never throws for seed failures; the lowest failing
/// seed's ChaosFailure message (seed + replayable plan + trace tail) lands
/// in first_failure.
[[nodiscard]] ChaosSweepResult run_chaos_sweep(
    const SeedSweepConfig& config, const shard::ShardChaosConfig& chaos);

}  // namespace dvs::parallel
