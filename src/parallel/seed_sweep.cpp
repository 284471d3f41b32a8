#include "parallel/seed_sweep.h"

#include <utility>

#include "explorer/to_explorer.h"

namespace dvs::parallel {

ChaosSweepResult run_chaos_sweep(const SeedSweepConfig& config,
                                 const shard::ShardChaosConfig& chaos) {
  shard::validate(chaos);
  return sweep_seeds<shard::ChaosStats>(config, [&chaos](std::uint64_t seed) {
    return shard::run_chaos_seed(seed, chaos);
  });
}

SeedTask vs_spec_task(ProcessSet universe, View v0,
                      explorer::ExplorerConfig config) {
  return [universe = std::move(universe), v0 = std::move(v0),
          config](std::uint64_t seed) {
    explorer::VsSpecExplorer ex(universe, v0, config, seed);
    return ex.run();
  };
}

SeedTask dvs_spec_task(ProcessSet universe, View v0,
                       explorer::ExplorerConfig config) {
  return [universe = std::move(universe), v0 = std::move(v0),
          config](std::uint64_t seed) {
    explorer::DvsSpecExplorer ex(universe, v0, config, seed);
    return ex.run();
  };
}

SeedTask dvs_impl_task(ProcessSet universe, View v0,
                       explorer::ExplorerConfig config,
                       impl::VsToDvsOptions node_options) {
  return [universe = std::move(universe), v0 = std::move(v0), config,
          node_options](std::uint64_t seed) {
    explorer::DvsImplExplorer ex(universe, v0, config, seed, node_options);
    return ex.run();
  };
}

SeedTask to_impl_task(ProcessSet universe, View v0,
                      explorer::ExplorerConfig config,
                      toimpl::DvsToToOptions node_options) {
  return [universe = std::move(universe), v0 = std::move(v0), config,
          node_options](std::uint64_t seed) {
    explorer::ToImplExplorer ex(universe, v0, config, seed, node_options);
    return ex.run();
  };
}

}  // namespace dvs::parallel
