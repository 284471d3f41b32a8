#!/usr/bin/env bash
# Snapshot the google-benchmark microbenchmarks to JSON so perf changes
# diff in review: BENCH_explorer.json, BENCH_micro.json, and BENCH_obs.json
# at the repo root. Run on an idle machine; commit the refreshed files
# alongside any change that claims a speedup.
#
#   $ scripts/bench_snapshot.sh [min_time_seconds] [stack_min_time_seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

MIN_TIME="${1:-0.2}"
# The stack benches run whole simulated episodes (5–50 ms each), so the
# default min_time yields single-digit rep counts — too few for a stable
# median. Give them a longer budget.
STACK_MIN_TIME="${2:-2}"

# Refuse to snapshot an unoptimized build: committed BENCH_*.json from a
# Debug tree would make every perf claim in review meaningless. An empty
# cache entry means the top-level CMakeLists default (RelWithDebInfo)
# applied, which is -O2 -DNDEBUG and fine; anything else needs the
# explicit escape hatch, and the snapshot is tagged with the build type
# either way via --benchmark_context.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
case "$BUILD_TYPE" in
  Release|RelWithDebInfo) ;;
  *)
    if [[ "${DVS_BENCH_ALLOW_NONRELEASE:-0}" != "1" ]]; then
      echo "bench_snapshot.sh: refusing to snapshot a '$BUILD_TYPE' build;" \
           "reconfigure with -DCMAKE_BUILD_TYPE=Release (or set" \
           "DVS_BENCH_ALLOW_NONRELEASE=1 to tag-and-proceed)" >&2
      exit 1
    fi
    echo "bench_snapshot.sh: WARNING: snapshotting a '$BUILD_TYPE' build —" \
         "numbers are not comparable to Release snapshots" >&2
    ;;
esac
BENCH_CONTEXT="--benchmark_context=build_type=${BUILD_TYPE}"

cmake --build build --target bench_explorer bench_micro bench_stack model_checker >/dev/null

./build/bench/bench_explorer \
  "${BENCH_CONTEXT}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >BENCH_explorer.json
./build/bench/bench_micro \
  "${BENCH_CONTEXT}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >BENCH_micro.json
# Full-stack throughput: bursty load {unbatched, batched} and the steady
# stable-view run — the delivered-message counts land in the snapshot for
# review. Wall-clock on a busy machine is noisy at these run lengths; prefer
# comparing the "delivered" labels (deterministic) and treat time ratios as
# indicative. The filter names the benches so BM_StackRestart lands only
# in BENCH_recovery.json. E21's real-UDP axis rides along: one command
# applied on all of n∈{3,5} loopback replicas, and a 50-command burst
# (wall clock; skipped with an error entry under DVS_NO_NET=1).
./build/bench/bench_stack \
  "${BENCH_CONTEXT}" \
  --benchmark_filter='BM_Stack(BurstThroughput|SteadyState)|BM_UdpLoopback(Command|Burst)' \
  --benchmark_min_time="${STACK_MIN_TIME}" \
  --benchmark_format=json >BENCH_stack.json

# Crash-restart cost axis (E19): restart rate {0,1,10}/10k-tick episode on
# the persistent stack, mem- and file-backed. The deterministic labels
# (recoveries, recovery p50, WAL bytes, deliveries) are the review surface;
# wall-clock ratios are indicative only.
./build/bench/bench_stack \
  "${BENCH_CONTEXT}" \
  --benchmark_filter='BM_StackRestart' \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >BENCH_recovery.json

# Scenario-engine axis (E22): one full scenario seed per iteration,
# faultless closed loop vs crash-restart churn. The deterministic label
# counters (completed, commits, views, restarts, avail_ppm) are the review
# surface; wall-clock ratios are indicative only.
./build/bench/bench_stack \
  "${BENCH_CONTEXT}" \
  --benchmark_filter='BM_Scenario' \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >BENCH_scenario.json

# Sharding axes: multi-group scaling (E23 — K∈{1,4,16,64} columns over one
# fixed 8-node pool at replication 2; aggregate commit counters must grow
# monotonically with K) and migration cost vs column state size (E24 —
# S∈{16,128,1024} pre-loaded commands journal-snapshotted, transferred and
# replayed when a host departs a dynamic pool). 'BM_Shard' deliberately
# matches both BM_ShardedThroughput and BM_ShardMigration; deterministic
# counters are the review surface, wall-clock ratios indicative only.
./build/bench/bench_stack \
  "${BENCH_CONTEXT}" \
  --benchmark_filter='BM_Shard' \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_format=json >BENCH_shard.json

# Aggregated metric snapshot of the chaos smoke sweep (deterministic: the
# same seeds give the same bytes on every machine), so the stack-level
# counters and latency histograms diff in review alongside the microbenches.
./build/examples/model_checker --chaos --smoke --metrics --jobs 4 >BENCH_obs.json
# The same sweep over the batched transport: net.batch_* counters plus the
# datagram/byte reduction diff in review next to the unbatched snapshot.
./build/examples/model_checker --chaos --smoke --metrics --batch --jobs 4 >BENCH_obs_batched.json

echo "wrote BENCH_explorer.json, BENCH_micro.json, BENCH_stack.json," \
     "BENCH_recovery.json, BENCH_scenario.json, BENCH_shard.json," \
     "BENCH_obs.json, BENCH_obs_batched.json (min_time=${MIN_TIME}s)"
