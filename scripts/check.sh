#!/usr/bin/env bash
# Full local gate: configure, build, test, sanitize (ASan/UBSan + TSan),
# bench-smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reuse whatever generator an existing build dir was configured with; only
# ask for Ninja on a fresh configure (CMake errors on a generator switch).
configure() {
  local dir="$1"; shift
  if [[ -f "$dir/CMakeCache.txt" ]]; then
    cmake -B "$dir" "$@" >/dev/null
  else
    cmake -B "$dir" -G Ninja "$@" >/dev/null
  fi
}

echo "== release-ish build + tests =="
configure build
cmake --build build
ctest --test-dir build --output-on-failure

echo "== ASan/UBSan build + tests =="
configure build-asan -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build build-asan
ctest --test-dir build-asan --output-on-failure
# Chaos conformance smoke under ASan: FaultPlan-driven full-stack runs with
# the spec oracles attached (short sweep; the long one is E16).
./build-asan/examples/model_checker --chaos --smoke --jobs 2
./build-asan/examples/model_checker --chaos --smoke --erratum --jobs 2

echo "== obs gate (ASan) =="
# The observability suites in isolation: metrics/trace unit semantics,
# per-seed byte-identity, and the chaos metric sanity relations.
ctest --test-dir build-asan -L obs --output-on-failure
# The merged metric snapshot must serialize byte-identically no matter how
# many workers ran the sweep.
./build/examples/model_checker --chaos --smoke --metrics --jobs 4 | tee /tmp/chaos_metrics_j4.json >/dev/null
./build/examples/model_checker --chaos --smoke --metrics --jobs 1 | cmp - /tmp/chaos_metrics_j4.json
# The committed deterministic snapshots pin the simulator's behaviour: the
# smoke sweep's metric export must reproduce them byte for byte
# (scripts/bench_snapshot.sh writes both; refresh them with any change that
# is meant to alter the simulated runs).
./build/examples/model_checker --chaos --smoke --metrics --jobs 4 | cmp - BENCH_obs.json
./build/examples/model_checker --chaos --smoke --metrics --batch --jobs 4 | cmp - BENCH_obs_batched.json
# A chaos config no seed can run (here an empty pool) is a harness error,
# exit 2: never a counterexample, and never a passed erratum self-test.
rc=0
./build/examples/model_checker --chaos --smoke --erratum --jobs 1 0 2 >/dev/null || rc=$?
[[ $rc -eq 2 ]] || { echo "invalid chaos config exited $rc, want 2"; exit 1; }

echo "== batch gate (ASan) =="
# The batching/delta suites in isolation: BATCH framing round-trips and
# corruption fuzz, batched-vs-unbatched cluster equivalence, delta state
# exchange reconstruction, and the batched soak. ASan catches any buffer
# mistake in the framing hot path.
ctest --test-dir build-asan -L batch --output-on-failure
# Chaos conformance smoke with batching on: same seeds, same oracles, the
# coalesced wire path underneath.
./build-asan/examples/model_checker --chaos --smoke --batch --jobs 2

echo "== recovery gate (ASan) =="
# Crash-restart persistence under ASan: the WAL corruption fuzz (bit flips,
# truncation at every byte, duplicated records), the one-file journal's
# crash-prefix sweeps (WalFuzzTest.Journal*, StableStoreTest.FileStore*),
# dvsd's write-before-send order and the crash-point sweep (a restart
# injected at every persistence barrier) are exactly where a framing bounds
# mistake or a teardown use-after-free would hide.
ctest --test-dir build-asan -R 'WalFormatTest|WalFuzzTest|StableStoreTest|LayerJournalTest|ToJournalTest|ExchangeJournalTest|CrashPointSweepTest|DvsdWakeOrderTest' \
  --output-on-failure
# Chaos conformance smoke with the restart adversary: kCrash upgraded to
# genuine crash-restart plus scripted kRestart events, oracles online.
./build-asan/examples/model_checker --chaos --smoke --restart --jobs 2

echo "== perf gate (ASan) =="
# The allocation-free hot path under ASan: the arena/ring/pool containers
# hand out recycled storage, which is exactly where a stale handle, a
# wrapped index, or a use-after-release would hide. (The exact-zero
# allocation assertion self-relaxes under sanitizers — instrumentation
# allocates; the plain build above enforces the strict zero.)
ctest --test-dir build-asan -L perf --output-on-failure
# The thread sanitizer gate covers the multi-threaded subsystem: the seed
# sweeps, the sharded parallel BFS, and the thread pool itself.
configure build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
cmake --build build-tsan --target parallel_test obs_test model_checker
./build-tsan/tests/parallel_test
# Metrics registry under TSan: the concurrent-increment and find-or-create
# suites hammer the per-metric atomics from many threads.
./build-tsan/tests/obs_test --gtest_filter='MetricsConcurrencyTest.*'
./build-tsan/examples/model_checker --jobs 4 2 500 8
./build-tsan/examples/model_checker --exhaustive 2 --jobs 4
# Chaos smoke under TSan: the chaos sweep shares the thread pool, and the
# report must be byte-identical regardless of worker count.
./build-tsan/examples/model_checker --chaos --smoke --jobs 4 | tee /tmp/chaos_tsan_j4.txt
./build-tsan/examples/model_checker --chaos --smoke --jobs 1 | cmp - /tmp/chaos_tsan_j4.txt
# Batched chaos smoke under TSan: per-worker Batcher instances must not
# share state, and the merged report (incl. batch counters) must not depend
# on the worker count.
cmake --build build-tsan --target batch_equivalence_test
./build-tsan/tests/batch_equivalence_test \
  --gtest_filter='*Parallel*:*MergesIdentically*'
./build-tsan/examples/model_checker --chaos --smoke --batch --jobs 4 | tee /tmp/chaos_tsan_batch_j4.txt
./build-tsan/examples/model_checker --chaos --smoke --batch --jobs 1 | cmp - /tmp/chaos_tsan_batch_j4.txt
# The recycled containers under TSan's allocator.
cmake --build build-tsan --target alloc_free_test
./build-tsan/tests/alloc_free_test
# Restart differential under TSan: pause-vs-restart semantics on the same
# seeds across worker counts, and the restart chaos report must stay
# byte-identical at any --jobs (per-seed MemStableStores must not share).
cmake --build build-tsan --target restart_differential_test
./build-tsan/tests/restart_differential_test \
  --gtest_filter='*ThreadCountIndependent*:*ScriptedRestart*'
./build-tsan/examples/model_checker --chaos --smoke --restart --jobs 4 | tee /tmp/chaos_tsan_restart_j4.txt
./build-tsan/examples/model_checker --chaos --smoke --restart --jobs 1 | cmp - /tmp/chaos_tsan_restart_j4.txt

echo "== transport gate (ASan) =="
# The real-transport suites under ASan: the Sim-vs-UDP backend conformance
# contract, the byte-order golden vectors every wire/disk format depends
# on, the in-process sim-vs-real differential, and the forked 3-process
# dvsd crash/rejoin/audit test — real sockets, real processes, real
# SIGKILL. The localhost test forks the ASan-instrumented dvsd binary, so
# the daemon's socket/WAL/trace paths run instrumented too.
ctest --test-dir build-asan -L transport --output-on-failure
# The DVS_NO_NET=1 escape hatch must cleanly skip every real-socket test
# (sandboxes without loopback still get the sim half of the label).
DVS_NO_NET=1 ctest --test-dir build -L transport --output-on-failure
# End-to-end deployment smoke: a real 3-node cluster via the launcher —
# workload, SIGKILL, WAL restart, rejoin, offline audit must say PASS.
CLUSTER_DIR=/tmp/dvs-check-cluster CLUSTER_PORT=9400 ./scripts/cluster.sh demo
# The offline auditor is deterministic: re-auditing the same trace dir
# must produce a byte-identical report.
./build/examples/model_checker --audit /tmp/dvs-check-cluster/traces | tee /tmp/dvs_audit_1.txt >/dev/null
./build/examples/model_checker --audit /tmp/dvs-check-cluster/traces | cmp - /tmp/dvs_audit_1.txt

echo "== workload gate (ASan) =="
# The scenario engine suites under ASan: generator laws, .scn round-trip
# and rejection, the churn-vs-hand-built FaultPlan differential, the
# golden determinism tests, and the churn+WAN soak at reduced scale (the
# full 50k-tick run is the plain-build ctest registration).
DVS_SOAK_SCALE=10 ctest --test-dir build-asan -L workload --output-on-failure
# The soak's multi-threaded sweep under TSan: two seeds share the thread
# pool, per-seed clusters/stores must not share state.
cmake --build build-tsan --target scenario_soak_test workload_test
./build-tsan/tests/workload_test
DVS_SOAK_SCALE=20 ./build-tsan/tests/scenario_soak_test
# The SLO report is byte-identical at any worker count for every canonical
# scenario — the determinism contract the golden tests pin, re-checked on
# the real CLI surface.
for scn in scenarios/steady.scn scenarios/diurnal-burst.scn scenarios/churn-storm.scn; do
  ./build/examples/model_checker --scenario "$scn" --jobs 4 | tee /tmp/scn_j4.json >/dev/null
  ./build/examples/model_checker --scenario "$scn" --jobs 1 | cmp - /tmp/scn_j4.json
done
# The steady swarm against a real 3-node dvsd cluster: deterministic client
# streams over the control sockets, digest agreement, audit PASS.
CLUSTER_DIR=/tmp/dvs-check-scenario CLUSTER_PORT=9500 ./scripts/cluster.sh scenario 5

echo "== shard gate (ASan) =="
# The sharded-subgroup suites under ASan: provisioning laws, group-frame
# round-trips, router laws and the targeted-fault isolation suite. ASan
# watches the GroupMux framing and the per-column teardown.
ctest --test-dir build-asan -L shard --output-on-failure
# Sharded chaos smoke under ASan: K columns over one 5-node pool, faults on
# the shared network, every shard's oracle online.
./build-asan/examples/model_checker --chaos --smoke --shards 3 --replication 2 --jobs 2 5 15
# Isolation soak under TSan, then the K=1 pool (the unsharded simulation,
# pool membership group included) swept at two worker counts: per-seed
# pools must stay fully private, and the merged metric export — per-shard
# values and their bare-key rollups — must not depend on the worker count.
cmake --build build-tsan --target shard_isolation_test
./build-tsan/tests/shard_isolation_test
./build-tsan/examples/model_checker --chaos --smoke --shards 1 --metrics --jobs 4 | tee /tmp/chaos_tsan_k1_j4.json >/dev/null
./build-tsan/examples/model_checker --chaos --smoke --shards 1 --metrics --jobs 1 | cmp - /tmp/chaos_tsan_k1_j4.json
# The same at K=3 r=2: every seed owns a GroupMux (and its scratch
# encode/decode buffers) inside the worker pool, and the three columns'
# frames share that one mux.
./build-tsan/examples/model_checker --chaos --smoke --shards 3 --replication 2 --metrics --jobs 4 | tee /tmp/chaos_tsan_k3_j4.json >/dev/null
./build-tsan/examples/model_checker --chaos --smoke --shards 3 --replication 2 --metrics --jobs 1 | cmp - /tmp/chaos_tsan_k3_j4.json
# The sharded scenario's SLO report is byte-identical at any worker count —
# the same determinism contract the unsharded scenarios pin above.
./build/examples/model_checker --scenario scenarios/sharded-steady.scn --jobs 4 | tee /tmp/scn_shard_j4.json >/dev/null
./build/examples/model_checker --scenario scenarios/sharded-steady.scn --jobs 1 | cmp - /tmp/scn_shard_j4.json
# The sharded swarm against a real dvsd cluster: multi-column daemons (the
# .scn's shard topology mirrored into the node configs), per-shard digest
# agreement across every replica, and a per-group trace audit PASS.
SCENARIO_FILE=scenarios/sharded-steady.scn CLUSTER_DIR=/tmp/dvs-check-shard CLUSTER_PORT=9600 ./scripts/cluster.sh scenario 5

echo "== reprovision gate (ASan) =="
# The dynamic re-provisioning suites under ASan: plan and transfer-codec
# laws, the router pool-view regression, the stable-pool byte-inertness
# differential (seed count shrunk here; the full 200-seed sweep is the
# plain-build ctest registration above), migration safety under a killed
# replica, and the crash-point sweep over every state-transfer persistence
# barrier. ASan watches snapshot chunking, reassembly and column cutover.
DVS_REPROVISION_SEEDS=25 ctest --test-dir build-asan -L reprovision --output-on-failure
# Migration differential determinism under TSan: the sweep's worker pool
# must keep per-seed ShardClusters fully private, and the stable-pool
# verdicts must not depend on the worker count.
cmake --build build-tsan --target reprovision_test
DVS_REPROVISION_SEEDS=10 ./build-tsan/tests/reprovision_test \
  --gtest_filter='*SweepIsJobsInvariant*:*StablePoolIsByteInert*'
# The dynamic churn scenario's SLO report — migrations included — is
# byte-identical at any worker count.
./build/examples/model_checker --scenario scenarios/reprovision-churn.scn --jobs 4 | tee /tmp/scn_reprov_j4.json >/dev/null
./build/examples/model_checker --scenario scenarios/reprovision-churn.scn --jobs 1 | cmp - /tmp/scn_reprov_j4.json
# Real-cluster migration demo: a 4-node K=4 r=2 dynamic pool, one host
# SIGKILLed, its column slots re-provisioned onto survivors with state
# transfer, workload against the refreshed map, per-group audit PASS.
CLUSTER_DIR=/tmp/dvs-check-migrate CLUSTER_PORT=9700 ./scripts/cluster.sh migrate

echo "== bench smoke =="
# Driven from the sources, not from build/bench/*: CMake never deletes the
# binary of a removed target, so a glob over the build dir would run a
# stale bench whose source is gone.
for src in bench/bench_*.cpp; do
  b="build/bench/$(basename "$src" .cpp)"
  echo "--- $b"
  case "$b" in
    *bench_micro|*bench_explorer|*bench_stack)
      "$b" --benchmark_min_time=0.05 ;;
    *bench_availability|*bench_recovery|*bench_throughput|*bench_parallel)
      "$b" --smoke ;;
    *)
      "$b" ;;
  esac
done
echo "--- build/bench/dvs_bench"
build/bench/dvs_bench --smoke

echo "== examples =="
./build/examples/quickstart
./build/examples/model_checker 3 1000 3
./build/examples/model_checker --jobs 2 3 1000 3
./build/examples/model_checker --exhaustive 2
./build/examples/model_checker --exhaustive 2 --jobs 2

echo "ALL CHECKS PASSED"
