#!/usr/bin/env bash
# Builds dvsd and dvs_bench from this checkout's sources, then runs
# dvs_bench with the given arguments. Run it from the repository root:
#
#   bash bench/e2e/run.sh --workload trickle --seed 1 --seconds 10 --trace 0
#
# The build lives in .bench_build/e2e and its output goes to stderr, so
# stdout carries only dvs_bench's report. Run directories go under
# .bench_build/tmp, inside the checkout.
set -euo pipefail

build=.bench_build/e2e
cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
cmake --build "$build" -j "$(nproc)" >&2

export TMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$TMPDIR"
exec "$build/dvs_bench" "$@"
