#!/usr/bin/env bash
# End-to-end served-HE benchmark (README.md in this directory).
#
# Builds hentt-daemon and the hentt_e2e load generator from this
# checkout, runs the generator's self-test, then one workload:
#
#   bench/e2e/run.sh --workload tiny --seed 1 [--seconds 25] [--trace 0|1]
#
# or every workload in turn:
#
#   bench/e2e/run.sh --seed 1 [--trace] [--smoke] [--results DIR]
#
# Each run prints its metrics as "workload.metric value unit", writes a
# run file (JSON) under --results, and prints as its last line the JSON
# summary of the metrics BENCHMARK.json declares. Run from the root of
# the checkout. The build goes to $CARGO_TARGET_DIR/e2e (default
# .bench_build/e2e).
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}/e2e
# Relative, so the daemon's socket path stays short.
build=$(realpath -m --relative-to=. "$build")

workloads=(tiny tower wide mixed)
seconds=25
trace=0
results=$build/runs
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --results) results=$2; shift 2 ;;
        --trace)
            if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then
                trace=$2; shift 2
            else
                trace=1; shift
            fi ;;
        *) args+=("$1"); shift ;;
    esac
done

jobs=$(nproc)
[ "$jobs" -gt 4 ] && jobs=4
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    command -v ninja > /dev/null && generator=(-G Ninja)
    cmake -S bench/e2e -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --parallel "$jobs" >&2
"$build/hentt_e2e" --self-test --seconds "$seconds" >&2

mkdir -p "$results"
status=0
for workload in "${workloads[@]}"; do
    run_file=$results/$workload-$(date +%Y%m%dT%H%M%S%N).json
    rc=0
    "$build/hentt_e2e" --workload "$workload" --seconds "$seconds" \
        --trace "$trace" --out "$build" --json "$run_file" \
        "${args[@]}" || rc=$?
    if [ -f "$run_file" ]; then
        python3 bench/e2e/summary.py BENCHMARK.json "$run_file" || rc=1
    fi
    [ "$rc" -eq 0 ] || status=$rc
done
exit "$status"
