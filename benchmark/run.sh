#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
#                    [--traced] [--smoke]
#
# Without --workload every workload runs in turn, one process each, and
# the exit status is non-zero if any of them failed. Results land in
# benchmark/out/<workload>.json (and .layers.json, trace-*.jsonl when
# traced); the last line of each run is the result as one JSON object.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}

workload=
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload=${2:?--workload needs a name}; shift 2 ;;
        --traced) args+=(--trace 1); shift ;;
        *) args+=("$1"); shift ;;
    esac
done

# Cargo's own output goes to stderr; stdout carries only results.
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/decluster-benchmark

if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" --out "$here/out" "${args[@]}"
fi
status=0
for w in healthy-small degraded-small rebuild-small healthy-large server-small sim-recon; do
    "$bin" --workload "$w" --out "$here/out" "${args[@]}" || status=1
done
exit $status
