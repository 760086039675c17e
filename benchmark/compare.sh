#!/usr/bin/env bash
# benchmark/compare.sh A B: compares two sets of results files (two
# copies of benchmark/out/, or two directories with one copy per pass).
# Prints, per metric and workload, both medians, their ratio with its
# base and the bound; exits non-zero when a pair differs by more than
# its bound or a result is missing on a side.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/target}
[ $# -eq 2 ] || { echo "usage: $0 DIR_A DIR_B" >&2; exit 2; }
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/decluster-benchmark" compare "$1" "$2"
