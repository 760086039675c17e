#!/usr/bin/env bash
# The benchmark's own gate: formatting, lints, unit tests, and a smoke
# pass (2.5 s runs, 1 680 units/disk) over every workload, untraced
# and traced, with every correctness check and a schema check of what
# it wrote.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
manifest=(--manifest-path "$here/Cargo.toml")

cargo fmt "${manifest[@]}" --check
cargo clippy --offline --quiet "${manifest[@]}" --all-targets -- -D warnings
cargo test --offline --quiet "${manifest[@]}"
"$here/run.sh" --smoke > /dev/null
"$here/run.sh" --smoke --traced --workload healthy-small > /dev/null
"$CARGO_TARGET_DIR/release/decluster-benchmark" check-schema "$here/out"
echo "benchmark check: ok"
