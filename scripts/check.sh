#!/usr/bin/env sh
# Full local gate: formatting, release build (the workspace and the
# benchmark package), test suite, lint-clean
# clippy, warning-free rustdoc, campaign smoke runs (including the
# scrub/crash arms, one at default scale), a file-backed store smoke
# cycle, and a network block service smoke (sessioned clients through
# fail + rebuild). It checks correctness only and writes only to a
# temp dir; the test suite runs with TMPDIR set to a fresh directory
# and must leave no backing files in it. Performance is measured by
# benchmark/.
# Run from the repository root: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark build (fails on a pub item it uses going away, or on a lockfile rewrite)"
CARGO_TARGET_DIR=target/benchmark cargo build --release --offline --locked \
    --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q (in a fresh TMPDIR, which it must leave with no decluster-* in it)"
TEST_TMPDIR="$(mktemp -d)"
trap 'rm -rf "$TEST_TMPDIR"' EXIT
TMPDIR="$TEST_TMPDIR" cargo test -q
left="$(find "$TEST_TMPDIR" -mindepth 1 -maxdepth 1 -name 'decluster-*')"
if [ -n "$left" ]; then
    echo "the tests left backing files behind:"; echo "$left"; exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors: broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

SCRUB_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$TEST_TMPDIR" "$SCRUB_SMOKE_DIR"' EXIT

echo "==> campaign smoke (tiny Monte Carlo data-loss campaign + replay, all arms)"
cargo run --release -q -p decluster-bench --bin campaign -- \
    --cylinders 30 --trials 4 \
    --out "$SCRUB_SMOKE_DIR/campaign_smoke.json"
cargo run --release -q -p decluster-bench --bin campaign -- \
    --cylinders 30 --trials 4 --replay declustered-g4 0

echo "==> scrub/crash campaign smoke (arms on)"
cargo run --release -q -p decluster-bench --bin campaign -- \
    --cylinders 30 --trials 2 --scrub-trials 2 --crash-trials 1 \
    --out "$SCRUB_SMOKE_DIR/campaign_scrub_smoke.json"
cargo run --release -q -p decluster-bench --bin campaign -- \
    --cylinders 30 --trials 2 --scrub-trials 2 --crash-trials 1 \
    --replay-scrub declustered-g4 0 on
cargo run --release -q -p decluster-bench --bin campaign -- \
    --cylinders 30 --trials 2 --scrub-trials 2 --crash-trials 1 \
    --replay-crash declustered-g4 0

echo "==> scrub arm at default scale (regression gate for the dead-disk submit panic)"
cargo run --release -q -p decluster-bench --bin campaign -- \
    --trials 1 --scrub-trials 1 --crash-trials 0 \
    --out "$SCRUB_SMOKE_DIR/campaign_default_scale.json"
grep -q '"scrub_trials_per_layout":1' "$SCRUB_SMOKE_DIR/campaign_default_scale.json" || {
    echo "scrub arm did not run at default scale"; exit 1; }

echo "==> store smoke (mkfs / fill / fail / degraded verify / rebuild / verify / scrub)"
STORE_SMOKE_DIR="$SCRUB_SMOKE_DIR/store"
cargo run --release -q -p decluster-bench --bin store -- \
    mkfs "$STORE_SMOKE_DIR" --disks 10 --group 4 --units 336 --unit-bytes 4096
cargo run --release -q -p decluster-bench --bin store -- fill "$STORE_SMOKE_DIR" --seed 5
cargo run --release -q -p decluster-bench --bin store -- verify "$STORE_SMOKE_DIR" --seed 5
cargo run --release -q -p decluster-bench --bin store -- fail "$STORE_SMOKE_DIR" 3
cargo run --release -q -p decluster-bench --bin store -- verify "$STORE_SMOKE_DIR" --seed 5
cargo run --release -q -p decluster-bench --bin store -- rebuild "$STORE_SMOKE_DIR" --threads 4
cargo run --release -q -p decluster-bench --bin store -- verify "$STORE_SMOKE_DIR" --seed 5
cargo run --release -q -p decluster-bench --bin store -- scrub "$STORE_SMOKE_DIR"

echo "==> layout registry smoke (algorithmic generators meet criteria 1-3)"
cargo run --release -q --bin decluster -- layout prime:c11g4 --check
cargo run --release -q --bin decluster -- layout rot:c13g4 --check

echo "==> P+Q store smoke (mkfs pq / fill / fail TWO disks / degraded verify / rebuild / verify)"
PQ_SMOKE_DIR="$SCRUB_SMOKE_DIR/pq-store"
cargo run --release -q -p decluster-bench --bin store -- \
    mkfs "$PQ_SMOKE_DIR" --layout pq:c10g5 --units 200 --unit-bytes 4096
cargo run --release -q -p decluster-bench --bin store -- fill "$PQ_SMOKE_DIR" --seed 9
cargo run --release -q -p decluster-bench --bin store -- fail "$PQ_SMOKE_DIR" 2
cargo run --release -q -p decluster-bench --bin store -- fail "$PQ_SMOKE_DIR" 7
cargo run --release -q -p decluster-bench --bin store -- verify "$PQ_SMOKE_DIR" --seed 9
cargo run --release -q -p decluster-bench --bin store -- rebuild "$PQ_SMOKE_DIR" --threads 4
cargo run --release -q -p decluster-bench --bin store -- verify "$PQ_SMOKE_DIR" --seed 9
cargo run --release -q -p decluster-bench --bin store -- scrub "$PQ_SMOKE_DIR"

echo "==> network block service smoke (4 clients through fill/fail/rebuild/verify)"
cargo run --release -q -p decluster-bench --bin load_gen -- \
    --smoke --out "$SCRUB_SMOKE_DIR/load_gen_smoke.json"

echo "==> hostile-disk torture smoke (fixed seed, ledger + oracle gate)"
cargo run --release -q -p decluster-bench --bin torture -- \
    --smoke --seed 3512496146 --out "$SCRUB_SMOKE_DIR/torture_smoke.json"

echo "==> observability smoke (fig6 --trace record + bit-for-bit replay)"
TRACE_FILE="$SCRUB_SMOKE_DIR/fig6.trace"
cargo run --release -q -p decluster-bench --bin fig_6_1 -- \
    --cylinders 30 --trace "$TRACE_FILE" > /dev/null
cargo run --release -q -p decluster-bench --bin trace -- replay "$TRACE_FILE"

echo "==> probe overhead gate (NoProbe hot path must not regress)"
cargo run --release -q -p decluster-bench --bin probe_overhead

echo "==> all checks passed"
