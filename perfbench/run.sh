#!/usr/bin/env bash
# Builds gem5prof-served and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload experiments_cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build) and to
# stderr, so the last line of stdout is the benchmark's result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/server ] || [ ! -d tests/golden ]; then
    echo "perfbench: run from the repository root (crates/ and tests/golden/ not found)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p gem5prof-served --bin gem5prof-served >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --daemon "$target/release/gem5prof-served" "$@"
