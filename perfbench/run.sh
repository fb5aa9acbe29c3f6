#!/usr/bin/env bash
# Builds `qpp` and the benchmark from this checkout, then runs one
# benchmark invocation from the checkout root:
#
#   bash perfbench/run.sh --workload serve_zipf --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the result object is the last line of
# stdout. Builds land in $CARGO_TARGET_DIR (default .bench_build), run
# files in .perfbench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin qpp 1>&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" 1>&2
exec "$target/release/perfbench" --qpp "$target/release/qpp" --out "$root/.perfbench" "$@"
