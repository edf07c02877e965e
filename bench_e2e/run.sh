#!/usr/bin/env bash
# One command for the end-to-end, layered benchmark.
#
#   bench_e2e/run.sh [--seed N] [--seconds S] [--trace] [--smoke] [--sets K] [--record] [workload...]
#   bench_e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1     (the accepting driver's form)
#   bench_e2e/run.sh compare A.json B.json
#
# Builds the `bench` binary from source (offline, release) and runs it from
# the checkout root. Build output goes to $CARGO_TARGET_DIR when set (the
# driver sets it), else to bench_e2e/target. Cargo's own chatter goes to
# stderr; standard output carries only the benchmark's lines.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# A relative CARGO_TARGET_DIR is relative to the checkout root.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/bench" "$@"
