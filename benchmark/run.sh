#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--out DIR] [--smoke]
#
# Without --workload every workload runs; without --trace both passes run
# (end to end, then per layer). The last line of standard output is one JSON
# object with the operation counts and, for one workload and one pass, that
# pass's metrics. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/amped-benchmark"
out=("--out" "$here/out")
for arg in "$@"; do
    if [ "$arg" = "--out" ]; then out=(); fi
done
exec "$bin" run "${out[@]}" "$@"
