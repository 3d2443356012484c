#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests, and a smoke run of
# every workload and both passes (all scales / 50, 3 iterations, < 20 s).
# A later change can add this as one line of ci.sh.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest=(--manifest-path "$here/Cargo.toml")
cargo fmt "${manifest[@]}" --check
cargo clippy --offline --locked "${manifest[@]}" --all-targets -- -D warnings
cargo test --offline --locked "${manifest[@]}"
bash "$here/run.sh" --smoke --out "$here/out/smoke"
