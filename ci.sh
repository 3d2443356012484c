#!/usr/bin/env bash
# Tier-1 gate for this repository. Run from the repo root:
#
#   ./ci.sh
#
# Every PR must leave every stage green. The workspace has no network
# dependencies (external crates are vendored as shims under shims/), so this
# runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "=== 1/9 cargo fmt --check + benchmark/Cargo.lock still resolves ==="
cargo fmt --check
# benchmark/run.sh builds --offline --locked, and benchmark/Cargo.lock lists
# the dependency names of the facade, every library crate and the shims they
# use. A PR that adds or removes a dependency edge among those packages
# cannot update that lock file (builder PRs may not edit benchmark/), so
# fail here, in a second, rather than at stage 9.
cargo metadata --offline --locked --format-version 1 \
  --manifest-path benchmark/Cargo.toml > /dev/null

echo "=== 2/9 cargo build --release ==="
cargo build --release

echo "=== 3/9 cargo test -q at AMPED_THREADS in {1, 2, 4}, bit contracts portable ==="
# The whole suite, three times: every bit contract (kernel paths, OOC engine
# on sorted chunks, dense update, cp_als on both engines) and everything
# else must hold whatever the host worker pool is, not just at this host's
# default. About 90 s per warm pass on 2 vCPUs.
for threads in 1 2 4; do
  AMPED_THREADS=$threads cargo test -q
done
# .cargo/config.toml builds for x86-64-v3 (AVX2 + FMA). The bit contracts
# must not depend on it: the goldens, the kernel paths, the dense update,
# every searched TuneParams candidate and the chunk decoder (amped-stream's
# own tests: recycled and fresh reads, fuzzed sections) once more at the
# portable x86-64 baseline (SSE2), in a target directory of their own so the
# two builds do not evict each other.
if [ "$(uname -m)" = x86_64 ]; then
  RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q --test runtime_equivalence --test prop_kernel_runs \
    --test prop_dense_update --test autotune_engine
  RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q -p amped-stream
fi

echo "=== 4/9 cargo clippy --all-targets -- -D warnings ==="
cargo clippy --all-targets -- -D warnings

echo "=== 5/9 cargo doc --no-deps (warnings denied) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "=== 6/9 every example + figures fig10 (smoke) ==="
# The single-node examples, each through the in-core engine's public
# constructor: quickstart checks mode 0 against the reference MTTKRP and
# runs a full iteration, cpd_als checks CP-ALS recovers a planted rank-6 tensor,
# twitch_5mode runs every system on a five-mode tensor and
# multi_gpu_scaling times 1 to 4 GPUs. None writes a file.
for example in quickstart cpd_als twitch_5mode multi_gpu_scaling; do
  cargo run --release --example "$example"
done
# The out-of-core path end to end: TnsbWriter → sorted sections → StreamPlan
# → streamed CP-ALS, verified against the in-core oracle by the example
# itself. It works in a directory of its own under the temp directory and
# must leave nothing there.
ooc_tmp="$(mktemp -d)"
TMPDIR="$ooc_tmp" cargo run --release --example stream_ooc
if [ -n "$(ls -A "$ooc_tmp")" ]; then
  echo "stream_ooc left files behind in its temp directory:" >&2
  ls -A "$ooc_tmp" >&2
  exit 1
fi
rmdir "$ooc_tmp"
# Every baseline system on an 800 k-nnz tensor larger than one scaled GPU:
# AMPED and BLCO stream it (BLCO pricing each linearized block; the
# baselines are models and run no MTTKRP), MM-CSF, ParTI and FLYCOO must
# fail with out-of-memory rather than panic.
cargo run --release --example out_of_core
# Preprocessing wall against BLCO's linearization, with the wall split into
# sort / pricing busy-seconds — the one bin that reports setup next to an
# external preprocessor. Printed, not gated (wall time).
cargo run --release -p amped-bench --bin figures -- --out target/figures fig10

echo "=== 7/9 trace_export (observability artifacts, self-validating) ==="
# Small ALS runs on both engines with metrics + span tracing attached. The
# binary asserts its own output: the Chrome traces parse through the
# serde_json shim, carry one named track per device with nested
# iteration/mode/shard slices, and the Prometheus exposition carries the
# engine and runtime counters. A non-zero exit means the observability
# layer broke.
cargo run --release -p amped-bench --bin trace_export target/trace_export

echo "=== 8/9 amped-check lint + bounded-interleaving suites ==="
# The architectural gate (DESIGN.md §14). The lint must exit zero against
# the committed check-baseline.toml — any NEW violation (stray atomic or
# thread spawn outside the concurrency layer, naked unwrap in lib code,
# unjustified Ordering::Relaxed, f32 += outside the kernel layer, duplicate
# warn_once key, fixed name under temp_dir()) fails the build; frozen legacy
# debt does not. The three interleaving suites then re-prove the
# claim-counter, plan_modes, and OOC prefetch protocols over every bounded
# schedule.
cargo run -q -p amped-check -- lint
cargo test -q -p amped-check --test interleave_claim \
  --test interleave_plan_modes --test interleave_prefetch

echo "=== 9/9 benchmark/check.sh (the benchmark's own gate + smoke run) ==="
# benchmark/ is a standalone package (own workspace, lock file and target
# directory): fmt, clippy, its unit tests, and a smoke run of every workload
# through both passes against the current tree — which also proves every
# name in benchmark/src/surface.rs still compiles.
bash benchmark/check.sh

echo "CI green."
