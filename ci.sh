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

echo "=== 1/15 cargo fmt --check ==="
cargo fmt --check

echo "=== 2/15 cargo build --release ==="
cargo build --release

echo "=== 3/15 cargo test -q at AMPED_THREADS in {1, 2, 4} ==="
# The whole suite, three times: every bit contract (kernel paths, OOC engine
# on sorted chunks, dense update, cp_als on both engines) and everything
# else must hold whatever the host worker pool is, not just at this host's
# default. About 90 s per warm pass on 2 vCPUs.
for threads in 1 2 4; do
  AMPED_THREADS=$threads cargo test -q
done

echo "=== 4/15 cargo clippy --all-targets -- -D warnings ==="
cargo clippy --all-targets -- -D warnings

echo "=== 5/15 cargo doc --no-deps (warnings denied) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "=== 6/15 cargo bench -p amped-bench -- --test (smoke) ==="
cargo bench -p amped-bench -- --test

echo "=== 7/15 cluster example + figures fig10 (smoke) ==="
# The multi-node path end to end: ClusterSpec → SimRuntime::cluster →
# HierarchicalCcp → hierarchical all-gather, through the unchanged engine.
cargo run --release --example cluster
# Preprocessing wall against BLCO's linearization, with the wall split into
# sort / statistics / pricing busy-seconds — the one bin that reports setup
# next to an external preprocessor. Printed, not gated (wall time).
cargo run --release -p amped-bench --bin figures -- --out target/figures fig10

echo "=== 8/15 trace_export (observability artifacts, self-validating) ==="
# Small ALS runs on both engines with metrics + span tracing attached. The
# binary asserts its own output: the Chrome traces parse through the
# serde_json shim, carry one named track per device with nested
# iteration/mode/shard slices, and the Prometheus exposition carries the
# engine and runtime counters. A non-zero exit means the observability
# layer broke.
cargo run --release -p amped-bench --bin trace_export target/trace_export

echo "=== 9/15 ec_kernel smoke + bench_diff BENCH_pr5.json BENCH_pr6.json (gating) ==="
# The kernel-layer smoke: the elementwise bench compiles and runs, and the
# committed pr6 snapshot shows the privatized parallel kernel beating the
# sequential oracle. The assert-faster check compares two rows of the *same*
# snapshot, so it is machine-consistent and safe to gate on (unlike the
# cross-snapshot deltas, which stay informational).
cargo bench -p amped-bench --bench ec_kernel -- --test
cargo run --release -p amped-bench --bin bench_diff -- BENCH_pr5.json BENCH_pr6.json \
  "--assert-faster=ec_kernel/parallel_privatized/r32,ec_kernel/sequential/r32"

echo "=== 10/15 bench_diff BENCH_pr6.json BENCH_pr7.json (obs overhead gate) ==="
# The observability overhead contract: in the committed pr7 snapshot the
# fully instrumented MTTKRP (metrics + tracing attached) must sit within 5%
# of the uninstrumented run. Both rows come from the same snapshot, so the
# check is machine-consistent and safe to gate on.
cargo run --release -p amped-bench --bin bench_diff -- BENCH_pr6.json BENCH_pr7.json \
  "--assert-within=obs/mttkrp_instrumented,obs/mttkrp_uninstrumented,5"

echo "=== 11/15 bench_diff BENCH_pr4.json BENCH_pr5.json (informational) ==="
# Snapshot deltas across machines are noise-prone; this stage prints the
# table but never fails CI (add --fail-on-regression for a gating run).
cargo run --release -p amped-bench --bin bench_diff -- BENCH_pr4.json BENCH_pr5.json \
  || echo "bench_diff could not run (informational stage, not a CI failure)"

echo "=== 12/15 tune_smoke (autotune cold search + warm cache hit) ==="
# Cold engine construction must run exactly one grid search and persist the
# winner; a second construction over the same cache file must resolve
# identical parameters with zero searches. Asserted through the
# tune_searches / tune_cache_hits counters inside the binary.
cargo run --release -p amped-bench --bin tune_smoke

echo "=== 13/15 bench_diff BENCH_pr7.json BENCH_pr8.json (autotuned-execution gates) ==="
# Single-name --assert-faster is the cross-snapshot form: pr8's row must
# strictly beat pr7's same-named row (batched slab decode for the OOC
# stream; counting-based shard stats + parallel fan-out for planning).
# The --assert-within check is machine-consistent: the parallel all-modes
# plan may not exceed three serial single-mode builds from the same
# snapshot by more than 50% — on a single-core host the fan-out degenerates
# to the serial loop (small constant overhead), on multi-core it is
# strictly faster, so the bound holds in both regimes.
cargo run --release -p amped-bench --bin bench_diff -- BENCH_pr7.json BENCH_pr8.json \
  "--assert-faster=stream/ooc_mttkrp/150k" \
  "--assert-faster=partition/all_modes/200k" \
  "--assert-within=partition/all_modes/200k,partition/single_mode_x3/200k,50"

echo "=== 14/15 amped-check lint + bounded-interleaving suites ==="
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

echo "=== 15/15 benchmark/check.sh (the benchmark's own gate + smoke run) ==="
# benchmark/ is a standalone package (own workspace, lock file and target
# directory): fmt, clippy, its unit tests, and a smoke run of every workload
# through both passes against the current tree — which also proves every
# name in benchmark/src/surface.rs still compiles.
bash benchmark/check.sh

echo "CI green."
