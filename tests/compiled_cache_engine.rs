//! Engine-level contracts of the compiled-shard cache: compile-once
//! amortization across ALS-style iterations, bit-identical warm-cache
//! execution, invalidation on `replan`, and the out-of-core engine's
//! budget-charged compiled-chunk cache (warm iterations skip disk reads;
//! budget pressure degrades to compile-per-visit with a one-shot warning).

mod common;

use amped::prelude::*;
use amped::runtime::DispatchKind;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tensor() -> SparseTensor {
    GenSpec {
        shape: vec![400, 300, 200],
        nnz: 20_000,
        skew: vec![0.6, 0.3, 0.0],
        seed: 91,
    }
    .generate()
}

fn factors(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    t.shape()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect()
}

fn cfg() -> AmpedConfig {
    AmpedConfig {
        rank: 16,
        isp_nnz: 1024,
        shard_nnz_budget: 4096,
        ..AmpedConfig::default()
    }
}

fn compiled_tune() -> TuneParams {
    TuneParams {
        dispatch: DispatchKind::CompiledSegmented,
        ..TuneParams::default()
    }
}

#[test]
fn in_core_engine_compiles_once_and_hits_warm() {
    let t = tensor();
    let fs = factors(&t, 16, 92);
    let registry = MetricsRegistry::new();
    let spec = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
    let rt = SimRuntime::new(spec).with_metrics(registry.clone());
    let mut e = AmpedEngine::with_runtime(&t, Box::new(rt), cfg()).unwrap();
    e.set_tune(compiled_tune());

    // Pass 1 (cold): every (mode, shard) pair compiles exactly once.
    let cold: Vec<Mat> = (0..t.order())
        .map(|d| e.mttkrp_mode(d, &fs).unwrap().0)
        .collect();
    let compiles = registry.counter_value("shard_compiles", &[]);
    assert!(compiles > 0, "compiled dispatch must compile shards");
    assert_eq!(
        registry.counter_value("compiled_cache_hits", &[]),
        0,
        "first pass has nothing warm to hit"
    );

    // Pass 2 (warm): zero new compiles, one hit per compiled shard, and the
    // outputs are bit-identical to the cold pass.
    let warm: Vec<Mat> = (0..t.order())
        .map(|d| e.mttkrp_mode(d, &fs).unwrap().0)
        .collect();
    assert_eq!(
        registry.counter_value("shard_compiles", &[]),
        compiles,
        "warm pass must not recompile: shard_compiles stays at modes x shards"
    );
    assert_eq!(
        registry.counter_value("compiled_cache_hits", &[]),
        compiles,
        "warm pass hits every cached shard exactly once"
    );
    for (d, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(c.as_slice(), w.as_slice(), "mode {d}: warm != cold bits");
    }

    // Correctness: compiled dispatch agrees with the sequential reference.
    for (d, got) in warm.iter().enumerate() {
        let want = mttkrp_ref(&t, &fs, d);
        assert!(
            got.approx_eq(&want, 1e-3, 1e-4),
            "mode {d}: max diff {}",
            got.max_abs_diff(&want)
        );
    }
}

#[test]
fn replan_invalidates_compiled_shards() {
    let t = tensor();
    let fs = factors(&t, 16, 93);
    let registry = MetricsRegistry::new();
    let spec = PlatformSpec::rtx6000_ada_node(3).scaled(1e-3);
    let rt = SimRuntime::new(spec).with_metrics(registry.clone());
    let mut e = AmpedEngine::with_runtime(&t, Box::new(rt), cfg()).unwrap();
    e.set_tune(compiled_tune());

    e.mttkrp_mode(0, &fs).unwrap();
    let compiles_before = registry.counter_value("shard_compiles", &[]);
    assert!(compiles_before > 0);
    assert_eq!(registry.counter_value("compiled_cache_evictions", &[]), 0);

    // Replanning mode 0 changes the shard decomposition: the stale layouts
    // must be evicted, and the next pass recompiles against the new plan.
    let dim = t.dim(0);
    let a = ModeAssignment::from_index_ranges(0, vec![0..7, 7..19, 19..dim]);
    e.replan(&a).unwrap();
    assert!(
        registry.counter_value("compiled_cache_evictions", &[]) > 0,
        "replan must evict mode 0's compiled shards"
    );

    let (out, _) = e.mttkrp_mode(0, &fs).unwrap();
    assert!(
        registry.counter_value("shard_compiles", &[]) > compiles_before,
        "post-replan pass must compile fresh layouts, not reuse stale ones"
    );
    let want = mttkrp_ref(&t, &fs, 0);
    assert!(
        out.approx_eq(&want, 1e-3, 1e-4),
        "post-replan compiled output drifted: max diff {}",
        out.max_abs_diff(&want)
    );
}

#[test]
fn ooc_engine_caches_compiled_chunks_and_skips_disk() {
    let t = tensor();
    let fs = factors(&t, 16, 94);
    let dir = common::ScratchDir::new("compiled_cache");
    let path = dir.join("warm.tnsb");
    write_tnsb(&t, &path, 4096).unwrap();

    let registry = MetricsRegistry::new();
    let spec = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
    let rt = SimRuntime::new(spec).with_metrics(registry.clone());
    // Roomy budget: every compiled chunk fits next to the streaming chunk.
    let mut e = OocEngine::with_runtime(&path, Box::new(rt), cfg(), 8 << 20).unwrap();
    e.set_tune(compiled_tune());

    let (cold, _) = e.mttkrp_mode(0, &fs).unwrap();
    let reads_cold = registry.counter_value("ooc_chunk_reads", &[]);
    let compiles = registry.counter_value("shard_compiles", &[]);
    assert!(reads_cold > 0 && compiles > 0);

    // Warm iteration: every chunk executes from its compiled layout — zero
    // additional disk reads, zero recompiles, bit-identical factors.
    let (warm, _) = e.mttkrp_mode(0, &fs).unwrap();
    assert_eq!(
        registry.counter_value("ooc_chunk_reads", &[]),
        reads_cold,
        "warm compiled iteration must not touch disk"
    );
    assert_eq!(registry.counter_value("shard_compiles", &[]), compiles);
    assert_eq!(
        registry.counter_value("compiled_cache_hits", &[]),
        compiles,
        "every cached chunk hit exactly once on the warm pass"
    );
    assert_eq!(cold.as_slice(), warm.as_slice(), "warm != cold bits");
    let want = mttkrp_ref(&t, &fs, 0);
    assert!(
        cold.approx_eq(&want, 1e-3, 1e-4),
        "ooc compiled output drifted: max diff {}",
        cold.max_abs_diff(&want)
    );
}

#[test]
fn ooc_budget_pressure_degrades_to_compile_per_visit() {
    let t = tensor();
    let fs = factors(&t, 16, 95);
    let dir = common::ScratchDir::new("compiled_cache");
    let path = dir.join("tight.tnsb");
    let cap = 4096;
    write_tnsb(&t, &path, cap).unwrap();

    let registry = MetricsRegistry::new();
    let spec = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
    let rt = SimRuntime::new(spec).with_metrics(registry.clone());
    // Tight budget: enough to stream (one chunk plus partitioning scratch),
    // never enough to keep a compiled layout (whose gathered indices cost
    // about what the scratch did, plus segment pointers) next to the
    // headroom reserved for streaming the next chunk.
    let budget = cap as u64 * (t.elem_bytes() + t.order() as u64 * 4);
    let mut e = OocEngine::with_runtime(&path, Box::new(rt), cfg(), budget).unwrap();
    e.set_tune(compiled_tune());

    let (out, _) = e.mttkrp_mode(0, &fs).unwrap();
    let compiles_cold = registry.counter_value("shard_compiles", &[]);
    let (again, _) = e.mttkrp_mode(0, &fs).unwrap();
    // Chunks that could not be cached recompile on the second visit.
    assert!(
        registry.counter_value("shard_compiles", &[]) > compiles_cold,
        "under budget pressure the engine must fall back to compile-per-visit"
    );
    let warned = amped::sim::obs::warnings()
        .iter()
        .any(|(k, _)| k == "ooc-compiled-cache-budget");
    assert!(
        warned,
        "budget-pressure fallback must warn once: {:?}",
        amped::sim::obs::warnings()
    );
    // Degraded, not wrong: results stay bit-stable and correct.
    assert_eq!(out.as_slice(), again.as_slice());
    assert!(out.approx_eq(&mttkrp_ref(&t, &fs, 0), 1e-3, 1e-4));
    // The budget never leaks: everything charged for caching was released
    // or never charged.
    assert!(e.stage_peak() <= budget);
}
