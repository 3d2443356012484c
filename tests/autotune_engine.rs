//! End-to-end autotuning: a tuned engine computes bit-identical results to
//! a default one — and so does an engine forced onto any other candidate of
//! the searched grid (every searched knob is bit-transparent, not just the
//! winner) — the first construction searches exactly once, a warm persistent
//! cache performs no search at all, and the out-of-core constructor tunes
//! from the `.tnsb` footer statistics alone.

mod common;

use amped::prelude::*;
use amped_stream::write_tnsb;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tensor() -> SparseTensor {
    GenSpec {
        shape: vec![80, 60, 50],
        nnz: 5000,
        skew: vec![0.7, 0.3, 0.0],
        seed: 71,
    }
    .generate()
}

fn cfg() -> AmpedConfig {
    AmpedConfig {
        rank: 16,
        isp_nnz: 256,
        shard_nnz_budget: 2048,
    }
}

fn factors(t: &SparseTensor, r: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    t.shape()
        .iter()
        .map(|&d| Mat::random(d as usize, r, &mut rng))
        .collect()
}

fn spec() -> PlatformSpec {
    PlatformSpec::rtx6000_ada_node(2).scaled(1e-3)
}

#[test]
fn tuned_engine_is_bit_identical_and_searches_once() {
    let t = tensor();
    let fs = factors(&t, 16, 72);

    let mut base = AmpedEngine::new(&t, spec(), cfg()).unwrap();

    let reg = MetricsRegistry::new();
    let rt = SimRuntime::new(spec()).with_metrics(reg.clone());
    let mut tuner = Autotuner::in_memory();
    let mut tuned = AmpedEngine::with_tuner(&t, Box::new(rt), cfg(), &mut tuner).unwrap();
    assert_eq!(reg.counter_value("tune_searches", &[]), 1);
    assert_eq!(reg.counter_value("tune_cache_hits", &[]), 0);

    // Every candidate the search could have returned, the winner among them.
    let grid = amped::tune::candidates(cfg().rank);
    assert!(grid.contains(&tuned.tune()), "the winner is a candidate");
    for cand in grid {
        tuned.set_tune(cand);
        for d in 0..t.order() {
            let (want, _) = base.mttkrp_mode(d, &fs).unwrap();
            let (got, _) = tuned.mttkrp_mode(d, &fs).unwrap();
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "mode {d}: {cand:?} changed the numerics"
            );
        }
    }
}

#[test]
fn warm_persistent_cache_performs_no_search() {
    let dir = common::ScratchDir::new("autotune");
    let path = dir.join("warm_engine.json");
    let t = tensor();

    // Cold: search + persist.
    let reg_cold = MetricsRegistry::new();
    let rt = SimRuntime::new(spec()).with_metrics(reg_cold.clone());
    let mut cold_tuner = Autotuner::with_cache(&path);
    let cold = AmpedEngine::with_tuner(&t, Box::new(rt), cfg(), &mut cold_tuner).unwrap();
    assert_eq!(reg_cold.counter_value("tune_searches", &[]), 1);

    // Warm: a fresh tuner over the persisted file resolves the same
    // parameters with zero searches.
    let reg_warm = MetricsRegistry::new();
    let rt = SimRuntime::new(spec()).with_metrics(reg_warm.clone());
    let mut warm_tuner = Autotuner::with_cache(&path);
    let warm = AmpedEngine::with_tuner(&t, Box::new(rt), cfg(), &mut warm_tuner).unwrap();
    assert_eq!(
        reg_warm.counter_value("tune_searches", &[]),
        0,
        "warm run must not search"
    );
    assert_eq!(reg_warm.counter_value("tune_cache_hits", &[]), 1);
    assert_eq!(
        cold.tune(),
        warm.tune(),
        "cache returned a different winner"
    );
}

#[test]
fn ooc_tuned_matches_untuned_and_tunes_from_footer_stats() {
    let t = tensor();
    let dir = common::ScratchDir::new("autotune");
    let path = dir.join("tuned.tnsb");
    write_tnsb(&t, &path, 512).unwrap();
    let budget = 512u64 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let fs = factors(&t, 16, 73);

    let mut base = OocEngine::open(&path, spec(), cfg(), budget).unwrap();

    let reg = MetricsRegistry::new();
    let rt = SimRuntime::new(spec()).with_metrics(reg.clone());
    let mut tuner = Autotuner::in_memory();
    let mut tuned = OocEngine::with_tuner(&path, Box::new(rt), cfg(), budget, &mut tuner).unwrap();
    assert_eq!(reg.counter_value("tune_searches", &[]), 1);

    let grid = amped::tune::candidates(cfg().rank);
    assert!(grid.contains(&tuned.tune()), "the winner is a candidate");
    for cand in grid {
        tuned.set_tune(cand);
        for d in 0..t.order() {
            let (want, _) = base.mttkrp_mode(d, &fs).unwrap();
            let (got, _) = tuned.mttkrp_mode(d, &fs).unwrap();
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "mode {d}: {cand:?} changed the OOC numerics"
            );
        }
    }
}
