//! Planner-equivalence suite: the refactored nnz-weighted planners must
//! reproduce the *pre-refactor* assignments exactly. The literals below were
//! captured from `ModePlan::build` / `EqualPlan::build` on the tree before
//! the `amped-plan` extraction (PR 4) — any drift in the CCP wiring, the
//! trait plumbing, or the range materialization trips these assertions.

use amped::prelude::*;
use std::ops::Range;

struct Pinned {
    shape: Vec<u32>,
    nnz: usize,
    skew: Vec<f64>,
    seed: u64,
    gpus: usize,
    /// Pre-refactor `ModePlan::build(t, d, gpus, 512).device_ranges`.
    ccp_ranges: Vec<Vec<Range<u32>>>,
    /// Pre-refactor `ModePlan::build(..).gpu_loads()`.
    ccp_loads: Vec<Vec<u64>>,
    /// Pre-refactor `EqualPlan::build(t, d, gpus)` chunk element ranges
    /// (identical for every mode) and per-mode conflicted-row counts.
    equal_ranges: Vec<Range<usize>>,
    equal_conflicted: Vec<u64>,
}

fn pinned_cases() -> Vec<Pinned> {
    vec![
        Pinned {
            shape: vec![64, 40, 50],
            nnz: 3000,
            skew: vec![0.8, 0.0, 0.0],
            seed: 7,
            gpus: 4,
            ccp_ranges: vec![
                vec![0..19, 19..38, 38..44, 44..64],
                vec![0..10, 10..20, 20..30, 30..40],
                vec![0..12, 12..24, 24..36, 36..50],
            ],
            ccp_loads: vec![
                vec![758, 751, 777, 714],
                vec![755, 734, 743, 768],
                vec![718, 750, 750, 782],
            ],
            equal_ranges: vec![0..750, 750..1500, 1500..2250, 2250..3000],
            equal_conflicted: vec![64, 40, 50],
        },
        Pinned {
            shape: vec![200, 80, 80],
            nnz: 10_000,
            skew: vec![1.1, 0.3, 0.0],
            seed: 42,
            gpus: 3,
            ccp_ranges: vec![
                vec![0..88, 88..132, 132..200],
                vec![0..25, 25..52, 52..80],
                vec![0..27, 27..53, 53..80],
            ],
            ccp_loads: vec![
                vec![3750, 3738, 2512],
                vec![3332, 3361, 3307],
                vec![3344, 3278, 3378],
            ],
            equal_ranges: vec![0..3334, 3334..6668, 6668..10_000],
            equal_conflicted: vec![200, 80, 80],
        },
        Pinned {
            shape: vec![500, 100, 60],
            nnz: 20_000,
            skew: vec![0.0, 0.0, 0.0],
            seed: 99,
            gpus: 5,
            ccp_ranges: vec![
                vec![0..97, 97..198, 198..298, 298..400, 400..500],
                vec![0..20, 20..40, 40..61, 61..81, 81..100],
                vec![0..12, 12..24, 24..36, 36..48, 48..60],
            ],
            ccp_loads: vec![
                vec![4005, 3996, 4006, 3988, 4005],
                vec![3992, 4055, 4064, 3968, 3921],
                vec![3991, 3915, 4060, 4017, 4017],
            ],
            equal_ranges: vec![
                0..4000,
                4000..8000,
                8000..12_000,
                12_000..16_000,
                16_000..20_000,
            ],
            equal_conflicted: vec![500, 100, 60],
        },
    ]
}

fn tensor_of(p: &Pinned) -> SparseTensor {
    GenSpec {
        shape: p.shape.clone(),
        nnz: p.nnz,
        skew: p.skew.clone(),
        seed: p.seed,
    }
    .generate()
}

#[test]
fn nnz_ccp_planner_matches_pre_refactor_assignments() {
    for p in pinned_cases() {
        let t = tensor_of(&p);
        let stats = PlanStats { nnz: p.nnz as u64 };
        let cost = UniformCost::new(p.gpus);
        for d in 0..t.order() {
            let hist = t.mode_hist(d);
            let a = NnzCcp.plan_mode(d, &hist, &stats, &cost).unwrap();
            assert_eq!(
                a.ranges, p.ccp_ranges[d],
                "shape {:?} mode {d}: planner ranges diverged from pre-refactor capture",
                p.shape
            );
            assert_eq!(
                a.loads(&hist),
                p.ccp_loads[d],
                "shape {:?} mode {d}",
                p.shape
            );
        }
    }
}

#[test]
fn mode_plan_build_matches_pre_refactor_assignments() {
    // The materialized plan (which now routes through `build_with_ranges`)
    // must carry the same device ranges and loads as before the refactor.
    for p in pinned_cases() {
        let t = tensor_of(&p);
        for d in 0..t.order() {
            let mp = ModePlan::build(&t, d, p.gpus, 512);
            assert_eq!(
                mp.device_ranges, p.ccp_ranges[d],
                "shape {:?} mode {d}",
                p.shape
            );
            assert_eq!(
                mp.gpu_loads(),
                p.ccp_loads[d],
                "shape {:?} mode {d}",
                p.shape
            );
        }
    }
}

#[test]
fn equal_split_planner_matches_pre_refactor_chunks() {
    for p in pinned_cases() {
        let t = tensor_of(&p);
        for d in 0..t.order() {
            let ep = EqualPlan::build(&t, d, p.gpus);
            let ranges: Vec<_> = ep.chunks.iter().map(|c| c.elem_range.clone()).collect();
            assert_eq!(ranges, p.equal_ranges, "shape {:?} mode {d}", p.shape);
            assert_eq!(
                ep.conflicted_rows, p.equal_conflicted[d],
                "shape {:?} mode {d}",
                p.shape
            );
        }
    }
}

#[test]
fn default_engine_matches_pre_refactor_assignments() {
    // The engine plans every mode with `NnzCcp`: its materialized ranges
    // and loads must pin to the captured ones.
    let p = &pinned_cases()[0];
    let t = tensor_of(p);
    let cfg = AmpedConfig {
        rank: 8,
        isp_nnz: 256,
        shard_nnz_budget: 512,
    };
    let spec = PlatformSpec::rtx6000_ada_node(p.gpus).scaled(1e-3);
    let engine = AmpedEngine::new(&t, spec, cfg).unwrap();
    for d in 0..t.order() {
        let mp = &engine.plan().modes[d];
        assert_eq!(mp.device_ranges, p.ccp_ranges[d], "mode {d}");
        assert_eq!(mp.gpu_loads(), p.ccp_loads[d], "mode {d}");
    }
}
