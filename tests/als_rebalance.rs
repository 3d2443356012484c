//! ALS-time rebalancing integration: on a heterogeneous platform, an
//! engine planned with the default nnz-weighted CCP starts out imbalanced
//! (the slow pair of GPUs sits on the critical path); the
//! `RebalancingPlanner` inside `cp_als` must observe the imbalance,
//! trigger, swap observed-throughput CCP assignments in through
//! `MttkrpEngine::replan`, and measurably cut the imbalance overhead in
//! later iterations — without changing what the decomposition computes.

mod common;

use amped::prelude::*;
use rand::SeedableRng;

fn tensor() -> SparseTensor {
    GenSpec {
        shape: vec![1200, 300, 300],
        nnz: 120_000,
        skew: vec![0.9, 0.3, 0.0],
        seed: 2024,
    }
    .generate()
}

fn cfg() -> AmpedConfig {
    AmpedConfig {
        rank: 16,
        isp_nnz: 1024,
        shard_nnz_budget: 8192,
    }
}

#[test]
fn rebalancer_triggers_and_cuts_imbalance_on_hetero_platform() {
    let t = tensor();
    let spec = PlatformSpec::hetero_2fast_2slow().scaled(1e-3);
    let mut e = AmpedEngine::new(&t, spec, cfg()).unwrap(); // default nnz-CCP plan
    let res = cp_als(
        &mut e,
        &AlsOptions {
            max_iters: 4,
            tol: 0.0,
            seed: 3,
            rebalance: Some(RebalanceOptions { threshold: 0.2 }),
        },
    )
    .unwrap();
    assert!(
        res.rebalances > 0,
        "hetero platform must trigger at least one replan"
    );
    let first = res
        .per_iteration
        .first()
        .unwrap()
        .compute_overhead_fraction();
    let last = res
        .per_iteration
        .last()
        .unwrap()
        .compute_overhead_fraction();
    assert!(
        first > 0.2,
        "nnz-equal plan on 2-fast-2-slow should start imbalanced, got {first:.3}"
    );
    assert!(
        last < 0.6 * first,
        "rebalancing should cut the imbalance overhead: {first:.3} -> {last:.3}"
    );
    // Later iterations must also get faster end to end.
    assert!(
        res.per_iteration.last().unwrap().total_time
            < res.per_iteration.first().unwrap().total_time,
        "rebalanced iterations should be faster"
    );
}

#[test]
fn rebalanced_als_converges_like_the_static_plan() {
    let t = tensor();
    let opts_static = AlsOptions {
        max_iters: 4,
        tol: 0.0,
        seed: 3,
        rebalance: None,
    };
    let opts_rb = AlsOptions {
        rebalance: Some(RebalanceOptions { threshold: 0.2 }),
        ..opts_static.clone()
    };
    let spec = PlatformSpec::hetero_2fast_2slow().scaled(1e-3);
    let mut e1 = AmpedEngine::new(&t, spec.clone(), cfg()).unwrap();
    let r_static = cp_als(&mut e1, &opts_static).unwrap();
    let mut e2 = AmpedEngine::new(&t, spec, cfg()).unwrap();
    let r_rb = cp_als(&mut e2, &opts_rb).unwrap();
    assert_eq!(r_static.rebalances, 0);
    // Replanning only moves shard ownership; the math is the same modulo
    // f32 accumulation order, so the fit trace must agree closely.
    for (a, b) in r_static.fits.iter().zip(&r_rb.fits) {
        assert!(
            (a - b).abs() < 1e-3,
            "fit traces diverged: {:?} vs {:?}",
            r_static.fits,
            r_rb.fits
        );
    }
}

#[test]
fn homogeneous_platform_never_triggers() {
    let t = tensor();
    let spec = PlatformSpec::rtx6000_ada_node(4).scaled(1e-3);
    let mut e = AmpedEngine::new(&t, spec, cfg()).unwrap();
    let res = cp_als(
        &mut e,
        &AlsOptions {
            max_iters: 3,
            tol: 0.0,
            seed: 3,
            rebalance: Some(RebalanceOptions { threshold: 0.2 }),
        },
    )
    .unwrap();
    assert_eq!(
        res.rebalances, 0,
        "balanced nnz-CCP on identical GPUs must stay under a 20% threshold"
    );
}

#[test]
fn ooc_engine_replans_between_iterations_too() {
    // Uniform data over wide modes: rows stay cold, so the unsorted-payload
    // atomic-serialization floor (which does not scale with device speed)
    // is negligible and out-of-core compute is genuinely throughput-bound —
    // the regime where observed-speed CCP converges. (On heavily skewed
    // tensors the hot-row serialization cost dominates both fast and slow
    // devices equally, which is a cost-model property, not a planner bug.)
    let t = GenSpec::uniform(vec![3000, 2000, 2000], 400_000, 808).generate();
    let dir = common::ScratchDir::new("als_rebalance");
    let path = dir.join("rb.tnsb");
    let cap = 32_768;
    write_tnsb(&t, &path, cap).unwrap();
    let spec = PlatformSpec::hetero_2fast_2slow().scaled(1e-3);
    let budget = cap as u64 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let c = AmpedConfig {
        rank: 16,
        isp_nnz: 8192,
        shard_nnz_budget: 32_768,
    };
    let mut e = OocEngine::open(&path, spec, c, budget).unwrap();
    let res = cp_als(
        &mut e,
        &AlsOptions {
            max_iters: 3,
            tol: 0.0,
            seed: 5,
            rebalance: Some(RebalanceOptions { threshold: 0.15 }),
        },
    )
    .unwrap();
    assert!(
        res.rebalances > 0,
        "out-of-core engine must also replan on the hetero platform"
    );
    let first = res
        .per_iteration
        .first()
        .unwrap()
        .compute_overhead_fraction();
    let last = res
        .per_iteration
        .last()
        .unwrap()
        .compute_overhead_fraction();
    assert!(
        last < 0.6 * first,
        "ooc imbalance overhead should fall: {first:.3} -> {last:.3}"
    );
    assert!(
        res.per_iteration.last().unwrap().total_time
            < res.per_iteration.first().unwrap().total_time,
        "rebalanced ooc iterations should be faster"
    );
}

#[test]
fn manual_replan_preserves_mttkrp_correctness() {
    // Direct `replan` exercise: hand the engine a deliberately skewed
    // assignment and check the MTTKRP is still exact.
    let t = tensor();
    let spec = PlatformSpec::rtx6000_ada_node(3).scaled(1e-3);
    let mut e = AmpedEngine::new(&t, spec, cfg()).unwrap();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, 16, &mut rng))
        .collect();
    let dim = t.dim(0);
    let a = ModeAssignment {
        mode: 0,
        ranges: vec![0..5, 5..10, 10..dim],
    };
    e.replan(&a).unwrap();
    assert_eq!(e.plan().modes[0].device_ranges, vec![0..5, 5..10, 10..dim]);
    let (out, _) = e.mttkrp_mode(0, &factors).unwrap();
    assert!(out.approx_eq(&mttkrp_ref(&t, &factors, 0), 1e-3, 1e-4));
    // Malformed assignments are rejected, not absorbed.
    assert!(e
        .replan(&ModeAssignment {
            mode: 0,
            ranges: vec![0..5, 6..dim],
        })
        .is_err());
    let whole = std::iter::once(0..dim).collect();
    assert!(e
        .replan(&ModeAssignment {
            mode: 9,
            ranges: whole,
        })
        .is_err());
}

/// After a replan both engines report the new ranges' loads: each GPU's
/// share is the sum of the mode histogram over the indices it now owns,
/// and in core that is also what its shards' element ranges hold.
#[test]
fn replanned_loads_are_the_histogram_sums_on_both_engines() {
    let t = tensor();
    let spec = PlatformSpec::rtx6000_ada_node(3).scaled(1e-3);
    let dir = common::ScratchDir::new("als_rebalance");
    let path = dir.join("loads.tnsb");
    write_tnsb(&t, &path, 16_384).unwrap();
    let mut incore = AmpedEngine::new(&t, spec.clone(), cfg()).unwrap();
    let mut ooc = OocEngine::open(&path, spec, cfg(), t.bytes()).unwrap();

    let (ranges, hist) = (vec![0..2, 2..9, 9..300], t.mode_hist(1));
    let want: Vec<u64> = ranges
        .iter()
        .map(|r| hist[r.start as usize..r.end as usize].iter().sum())
        .collect();
    assert_eq!(want.iter().sum::<u64>(), t.nnz() as u64);
    let assignment = ModeAssignment { mode: 1, ranges };
    for e in [&mut incore as &mut dyn MttkrpEngine, &mut ooc] {
        e.replan(&assignment).unwrap();
        assert_eq!(e.mode_hist(1), hist);
        assert_eq!(e.mode_loads(1), want);
    }
    let mut from_shards = vec![0u64; want.len()];
    for s in &incore.plan().modes[1].shards {
        from_shards[s.gpu] += s.elem_range.len() as u64;
    }
    assert_eq!(from_shards, want);
}
