//! Qualitative performance-shape assertions from the paper's evaluation,
//! checked on the simulated timing (robust directional claims only; the
//! quantitative tables live in EXPERIMENTS.md).

mod common;

use amped::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    t.shape()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect()
}

#[test]
fn amped_beats_equal_nnz_partitioning() {
    // Fig. 6: the index-aligned partitioning avoids the host merge round
    // trip and must win clearly.
    let t = GenSpec {
        shape: vec![4000, 800, 800],
        nnz: 120_000,
        skew: vec![0.8, 0.5, 0.5],
        seed: 401,
    }
    .generate();
    let factors = factors_for(&t, 32, 402);
    let p4 = PlatformSpec::rtx6000_ada_node(4).scaled(1e-3);
    let a = AmpedSystem::with_rank(p4.clone(), 32)
        .execute(&t, &factors)
        .unwrap();
    let e = EqualNnzSystem::new(p4).execute(&t, &factors).unwrap();
    let speedup = e.report.total_time / a.report.total_time;
    assert!(
        speedup > 1.5,
        "equal-nnz should be clearly slower (paper: 5.3–10.3×), got {speedup:.2}×"
    );
}

#[test]
fn flycoo_beats_amped_on_small_resident_tensor() {
    // Fig. 5 Twitch: when two tensor copies fit on one GPU, FLYCOO skips all
    // host and inter-GPU traffic and wins.
    // Full experiment scale: smaller scales floor the mode sizes, which
    // shrinks exactly the all-gather volume that makes AMPED lose here.
    let t = Dataset::Twitch.generate(1e-3);
    let factors = factors_for(&t, 32, 403);
    let p1 = PlatformSpec::rtx6000_ada_node(1).scaled(1e-3);
    let p4 = PlatformSpec::rtx6000_ada_node(4).scaled(1e-3);
    let a = AmpedSystem::with_rank(p4, 32)
        .execute(&t, &factors)
        .unwrap();
    let f = FlycooSystem::new(p1).execute(&t, &factors).unwrap();
    assert!(
        f.report.total_time < 0.95 * a.report.total_time,
        "FLYCOO should win on a resident tensor (paper: 3.9×): FLYCOO {:.3e}s vs AMPED {:.3e}s",
        f.report.total_time,
        a.report.total_time
    );
}

#[test]
fn amped_multi_gpu_beats_blco_on_large_tensor() {
    // Fig. 5's headline: 4 streaming GPUs beat 1 streaming GPU.
    let t = Dataset::Amazon.generate(1e-4);
    let factors = factors_for(&t, 32, 404);
    let a = AmpedSystem::with_rank(PlatformSpec::rtx6000_ada_node(4).scaled(1e-4), 32)
        .execute(&t, &factors)
        .unwrap();
    let b = BlcoSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-4))
        .execute(&t, &factors)
        .unwrap();
    let speedup = b.report.total_time / a.report.total_time;
    assert!(
        speedup > 2.0,
        "AMPED(4) should clearly beat BLCO(1) (paper: 5.1× geomean), got {speedup:.2}×"
    );
}

#[test]
fn scaling_is_monotone_and_sublinear() {
    // Fig. 9: speedup grows with GPU count but stays below linear because of
    // all-gather and per-GPU streaming floors.
    let t = Dataset::Reddit.generate(2e-5);
    let factors = factors_for(&t, 32, 405);
    let mut times = Vec::new();
    for m in 1..=4usize {
        let run = AmpedSystem::with_rank(PlatformSpec::rtx6000_ada_node(m).scaled(2e-5), 32)
            .execute(&t, &factors)
            .unwrap();
        times.push(run.report.total_time);
    }
    for w in times.windows(2) {
        assert!(w[1] < w[0], "more GPUs must not be slower: {times:?}");
    }
    let s4 = times[0] / times[3];
    assert!(
        s4 > 1.8 && s4 < 4.0,
        "4-GPU speedup should be sublinear but substantial (paper 3.3×), got {s4:.2}×"
    );
}

#[test]
fn compute_load_is_balanced_across_gpus() {
    // Fig. 8: CCP keeps per-GPU elementwise-computation time within a few
    // percent. Patents is the evenest dataset (year mode nearly uniform);
    // skewed datasets show larger percentages at reduced scale because hot
    // ranges get *cheaper* per element (cache reuse), a cost heterogeneity
    // the nnz-balancing partitioner cannot see — see EXPERIMENTS.md.
    let t = Dataset::Patents.generate(1e-4);
    let factors = factors_for(&t, 32, 406);
    let run = AmpedSystem::with_rank(PlatformSpec::rtx6000_ada_node(4).scaled(1e-4), 32)
        .execute(&t, &factors)
        .unwrap();
    let ov = run.report.compute_overhead_fraction();
    assert!(
        ov < 0.10,
        "compute overhead should be small (paper <1% at full scale), got {:.1}%",
        ov * 100.0
    );
}

#[test]
fn time_breakdown_reconciles_with_wall_time() {
    // The h2d bucket carries only *exposed* transfer time (link actually
    // busy while compute stalls); double-buffer and pipeline slack land in
    // idle. The buckets must still tile the mode wall exactly:
    // compute + h2d + idle + p2p == wall for every GPU, in-core and OOC.
    let t = GenSpec {
        shape: vec![2000, 500, 500],
        nnz: 60_000,
        skew: vec![0.8, 0.4, 0.0],
        seed: 410,
    }
    .generate();
    let factors = factors_for(&t, 32, 411);
    let cfg = AmpedConfig {
        rank: 32,
        isp_nnz: 1024,
        shard_nnz_budget: 4096,
    };
    let check = |timing: &ModeTiming, label: &str| {
        for (g, b) in timing.per_gpu.iter().enumerate() {
            let total = b.compute + b.h2d + b.idle + b.p2p;
            assert!(
                (total - timing.wall).abs() <= 1e-9 * timing.wall.max(1e-30),
                "{label}: GPU {g} buckets ({total:.9e}) must reconcile with wall \
                 ({:.9e}); breakdown {b:?}",
                timing.wall
            );
            assert!(b.h2d >= 0.0 && b.idle >= 0.0);
        }
    };
    let mut e = AmpedEngine::new(
        &t,
        PlatformSpec::rtx6000_ada_node(4).scaled(1e-3),
        cfg.clone(),
    )
    .unwrap();
    for d in 0..t.order() {
        let (_, timing) = e.mttkrp_mode(d, &factors).unwrap();
        check(&timing, "in-core");
    }
    // Out of core: the scatter pipeline gates all GPUs globally, which is
    // exactly where stall time used to masquerade as transfer time.
    let dir = common::ScratchDir::new("perf_shape");
    let path = dir.join("reconcile.tnsb");
    write_tnsb(&t, &path, 4096).unwrap();
    let budget = 4096 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let mut ooc = OocEngine::open(
        &path,
        PlatformSpec::rtx6000_ada_node(4).scaled(1e-3),
        cfg,
        budget,
    )
    .unwrap();
    for d in 0..t.order() {
        let (_, timing) = OocEngine::mttkrp_mode(&mut ooc, d, &factors).unwrap();
        check(&timing, "out-of-core");
    }
}

#[test]
fn communication_fraction_grows_with_mode_sizes() {
    // Fig. 7's mechanism: larger index spaces → more all-gather bytes per
    // unit of compute.
    let factors_of = |t: &SparseTensor| factors_for(t, 32, 407);
    let small_modes = GenSpec::uniform(vec![500, 500, 500], 100_000, 408).generate();
    let large_modes = GenSpec::uniform(vec![40_000, 40_000, 40_000], 100_000, 409).generate();
    let frac = |t: &SparseTensor| {
        let run = AmpedSystem::with_rank(PlatformSpec::rtx6000_ada_node(4).scaled(1e-3), 32)
            .execute(t, &factors_of(t))
            .unwrap();
        let (_, h, p) = run.report.fig7_fractions();
        h + p
    };
    let f_small = frac(&small_modes);
    let f_large = frac(&large_modes);
    assert!(
        f_large > f_small,
        "larger index spaces must raise the communication share: {f_small:.3} vs {f_large:.3}"
    );
}
