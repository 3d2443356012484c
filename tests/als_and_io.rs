//! End-to-end CP-ALS through the facade, plus FROSTT I/O round trips feeding
//! the engine.

use amped::prelude::*;

#[test]
fn cp_als_end_to_end_recovers_structure() {
    let (t, _) = low_rank_dense(&[24, 20, 16], 5, 0.0, 501);
    let platform = PlatformSpec::rtx6000_ada_node(3).scaled(1e-3);
    let cfg = AmpedConfig {
        rank: 5,
        isp_nnz: 1024,
        shard_nnz_budget: 8192,
    };
    let mut engine = AmpedEngine::new(&t, platform, cfg).unwrap();
    let res = cp_als(
        &mut engine,
        &AlsOptions {
            max_iters: 50,
            tol: 1e-8,
            seed: 502,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        *res.fits.last().unwrap() > 0.98,
        "rank-5 recovery failed: fits {:?}",
        res.fits
    );
    // λ sorted sanity: all weights positive for a positive tensor.
    assert!(res.lambda.iter().all(|&l| l > 0.0));
}

#[test]
fn frostt_round_trip_preserves_mttkrp_results() {
    let t = GenSpec {
        shape: vec![50, 40, 30],
        nnz: 2000,
        skew: vec![0.6, 0.0, 0.0],
        seed: 503,
    }
    .generate();
    let mut buf = Vec::new();
    io::write_tns(&t, &mut buf).unwrap();
    let t2 = io::read_tns(buf.as_slice()).unwrap();

    // Same nnz; shapes may shrink to the max used coordinate, so compare
    // MTTKRP outputs on the shared row space.
    assert_eq!(t.nnz(), t2.nnz());
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(504);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, 8, &mut rng))
        .collect();
    let factors2: Vec<Mat> = t2
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &d)| Mat::from_fn(d as usize, 8, |r, c| factors[m].get(r, c)))
        .collect();
    let a = mttkrp_ref(&t, &factors, 0);
    let b = mttkrp_ref(&t2, &factors2, 0);
    for r in 0..t2.dim(0) as usize {
        for c in 0..8 {
            let (x, y) = (a.get(r, c), b.get(r, c));
            assert!(
                (x - y).abs() <= 1e-4 + 1e-3 * x.abs().max(y.abs()),
                "row {r} col {c}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn deterministic_simulation_across_runs() {
    let t = Dataset::Twitch.generate(5e-5);
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(505);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, 16, &mut rng))
        .collect();
    let run = |seed_irrelevant: u64| {
        let _ = seed_irrelevant;
        AmpedSystem::with_rank(PlatformSpec::rtx6000_ada_node(4).scaled(5e-5), 16)
            .execute(&t, &factors)
            .unwrap()
            .report
    };
    let r1 = run(1);
    let r2 = run(2);
    assert_eq!(
        r1.total_time, r2.total_time,
        "simulated time must be deterministic"
    );
    assert_eq!(r1.per_mode, r2.per_mode);
    for (a, b) in r1.per_gpu.iter().zip(&r2.per_gpu) {
        assert_eq!(a.compute, b.compute);
        assert_eq!(a.h2d, b.h2d);
        assert_eq!(a.p2p, b.p2p);
    }
}
