//! Cross-crate agreement: every system (AMPED + all baselines) prices every
//! nonzero of the tensor exactly once per mode, and AMPED — the one system
//! that executes — computes the same MTTKRP-along-all-modes chain as the
//! sequential reference. The baselines are models: their modeled times and
//! memory peaks are pinned by `tests/runtime_equivalence.rs`.

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

/// Algorithm-1 semantics: each mode's MTTKRP output replaces the factor
/// before the next mode (λ-normalized, as the engine does, to keep chained
/// values within `f32` range).
fn reference_chain(t: &SparseTensor, factors: &[Mat]) -> Vec<Mat> {
    let mut fs = factors.to_vec();
    for d in 0..t.order() {
        fs[d] = mttkrp_ref(t, &fs, d);
        fs[d].normalize_cols();
    }
    fs
}

/// AMPED's engine on `spec` reproduces the reference chain.
fn check_amped_chain(t: &SparseTensor, factors: &[Mat], spec: PlatformSpec) {
    let cfg = AmpedConfig {
        rank: factors[0].cols(),
        ..AmpedConfig::default()
    };
    let mut engine = AmpedEngine::new(t, spec, cfg).expect("engine builds");
    let mut got = factors.to_vec();
    engine.mttkrp_all_modes(&mut got).expect("engine runs");
    for (d, (got, exp)) in got.iter().zip(reference_chain(t, factors)).enumerate() {
        assert!(
            got.approx_eq(&exp, 2e-3, 1e-3),
            "AMPED mode {d}: max diff {}",
            got.max_abs_diff(&exp)
        );
    }
}

/// Runs every system and checks that each priced all of the tensor's
/// nonzeros in every mode.
fn check_coverage(systems: &mut [Box<dyn MttkrpSystem>], t: &SparseTensor, factors: &[Mat]) {
    for sys in systems.iter_mut() {
        let run = sys.execute(t, factors).unwrap_or_else(|e| {
            panic!("{} failed on a tiny tensor: {e}", sys.name());
        });
        assert_eq!(
            run.priced_nnz,
            vec![t.nnz() as u64; t.order()],
            "{} must price every nonzero once per mode",
            sys.name()
        );
        assert_eq!(run.report.per_mode.len(), t.order(), "{}", sys.name());
        assert!(run.report.total_time > 0.0, "{}", sys.name());
    }
}

/// MM-CSF is GPU-resident: no streaming and no peer traffic.
fn check_mmcsf_resident(t: &SparseTensor, factors: &[Mat], spec: PlatformSpec) {
    let run = MmCsfSystem::new(spec).execute(t, factors).unwrap();
    assert_eq!(run.report.per_gpu[0].h2d, 0.0);
    assert_eq!(run.report.per_gpu[0].p2p, 0.0);
}

#[test]
fn three_mode_tensor_all_systems() {
    let t = GenSpec {
        shape: vec![60, 45, 50],
        nnz: 3000,
        skew: vec![0.8, 0.0, 0.5],
        seed: 301,
    }
    .generate();
    let factors = factors_for(&t, 8, 302);
    let p1 = PlatformSpec::rtx6000_ada_node(1).scaled(1e-3);
    let p4 = PlatformSpec::rtx6000_ada_node(4).scaled(1e-3);

    check_amped_chain(&t, &factors, p4.clone());
    let mut systems: Vec<Box<dyn MttkrpSystem>> = vec![
        Box::new(AmpedSystem::with_rank(p4.clone(), 8)),
        Box::new(BlcoSystem::new(p1.clone())),
        Box::new(MmCsfSystem::new(p1.clone())),
        Box::new(PartiSystem::new(p1.clone())),
        Box::new(FlycooSystem::new(p1.clone())),
        Box::new(EqualNnzSystem::new(p4)),
    ];
    check_coverage(&mut systems, &t, &factors);
    check_mmcsf_resident(&t, &factors, p1);
}

#[test]
fn four_mode_tensor_supported_systems() {
    let t = GenSpec::uniform(vec![20, 24, 18, 16], 2000, 303).generate();
    let factors = factors_for(&t, 4, 304);
    let p1 = PlatformSpec::rtx6000_ada_node(1).scaled(1e-3);
    let p2 = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);

    check_amped_chain(&t, &factors, p2.clone());
    let mut systems: Vec<Box<dyn MttkrpSystem>> = vec![
        Box::new(AmpedSystem::with_rank(p2.clone(), 4)),
        Box::new(BlcoSystem::new(p1.clone())),
        Box::new(MmCsfSystem::new(p1.clone())),
        Box::new(FlycooSystem::new(p1.clone())),
        Box::new(EqualNnzSystem::new(p2)),
    ];
    check_coverage(&mut systems, &t, &factors);
    check_mmcsf_resident(&t, &factors, p1.clone());
    // ParTI is 3-mode only.
    let mut parti = PartiSystem::new(p1);
    assert!(matches!(
        parti.execute(&t, &factors),
        Err(SimError::Unsupported(_))
    ));
}

#[test]
fn five_mode_tensor_supported_systems() {
    let t = GenSpec::uniform(vec![14, 12, 10, 9, 8], 1500, 305).generate();
    let factors = factors_for(&t, 4, 306);
    let p1 = PlatformSpec::rtx6000_ada_node(1).scaled(1e-3);
    let p2 = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);

    check_amped_chain(&t, &factors, p2.clone());
    let mut systems: Vec<Box<dyn MttkrpSystem>> = vec![
        Box::new(AmpedSystem::with_rank(p2, 4)),
        Box::new(BlcoSystem::new(p1.clone())),
        Box::new(FlycooSystem::new(p1.clone())),
    ];
    check_coverage(&mut systems, &t, &factors);
    // MM-CSF and ParTI reject 5 modes (the paper's Twitch gap).
    assert!(matches!(
        MmCsfSystem::new(p1.clone()).execute(&t, &factors),
        Err(SimError::Unsupported(_))
    ));
    assert!(matches!(
        PartiSystem::new(p1).execute(&t, &factors),
        Err(SimError::Unsupported(_))
    ));
}
