//! `MttkrpEngine::replan`: handing an engine a new device assignment for
//! one mode re-cuts that mode in place, keeps the MTTKRP exact, rejects
//! malformed assignments, and moves each GPU's reported load to the
//! histogram mass of the indices it now owns — in core and out of core.

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
    let dir = common::ScratchDir::new("engine_replan");
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
