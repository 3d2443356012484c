//! Every candidate of the parameter search is bit-transparent: an engine
//! with any entry of `amped::tune::candidates(rank)` installed by `set_tune`
//! computes the default run's bits on every mode, in core and out of core.

mod common;

use amped::core::engine::{Engine, Source};
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

/// Installs each candidate on `tuned` and checks every mode against `base`.
fn assert_candidates_transparent<S: Source>(
    base: &mut Engine<S>,
    tuned: &mut Engine<S>,
    t: &SparseTensor,
    fs: &[Mat],
) {
    for cand in amped::tune::candidates(cfg().rank) {
        tuned.set_tune(cand);
        for d in 0..t.order() {
            let (want, _) = base.mttkrp_mode(d, fs).unwrap();
            let (got, _) = tuned.mttkrp_mode(d, fs).unwrap();
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "mode {d}: {cand:?} changed the numerics"
            );
        }
    }
}

#[test]
fn every_candidate_is_bit_identical_in_core() {
    let t = tensor();
    let fs = factors(&t, 16, 72);
    let mut base = AmpedEngine::new(&t, spec(), cfg()).unwrap();
    let mut tuned = AmpedEngine::new(&t, spec(), cfg()).unwrap();
    assert_candidates_transparent(&mut base, &mut tuned, &t, &fs);
}

#[test]
fn every_candidate_is_bit_identical_out_of_core() {
    let t = tensor();
    let dir = common::ScratchDir::new("autotune");
    let path = dir.join("tuned.tnsb");
    write_tnsb(&t, &path, 512).unwrap();
    let budget = 512u64 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let fs = factors(&t, 16, 73);
    let mut base = OocEngine::open(&path, spec(), cfg(), budget).unwrap();
    let mut tuned = OocEngine::open(&path, spec(), cfg(), budget).unwrap();
    assert_candidates_transparent(&mut base, &mut tuned, &t, &fs);
}
