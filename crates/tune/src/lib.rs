//! # `amped-tune` — the searched execution-parameter probe
//!
//! Every [`TuneParams`] knob is numerics-transparent by construction (see
//! `amped_runtime::params`), which makes them safe to *search*: this crate
//! benchmarks a small candidate grid on a subsampled, mode-sorted shard of
//! the real tensor and returns the fastest. Nothing is remembered and
//! nothing is read from or written to disk: every call searches again, and
//! the engines never call it (they run with `TuneParams::default()` unless
//! a caller installs other parameters with `set_tune`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amped_linalg::Mat;
use amped_runtime::kernels::{even_blocks, mttkrp_host, CompiledShard, FactorsView, MttkrpOut};
use amped_runtime::TuneParams;
use amped_sim::host_workers;
use amped_tensor::{Idx, SparseTensor, Val};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// Largest probe shard the search benchmarks candidates on. Subsampling is
/// strided, so the probe keeps the original's index distribution.
pub const MAX_PROBE_NNZ: usize = 32_768;

/// Timed probe runs per candidate; the minimum is taken (the first run
/// doubles as warmup and is timed like the rest — on a quiet machine it
/// simply never wins).
const PROBE_RUNS: usize = 4;

/// A backend label for a search: the runtime's name
/// ([`amped_runtime::DeviceRuntime::name`]) plus the host worker budget —
/// a winner searched with 8 workers says nothing about a 1-worker host.
pub fn backend_fingerprint(runtime_name: &str) -> String {
    format!("{}-w{}", runtime_name, host_workers())
}

/// The parameter search. It holds no state: each
/// [`Autotuner::params_for_tensor`] call runs one grid search.
#[derive(Debug)]
pub struct Autotuner;

impl Autotuner {
    /// A tuner (searches are never cached).
    pub fn in_memory() -> Self {
        Self
    }

    /// Parameters for running `t` at rank `rank` on `backend`: the fastest
    /// of the [`candidates`], benchmarked on a strided subsample of `t`.
    /// The backend label (see [`backend_fingerprint`]) names where the search ran;
    /// it does not change the search.
    pub fn params_for_tensor(
        &mut self,
        _backend: &str,
        t: &SparseTensor,
        rank: usize,
    ) -> TuneParams {
        search_grid(t, rank)
    }
}

/// Strided subsample of at most `max` nonzeros: `(flat coords, values)` in
/// the `k × order` layout the probe kernel reads.
fn subsample(t: &SparseTensor, max: usize) -> (Vec<Idx>, Vec<Val>) {
    let nnz = t.nnz();
    let order = t.order();
    let stride = nnz.div_ceil(max.max(1)).max(1);
    let mut coords = Vec::new();
    let mut vals = Vec::new();
    let mut e = 0;
    while e < nnz {
        for m in 0..order {
            coords.push(t.idx(e, m));
        }
        vals.push(t.value(e));
        e += stride;
    }
    (coords, vals)
}

/// Benchmarks the [`candidates`] on a strided subsample of `t` and returns
/// the fastest, timed on the kernel the engines launch: the subsample is
/// sorted by mode 0 once, outside the timing loop, and every candidate runs
/// the kernel layer's run path over that copy in `4 × workers` blocks.
///
/// Per-mode indices are compacted to first-seen ranks so factor matrices
/// stay probe-sized even for billion-row modes; compaction preserves the
/// access *pattern* (reuse distances and run structure), which is what the
/// candidates differ on.
fn search_grid(t: &SparseTensor, rank: usize) -> TuneParams {
    let (order, rank) = (t.order(), rank.max(1));
    let (coords, vals) = subsample(t, MAX_PROBE_NNZ);
    let k = vals.len();
    if k == 0 {
        return TuneParams::default();
    }
    let mut dims = vec![0usize; order];
    let mut remapped = vec![0 as Idx; coords.len()];
    for m in 0..order {
        let mut ranks: HashMap<Idx, Idx> = HashMap::new();
        for e in 0..k {
            let next = ranks.len() as Idx;
            let id = *ranks.entry(coords[e * order + m]).or_insert(next);
            remapped[e * order + m] = id;
        }
        dims[m] = ranks.len().max(1);
    }
    let mut rng = SmallRng::seed_from_u64(0xA11CED);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| Mat::random(d, rank, &mut rng))
        .collect();
    let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
    let out = MttkrpOut::zeros(dims[0], rank);
    let sorted = CompiledShard::compile(&remapped, &vals, order, 0);
    let src = sorted.sorted_coo();

    let mut best = TuneParams::default();
    let mut best_elapsed = f64::INFINITY;
    for cand in candidates(rank) {
        let blocks = even_blocks(k, 4 * cand.workers);
        for _ in 0..PROBE_RUNS {
            let t0 = Instant::now();
            mttkrp_host(&src, &views, &blocks, &cand, &out);
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed < best_elapsed {
                best_elapsed = elapsed;
                best = cand;
            }
        }
    }
    best
}

/// The searched grid at `rank`: the tile widths that actually differ at this
/// rank, crossed with serial vs the full worker pool; the OOC pipeline knobs
/// keep their defaults. Every entry is bit-transparent
/// (`tests/autotune_engine.rs` runs both engines under each).
pub fn candidates(rank: usize) -> Vec<TuneParams> {
    let mut rank_chunks = vec![8usize, 32, 256];
    rank_chunks.dedup_by_key(|rc| (*rc).min(rank));
    let mut pools = vec![1, host_workers()];
    pools.dedup();
    let mut grid = Vec::new();
    for &workers in &pools {
        for &rank_chunk in &rank_chunks {
            grid.push(TuneParams {
                rank_chunk,
                workers,
                ..TuneParams::default()
            });
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn winner_is_a_valid_parameterization() {
        let t = GenSpec::uniform(vec![50, 40, 30], 3000, 17).generate();
        let mut tuner = Autotuner::in_memory();
        let p = tuner.params_for_tensor("sim-w4", &t, 16);
        assert!(candidates(16).contains(&p), "the winner is a candidate");
        assert!((1..=amped_runtime::MAX_RANK_CHUNK).contains(&p.effective_rank_chunk()));
        assert!(p.effective_workers() >= 1);
        assert_eq!(p.ooc_chunk_budget, TuneParams::default().ooc_chunk_budget);
        assert_eq!(p.prefetch_depth, TuneParams::default().prefetch_depth);

        // An empty tensor leaves nothing to time: the defaults come back.
        let empty = SparseTensor::new(vec![4, 4, 4]);
        let p = Autotuner::in_memory().params_for_tensor("sim-w4", &empty, 16);
        assert_eq!(p, TuneParams::default());
    }
}
