//! The equal-nnz distribution strawman (paper §5.3, Fig. 6).
//!
//! "An alternative approach is to distribute the non-zero tensor elements
//! equally among all GPUs. It introduces additional computations on the host
//! CPU to merge the partial results of each tensor shard." — because chunk
//! boundaries ignore output-index boundaries, several GPUs produce partial
//! sums for the same output rows, which must be combined (and re-broadcast)
//! through the host after every mode.

use crate::shard::{ShardStats, StatsScratch};
use amped_tensor::{Idx, SparseTensor};
use std::ops::Range;

/// One GPU's chunk under equal-nnz splitting.
#[derive(Clone, Debug)]
pub struct EqualChunk {
    /// Owning GPU.
    pub gpu: usize,
    /// Element range in the *original* (unsorted) tensor order.
    pub elem_range: Range<usize>,
    /// Workload statistics of the chunk.
    pub stats: ShardStats,
}

/// The equal-nnz plan for one output mode.
#[derive(Clone, Debug)]
pub struct EqualPlan {
    /// Output mode.
    pub mode: usize,
    /// One chunk per GPU (possibly empty for tiny tensors).
    pub chunks: Vec<EqualChunk>,
    /// Output rows touched by two or more GPUs — each needs a host-side merge.
    pub conflicted_rows: u64,
    /// Sum over GPUs of output rows touched (partial-result upload volume).
    pub total_touched_rows: u64,
}

impl EqualPlan {
    /// Splits `t` into `num_gpus` equal contiguous element chunks for output
    /// mode `d`, in the tensor's original element order (no preprocessing —
    /// that is the scheme's one advantage).
    pub fn build(t: &SparseTensor, d: usize, num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        let nnz = t.nnz();
        let per = nnz.div_ceil(num_gpus);
        let mut chunks = Vec::with_capacity(num_gpus);
        let mut touched = vec![0u8; t.dim(d) as usize]; // count of GPUs touching each row (saturating at 2)
        let mut total_touched_rows = 0u64;
        let mut scratch = StatsScratch::new();
        for g in 0..num_gpus {
            let (lo, hi) = ((g * per).min(nnz), ((g + 1) * per).min(nnz));
            let stats = ShardStats::compute_scratch(t, d, lo..hi, usize::MAX, &mut scratch);
            total_touched_rows += stats.distinct_out;
            // Mark the rows this GPU touches (distinct per GPU).
            let mut rows: Vec<Idx> = (lo..hi).map(|e| t.idx(e, d)).collect();
            rows.sort_unstable();
            rows.dedup();
            for r in rows {
                let c = &mut touched[r as usize];
                *c = c.saturating_add(1);
            }
            chunks.push(EqualChunk {
                gpu: g,
                elem_range: lo..hi,
                stats,
            });
        }
        let conflicted_rows = touched.iter().filter(|&&c| c >= 2).count() as u64;
        Self {
            mode: d,
            chunks,
            conflicted_rows,
            total_touched_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn chunks_cover_all_elements() {
        let t = GenSpec::uniform(vec![50, 50], 1000, 3).generate();
        let p = EqualPlan::build(&t, 0, 4);
        let total: usize = p.chunks.iter().map(|c| c.elem_range.len()).sum();
        assert_eq!(total, t.nnz());
        // Contiguous, in order.
        for w in p.chunks.windows(2) {
            assert_eq!(w[0].elem_range.end, w[1].elem_range.start);
        }
    }

    #[test]
    fn chunks_are_equal_sized_within_one() {
        let t = GenSpec::uniform(vec![50, 50], 1001, 4).generate();
        let p = EqualPlan::build(&t, 0, 4);
        let sizes: Vec<usize> = p.chunks.iter().map(|c| c.elem_range.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(
            max - min <= max.div_ceil(4),
            "sizes {sizes:?} not near-equal"
        );
    }

    #[test]
    fn unsorted_input_produces_conflicts() {
        // In original (random) element order, the same output index almost
        // surely appears in several chunks — that is the scheme's flaw.
        let t = GenSpec::uniform(vec![20, 100, 100], 4000, 5).generate();
        let p = EqualPlan::build(&t, 0, 4);
        assert!(
            p.conflicted_rows > 0,
            "expected conflicted rows on random data"
        );
        assert!(p.total_touched_rows >= p.conflicted_rows);
    }

    #[test]
    fn single_gpu_has_no_conflicts() {
        let t = GenSpec::uniform(vec![20, 20], 500, 6).generate();
        let p = EqualPlan::build(&t, 0, 1);
        assert_eq!(p.conflicted_rows, 0);
        assert_eq!(p.chunks.len(), 1);
    }

    #[test]
    fn more_gpus_than_elements() {
        let t = GenSpec::uniform(vec![8, 8], 3, 7).generate();
        let p = EqualPlan::build(&t, 0, 8);
        let total: usize = p.chunks.iter().map(|c| c.elem_range.len()).sum();
        assert_eq!(total, t.nnz());
    }
}
