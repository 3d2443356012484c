//! The common baseline interface and shared pricing helpers.

use amped_linalg::Mat;
use amped_sim::metrics::RunReport;
use amped_sim::{GpuSpec, SimError};
use amped_tensor::SparseTensor;
use serde::Serialize;

/// Table 1 of the paper: qualitative system characteristics.
#[derive(Clone, Debug, Serialize)]
pub struct Capabilities {
    /// System name as used in the paper.
    pub name: &'static str,
    /// "Number of tensor copies required" column.
    pub tensor_copies: &'static str,
    /// Multi-GPU support.
    pub multi_gpu: bool,
    /// Load balancing across processing units.
    pub load_balancing: bool,
    /// Support for billion-scale tensors (out-of-GPU-memory operation).
    pub billion_scale: bool,
    /// Task-independent partitioning across GPUs.
    pub task_independent: bool,
    /// Highest tensor order supported (`usize::MAX` = unlimited).
    pub max_order: usize,
}

/// Result of one full system execution (MTTKRP along all modes, one
/// iteration — the paper's §5.1.6 metric).
#[derive(Clone, Debug)]
pub struct SystemRun {
    /// Simulated timing (includes real preprocessing wall time).
    pub report: RunReport,
    /// Per mode, the nonzeros the modeled time covers: the sum of
    /// [`amped_sim::costmodel::BlockStats::nnz`] over the blocks the system
    /// priced. Every element lands in exactly one block, so each entry is
    /// the tensor's nonzero count.
    pub priced_nnz: Vec<u64>,
    /// Peak simulated GPU memory across devices, bytes.
    pub gpu_mem_peak: u64,
}

/// A system under evaluation: preprocesses a tensor and models MTTKRP
/// along all modes on the simulated platform.
pub trait MttkrpSystem {
    /// System name (Figure 5 x-axis labels).
    fn name(&self) -> &'static str;

    /// Qualitative characteristics (Table 1).
    fn capabilities(&self) -> Capabilities;

    /// Preprocesses `tensor` into the system's format, charges its memory
    /// and prices MTTKRP along all modes at the rank of `factors`. The
    /// baselines are models: they read only the rank and compute no
    /// factors. AMPED, the system under test, runs its engine on `factors`.
    /// Errors with [`SimError::OutOfMemory`] / [`SimError::Unsupported`]
    /// reproduce the paper's "runtime error" bars.
    fn execute(&mut self, tensor: &SparseTensor, factors: &[Mat]) -> Result<SystemRun, SimError>;
}

/// Double-buffered streaming pipeline timing (§4.8): `transfers[k]` and
/// `computes[k]` are per-chunk times; transfer `k+1` overlaps compute `k`,
/// and transfer `k` waits for buffer `k−2` to drain. Returns
/// `(end_time, compute_busy)`.
pub fn pipeline_time(transfers: &[f64], computes: &[f64]) -> (f64, f64) {
    assert_eq!(transfers.len(), computes.len());
    let n = transfers.len();
    let mut transfer_end = vec![0.0f64; n];
    let mut compute_end = vec![0.0f64; n];
    let mut busy = 0.0;
    for k in 0..n {
        let prev_transfer = if k > 0 { transfer_end[k - 1] } else { 0.0 };
        let buffer_free = if k >= 2 { compute_end[k - 2] } else { 0.0 };
        transfer_end[k] = prev_transfer.max(buffer_free) + transfers[k];
        let prev_compute = if k > 0 { compute_end[k - 1] } else { 0.0 };
        compute_end[k] = prev_compute.max(transfer_end[k]) + computes[k];
        busy += computes[k];
    }
    (compute_end.last().copied().unwrap_or(0.0), busy)
}

/// Groups `total` work items into contiguous chunks of at most `per_chunk`,
/// returning `(start, end)` pairs — used to build grid work units from
/// format blocks.
pub fn chunk_ranges(total: usize, per_chunk: usize) -> Vec<(usize, usize)> {
    assert!(per_chunk > 0);
    let mut out = Vec::with_capacity(total.div_ceil(per_chunk));
    let mut start = 0;
    while start < total {
        let end = (start + per_chunk).min(total);
        out.push((start, end));
        start = end;
    }
    out
}

/// Bytes of one `f32` copy of every factor matrix at `rank`.
pub fn factor_bytes(tensor: &SparseTensor, rank: usize) -> u64 {
    tensor
        .shape()
        .iter()
        .map(|&d| d as u64 * rank as u64 * 4)
        .sum()
}

/// L2 capacity of `gpu` in factor rows at `rank`.
pub fn cache_rows(gpu: &GpuSpec, rank: usize) -> usize {
    (gpu.l2_bytes / (rank as u64 * 4)).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_partition::{ShardStats, StatsScratch};

    /// The statistics every baseline prices a chunk with: output mode 0 of
    /// a 3-mode chunk given as row-major coordinates.
    fn stats_from_coords(coords: &[u32], cache_rows: usize) -> ShardStats {
        ShardStats::compute_from_coords(coords, 3, 0, cache_rows, &mut StatsScratch::new())
    }

    #[test]
    fn stats_from_coords_basics() {
        let coords = [1u32, 0, 0, 1, 1, 2, 1, 1, 3, 2, 3, 3];
        let st = stats_from_coords(&coords, usize::MAX);
        assert_eq!(st.nnz, 4);
        assert_eq!(st.distinct_out, 2);
        assert_eq!(st.max_out_run, 3);
        assert_eq!(st.distinct_in_total, 3 + 3);
        // Infinite cache: DRAM reads = one cold fill per distinct row.
        assert_eq!(st.dram_factor_reads, 6);
    }

    #[test]
    fn stats_cache_capacity_bounds_reads() {
        // One row accessed 5×, four rows once each (mode-1 inputs).
        let coords: Vec<u32> = (0..9u32)
            .flat_map(|i| [0, if i < 5 { 7 } else { 8 + i }, 0])
            .collect();
        let all = stats_from_coords(&coords, usize::MAX);
        // mode1: {7×5, 13,14,15,16}; mode2: {0×9}.
        assert_eq!(all.dram_factor_reads, 5 + 1);
        let one = stats_from_coords(&coords, 1);
        // Only the hottest row is cached (mode2's index 0, 9 accesses → one
        // fill); everything else misses: 1 + (5 + 4) = 10.
        assert_eq!(one.dram_factor_reads, 10);
    }

    #[test]
    fn stats_empty_chunk() {
        let st = stats_from_coords(&[], 8);
        assert_eq!(st.nnz, 0);
        assert_eq!(st.dram_factor_reads, 0);
    }

    #[test]
    fn pipeline_no_overlap_single_chunk() {
        let (end, busy) = pipeline_time(&[2.0], &[3.0]);
        assert_eq!(end, 5.0);
        assert_eq!(busy, 3.0);
    }

    #[test]
    fn pipeline_overlaps_transfer_and_compute() {
        // Equal chunks: after warmup, transfers hide behind computes.
        let (end, busy) = pipeline_time(&[1.0; 4], &[2.0; 4]);
        // t0 ends at 1; computes run back to back: 1+2*4 = 9.
        assert_eq!(end, 9.0);
        assert_eq!(busy, 8.0);
    }

    #[test]
    fn pipeline_transfer_bound() {
        // Transfers dominate: end ≈ all transfers serialized + last compute.
        let (end, _) = pipeline_time(&[2.0; 3], &[0.5; 3]);
        assert_eq!(end, 6.5);
    }

    #[test]
    fn pipeline_empty() {
        let (end, busy) = pipeline_time(&[], &[]);
        assert_eq!(end, 0.0);
        assert_eq!(busy, 0.0);
    }

    #[test]
    fn chunk_ranges_tile() {
        let c = chunk_ranges(10, 4);
        assert_eq!(c, vec![(0, 4), (4, 8), (8, 10)]);
        assert!(chunk_ranges(0, 4).is_empty());
    }
}
