//! The kernel cost model — every calibration constant in one place.
//!
//! MTTKRP is memory-bandwidth-bound on GPUs (the elementwise computation
//! moves ~10× more bytes than it computes FLOPs at rank 32), so block time is
//! `max(flop time, DRAM time) + atomic-conflict serialization`, with DRAM
//! traffic discounted for factor rows that hit in L2.
//!
//! The inputs are *measured workload statistics* (element counts, distinct
//! index counts), never magic per-dataset numbers: skewed tensors pay more
//! for atomics and less for factor-row traffic exactly like on hardware.

use crate::spec::GpuSpec;
use serde::Serialize;

/// Statistics of one block/partition of nonzeros, as consumed by the model.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BlockStats {
    /// Nonzero elements in the block.
    pub nnz: u64,
    /// Distinct output-mode indices touched (output-row traffic proxy).
    pub distinct_out: u64,
    /// Largest number of elements sharing one output index (atomic
    /// serialization depth: updates to the same address execute one at a
    /// time at the L2 atomic unit, so the hottest row bounds block latency).
    pub max_out_run: u64,
    /// Sum over input modes of distinct indices touched (L2 reuse proxy).
    pub distinct_in_total: u64,
    /// Factor-row reads that reach DRAM under frequency-weighted caching:
    /// the hottest rows (up to the L2's row capacity) are assumed resident —
    /// the dominant effect on skewed tensors, where a few popular rows
    /// absorb most accesses (§5.5's "popular streamers and games"). Computed
    /// exactly from per-row access counts by [`dram_factor_reads`].
    pub dram_factor_reads: u64,
    /// Whether the block's elements arrive sorted by output index. Sorted
    /// kernels accumulate same-row runs in registers and issue one atomic
    /// per distinct row (the reason AMPED and FLYCOO keep output-major
    /// layouts); unsorted kernels issue one atomic per element and serialize
    /// on hot rows.
    pub sorted_by_output: bool,
    /// Tensor order `N`.
    pub order: usize,
    /// Factor-matrix rank `R`.
    pub rank: usize,
    /// Bytes of one stored tensor element in this format (COO: `4N + 4`).
    pub elem_bytes: u64,
}

/// Tunable constants of the elementwise-computation model.
///
/// Defaults are derived from the RTX 6000 Ada datasheet numbers plus two
/// fitted constants (`atomic_conflict_ns`, `block_launch_us`) chosen so that
/// single-GPU COO MTTKRP throughput lands in the 1–3 Gnnz/s range reported
/// for this class of kernel; EXPERIMENTS.md records the calibration.
#[derive(Clone, Debug, Serialize)]
pub struct CostModel {
    /// Serialization cost of one conflicting atomic update (same address).
    pub atomic_conflict_ns: f64,
    /// Fixed cost to schedule one threadblock onto an SM.
    pub block_launch_us: f64,
    /// Per-element instruction overhead (index decode, address math) in ns —
    /// multiplied by format-specific `decode_factor`.
    pub elem_overhead_ns: f64,
    /// Sustained-to-peak DRAM efficiency of irregular gather/scatter kernels
    /// (MTTKRP's access pattern reaches nowhere near STREAM bandwidth).
    pub dram_efficiency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // 30 ns per same-address conflict ≈ 33 M fully-contended f32
        // atomicAdd/s, the measured order of magnitude on Ampere/Ada parts;
        // 45% sustained DRAM efficiency is typical for irregular gathers.
        Self {
            atomic_conflict_ns: 30.0,
            block_launch_us: 1.0,
            elem_overhead_ns: 0.35,
            dram_efficiency: 0.45,
        }
    }
}

impl CostModel {
    /// Simulated execution time (seconds) of the elementwise computation for
    /// one block running on one SM while `concurrency` blocks of the same
    /// grid are in flight (bandwidth and L2 are shared among the *active*
    /// SMs, not the full SM count — a grid with 6 blocks leaves most of the
    /// chip's bandwidth to those 6).
    ///
    /// `decode_factor` scales the per-element instruction overhead for
    /// formats with more expensive element decoding (e.g. BLCO bit-field
    /// extraction ≈ 2×, HiCOO block reconstruction ≈ 1.5×, plain COO = 1).
    pub fn block_time(
        &self,
        gpu: &GpuSpec,
        s: &BlockStats,
        decode_factor: f64,
        concurrency: usize,
    ) -> f64 {
        if s.nnz == 0 {
            return self.block_launch_us * 1e-6;
        }
        let active = concurrency.clamp(1, gpu.sms) as f64;
        let dram_share = gpu.dram_gbps * 1e9 * self.dram_efficiency / active;
        let r = s.rank as f64;
        let nnz = s.nnz as f64;
        let row_bytes = r * 4.0;

        // --- FLOPs: (N−1) Hadamard levels + value scale + accumulate.
        let flops = nnz * r * (s.order as f64 + 1.0);
        let flop_time = flops / gpu.sm_flops() + nnz * self.elem_overhead_ns * decode_factor * 1e-9;

        // --- DRAM traffic.
        // Tensor elements stream once.
        let elem_traffic = nnz * s.elem_bytes as f64;
        // Factor rows: the precomputed frequency-weighted miss count (hot
        // rows resident in the shared L2, cold rows missing every time).
        let factor_traffic = s.dram_factor_reads as f64 * row_bytes;
        // Output rows: one read-modify-write per distinct row reaches DRAM;
        // conflicting updates coalesce in L2.
        let out_traffic = s.distinct_out as f64 * row_bytes * 2.0;
        let dram_time = (elem_traffic + factor_traffic + out_traffic) / dram_share;

        // --- Atomic conflict serialization. Output-sorted kernels coalesce
        // same-row runs in registers (one atomic per distinct row — no
        // serialization to speak of). Unsorted kernels issue per-element
        // atomics, and updates to the same output row execute one after
        // another at the L2 atomic unit, so the hottest row's run length is
        // a latency floor for the block. The R lanes of a threadblock column
        // hit R distinct addresses concurrently, so the penalty is per
        // conflicting *element*, not per scalar update.
        let atomic_time = if s.sorted_by_output {
            0.0
        } else {
            s.max_out_run.saturating_sub(1) as f64 * self.atomic_conflict_ns * 1e-9
        };
        flop_time.max(dram_time).max(atomic_time) + self.block_launch_us * 1e-6
    }

    /// Host-side merge cost for `elems` row-element accumulations
    /// (equal-nnz baseline, Fig. 6).
    pub fn host_merge_time(&self, merge_elems_per_sec: f64, elems: u64) -> f64 {
        elems as f64 / merge_elems_per_sec
    }
}

/// Frequency-weighted DRAM factor-read count for a block.
///
/// `row_counts` holds the access count of every distinct factor row the
/// block touches (all input modes merged — the L2 is shared). The
/// `cache_rows` most-accessed rows are modelled as L2-resident (one cold
/// fill each); every access to a colder row goes to DRAM. This captures the
/// skew effect that a uniform miss rate cannot: on Twitch-like tensors a few
/// popular rows absorb most accesses and the kernel runs near the tensor's
/// own streaming bandwidth.
pub fn dram_factor_reads(mut row_counts: Vec<u32>, cache_rows: usize) -> u64 {
    dram_factor_reads_mut(&mut row_counts, cache_rows)
}

/// [`dram_factor_reads`] over a caller-owned buffer (sorted in place, no
/// allocation) — the form the `ShardStats` counting core uses with its
/// reusable scratch.
pub fn dram_factor_reads_mut(row_counts: &mut [u32], cache_rows: usize) -> u64 {
    if cache_rows >= row_counts.len() {
        // Every row fits: one cold fill each, no DRAM re-reads. Same value
        // the sorted path computes, without the sort — this is the planner's
        // case (`cache_rows == usize::MAX` disables the cache model).
        return row_counts.len() as u64;
    }
    row_counts.sort_unstable_by(|a, b| b.cmp(a));
    let cached = row_counts.len().min(cache_rows);
    let uncovered: u64 = row_counts[cached..].iter().map(|&c| c as u64).sum();
    cached as u64 + uncovered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(nnz: u64, distinct_out: u64, distinct_in: u64) -> BlockStats {
        BlockStats {
            nnz,
            distinct_out,
            max_out_run: nnz.checked_div(distinct_out).unwrap_or(0),
            distinct_in_total: distinct_in,
            dram_factor_reads: distinct_in,
            sorted_by_output: false,
            order: 3,
            rank: 32,
            elem_bytes: 16,
        }
    }

    #[test]
    fn empty_block_costs_only_launch() {
        let m = CostModel::default();
        let g = GpuSpec::rtx6000_ada();
        let t = m.block_time(&g, &stats(0, 0, 0), 1.0, 142);
        assert!((t - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn cost_grows_with_nnz() {
        let m = CostModel::default();
        let g = GpuSpec::rtx6000_ada();
        let t1 = m.block_time(&g, &stats(1_000, 1_000, 2_000), 1.0, 142);
        let t2 = m.block_time(&g, &stats(10_000, 10_000, 20_000), 1.0, 142);
        assert!(t2 > 5.0 * t1, "cost should scale ~linearly: {t1} vs {t2}");
    }

    #[test]
    fn conflicts_cost_more_than_spread_updates() {
        let m = CostModel::default();
        let g = GpuSpec::rtx6000_ada();
        // Same nnz and traffic; one block funnels almost everything into a
        // single output row (serialization depth ≈ nnz), the other spreads
        // updates evenly. Only the serialized block should pay extra (the
        // light row traffic keeps DRAM below the serialization floor).
        let spread = BlockStats {
            max_out_run: 50,
            ..stats(50_000, 1_000, 5_000)
        };
        let hot = BlockStats {
            max_out_run: 50_000,
            ..stats(50_000, 1_000, 5_000)
        };
        let t_spread = m.block_time(&g, &spread, 1.0, 142);
        let t_hot = m.block_time(&g, &hot, 1.0, 142);
        assert!(
            t_hot > t_spread,
            "serialized atomics must be slower: {t_hot} vs {t_spread}"
        );
    }

    #[test]
    fn reuse_reduces_dram_time() {
        let m = CostModel::default();
        let g = GpuSpec::rtx6000_ada();
        // Few distinct input rows → high L2 reuse → cheaper than all-distinct.
        let reused = m.block_time(&g, &stats(100_000, 100_000, 1_000), 1.0, 142);
        let cold = m.block_time(&g, &stats(100_000, 100_000, 200_000), 1.0, 142);
        assert!(reused < cold, "L2 reuse must help: {reused} vs {cold}");
    }

    #[test]
    fn decode_factor_increases_cost_in_compute_bound_regime() {
        let m = CostModel {
            elem_overhead_ns: 50.0, // force instruction-bound regime
            ..CostModel::default()
        };
        let g = GpuSpec::rtx6000_ada();
        // Light traffic so the instruction term dominates.
        let plain = m.block_time(&g, &stats(100_000, 1_000, 1_000), 1.0, 142);
        let blco = m.block_time(&g, &stats(100_000, 1_000, 1_000), 2.0, 142);
        assert!(blco > plain);
    }

    #[test]
    fn throughput_is_in_plausible_range() {
        // A full GPU's worth of blocks should land in ~0.5–10 Gnnz/s for COO
        // MTTKRP at R=32 — the range reported across the GPU MTTKRP papers.
        let m = CostModel::default();
        let g = GpuSpec::rtx6000_ada();
        let nnz_per_block = 100_000u64;
        let t = m.block_time(&g, &stats(nnz_per_block, 20_000, 60_000), 1.0, 142);
        let per_gpu = nnz_per_block as f64 * g.sms as f64 / t; // all SMs busy
        assert!(
            (0.5e9..10e9).contains(&per_gpu),
            "implausible throughput {per_gpu:.3e} nnz/s"
        );
    }
}
