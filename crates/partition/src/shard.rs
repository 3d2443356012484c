//! Tensor shards and inter-shard partitions (paper §3.1–3.2).

use crate::ccp::chains_on_chains;
use amped_sim::costmodel::BlockStats;
use amped_tensor::{Idx, SortedCopy, SparseTensor};
use serde::Serialize;
use std::ops::Range;

/// Workload statistics of a contiguous element range, consumed by the
/// simulator cost model and by the load-balance experiments (Fig. 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ShardStats {
    /// Nonzero count.
    pub nnz: u64,
    /// Distinct output-mode indices.
    pub distinct_out: u64,
    /// Largest element count sharing one output index (atomic serialization
    /// depth).
    pub max_out_run: u64,
    /// Sum over input modes of distinct indices (factor-row working set).
    pub distinct_in_total: u64,
    /// Factor-row reads reaching DRAM when the hottest `cache_rows` rows
    /// (the `compute` argument) stay cache-resident.
    pub dram_factor_reads: u64,
}

impl ShardStats {
    /// Computes the statistics of `elem_range` in `t` for output mode `d`,
    /// with `cache_rows` hot factor rows assumed cache-resident (pass the
    /// GPU's L2 capacity in rows; `usize::MAX` disables the cache model).
    ///
    /// Works on any element order; `O(k)` for a range of `k` elements plus
    /// a fresh [`StatsScratch`] — loops should hold one and call
    /// [`ShardStats::compute_scratch`].
    pub fn compute(
        t: &SparseTensor,
        d: usize,
        elem_range: Range<usize>,
        cache_rows: usize,
    ) -> Self {
        Self::compute_scratch(t, d, elem_range, cache_rows, &mut StatsScratch::new())
    }

    /// [`ShardStats::compute`] through a caller-held [`StatsScratch`]: one
    /// workspace amortized over every range of a loop.
    pub fn compute_scratch(
        t: &SparseTensor,
        d: usize,
        elem_range: Range<usize>,
        cache_rows: usize,
        scratch: &mut StatsScratch,
    ) -> Self {
        let n = t.order();
        let coords = &t.indices_flat()[elem_range.start * n..elem_range.end * n];
        Self::compute_from_coords(coords, n, d, cache_rows, scratch)
    }

    /// Computes the statistics of a raw element-major coordinate slice
    /// (`k × order`, the layout of [`SparseTensor::indices_flat`] and of
    /// file-order chunk payloads) in any element order, without
    /// materializing a tensor: the output mode is tallied like the others.
    pub fn compute_from_coords(
        coords: &[Idx],
        order: usize,
        d: usize,
        cache_rows: usize,
        scratch: &mut StatsScratch,
    ) -> Self {
        assert!(order > 0, "order must be positive");
        assert!(
            coords.len().is_multiple_of(order),
            "coords must be k × order"
        );
        let nnz = coords.len() / order;
        if nnz == 0 {
            return Self::default();
        }
        let out_mode = scratch.tally(coords.chunks_exact(order).map(|c| c[d]), false);
        scratch.count(nnz, coords, order, Some(d), out_mode, cache_rows)
    }

    /// Statistics of elements `range` of a mode-sorted copy in the
    /// row-pointer layout (an [`amped_tensor::SortedCopy`], or a chunk of a
    /// `.tnsb` sorted section): `inputs` holds `width` input coordinates per
    /// element and row `i` owns elements `row_ptr[i]..row_ptr[i + 1]`. The
    /// output-mode numbers come off the row pointers — the rows a range
    /// touches are consecutive, so `distinct_out` is the non-empty ones
    /// among them and `max_out_run` the longest overlap (the range may start
    /// and end mid-row) — and only the input columns are tallied.
    pub fn compute_sorted(
        inputs: &[Idx],
        width: usize,
        row_ptr: &[usize],
        range: Range<usize>,
        cache_rows: usize,
        scratch: &mut StatsScratch,
    ) -> Self {
        if range.is_empty() {
            return Self::default();
        }
        let row_of = |e: usize| row_ptr.partition_point(|&p| p <= e) - 1;
        let (mut distinct_out, mut max_out_run) = (0u64, 0usize);
        for row in row_of(range.start)..=row_of(range.end - 1) {
            let run = row_ptr[row + 1].min(range.end) - row_ptr[row].max(range.start);
            distinct_out += (run > 0) as u64;
            max_out_run = max_out_run.max(run);
        }
        let coords = &inputs[range.start * width..range.end * width];
        let out_mode = (distinct_out, max_out_run as u64);
        scratch.count(range.len(), coords, width, None, out_mode, cache_rows)
    }

    /// The cost model's view of these elements for a kernel at `rank` that
    /// streams `elem_bytes` per element; `sorted_by_output` says whether
    /// equal output indices arrive clustered.
    pub fn block(
        &self,
        order: usize,
        rank: usize,
        elem_bytes: u64,
        sorted_by_output: bool,
    ) -> BlockStats {
        BlockStats {
            nnz: self.nnz,
            distinct_out: self.distinct_out,
            max_out_run: self.max_out_run,
            distinct_in_total: self.distinct_in_total,
            dram_factor_reads: self.dram_factor_reads,
            sorted_by_output,
            order,
            rank,
            elem_bytes,
        }
    }
}

/// Reusable counting workspace behind every [`ShardStats`] entry point:
/// per-index epoch stamps and occurrence counts, grown lazily to the largest
/// index seen. The epoch stamp makes reuse free — no clearing between
/// shards or modes, just a generation bump.
#[derive(Clone, Debug, Default)]
pub struct StatsScratch {
    epoch: u32,
    /// Per index: the epoch that last saw it (high half) and its count in
    /// that epoch (low half) — one word, one cache line per key.
    cells: Vec<u64>,
    distinct: Vec<Idx>,
    row_counts: Vec<u32>,
}

impl StatsScratch {
    /// Fresh workspace. Arrays grow on demand; pre-sizing is unnecessary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one counting core: statistics of `nnz` (> 0) elements whose
    /// element-major `coords` have `width` columns, every column but `skip`
    /// an input mode, given the output mode's `(distinct_out, max_out_run)`.
    /// A distinct index's occurrence count is its run length in sorted
    /// order, and [`amped_sim::costmodel::dram_factor_reads_mut`] sorts the
    /// row counts itself, so tallying in first-seen order loses nothing.
    fn count(
        &mut self,
        nnz: usize,
        coords: &[Idx],
        width: usize,
        skip: Option<usize>,
        (distinct_out, max_out_run): (u64, u64),
        cache_rows: usize,
    ) -> ShardStats {
        self.row_counts.clear();
        let mut distinct_in_total = 0u64;
        for w in (0..width).filter(|&w| Some(w) != skip) {
            let (distinct, _) = self.tally(coords.chunks_exact(width).map(|c| c[w]), true);
            distinct_in_total += distinct;
        }
        let dram_factor_reads =
            amped_sim::costmodel::dram_factor_reads_mut(&mut self.row_counts, cache_rows);
        ShardStats {
            nnz: nnz as u64,
            distinct_out,
            max_out_run,
            distinct_in_total,
            dram_factor_reads,
        }
    }

    /// Counts occurrences of each key. Returns `(distinct, max_count)`;
    /// when `collect_rows`, appends each distinct index's count to the
    /// shared row-count pool (in first-seen order).
    fn tally(
        &mut self,
        keys: impl ExactSizeIterator<Item = Idx>,
        collect_rows: bool,
    ) -> (u64, u64) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // u32 generation wrapped: stale stamps could alias. Reset once
            // every four billion passes.
            self.cells.fill(0);
            self.epoch = 1;
        }
        let stamp = (self.epoch as u64) << 32;
        // Room for every key to be new, so the loop appends without asking.
        if self.distinct.len() < keys.len() {
            self.distinct.resize(keys.len(), 0);
        }
        let mut seen = 0usize;
        for key in keys {
            let i = key as usize;
            if i >= self.cells.len() {
                self.cells.resize(i + 1, 0);
            }
            // No branch on `fresh`: on an ISP's worth of random coordinates
            // it is a coin flip, and a mispredict costs more than both arms.
            let cell = &mut self.cells[i];
            let fresh = *cell < stamp;
            *cell = if fresh { stamp | 1 } else { *cell + 1 };
            self.distinct[seen] = key;
            seen += fresh as usize;
        }
        let counts = self.distinct[..seen]
            .iter()
            .map(|&i| self.cells[i as usize] as u32);
        let max_count = counts.clone().max().unwrap_or(0);
        if collect_rows {
            self.row_counts.extend(counts);
        }
        (seen as u64, max_count as u64)
    }
}

/// One tensor shard: the unit of host→GPU streaming and of grid execution.
/// Its nonzero count is `elem_range.len()`; the statistics the cost model
/// prices are taken per ISP, when the shard is priced.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Owning GPU.
    pub gpu: usize,
    /// Output-mode index range covered (aligned to index boundaries, so one
    /// output index never spans shards of different GPUs).
    pub index_range: Range<Idx>,
    /// Element range within the mode-sorted tensor copy.
    pub elem_range: Range<usize>,
}

impl Shard {
    /// Bytes transferred when streaming this shard (COO payload).
    pub fn bytes(&self, elem_bytes: u64) -> u64 {
        self.elem_range.len() as u64 * elem_bytes
    }
}

/// The per-output-mode partitioning product: a mode-sorted tensor copy, the
/// per-GPU contiguous device ranges, and the shard list.
#[derive(Clone, Debug)]
pub struct ModePlan {
    /// Output mode this plan targets.
    pub mode: usize,
    /// GPU count the plan was built for.
    pub num_gpus: usize,
    /// Contiguous output-index range owned by each GPU.
    pub device_ranges: Vec<Range<Idx>>,
    /// Shards in stream order (grouped by GPU, ascending index ranges).
    pub shards: Vec<Shard>,
    /// The tensor copy, counting-sorted by output-mode index, with its row
    /// pointers — what shard cuts, the output-mode statistics of any range
    /// and [`ModePlan::hist`] are read from. Stored in host memory in the
    /// real system; shards reference element ranges within it.
    pub copy: SortedCopy,
}

/// Checks that `device_ranges` tile the index space `0..dim` contiguously
/// and in order — the contract of every per-mode (re)build, in core and out
/// of core.
///
/// # Panics
/// Panics if they do not.
pub fn assert_ranges_tile(device_ranges: &[Range<Idx>], dim: Idx) {
    let num_gpus = device_ranges.len();
    assert!(num_gpus > 0, "need at least one GPU");
    assert_eq!(device_ranges[0].start, 0, "ranges must start at index 0");
    assert_eq!(
        device_ranges[num_gpus - 1].end,
        dim,
        "ranges must cover the whole index space"
    );
    assert!(
        device_ranges.windows(2).all(|w| w[0].end == w[1].start),
        "device ranges must be contiguous and in order"
    );
}

impl ModePlan {
    /// Builds the mode-`d` plan: CCP device ranges balanced by nonzero count,
    /// then shards of at most `shard_nnz_budget` elements aligned to output
    /// index boundaries (a single hotter-than-budget index becomes its own
    /// oversized shard — it cannot be split without breaking the
    /// no-inter-GPU-conflict invariant).
    pub fn build(t: &SparseTensor, d: usize, num_gpus: usize, shard_nnz_budget: usize) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        let hist = t.mode_hist(d);
        let device_ranges = chains_on_chains(&hist, num_gpus);
        Self::build_with_ranges_hist(t, d, &hist, device_ranges, shard_nnz_budget)
    }

    /// Builds the mode-`d` plan for externally supplied contiguous device
    /// ranges — the seam the `amped-plan` partitioner layer materializes
    /// its assignments through — given the mode-`d` histogram the planner
    /// was run on: the counting sort, then the shard cuts. [`crate::PartitionPlan`] runs it as one pool job per mode.
    ///
    /// # Panics
    /// Panics if `hist` is not the mode-`d` histogram of `t` or the ranges
    /// do not tile `0..t.dim(d)` contiguously in order.
    pub fn build_with_ranges_hist(
        t: &SparseTensor,
        d: usize,
        hist: &[u64],
        device_ranges: Vec<Range<Idx>>,
        shard_nnz_budget: usize,
    ) -> Self {
        assert_ranges_tile(&device_ranges, t.dim(d));
        let copy = t.sorted_copy(d, hist);
        Self {
            mode: d,
            num_gpus: device_ranges.len(),
            shards: cut_shards(copy.row_ptr(), &device_ranges, shard_nnz_budget),
            device_ranges,
            copy,
        }
    }

    /// Re-cuts the shards of the (already sorted) copy under new device
    /// ranges: no sort, no copy.
    ///
    /// # Panics
    /// Panics if the ranges do not tile the mode's index space.
    pub(crate) fn recut(&mut self, device_ranges: Vec<Range<Idx>>, shard_nnz_budget: usize) {
        assert_ranges_tile(&device_ranges, self.copy.dim(self.mode));
        self.shards = cut_shards(self.copy.row_ptr(), &device_ranges, shard_nnz_budget);
        self.num_gpus = device_ranges.len();
        self.device_ranges = device_ranges;
    }

    /// [`ShardStats::compute_sorted`] on a range of the sorted copy.
    pub fn range_stats(
        &self,
        elem_range: Range<usize>,
        cache_rows: usize,
        scratch: &mut StatsScratch,
    ) -> ShardStats {
        let c = &self.copy;
        let width = c.order() - 1;
        ShardStats::compute_sorted(
            c.inputs(),
            width,
            c.row_ptr(),
            elem_range,
            cache_rows,
            scratch,
        )
    }

    /// The output-index histogram of the mode: row-pointer differences.
    pub fn hist(&self) -> Vec<u64> {
        self.copy
            .row_ptr()
            .windows(2)
            .map(|w| (w[1] - w[0]) as u64)
            .collect()
    }

    /// Total nonzeros assigned to each GPU.
    pub fn gpu_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_gpus];
        for s in &self.shards {
            loads[s.gpu] += s.elem_range.len() as u64;
        }
        loads
    }
}

/// Cuts each device range into shards of at most `shard_nnz_budget`
/// elements, grown by whole output indices.
fn cut_shards(
    row_ptr: &[usize],
    device_ranges: &[Range<Idx>],
    shard_nnz_budget: usize,
) -> Vec<Shard> {
    assert!(shard_nnz_budget > 0, "shard budget must be positive");
    let mut shards = Vec::new();
    for (gpu, range) in device_ranges.iter().enumerate() {
        let mut idx = range.start;
        while idx < range.end {
            let shard_start_idx = idx;
            let elem_start = row_ptr[idx as usize];
            let mut elem_end = elem_start;
            // Grow by whole indices until the budget is met.
            while idx < range.end {
                let next = row_ptr[idx as usize + 1];
                if next - elem_start > shard_nnz_budget && elem_end > elem_start {
                    break;
                }
                elem_end = next;
                idx += 1;
            }
            shards.push(Shard {
                gpu,
                index_range: shard_start_idx..idx,
                elem_range: elem_start..elem_end,
            });
        }
        // GPUs with empty ranges contribute no shards.
    }
    shards
}

/// Splits an element range into equal-sized inter-shard partitions (ISPs) of
/// at most `isp_nnz` elements — the threadblock work units of §3.1.2.
pub fn isp_ranges(elem_range: Range<usize>, isp_nnz: usize) -> Vec<Range<usize>> {
    assert!(isp_nnz > 0, "ISP size must be positive");
    let mut out = Vec::with_capacity(elem_range.len().div_ceil(isp_nnz));
    let mut start = elem_range.start;
    while start < elem_range.end {
        let end = (start + isp_nnz).min(elem_range.end);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;
    use proptest::prelude::*;

    fn tensor() -> SparseTensor {
        GenSpec {
            shape: vec![64, 40, 50],
            nnz: 3000,
            skew: vec![0.8, 0.0, 0.0],
            seed: 7,
        }
        .generate()
    }

    #[test]
    fn build_with_ranges_matches_build_for_ccp_ranges() {
        let t = tensor();
        for d in 0..3 {
            let direct = ModePlan::build(&t, d, 3, 200);
            let hist = t.mode_hist(d);
            let via_ranges =
                ModePlan::build_with_ranges_hist(&t, d, &hist, chains_on_chains(&hist, 3), 200);
            assert_eq!(direct.device_ranges, via_ranges.device_ranges);
            assert_eq!(direct.gpu_loads(), via_ranges.gpu_loads());
            assert_eq!(direct.shards.len(), via_ranges.shards.len());
            for (a, b) in direct.shards.iter().zip(&via_ranges.shards) {
                assert_eq!(a.elem_range, b.elem_range);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cover the whole index space")]
    fn build_with_ranges_rejects_partial_cover() {
        let t = tensor();
        ModePlan::build_with_ranges_hist(&t, 0, &t.mode_hist(0), vec![0..10, 10..20], 200);
    }

    #[test]
    fn plan_covers_every_element_exactly_once() {
        let t = tensor();
        let p = ModePlan::build(&t, 0, 4, 256);
        let mut covered = vec![false; p.copy.nnz()];
        for s in &p.shards {
            for e in s.elem_range.clone() {
                assert!(!covered[e], "element {e} in two shards");
                covered[e] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "some element missing from all shards"
        );
    }

    #[test]
    fn same_output_index_same_gpu() {
        let t = tensor();
        for d in 0..3 {
            let p = ModePlan::build(&t, d, 3, 200);
            let sorted = t.sorted_by_mode(d);
            let mut owner: Vec<Option<usize>> = vec![None; t.dim(d) as usize];
            for s in &p.shards {
                for e in s.elem_range.clone() {
                    let i = sorted.idx(e, d) as usize;
                    match owner[i] {
                        None => owner[i] = Some(s.gpu),
                        Some(g) => assert_eq!(g, s.gpu, "index {i} split across GPUs"),
                    }
                }
            }
        }
    }

    #[test]
    fn shard_elements_lie_in_its_index_range() {
        let t = tensor();
        let p = ModePlan::build(&t, 0, 4, 100);
        let sorted = t.sorted_by_mode(0);
        for s in &p.shards {
            for e in s.elem_range.clone() {
                let i = sorted.idx(e, 0);
                assert!(s.index_range.contains(&i));
            }
        }
    }

    #[test]
    fn loads_are_balanced_for_uniform_data() {
        let t = GenSpec::uniform(vec![1000, 50, 50], 20_000, 9).generate();
        let p = ModePlan::build(&t, 0, 4, 100_000);
        let loads = p.gpu_loads();
        let max = *loads.iter().max().unwrap() as f64;
        let min = *loads.iter().min().unwrap() as f64;
        assert!(
            (max - min) / max < 0.05,
            "uniform loads should balance within 5%: {loads:?}"
        );
    }

    #[test]
    fn shards_respect_budget_unless_single_hot_index() {
        let t = tensor();
        let p = ModePlan::build(&t, 0, 2, 128);
        let hist = p.hist();
        for s in &p.shards {
            let single_index = s.index_range.len() == 1;
            if !single_index {
                assert!(
                    s.elem_range.len() <= 2 * 128,
                    "multi-index shard grossly over budget: {}",
                    s.elem_range.len()
                );
            } else {
                // Oversized shards must match their index's full count.
                let idx = s.index_range.start as usize;
                assert_eq!(s.elem_range.len() as u64, hist[idx]);
            }
        }
    }

    #[test]
    fn stats_match_direct_computation() {
        let mut t = SparseTensor::new(vec![4, 4, 4]);
        t.push(&[1, 0, 0], 1.0);
        t.push(&[1, 1, 2], 1.0);
        t.push(&[1, 1, 3], 1.0);
        t.push(&[2, 3, 3], 1.0);
        let s = ShardStats::compute(&t, 0, 0..4, usize::MAX);
        assert_eq!(s.nnz, 4);
        assert_eq!(s.distinct_out, 2); // indices 1 and 2
        assert_eq!(s.max_out_run, 3); // index 1 three times
        assert_eq!(s.distinct_in_total, 3 + 3); // mode1: {0,1,3}; mode2: {0,2,3}
    }

    #[test]
    fn stats_distinct_in_excludes_output_mode() {
        let mut t = SparseTensor::new(vec![2, 8]);
        t.push(&[0, 5], 1.0);
        t.push(&[1, 5], 1.0);
        let s = ShardStats::compute(&t, 1, 0..2, usize::MAX);
        assert_eq!(s.distinct_out, 1);
        assert_eq!(s.distinct_in_total, 2); // mode 0 has {0, 1}
    }

    /// The statistics as they were first written — three sorts per slice,
    /// `O(k log k)` — kept as the oracle of the counting core.
    fn sort_based_stats(
        t: &SparseTensor,
        d: usize,
        range: Range<usize>,
        cache_rows: usize,
    ) -> ShardStats {
        if range.is_empty() {
            return ShardStats::default();
        }
        // Run lengths of one mode's sorted coordinates over the range.
        let runs = |w: usize| {
            let mut keys: Vec<Idx> = range.clone().map(|e| t.idx(e, w)).collect();
            keys.sort_unstable();
            keys.chunk_by(|a, b| a == b)
                .map(|run| run.len() as u32)
                .collect::<Vec<u32>>()
        };
        let out = runs(d);
        let row_counts: Vec<u32> = (0..t.order()).filter(|&w| w != d).flat_map(runs).collect();
        ShardStats {
            nnz: range.len() as u64,
            distinct_out: out.len() as u64,
            max_out_run: out.iter().copied().max().unwrap_or(0) as u64,
            distinct_in_total: row_counts.len() as u64,
            dram_factor_reads: amped_sim::costmodel::dram_factor_reads(row_counts, cache_rows),
        }
    }

    /// The epoch-marked counting core must be bit-identical to the
    /// sort-based scan on every mode, range, and cache size — including a
    /// reused scratch (stale marks from earlier calls must never alias).
    #[test]
    fn scratch_stats_match_sort_based_path() {
        let t = tensor();
        let mut scratch = StatsScratch::new();
        for d in 0..3 {
            for range in [0..t.nnz(), 100..900, 37..38, 5..5] {
                for cache_rows in [usize::MAX, 64, 3, 0] {
                    let sorted = sort_based_stats(&t, d, range.clone(), cache_rows);
                    let counted =
                        ShardStats::compute_scratch(&t, d, range.clone(), cache_rows, &mut scratch);
                    assert_eq!(
                        sorted, counted,
                        "mode {d}, range {range:?}, cache {cache_rows}"
                    );
                    let fresh = ShardStats::compute(&t, d, range.clone(), cache_rows);
                    assert_eq!(sorted, fresh, "mode {d}, range {range:?}, fresh scratch");
                }
            }
        }
    }

    /// On a mode-sorted copy the output-mode numbers come from the row
    /// pointers; they must equal the oracle's on whole shards and on ISP
    /// ranges that start and end in the middle of a (hot) row.
    #[test]
    fn sorted_range_stats_match_sort_based_path() {
        let t = tensor();
        let mut scratch = StatsScratch::new();
        for d in 0..3 {
            let mp = ModePlan::build(&t, d, 3, 200);
            assert_eq!(mp.hist(), t.mode_hist(d));
            let sorted = t.sorted_by_mode(d);
            let mut ranges = vec![0..t.nnz(), 100..900, 37..38, 5..5, t.nnz()..t.nnz()];
            ranges.extend(isp_ranges(0..t.nnz(), 77));
            ranges.extend(mp.shards.iter().map(|s| s.elem_range.clone()));
            for range in ranges {
                for cache_rows in [usize::MAX, 64, 3, 0] {
                    assert_eq!(
                        mp.range_stats(range.clone(), cache_rows, &mut scratch),
                        sort_based_stats(&sorted, d, range.clone(), cache_rows),
                        "mode {d}, range {range:?}, cache {cache_rows}"
                    );
                }
            }
        }
    }

    /// Re-cutting a built plan under other ranges is the plan a fresh build
    /// under those ranges gives, without touching the sorted copy.
    #[test]
    fn recut_matches_a_fresh_build_and_keeps_the_copy() {
        let t = tensor();
        let mut mp = ModePlan::build(&t, 0, 3, 200);
        let copy = mp.copy.inputs().as_ptr();
        let ranges = vec![0..5, 5..40, 40..64];
        mp.recut(ranges.clone(), 150);
        let fresh = ModePlan::build_with_ranges_hist(&t, 0, &t.mode_hist(0), ranges, 150);
        assert_eq!(mp.device_ranges, fresh.device_ranges);
        assert_eq!(mp.shards.len(), fresh.shards.len());
        for (a, b) in mp.shards.iter().zip(&fresh.shards) {
            assert_eq!((a.gpu, &a.index_range), (b.gpu, &b.index_range));
            assert_eq!(a.elem_range, b.elem_range);
        }
        assert_eq!(mp.copy.inputs().as_ptr(), copy);
    }

    #[test]
    fn stats_from_raw_coords_match_tensor_path() {
        let t = tensor();
        let mut scratch = StatsScratch::new();
        for d in 0..3 {
            for range in [0..t.nnz(), 100..900, 37..38] {
                let via_tensor = ShardStats::compute(&t, d, range.clone(), 64);
                let flat = &t.indices_flat()[range.start * t.order()..range.end * t.order()];
                let via_coords =
                    ShardStats::compute_from_coords(flat, t.order(), d, 64, &mut scratch);
                assert_eq!(via_tensor, via_coords, "mode {d}, range {range:?}");
            }
        }
    }

    #[test]
    fn isp_ranges_tile_exactly() {
        let ranges = isp_ranges(10..45, 8);
        assert_eq!(ranges.first().unwrap().start, 10);
        assert_eq!(ranges.last().unwrap().end, 45);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(ranges.iter().all(|r| r.len() <= 8));
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 35);
    }

    #[test]
    fn isp_of_empty_range_is_empty() {
        assert!(isp_ranges(5..5, 8).is_empty());
    }

    proptest! {
        #[test]
        fn prop_partition_invariants(
            nnz in 1usize..2000,
            dim0 in 1u32..200,
            m in 1usize..6,
            budget in 1usize..500,
            seed in 0u64..1000,
        ) {
            let t = GenSpec::uniform(vec![dim0, 16, 16], nnz, seed).generate();
            let p = ModePlan::build(&t, 0, m, budget);
            // Every element covered exactly once.
            let total: usize = p.shards.iter().map(|s| s.elem_range.len()).sum();
            prop_assert_eq!(total, t.nnz());
            // Device ranges cover the index space contiguously.
            prop_assert_eq!(p.device_ranges.first().unwrap().start, 0);
            prop_assert_eq!(p.device_ranges.last().unwrap().end, dim0);
            // Shard index ranges never cross device boundaries.
            for s in &p.shards {
                let dr = &p.device_ranges[s.gpu];
                prop_assert!(s.index_range.start >= dr.start);
                prop_assert!(s.index_range.end <= dr.end);
            }
        }
    }
}
