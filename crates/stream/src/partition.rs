//! Streaming two-pass partitioner: `.tnsb` metadata + one bounded scan of
//! the sorted sections → per-mode device ranges and per-chunk GPU routing.
//!
//! The in-core [`amped_partition::PartitionPlan`] materializes one
//! mode-sorted tensor copy per mode — exactly what an out-of-core run cannot
//! afford in memory. A `.tnsb` file carries those copies on disk (its sorted
//! sections), and the streaming plan keeps the same partitioning *decisions*
//! while holding a few chunks of nonzeros:
//!
//! * **Pass 1 — metadata scan.** The `.tnsb` footer already carries the full
//!   per-mode output-index histograms (accumulated by the writer, which sees
//!   every element exactly once), so device ranges come from the same
//!   nnz-weighted CCP used in core ([`amped_plan::NnzCcp`]) over those
//!   histograms, without touching the payload.
//! * **Pass 2 — bounded section scan.** For every mode `d`, each chunk of
//!   section `d` is read once through the reader's staging budget. The
//!   chunk is sorted by `d` and device ranges are contiguous, so the
//!   elements of GPU `g` are one sub-range of the chunk, cut at its row
//!   pointers (ranges never split an index across GPUs, preserving AMPED's
//!   no-inter-GPU-conflict invariant); each slice's [`ShardStats`] are
//!   computed in place for the simulator cost model. The (section, chunk)
//!   jobs run on the planning pool ([`amped_partition::pool_map`]), as many
//!   at once as the budget holds chunks; every route depends on its chunk
//!   alone, so the plan is the same for any pool size.
//!
//! The result is `O(modes × chunks × gpus)` metadata — independent of nnz —
//! which is what lets the out-of-core engine decompose tensors larger than
//! host memory.

use crate::error::StreamError;
use crate::reader::{Chunk, ChunkReader};
use amped_partition::{assert_ranges_tile, pool_map, PlanBusy, ShardStats, StatsScratch};
use amped_plan::{NnzCcp, Partitioner, PlanStats, UniformCost};
use amped_sim::host_workers;
use amped_tensor::Idx;
use serde::Serialize;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Routing of one sorted-section chunk for its output mode: per-GPU slice
/// statistics (`per_gpu[g].nnz` elements of this chunk update rows owned by
/// GPU `g`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ChunkRoute {
    /// Chunk index within the mode's sorted section.
    pub chunk: usize,
    /// Slice workload statistics, one entry per GPU.
    pub per_gpu: Vec<ShardStats>,
}

/// The per-output-mode streaming partition product.
#[derive(Clone, Debug, Serialize)]
pub struct StreamModePlan {
    /// Output mode this plan targets.
    pub mode: usize,
    /// GPU count the plan was built for.
    pub num_gpus: usize,
    /// Contiguous output-index range owned by each GPU (CCP over the
    /// footer histogram — identical to the in-core plan's ranges).
    pub device_ranges: Vec<Range<Idx>>,
    /// Per-chunk routing of the mode's sorted section, in section order.
    pub chunks: Vec<ChunkRoute>,
}

impl StreamModePlan {
    /// Total nonzeros routed to each GPU.
    pub fn gpu_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_gpus];
        for c in &self.chunks {
            for (g, s) in c.per_gpu.iter().enumerate() {
                loads[g] += s.nnz;
            }
        }
        loads
    }

    /// Output rows owned by each GPU.
    pub fn gpu_rows(&self) -> Vec<u64> {
        self.device_ranges
            .iter()
            .map(|r| (r.end - r.start) as u64)
            .collect()
    }
}

/// All-mode streaming partition plan plus the measured preprocessing wall
/// time (the out-of-core analogue of Fig. 10's quantity).
#[derive(Clone, Debug, Serialize)]
pub struct StreamPlan {
    /// Per-mode plans, index = output mode.
    pub modes: Vec<StreamModePlan>,
    /// Real wall-clock seconds spent building the plan.
    pub preprocess_wall: f64,
    /// The part of it spent on slice statistics (`stats_s`, busy-seconds
    /// summed over the pool; pass 2 sorts and prices nothing — the rest of
    /// the wall is chunk I/O and decode).
    pub busy: PlanBusy,
}

impl StreamPlan {
    /// Builds the plan for every output mode on `num_gpus` GPUs.
    ///
    /// `cache_rows` is the number of hot factor rows assumed L2-resident
    /// when computing slice statistics (pass the GPU's L2 capacity in rows;
    /// `usize::MAX` disables the cache model).
    ///
    /// Host memory held at any instant: one chunk per pool thread, and
    /// never more chunks than the reader's staging budget holds — every
    /// chunk is charged to it, and a budget smaller than one chunk fails
    /// with the staging pool's out-of-memory error rather than silently
    /// overcommitting.
    pub fn build(
        reader: &mut ChunkReader,
        num_gpus: usize,
        cache_rows: usize,
    ) -> Result<Self, StreamError> {
        assert!(num_gpus > 0, "need at least one GPU");
        let cost = UniformCost::new(num_gpus);
        let start = Instant::now();
        let order = reader.meta().order();
        let stats = PlanStats {
            nnz: reader.meta().nnz,
        };

        // --- Pass 1: device ranges from the footer histograms (no payload I/O).
        let mut device_ranges: Vec<Vec<Range<Idx>>> = Vec::with_capacity(order);
        for d in 0..order {
            let a = NnzCcp.plan_mode(d, &reader.meta().hist[d], &stats, &cost)?;
            device_ranges.push(a.ranges);
        }

        // --- Pass 2: one bounded scan of every mode's sorted section.
        let all_modes: Vec<(usize, &[Range<Idx>])> = device_ranges
            .iter()
            .enumerate()
            .map(|(d, r)| (d, r.as_slice()))
            .collect();
        let mut busy = PlanBusy::default();
        let routes = scan_sections(reader, &all_modes, cache_rows, host_workers(), &mut busy)?;
        let modes = device_ranges
            .into_iter()
            .zip(routes)
            .enumerate()
            .map(|(d, (device_ranges, chunks))| StreamModePlan {
                mode: d,
                num_gpus,
                device_ranges,
                chunks,
            })
            .collect();
        Ok(Self {
            modes,
            preprocess_wall: start.elapsed().as_secs_f64(),
            busy,
        })
    }

    /// Re-runs pass 2 for one mode under fresh `device_ranges` — the
    /// engines' replan path. Costs one more bounded scan of that
    /// mode's sorted section through the reader's staging budget; every
    /// other mode's routing is untouched.
    ///
    /// # Panics
    /// Panics if `d` is out of range or the ranges do not tile the mode's
    /// index space contiguously for the plan's GPU count.
    pub fn rebuild_mode(
        &mut self,
        reader: &mut ChunkReader,
        d: usize,
        device_ranges: Vec<Range<Idx>>,
        cache_rows: usize,
    ) -> Result<(), StreamError> {
        assert!(d < self.modes.len(), "mode {d} out of range");
        let num_gpus = self.modes[d].num_gpus;
        assert_eq!(
            device_ranges.len(),
            num_gpus,
            "replan must keep the GPU count"
        );
        assert_ranges_tile(&device_ranges, reader.meta().shape[d]);
        let start = Instant::now();
        let mut routes = scan_sections(
            reader,
            &[(d, &device_ranges)],
            cache_rows,
            host_workers(),
            &mut self.busy,
        )?;
        self.modes[d] = StreamModePlan {
            mode: d,
            num_gpus,
            device_ranges,
            chunks: routes.remove(0),
        };
        self.preprocess_wall += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Number of GPUs the plan was built for.
    pub fn num_gpus(&self) -> usize {
        self.modes.first().map(|m| m.num_gpus).unwrap_or(0)
    }
}

/// The values behind this lock stay valid whatever panicked while it was
/// held (budget counters move in whole reservations).
fn lock<'a, 'r>(reader: &'a Mutex<&'r mut ChunkReader>) -> MutexGuard<'a, &'r mut ChunkReader> {
    reader.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pass 2 over `modes` (each with its device ranges): reads every chunk of
/// each listed mode's sorted section once through the reader's staging
/// budget — on up to `workers` pool threads, and no more than the budget
/// holds chunks; every reservation is returned before the job ends, on
/// every error path — and routes it. Returns the routes per listed mode, in
/// section order; the seconds spent on slice statistics are added to
/// `busy.stats_s`. The full scan of [`StreamPlan::build`] and
/// the one-mode rescan of [`StreamPlan::rebuild_mode`] are this function.
fn scan_sections(
    reader: &mut ChunkReader,
    modes: &[(usize, &[Range<Idx>])],
    cache_rows: usize,
    workers: usize,
    busy: &mut PlanBusy,
) -> Result<Vec<Vec<ChunkRoute>>, StreamError> {
    let meta = reader.meta();
    let (order, num_chunks) = (meta.order(), meta.num_chunks());
    let largest = modes
        .iter()
        .flat_map(|&(d, _)| (0..num_chunks).map(move |c| meta.section_chunk_bytes(d, c)))
        .max()
        .unwrap_or(0);
    let resident = reader.budget().capacity() / largest.max(1);
    let workers = workers.min(resident as usize).max(1);
    let reader = Mutex::new(reader);
    let jobs = modes.len() * num_chunks;
    let done = pool_map(workers, jobs, StatsScratch::new, |scratch, j| {
        let ((d, ranges), c) = (modes[j / num_chunks], j % num_chunks);
        let staged = lock(&reader).stage(c, Some(d))?;
        let chunk = match staged.read() {
            Ok(chunk) => chunk,
            Err(e) => {
                lock(&reader).fail_stage(staged.bytes());
                return Err(e);
            }
        };
        let began = Instant::now();
        let per_gpu = route_chunk(&chunk, order, ranges, cache_rows, scratch);
        let stats_s = began.elapsed().as_secs_f64();
        let mut reader = lock(&reader);
        reader.finish_stage(&chunk);
        reader.release(chunk);
        Ok((ChunkRoute { chunk: c, per_gpu }, stats_s))
    })?;
    let mut routes: Vec<Vec<ChunkRoute>> = Vec::with_capacity(modes.len());
    for (j, (route, stats_s)) in done.into_iter().enumerate() {
        if j % num_chunks == 0 {
            routes.push(Vec::with_capacity(num_chunks));
        }
        routes[j / num_chunks].push(route);
        busy.stats_s += stats_s;
    }
    Ok(routes)
}

/// Routes one chunk of a sorted section: GPU `g`'s slice is the sub-range
/// of elements whose row lies in `ranges[g]` (contiguous, because the chunk
/// is sorted and the ranges ascend), cut at the chunk's row pointers, and
/// its statistics are computed over that sub-range in place.
fn route_chunk(
    chunk: &Chunk,
    order: usize,
    ranges: &[Range<Idx>],
    cache_rows: usize,
    scratch: &mut StatsScratch,
) -> Vec<ShardStats> {
    let (inputs, row_ptr, width) = (chunk.input_coords(), chunk.row_ptr(), order - 1);
    // First element at or past row `row`: the pointer of the first row the
    // chunk holds from `row` on.
    let first_at = |row: Idx| row_ptr[chunk.row_ids().partition_point(|&r| r < row)];
    ranges
        .iter()
        .map(|r| {
            let slice = first_at(r.start)..first_at(r.end);
            ShardStats::compute_sorted(inputs, width, row_ptr, slice, cache_rows, scratch)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use crate::format::write_tnsb;
    use amped_partition::ModePlan;
    use amped_sim::MemPool;
    use amped_tensor::gen::GenSpec;
    use amped_tensor::SparseTensor;

    fn tensor() -> SparseTensor {
        GenSpec {
            shape: vec![64, 40, 50],
            nnz: 3000,
            skew: vec![0.8, 0.0, 0.0],
            seed: 7,
        }
        .generate()
    }

    fn plan_of(t: &SparseTensor, name: &str, cap: usize, gpus: usize) -> StreamPlan {
        let dir = ScratchDir::new("streamplan");
        let path = dir.join(name);
        write_tnsb(t, &path, cap).unwrap();
        // Budget: one chunk per pool thread, at least one.
        let budget = host_workers() as u64 * cap as u64 * t.elem_bytes();
        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", budget)).unwrap();
        let plan = StreamPlan::build(&mut r, gpus, usize::MAX).unwrap();
        assert_eq!(
            r.budget().used(),
            0,
            "plan build must release all staging memory"
        );
        assert!(r.budget().peak() <= budget);
        plan
    }

    #[test]
    fn routes_every_element_exactly_once() {
        let t = tensor();
        let plan = plan_of(&t, "cover.tnsb", 256, 4);
        for mp in &plan.modes {
            let loads = mp.gpu_loads();
            assert_eq!(
                loads.iter().sum::<u64>() as usize,
                t.nnz(),
                "mode {}",
                mp.mode
            );
            for (c, route) in mp.chunks.iter().enumerate() {
                assert_eq!(route.chunk, c, "routes are in section order");
                let chunk_total: u64 = route.per_gpu.iter().map(|s| s.nnz).sum();
                let expected = 256.min(t.nnz() - route.chunk * 256) as u64;
                assert_eq!(chunk_total, expected, "chunk {}", route.chunk);
            }
        }
    }

    #[test]
    fn device_ranges_match_in_core_ccp() {
        let t = tensor();
        let plan = plan_of(&t, "ccp.tnsb", 512, 3);
        for d in 0..t.order() {
            let in_core = ModePlan::build(&t, d, 3, 512);
            assert_eq!(
                plan.modes[d].device_ranges, in_core.device_ranges,
                "mode {d} ranges diverge from the in-core CCP"
            );
            assert_eq!(
                plan.modes[d].gpu_loads(),
                in_core.gpu_loads(),
                "mode {d} loads"
            );
        }
    }

    /// Every route equals the full-coordinate statistics of its slice: the
    /// oracle cuts the slice from the sorted tensor by each element's own
    /// row and tallies it with `compute_from_coords`, output mode included.
    #[test]
    fn slice_stats_respect_ownership() {
        let t = tensor();
        let mut scratch = StatsScratch::new();
        for (cap, gpus) in [(200, 2), (64, 3), (3000, 4)] {
            let plan = plan_of(&t, "stats.tnsb", cap, gpus);
            // Chunk `c` of section `d` is elements `cap × c ..` of the
            // sorted tensor.
            for mp in &plan.modes {
                let (d, order) = (mp.mode, t.order());
                let sorted = t.sorted_by_mode(d);
                for route in &mp.chunks {
                    let lo = route.chunk * cap;
                    let hi = (lo + cap).min(t.nnz());
                    for (g, r) in mp.device_ranges.iter().enumerate() {
                        let owned: Vec<usize> = (lo..hi)
                            .filter(|&e| r.contains(&sorted.idx(e, d)))
                            .collect();
                        let want = match (owned.first(), owned.last()) {
                            (Some(&a), Some(&b)) => {
                                let slice = &sorted.indices_flat()[a * order..(b + 1) * order];
                                ShardStats::compute_from_coords(
                                    slice,
                                    order,
                                    d,
                                    usize::MAX,
                                    &mut scratch,
                                )
                            }
                            _ => ShardStats::default(),
                        };
                        assert_eq!(owned.len() as u64, want.nnz, "a slice is one sub-range");
                        assert_eq!(route.per_gpu[g], want, "chunk {} gpu {g}", route.chunk);
                    }
                }
            }
        }
    }

    #[test]
    fn pass_two_is_the_same_plan_on_any_pool() {
        let t = tensor();
        let dir = ScratchDir::new("streamplan");
        let path = dir.join("pool.tnsb");
        write_tnsb(&t, &path, 128).unwrap();
        let ranges: Vec<Vec<Range<Idx>>> = (0..t.order())
            .map(|d| ModePlan::build(&t, d, 3, 128).device_ranges)
            .collect();
        let modes: Vec<(usize, &[Range<Idx>])> = ranges
            .iter()
            .enumerate()
            .map(|(d, r)| (d, r.as_slice()))
            .collect();
        let scan = |workers: usize, resident_chunks: u64| {
            let budget = resident_chunks * 128 * t.elem_bytes();
            let mut r = ChunkReader::open(&path, MemPool::new("host-stage", budget)).unwrap();
            let mut busy = PlanBusy::default();
            let routes = scan_sections(&mut r, &modes, 40, workers, &mut busy).unwrap();
            assert_eq!(r.budget().used(), 0);
            assert!(
                r.budget().peak() <= (workers as u64).min(resident_chunks) * 128 * t.elem_bytes(),
                "{workers} workers held more than a chunk each"
            );
            assert!(busy.stats_s > 0.0);
            routes
        };
        let serial = scan(1, 1);
        assert_eq!(serial.len(), t.order());
        for (workers, resident_chunks) in [(2, 2), (4, 4), (4, 1), (4, 3)] {
            assert_eq!(
                scan(workers, resident_chunks),
                serial,
                "{workers} workers, budget of {resident_chunks} chunks"
            );
        }
    }

    #[test]
    fn insufficient_budget_fails_with_oom() {
        let t = tensor();
        let dir = ScratchDir::new("streamplan");
        let path = dir.join("oom.tnsb");
        write_tnsb(&t, &path, 512).unwrap();
        // One element short of a chunk.
        let budget = MemPool::new("host-stage", 511 * t.elem_bytes());
        let mut r = ChunkReader::open(&path, budget).unwrap();
        let err = StreamPlan::build(&mut r, 2, usize::MAX).unwrap_err();
        assert!(err.is_oom(), "expected staging OOM, got {err}");
        assert_eq!(r.budget().used(), 0);
    }
}
