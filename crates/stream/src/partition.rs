//! Streaming two-pass partitioner: `.tnsb` metadata + one bounded payload
//! scan → per-mode device ranges and per-chunk GPU routing.
//!
//! The in-core [`amped_partition::PartitionPlan`] materializes one
//! mode-sorted tensor copy per mode — exactly what an out-of-core run cannot
//! afford. The streaming plan keeps the same partitioning *decisions* while
//! holding at most one chunk (plus its coordinate scratch) of nonzeros:
//!
//! * **Pass 1 — metadata scan.** The `.tnsb` footer already carries the full
//!   per-mode output-index histograms (accumulated by the writer, which sees
//!   every element exactly once), so device ranges come from an
//!   [`amped_plan::Partitioner`] over those histograms — by default the same
//!   nnz-weighted CCP used in-core — without touching the payload.
//! * **Pass 2 — bounded payload scan.** Each chunk is loaded once through
//!   the reader's staging budget; for every mode, elements are routed to the
//!   GPU owning their output index (ranges never split an index across
//!   GPUs, preserving AMPED's no-inter-GPU-conflict invariant) and each
//!   slice's [`ShardStats`] are computed for the simulator cost model. The
//!   per-chunk index bounding boxes skip GPUs a chunk cannot touch.
//!
//! The result is `O(modes × chunks × gpus)` metadata — independent of nnz —
//! which is what lets the out-of-core engine decompose tensors larger than
//! host memory.

use crate::error::StreamError;
use crate::reader::{Chunk, ChunkReader};
use amped_partition::{assert_ranges_tile, PlanBusy, ShardStats, StatsScratch};
use amped_plan::{AssignmentSpace, CostQuery, NnzCcp, Partitioner, PlanStats, UniformCost};
use amped_tensor::Idx;
use serde::Serialize;
use std::ops::Range;
use std::time::Instant;

/// Routing of one chunk for one output mode: per-GPU slice statistics
/// (`per_gpu[g].nnz` elements of this chunk update rows owned by GPU `g`).
#[derive(Clone, Debug, Serialize)]
pub struct ChunkRoute {
    /// Chunk index within the file.
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
    /// Per-chunk routing, in file order.
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
    /// The part of it spent on slice statistics (`stats_s`; pass 2 sorts
    /// and prices nothing — the rest of the wall is chunk I/O and decode).
    pub busy: PlanBusy,
}

impl StreamPlan {
    /// Builds the plan for every output mode on `num_gpus` GPUs.
    ///
    /// `cache_rows` is the number of hot factor rows assumed L2-resident
    /// when computing slice statistics (pass the GPU's L2 capacity in rows;
    /// `usize::MAX` disables the cache model).
    ///
    /// Host memory held at any instant: one chunk payload + that chunk's
    /// coordinate scratch, both charged to the reader's staging budget — a
    /// budget smaller than `chunk payload + chunk coordinates` fails with
    /// the staging pool's out-of-memory error rather than silently
    /// overcommitting.
    pub fn build(
        reader: &mut ChunkReader,
        num_gpus: usize,
        cache_rows: usize,
    ) -> Result<Self, StreamError> {
        assert!(num_gpus > 0, "need at least one GPU");
        Self::build_with_planner(reader, &NnzCcp, &UniformCost::new(num_gpus), cache_rows)
    }

    /// Builds the plan with an explicit [`Partitioner`] policy for pass 1 —
    /// the seam the `amped-plan` layer drives cost-guided and rebalanced
    /// out-of-core partitioning through. `cost.num_devices()` fixes the GPU
    /// count. Pass 2 (the bounded payload scan) is identical for every
    /// policy.
    ///
    /// # Panics
    /// Panics if the planner produces an element-space assignment: chunk
    /// routing requires output-index ownership (the
    /// no-inter-GPU-conflict invariant).
    pub fn build_with_planner(
        reader: &mut ChunkReader,
        planner: &dyn Partitioner,
        cost: &dyn CostQuery,
        cache_rows: usize,
    ) -> Result<Self, StreamError> {
        let num_gpus = cost.num_devices();
        let start = Instant::now();
        let order = reader.meta().order();
        let stats = PlanStats {
            nnz: reader.meta().nnz,
        };

        // --- Pass 1: device ranges from the footer histograms (no payload I/O).
        let mut device_ranges: Vec<Vec<Range<Idx>>> = Vec::with_capacity(order);
        for d in 0..order {
            let a = planner.plan_mode(d, &reader.meta().hist[d], &stats, cost)?;
            assert_eq!(
                a.space,
                AssignmentSpace::OutputIndex,
                "streaming plans need output-index assignments ({} produced {:?})",
                planner.name(),
                a.space
            );
            device_ranges.push(a.index_ranges());
        }

        // --- Pass 2: one bounded scan for per-chunk, per-mode slice stats.
        let all_modes: Vec<(usize, &[Range<Idx>])> = device_ranges
            .iter()
            .enumerate()
            .map(|(d, r)| (d, r.as_slice()))
            .collect();
        let mut busy = PlanBusy::default();
        let routes = scan_chunks(reader, &all_modes, cache_rows, &mut busy)?;
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
    /// engines' ALS-time replan path. Costs one more bounded payload scan
    /// (for that mode only) through the reader's staging budget; every other
    /// mode's routing is untouched.
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
        let mut routes = scan_chunks(reader, &[(d, &device_ranges)], cache_rows, &mut self.busy)?;
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

/// Pass 2 over `modes` (each with its device ranges): loads every chunk once
/// through the reader's staging budget (payload plus its coordinate
/// scratch, both released before the next chunk and on every error path)
/// and routes it for each listed mode. Returns the routes per listed mode,
/// in file order; the seconds spent on slice statistics are added to
/// `busy.stats_s`. The full scan of [`StreamPlan::build_with_planner`] and
/// the one-mode rescan of [`StreamPlan::rebuild_mode`] are this function.
fn scan_chunks(
    reader: &mut ChunkReader,
    modes: &[(usize, &[Range<Idx>])],
    cache_rows: usize,
    busy: &mut PlanBusy,
) -> Result<Vec<Vec<ChunkRoute>>, StreamError> {
    let order = reader.meta().order();
    let num_chunks = reader.meta().num_chunks();
    let num_gpus = modes.first().map_or(0, |(_, ranges)| ranges.len());
    let mut routes: Vec<Vec<ChunkRoute>> = modes
        .iter()
        .map(|_| Vec::with_capacity(num_chunks))
        .collect();
    let mut buckets: Vec<Vec<Idx>> = vec![Vec::new(); num_gpus];
    let mut scratch = StatsScratch::new();
    for c in 0..num_chunks {
        let chunk = reader.load_chunk(c)?;
        let scratch_bytes = (chunk.nnz() * order * 4) as u64;
        if let Err(e) = reader.charge_scratch(scratch_bytes) {
            reader.release(chunk);
            return Err(e);
        }
        let began = Instant::now();
        let meta = &reader.meta().chunks[c];
        for (&(d, ranges), routes) in modes.iter().zip(&mut routes) {
            let bbox = meta.mode_min[d]..=meta.mode_max[d];
            let per_gpu = route_chunk(
                &chunk,
                bbox,
                order,
                d,
                ranges,
                &mut buckets,
                cache_rows,
                &mut scratch,
            );
            routes.push(ChunkRoute { chunk: c, per_gpu });
        }
        busy.stats_s += began.elapsed().as_secs_f64();
        reader.release_scratch(scratch_bytes);
        reader.release(chunk);
    }
    Ok(routes)
}

/// Routes one loaded chunk for one output mode: per-GPU slice statistics
/// under the mode's contiguous device ranges, with the bounding-box fast
/// path when the whole chunk (`bbox` = its mode-`d` index bounds from the
/// footer) lies inside one GPU's range.
#[allow(clippy::too_many_arguments)]
fn route_chunk(
    chunk: &Chunk,
    bbox: std::ops::RangeInclusive<Idx>,
    order: usize,
    d: usize,
    ranges: &[Range<Idx>],
    buckets: &mut [Vec<Idx>],
    cache_rows: usize,
    scratch: &mut StatsScratch,
) -> Vec<ShardStats> {
    let mut stats =
        |coords: &[Idx]| ShardStats::compute_from_coords(coords, order, d, cache_rows, scratch);
    // Bounding-box fast path from the chunk metadata: the whole chunk
    // inside one GPU's range — stats over the raw payload, no routing.
    let sole_owner = ranges
        .iter()
        .position(|r| *bbox.start() >= r.start && *bbox.end() < r.end);
    if let Some(owner) = sole_owner {
        (0..ranges.len())
            .map(|g| {
                if g == owner {
                    stats(chunk.coords_flat())
                } else {
                    ShardStats::default()
                }
            })
            .collect()
    } else {
        // One routing pass: bucket each element under its owner (ranges
        // are contiguous and ascending), then compute stats per bucket.
        // Total bucket size ≤ the chunk's own coordinates — within the
        // charged bytes.
        for b in buckets.iter_mut() {
            b.clear();
        }
        for e in 0..chunk.nnz() {
            let coords = chunk.coords(e);
            let g = ranges.partition_point(|r| r.end <= coords[d]);
            buckets[g].extend_from_slice(coords);
        }
        buckets.iter().map(|b| stats(b)).collect()
    }
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
        // Budget: one chunk payload + its coordinate scratch.
        let budget = cap as u64 * (t.elem_bytes() + t.order() as u64 * 4);
        let mut r = ChunkReader::open(&path, MemPool::new("host-stage", budget)).unwrap();
        let plan = StreamPlan::build(&mut r, gpus, usize::MAX).unwrap();
        assert_eq!(
            r.budget().used(),
            0,
            "plan build must release all staging memory"
        );
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
            for route in &mp.chunks {
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

    #[test]
    fn slice_stats_respect_ownership() {
        let t = tensor();
        let plan = plan_of(&t, "stats.tnsb", 200, 2);
        // Recompute slice nnz directly and compare.
        for mp in &plan.modes {
            for route in &mp.chunks {
                let lo = route.chunk * 200;
                let hi = (lo + 200).min(t.nnz());
                for (g, r) in mp.device_ranges.iter().enumerate() {
                    let want = (lo..hi).filter(|&e| r.contains(&t.idx(e, mp.mode))).count() as u64;
                    assert_eq!(route.per_gpu[g].nnz, want);
                }
            }
        }
    }

    #[test]
    fn insufficient_budget_fails_with_oom() {
        let t = tensor();
        let dir = ScratchDir::new("streamplan");
        let path = dir.join("oom.tnsb");
        write_tnsb(&t, &path, 512).unwrap();
        // Payload fits but the gather scratch does not.
        let mut r =
            ChunkReader::open(&path, MemPool::new("host-stage", 512 * t.elem_bytes())).unwrap();
        let err = StreamPlan::build(&mut r, 2, usize::MAX).unwrap_err();
        assert!(err.is_oom(), "expected staging OOM, got {err}");
    }
}
