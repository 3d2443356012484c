//! The streamed source: MTTKRP/ALS over `.tnsb` chunks on disk.
//!
//! [`OocEngine`] is the [`Engine`] over [`Streamed`]: the loop, the barrier,
//! the all-gather, construction, replanning and the accessors are the ones
//! the in-core [`crate::engine::AmpedEngine`] runs. Only where a mode-sorted
//! element comes from differs. In core it is one copy per mode in host
//! memory; here those copies live on disk as the `.tnsb` file's sorted
//! sections (built once, by the writer — the paper's preprocessing, §3.1),
//! cut into fixed-capacity chunks. A bounded host staging budget (an
//! [`amped_sim::MemPool`]) holds the resident chunk — plus up to
//! [`TuneParams::prefetch_depth`](amped_runtime::TuneParams::prefetch_depth)
//! chunks a background reader thread stages ahead while the current chunk
//! computes.
//!
//! For output mode `d` the source streams section `d`
//! ([`ChunkReader::stage`] with that mode): a chunk is `chunk_capacity`
//! consecutive elements of the mode-sorted tensor, the shape of the in-core
//! shards — long row runs, a GPU's slice one contiguous sub-range — and it
//! launches as the kernel layer's [`SortedCoo`] view (input coordinates,
//! values and row pointers, as the in-core copies hold them). Nothing is
//! sorted per visit; a chunk is the bytes the file holds, whichever thread
//! read it and at every prefetch depth.
//!
//! Timing is a per-GPU model beside that execution: every GPU streams, through
//! its own double buffer (`engine::double_buffered`, the recurrence the
//! in-core shards use), the slice of each chunk whose output rows it owns,
//! priced as output-sorted blocks. The streaming plan's CCP device ranges
//! guarantee no output row spans two GPUs.
//!
//! Every chunk load and release goes through the staging [`MemPool`], so a
//! tensor too large for the *budget* still decomposes (chunks rotate through
//! the staging area), while a budget too small for even one chunk fails
//! with the same out-of-memory arithmetic as every other capacity limit in
//! the simulator. Prefetching is priced against the same budget: a staged
//! chunk the budget cannot hold is a recorded stall (`ooc_chunk_stalls`)
//! that narrows the prefetch window for that round, and a budget that can
//! never hold two consecutive chunks warns once and runs the blocking loop
//! — overlap is a perf upgrade, never a correctness or capacity change.

use crate::config::AmpedConfig;
use crate::engine::{charge_factors, sealed, Engine, Source};
use amped_partition::{isp_ranges, PlanBusy, ShardStats};
use amped_plan::ModeAssignment;
use amped_runtime::kernels::{launch_mttkrp, FactorsView, MttkrpOut, SortedCoo};
use amped_runtime::{Device, DeviceRuntime, SimRuntime, Timeline};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::obs::{warn_once, Counter};
use amped_sim::{MemPool, PlatformSpec, SimError};
use amped_stream::{Chunk, ChunkReader, StagedRead, StreamPlan, TnsbMeta};
use amped_tensor::Idx;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;

/// The out-of-core source: the `.tnsb` reader with its staging budget, the
/// streaming plan, and the prefetch pipeline's hit counter. Host memory
/// holds at most the staging budget's worth of nonzeros.
#[derive(Debug)]
pub struct Streamed {
    reader: ChunkReader,
    plan: StreamPlan,
    /// Chunks the prefetch pipeline had staged ahead (`ooc_prefetch_hits`).
    prefetch_hits: Counter,
}

/// The out-of-core engine: the tensor is a `.tnsb` file.
pub type OocEngine = Engine<Streamed>;

impl sealed::Sealed for Streamed {}

impl OocEngine {
    /// Opens a `.tnsb` tensor for out-of-core decomposition on `platform`
    /// with the default simulated runtime.
    ///
    /// `stage_budget_bytes` is the host staging area chunks rotate through;
    /// it is charged against the platform's host memory pool, and chunk
    /// loads are charged against it. Fails with
    /// [`SimError::OutOfMemory`] when a GPU cannot hold its factor copies
    /// plus the double-buffered chunk staging area, when the host cannot
    /// hold the budget, or when the budget cannot hold one chunk; I/O and
    /// format failures surface as [`SimError::Unsupported`].
    pub fn open(
        path: impl AsRef<Path>,
        platform: PlatformSpec,
        cfg: AmpedConfig,
        stage_budget_bytes: u64,
    ) -> Result<Self, SimError> {
        let runtime = Box::new(SimRuntime::new(platform));
        Self::with_runtime(path, runtime, cfg, stage_budget_bytes)
    }

    /// Opens a `.tnsb` tensor for out-of-core decomposition through an
    /// explicit `runtime` (see [`crate::engine::AmpedEngine::with_runtime`]).
    /// Planning is nnz-weighted CCP ([`amped_plan::NnzCcp`]).
    pub fn with_runtime(
        path: impl AsRef<Path>,
        runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
        stage_budget_bytes: u64,
    ) -> Result<Self, SimError> {
        Self::build(runtime, cfg, |rt, spec, cfg| {
            Streamed::open(rt, spec, cfg, path.as_ref(), stage_budget_bytes)
        })
    }

    /// The streaming partition plan.
    pub fn plan(&self) -> &StreamPlan {
        &self.source.plan
    }

    /// The on-disk tensor's metadata.
    pub fn meta(&self) -> &TnsbMeta {
        self.source.reader.meta()
    }

    /// High-water mark of the staging budget actually used by chunk loads.
    pub fn stage_peak(&self) -> u64 {
        self.source.reader.budget().peak()
    }

    /// Bytes of the staging budget chunk loads hold right now.
    #[cfg(test)]
    pub(crate) fn staged_bytes(&self) -> u64 {
        self.source.reader.budget().used()
    }
}

/// Cache rows of a slice's statistics: GPU 0's L2 in factor rows (one scan
/// of the sections serves all devices; per-device re-scans would multiply
/// the I/O).
fn cache_rows(spec: &PlatformSpec, rank: usize) -> usize {
    (spec.gpus[0].l2_bytes / (rank as u64 * 4)).max(1) as usize
}

impl Streamed {
    /// Opens the reader and charges the devices in the out-of-core order —
    /// factor copies and the chunk buffers per GPU, then the staging budget
    /// — and builds the streaming plan through that budget.
    fn open(
        runtime: &mut dyn DeviceRuntime,
        spec: &PlatformSpec,
        cfg: &AmpedConfig,
        path: &Path,
        stage_budget_bytes: u64,
    ) -> Result<Self, SimError> {
        let stage = MemPool::new("host-stage", stage_budget_bytes);
        let mut reader = ChunkReader::open(path, stage).map_err(|e| e.into_sim())?;
        let meta = reader.meta();

        // --- GPU memory: factor copies (§4.4) plus a double-buffered chunk
        // staging area — a GPU may receive a whole chunk in the worst case.
        let chunk_buffer = 2 * meta.chunk_capacity * meta.elem_bytes();
        for g in 0..spec.num_gpus() {
            charge_factors(runtime, g, &meta.shape, cfg.rank)?;
            runtime.alloc(Device::Gpu(g), chunk_buffer, "chunk streaming buffers")?;
        }

        // --- Host memory: only the staging budget is resident (that is the
        // point), charged so a budget larger than the host fails loudly.
        runtime.alloc(Device::Host, stage_budget_bytes, "chunk staging budget")?;

        // --- Streaming two-pass plan through the budget.
        let rows = cache_rows(spec, cfg.rank);
        let plan =
            StreamPlan::build(&mut reader, spec.num_gpus(), rows).map_err(|e| e.into_sim())?;

        // Chunk I/O telemetry (`ooc_*` counters) records into the runtime's
        // registry; a detached registry makes this free.
        let registry = runtime.metrics();
        let prefetch_hits = registry.counter("ooc_prefetch_hits");
        reader.set_metrics(registry);
        Ok(Self {
            reader,
            plan,
            prefetch_hits,
        })
    }
}

impl Source for Streamed {
    fn shape(&self) -> &[Idx] {
        &self.reader.meta().shape
    }

    fn norm_sq(&self) -> f64 {
        self.reader.meta().norm_sq
    }

    fn mode_hist(&self, d: usize) -> Vec<u64> {
        self.reader.meta().hist[d].clone()
    }

    fn mode_loads(&self, d: usize) -> Vec<u64> {
        self.plan.modes[d].gpu_loads()
    }

    fn setup(&self) -> (f64, PlanBusy) {
        (self.plan.preprocess_wall, self.plan.busy)
    }

    /// Re-runs the streaming plan's pass 2 for the mode: one bounded scan
    /// of its sorted section under the new output-index ranges.
    fn recut(
        &mut self,
        runtime: &dyn DeviceRuntime,
        cfg: &AmpedConfig,
        assignment: &ModeAssignment,
    ) -> Result<(), SimError> {
        let (d, ranges) = (assignment.mode, assignment.ranges.clone());
        let rows = cache_rows(runtime.spec(), cfg.rank);
        let reader = &mut self.reader;
        self.plan
            .rebuild_mode(reader, d, ranges, rows)
            .map_err(|e| e.into_sim())
    }

    /// The model first — GPU `g` streams its slice of every chunk that has
    /// one: host→GPU transfer, then a grid over the slice — then the
    /// execution: every chunk of section `d`
    /// streams once through the staging budget and runs as one zero-cost
    /// grid on device 0, a host-side stand-in for functional output only.
    /// Per-device placement and timing are carried by the model, so a
    /// timeline of this engine shows compute placement in the h2d ops, not
    /// these launches.
    fn launch(
        &mut self,
        runtime: &mut dyn DeviceRuntime,
        spec: &PlatformSpec,
        cfg: &AmpedConfig,
        d: usize,
        factors: &FactorsView,
        out: &MttkrpOut,
    ) -> Result<sealed::ModeRun, SimError> {
        let (reader, cost) = (&mut self.reader, CostModel::default());
        let meta = reader.meta();
        let (order, elem_bytes, num_chunks) = (meta.order(), meta.elem_bytes(), meta.num_chunks());
        let mp = &self.plan.modes[d];
        let active = mp.gpu_loads().iter().filter(|&&l| l > 0).count().max(1);

        let steps = (0..spec.num_gpus())
            .map(|g| {
                let slices = mp.chunks.iter().map(|route| &route.per_gpu[g]);
                slices
                    .filter(|stats| stats.nnz > 0)
                    .map(|stats| {
                        let transfer = runtime.h2d_time(g, active, stats.nnz * elem_bytes);
                        let compute = slice_time(&cost, spec, g, cfg, stats, order, elem_bytes);
                        (transfer, compute)
                    })
                    .collect()
            })
            .collect();

        let tl = runtime.timeline();
        // Prefetch policy: the runtime's tunables ask for up to
        // `effective_prefetch()` chunks staged ahead of the one computing. A
        // budget that can never hold two consecutive chunks at once would
        // stall on every stage — warn once and run the blocking loop.
        let mut depth = runtime
            .tune()
            .effective_prefetch()
            .min(num_chunks.saturating_sub(1));
        if depth > 0 {
            let capacity = reader.budget().capacity();
            let can_double = (0..num_chunks - 1).any(|k| {
                meta.section_chunk_bytes(d, k) + meta.section_chunk_bytes(d, k + 1) <= capacity
            });
            if !can_double {
                warn_once(
                    "ooc-single-buffer",
                    "OOC prefetch requested but the staging budget fits only one \
                     resident chunk; running the blocking chunk loop instead",
                );
                depth = 0;
            }
        }

        let exec_chunk = |runtime: &mut dyn DeviceRuntime, chunk: &Chunk| {
            assert_eq!(
                chunk.sorted_mode(),
                Some(d),
                "chunk {} was not read from section {d}",
                chunk.index()
            );
            let isps = isp_ranges(0..chunk.nnz(), cfg.isp_nnz);
            let src = SortedCoo::new(
                chunk.input_coords(),
                chunk.values(),
                chunk.row_ptr(),
                Some(chunk.row_ids()),
                order,
                d,
            );
            // Zero costs: simulated time comes from the slice model above.
            let costs = vec![0.0f64; isps.len()];
            launch_mttkrp(runtime, 0, &src, factors, &isps, &costs, out);
        };

        if depth == 0 {
            for k in 0..num_chunks {
                // Out of core the streamed chunk is the shard-level region.
                let _chunk_span = tl.as_ref().map(|t| t.span("shard", k as u64));
                let chunk = sorted_chunk(reader, k, d, None)?;
                exec_chunk(runtime, &chunk);
                reader.release(chunk);
            }
        } else {
            pipeline_chunks(
                runtime,
                reader,
                d,
                depth,
                tl.as_ref(),
                &self.prefetch_hits,
                exec_chunk,
            )?;
        }
        let rows = mp.device_ranges.iter().map(|r| vec![r.clone()]).collect();
        Ok(sealed::ModeRun { steps, rows })
    }
}

/// The one way the engine obtains chunk `k` for mode `d`: from section `d`
/// ([`ChunkReader::stage`]), settled against the staging budget on this
/// thread. `staged_ahead` is the reservation and the prefetch thread's
/// answer when the chunk was staged ahead; `None` stages and reads it here.
fn sorted_chunk(
    reader: &mut ChunkReader,
    k: usize,
    d: usize,
    staged_ahead: Option<(u64, Result<Chunk, SimError>)>,
) -> Result<Chunk, SimError> {
    let (reserved, read) = match staged_ahead {
        Some(answer) => answer,
        None => {
            let staged = reader.stage(k, Some(d)).map_err(|e| e.into_sim())?;
            (staged.bytes(), staged.read().map_err(|e| e.into_sim()))
        }
    };
    match read {
        Ok(chunk) => {
            reader.finish_stage(&chunk);
            Ok(chunk)
        }
        Err(e) => {
            // A failed read must not leak budget.
            reader.fail_stage(reserved);
            Err(e)
        }
    }
}

/// The error both ends of the prefetch channel report when the reader thread
/// is gone.
fn reader_disconnected() -> SimError {
    SimError::Unsupported("prefetch reader thread disconnected".into())
}

/// The double-buffered chunk loop: the reads of section `d`'s chunks run on
/// one background thread while the main thread computes, with every budget
/// decision staying on the main thread (the staging [`MemPool`] is not
/// shared).
///
/// Protocol: [`ChunkReader::stage`] reserves budget here and hands the
/// `Send`-able [`StagedRead`] to the reader thread over a channel; results
/// come back FIFO, so the order of staged requests *is* the order of
/// results. The window is topped up to `depth` chunks beyond the one about
/// to execute; a budget stall narrows the window for that round (counted in
/// `ooc_chunk_stalls`) and staging retries next iteration, so a mid-run
/// squeeze degrades to the blocking cadence instead of failing. Chunks are
/// executed strictly in index order and a chunk is the same bytes whoever
/// read it, so factors are bit-identical to the blocking loop at every
/// depth.
///
/// Mirrors the device-side `cp.async` double-buffer pattern (prefetch tile
/// `i+1` while tile `i` computes) with a host thread standing in for the
/// async copy engine.
fn pipeline_chunks<F>(
    runtime: &mut dyn DeviceRuntime,
    reader: &mut ChunkReader,
    d: usize,
    depth: usize,
    tl: Option<&Timeline>,
    prefetch_hits: &Counter,
    exec_chunk: F,
) -> Result<(), SimError>
where
    F: Fn(&mut dyn DeviceRuntime, &Chunk),
{
    let num_chunks = reader.meta().num_chunks();
    let result = crossbeam::thread::scope(|s| {
        let (req_tx, req_rx) = mpsc::channel::<StagedRead>();
        let (res_tx, res_rx) = mpsc::channel();
        s.spawn(move |_| {
            for staged in req_rx.iter() {
                if res_tx.send(staged.read()).is_err() {
                    break;
                }
            }
        });
        // Staged reads not yet received back, in stage (= result) order.
        let mut in_flight: VecDeque<(usize, u64)> = VecDeque::new();
        let mut next_stage = 0usize;
        let mut outcome = Ok(());
        'chunks: for k in 0..num_chunks {
            // Out of core the streamed chunk is the shard-level region.
            let _chunk_span = tl.map(|t| t.span("shard", k as u64));
            // Top up the prefetch window before waiting on chunk `k`, so
            // the reader thread always has queued work to overlap with the
            // compute below.
            while next_stage < num_chunks && next_stage <= k + depth {
                match reader.stage(next_stage, Some(d)) {
                    Ok(staged) => {
                        // In flight before it is sent, so the drain below
                        // settles its reservation if the send fails.
                        in_flight.push_back((next_stage, staged.bytes()));
                        if req_tx.send(staged).is_err() {
                            outcome = Err(reader_disconnected());
                            break 'chunks;
                        }
                        next_stage += 1;
                    }
                    Err(e) => {
                        if in_flight.is_empty() && next_stage == k {
                            // Nothing staged and nothing resident: even one
                            // chunk does not fit — a genuine OOM, exactly as
                            // the blocking loop would report it.
                            outcome = Err(e.into_sim());
                            break 'chunks;
                        }
                        // Benign stall: the window narrows this round.
                        break;
                    }
                }
            }
            // Chunk `k` was staged ahead iff it heads the in-flight queue;
            // otherwise it is staged and read here, this round only.
            let staged_ahead = match in_flight.front() {
                Some(&(c, reserved)) if c == k => {
                    in_flight.pop_front();
                    let read = res_rx.recv().map_err(|_| reader_disconnected());
                    Some((reserved, read.and_then(|r| r.map_err(|e| e.into_sim()))))
                }
                _ => None,
            };
            let prefetched = staged_ahead.is_some();
            let chunk = match sorted_chunk(reader, k, d, staged_ahead) {
                Ok(chunk) => chunk,
                Err(e) => {
                    outcome = Err(e);
                    break 'chunks;
                }
            };
            if prefetched {
                prefetch_hits.inc();
            }
            {
                // Launches of an overlapped chunk carry a `prefetched` span
                // segment, so the timeline shows which chunks hid their I/O.
                let _overlap = if prefetched {
                    tl.map(|t| t.span("prefetched", 1))
                } else {
                    None
                };
                exec_chunk(runtime, &chunk);
            }
            reader.release(chunk);
        }
        // Settle any outstanding reservations (non-empty only on error):
        // close the request channel, then wait out each staged read so
        // every reserved byte returns to the budget.
        drop(req_tx);
        for (_, reserved) in in_flight.drain(..) {
            let _ = res_rx.recv();
            reader.fail_stage(reserved);
        }
        outcome
    });
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Simulated grid time of one per-GPU chunk slice: the slice splits into
/// `⌈nnz / isp_nnz⌉` equal ISP blocks of output-sorted elements,
/// list-scheduled onto GPU `g`'s SMs and priced against its spec.
fn slice_time(
    cost: &CostModel,
    spec: &PlatformSpec,
    g: usize,
    cfg: &AmpedConfig,
    stats: &ShardStats,
    order: usize,
    elem_bytes: u64,
) -> f64 {
    if stats.nnz == 0 {
        return 0.0;
    }
    let gpu = &spec.gpus[g];
    let blocks = (stats.nnz as usize).div_ceil(cfg.isp_nnz).max(1) as u64;
    let per_block = BlockStats {
        nnz: stats.nnz.div_ceil(blocks),
        distinct_out: stats.distinct_out.div_ceil(blocks).max(1),
        max_out_run: stats.max_out_run.min(stats.nnz.div_ceil(blocks)),
        distinct_in_total: stats.distinct_in_total.div_ceil(blocks).max(1),
        dram_factor_reads: stats.dram_factor_reads.div_ceil(blocks),
        sorted_by_output: true,
        order,
        rank: cfg.rank,
        elem_bytes,
    };
    let concurrency = (blocks as usize).min(gpu.sms);
    let block_cost = cost.block_time(gpu, &per_block, 1.0, concurrency);
    // Equal blocks list-scheduled on `sms` SMs: ⌈blocks / sms⌉ rounds.
    block_cost * (blocks as usize).div_ceil(gpu.sms) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use crate::engine::tests::{
        budget_for, cfg, check_matches_reference_5mode, check_matches_reference_all_modes,
        check_simulated_time_is_deterministic, factors, platform, streamed,
    };
    use crate::engine::MttkrpEngine;
    use crate::reference::mttkrp_ref;
    use amped_runtime::TuneParams;
    use amped_stream::write_tnsb;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn ooc_matches_reference_all_modes() {
        let dir = ScratchDir::new("ooc");
        let e = check_matches_reference_all_modes(streamed(&dir));
        assert_eq!(e.staged_bytes(), 0, "all chunks must be released");
    }

    #[test]
    fn ooc_matches_reference_5mode() {
        let dir = ScratchDir::new("ooc");
        check_matches_reference_5mode(streamed(&dir));
    }

    #[test]
    fn simulated_time_is_deterministic_and_positive() {
        let dir = ScratchDir::new("ooc");
        check_simulated_time_is_deterministic(streamed(&dir));
    }

    #[test]
    fn pipelined_factors_bit_identical_across_prefetch_depths() {
        let t = GenSpec {
            shape: vec![60, 50, 40],
            nnz: 4000,
            skew: vec![0.6, 0.0, 0.3],
            seed: 95,
        }
        .generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("depths.tnsb");
        write_tnsb(&t, &path, 400).unwrap();
        let fs = factors(&t, 8, 96);
        let b = budget_for(&t, 400);
        let mut outputs: Vec<Vec<u32>> = Vec::new();
        for depth in [0usize, 1, 2] {
            let reg = amped_sim::obs::MetricsRegistry::new();
            let rt = SimRuntime::new(platform(3)).with_metrics(reg);
            let mut e = OocEngine::with_runtime(&path, Box::new(rt), cfg(8), b).unwrap();
            e.set_tune(TuneParams {
                prefetch_depth: depth,
                ooc_chunk_budget: depth + 1,
                ..Default::default()
            });
            let mut bits = Vec::new();
            for d in 0..3 {
                let (out, _) = e.mttkrp_mode(d, &fs).unwrap();
                assert!(
                    out.approx_eq(&mttkrp_ref(&t, &fs, d), 1e-3, 1e-4),
                    "depth {depth} mode {d} diverged from the in-core oracle"
                );
                bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
            }
            assert_eq!(e.staged_bytes(), 0, "depth {depth} leaked budget");
            if depth > 0 {
                assert!(
                    e.metrics().counter_value("ooc_prefetch_hits", &[]) > 0,
                    "depth {depth} never used the pipeline"
                );
            }
            outputs.push(bits);
        }
        assert_eq!(
            outputs[0], outputs[1],
            "depth 1 must be bit-identical to the blocking loop"
        );
        assert_eq!(
            outputs[0], outputs[2],
            "depth 2 must be bit-identical to the blocking loop"
        );
    }

    #[test]
    fn pipeline_narrows_on_mid_run_stall_and_stays_exact() {
        // Chunks of 100/100/50 elements with a budget of 175 elements: the
        // prefetch of chunk 1 next to chunk 0 stalls (200 elements), the
        // last pair fits (150) — the window narrows, recovers, and the
        // factors still match the blocking loop exactly.
        let t = GenSpec::uniform(vec![40, 30, 20], 250, 97).generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("midrun.tnsb");
        write_tnsb(&t, &path, 100).unwrap();
        let fs = factors(&t, 8, 98);
        let budget = 175 * t.elem_bytes();
        let base = {
            let mut e = OocEngine::open(&path, platform(2), cfg(8), budget).unwrap();
            e.set_tune(TuneParams {
                prefetch_depth: 0,
                ..Default::default()
            });
            e.mttkrp_mode(0, &fs).unwrap().0
        };
        let reg = amped_sim::obs::MetricsRegistry::new();
        let rt = SimRuntime::new(platform(2)).with_metrics(reg);
        let mut e = OocEngine::with_runtime(&path, Box::new(rt), cfg(8), budget).unwrap();
        e.set_tune(TuneParams {
            prefetch_depth: 1,
            ooc_chunk_budget: 2,
            ..Default::default()
        });
        let stalls_before = e.metrics().counter_value("ooc_chunk_stalls", &[]);
        let (out, _) = e.mttkrp_mode(0, &fs).unwrap();
        assert!(
            e.metrics().counter_value("ooc_chunk_stalls", &[]) > stalls_before,
            "the squeezed budget must record at least one prefetch stall"
        );
        assert_eq!(e.staged_bytes(), 0, "stalled pipeline leaked budget");
        for (a, b) in base.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_buffer_budget_warns_once_and_falls_back() {
        // Three equal 100-element chunks and a budget of 185 elements
        // (enough for one chunk, never for two): prefetch can never overlap — the engine warns once
        // (process-wide) and runs the blocking loop.
        let t = GenSpec::uniform(vec![40, 30, 20], 300, 99).generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("singlebuf.tnsb");
        write_tnsb(&t, &path, 100).unwrap();
        let fs = factors(&t, 8, 100);
        let budget = 185 * t.elem_bytes();
        let reg = amped_sim::obs::MetricsRegistry::new();
        let rt = SimRuntime::new(platform(2)).with_metrics(reg);
        let mut e = OocEngine::with_runtime(&path, Box::new(rt), cfg(8), budget).unwrap();
        assert_eq!(e.tune().effective_prefetch(), 1, "default asks for overlap");
        // Two runs, one warning: warn_once dedupes on the key.
        let (out, _) = e.mttkrp_mode(0, &fs).unwrap();
        let _ = e.mttkrp_mode(1, &fs).unwrap();
        let hits = amped_sim::obs::warnings()
            .iter()
            .filter(|(k, _)| k == "ooc-single-buffer")
            .count();
        assert_eq!(hits, 1, "single-buffer warning must fire exactly once");
        assert_eq!(
            e.metrics().counter_value("ooc_prefetch_hits", &[]),
            0,
            "fallback must not route chunks through the pipeline"
        );
        assert!(out.approx_eq(&mttkrp_ref(&t, &fs, 0), 1e-3, 1e-4));
        assert_eq!(e.staged_bytes(), 0);
    }

    #[test]
    fn stage_budget_too_small_for_one_chunk_is_oom() {
        let t = GenSpec::uniform(vec![30, 30, 30], 2000, 93).generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("oom.tnsb");
        write_tnsb(&t, &path, 1024).unwrap();
        let err = OocEngine::open(&path, platform(2), cfg(8), 100).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
        assert!(
            err.to_string().contains("chunk staging"),
            "staging OOM should carry its purpose: {err}"
        );
    }

    #[test]
    fn missing_file_is_unsupported_not_panic() {
        let err =
            OocEngine::open("/nonexistent/amped.tnsb", platform(1), cfg(8), 1 << 20).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)), "{err}");
    }
}
