//! Out-of-core execution mode: MTTKRP/ALS over `.tnsb` chunks on disk.
//!
//! The in-core [`crate::engine::AmpedEngine`] keeps one mode-sorted tensor
//! copy per mode in host memory. [`OocEngine`] instead drives the
//! `amped-stream` pipeline: those copies live on disk as the `.tnsb` file's
//! sorted sections (built once, by the writer — the paper's preprocessing,
//! §3.1), cut into fixed-capacity chunks; a bounded host staging budget (an
//! [`amped_sim::MemPool`]) holds the resident chunk — plus up to
//! [`TuneParams::prefetch_depth`] chunks a background reader thread stages
//! ahead while the current chunk computes — and every GPU streams, through
//! its own double buffer, the slice of each chunk whose output rows it owns
//! (the streaming plan's CCP device ranges guarantee no output row spans two
//! GPUs, so intra-GPU atomics still suffice).
//!
//! For output mode `d` the engine streams section `d`
//! ([`ChunkReader::stage`] with that mode): a chunk is `chunk_capacity`
//! consecutive elements of the mode-sorted tensor, the shape of the in-core
//! engine's shards — long row runs, a GPU's slice one contiguous sub-range —
//! and a multi-ISP chunk runs the kernel layer's row-run path over its
//! [`SortedCoo`] view (input coordinates, values and row pointers, as the
//! in-core copies hold them), with no per-block output tile and no merge
//! pass.
//! Nothing is sorted per visit; a chunk is the bytes the file holds,
//! whichever thread read it and at every prefetch depth.
//!
//! Timing reuses the in-core engine's cost model and its per-GPU pipeline
//! arithmetic (`engine::double_buffered`): a GPU's slices are
//! priced as output-sorted blocks, exactly like the shards they are.
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
//!
//! Like the in-core engine, every kernel launch, transfer, collective, and
//! device allocation goes through the [`DeviceRuntime`] seam.

use crate::config::{AmpedConfig, SchedulePolicy};
use crate::engine::{
    double_buffered, record_setup, validate_replan, EngineMeters, ModeTiming, MttkrpEngine,
};
use amped_linalg::Mat;
use amped_partition::{isp_ranges, ShardStats};
use amped_plan::{ModeAssignment, NnzCcp, Partitioner, PlatformCostQuery, WorkloadProfile};
use amped_runtime::kernels::{launch_mttkrp, FactorsView, MttkrpOut, SortedCoo};
use amped_runtime::{Device, DeviceRuntime, SimRuntime, Timeline, TuneParams};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::obs::{warn_once, Counter};
use amped_sim::{MemPool, PlatformSpec, SimError, TimeBreakdown};
use amped_stream::{Chunk, ChunkReader, StagedRead, StreamPlan, TnsbMeta};
use amped_tensor::Idx;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;

/// The out-of-core AMPED engine: same algorithmic skeleton as the in-core
/// engine (mode loop → scatter/stream → grids → barrier → all-gather), but
/// the tensor is a `.tnsb` file and host memory holds at most the staging
/// budget's worth of nonzeros.
#[derive(Debug)]
pub struct OocEngine {
    runtime: Box<dyn DeviceRuntime>,
    /// Cached copy of the runtime's spec for borrow-free planning reads.
    spec: PlatformSpec,
    cost: CostModel,
    cfg: AmpedConfig,
    reader: ChunkReader,
    plan: StreamPlan,
    obs: EngineMeters,
}

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
        Self::with_runtime(
            path,
            Box::new(SimRuntime::new(platform)),
            cfg,
            stage_budget_bytes,
        )
    }

    /// Opens a `.tnsb` tensor for out-of-core decomposition through an
    /// explicit `runtime` (see [`crate::engine::AmpedEngine::with_runtime`]).
    /// Planning uses the default nnz-weighted CCP policy ([`NnzCcp`]).
    pub fn with_runtime(
        path: impl AsRef<Path>,
        runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
        stage_budget_bytes: u64,
    ) -> Result<Self, SimError> {
        Self::with_planner(path, runtime, cfg, stage_budget_bytes, &NnzCcp)
    }

    /// [`OocEngine::with_runtime`] plus autotuning: the
    /// [`amped_tune::Autotuner`] resolves [`TuneParams`] from the `.tnsb`
    /// footer statistics alone (a cache hit, or a grid search on a probe
    /// synthesized to those statistics — the payload itself may not fit in
    /// memory) and installs them on the runtime.
    pub fn with_tuner(
        path: impl AsRef<Path>,
        runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
        stage_budget_bytes: u64,
        tuner: &mut amped_tune::Autotuner,
    ) -> Result<Self, SimError> {
        let rank = cfg.rank;
        let mut engine = Self::with_runtime(path, runtime, cfg, stage_budget_bytes)?;
        tuner.attach_metrics(&engine.runtime.metrics());
        let backend = amped_tune::backend_fingerprint(engine.runtime.name());
        let meta = engine.reader.meta();
        let stats = amped_tune::TensorStats {
            dims: meta.shape.clone(),
            nnz: meta.nnz,
            rank,
        };
        let params = tuner.params_for_stats(&backend, &stats);
        engine.set_tune(params);
        Ok(engine)
    }

    /// Opens a `.tnsb` tensor through an explicit runtime **and** an
    /// explicit [`Partitioner`] policy for the streaming plan's pass 1 —
    /// the out-of-core half of the planner seam (see
    /// [`crate::engine::AmpedEngine::with_planner`]). The planner sees the
    /// footer histograms plus a [`PlatformCostQuery`] over the runtime's
    /// spec.
    pub fn with_planner(
        path: impl AsRef<Path>,
        mut runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
        stage_budget_bytes: u64,
        planner: &dyn Partitioner,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Unsupported)?;
        if cfg.schedule != SchedulePolicy::StaticCcp {
            return Err(SimError::Unsupported(
                "out-of-core execution requires the static CCP schedule: chunk routing is \
                 fixed by output-row ownership"
                    .into(),
            ));
        }
        let stage = MemPool::new("host-stage", stage_budget_bytes);
        let mut reader = ChunkReader::open(path.as_ref(), stage).map_err(|e| e.into_sim())?;
        let spec = runtime.spec().clone();
        let meta = reader.meta();
        let m = spec.num_gpus();

        // --- GPU memory: factor copies (§4.4) plus a double-buffered chunk
        // staging area — a GPU may receive a whole chunk in the worst case.
        let factor_bytes: u64 = meta
            .shape
            .iter()
            .map(|&d| d as u64 * cfg.rank as u64 * 4)
            .sum();
        let chunk_buffer = 2 * meta.chunk_capacity * meta.elem_bytes();
        for g in 0..m {
            runtime.alloc(Device::Gpu(g), factor_bytes, "factor-matrix copies")?;
            runtime.alloc(Device::Gpu(g), chunk_buffer, "chunk streaming buffers")?;
        }

        // --- Host memory: only the staging budget is resident (that is the
        // point), charged so a budget larger than the host fails loudly.
        runtime.alloc(Device::Host, stage_budget_bytes, "chunk staging budget")?;

        // --- Streaming two-pass plan through the budget. Slice statistics
        // use GPU 0's cache capacity (one scan of the sections serves all
        // devices; per-device re-scans would multiply the I/O).
        let gpu = &spec.gpus[0];
        let cache_rows = (gpu.l2_bytes / (cfg.rank as u64 * 4)).max(1) as usize;
        let cost = PlatformCostQuery::new(
            &spec,
            WorkloadProfile {
                order: meta.order(),
                rank: cfg.rank,
                elem_bytes: meta.elem_bytes(),
                isp_nnz: cfg.isp_nnz,
            },
        );
        let plan = StreamPlan::build_with_planner(&mut reader, planner, &cost, cache_rows)
            .map_err(|e| e.into_sim())?;

        // Chunk I/O telemetry (`ooc_*` counters) and the engine's own meters
        // record into the runtime's registry; detached registries make this
        // free.
        let registry = runtime.metrics();
        let obs = EngineMeters {
            ooc_prefetch_hits: registry.counter("ooc_prefetch_hits"),
            ..EngineMeters::attach(&registry)
        };
        record_setup(&registry, plan.preprocess_wall, plan.busy);
        reader.set_metrics(registry);

        Ok(Self {
            runtime,
            spec,
            cost: CostModel::default(),
            cfg,
            reader,
            plan,
            obs,
        })
    }

    /// The streaming partition plan.
    pub fn plan(&self) -> &StreamPlan {
        &self.plan
    }

    /// The on-disk tensor's metadata.
    pub fn meta(&self) -> &TnsbMeta {
        self.reader.meta()
    }

    /// The platform specification.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The device runtime the engine executes through.
    pub fn runtime(&self) -> &dyn DeviceRuntime {
        self.runtime.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> &AmpedConfig {
        &self.cfg
    }

    /// The runtime's tunable execution parameters (prefetch depth, rank
    /// tile, worker count).
    pub fn tune(&self) -> TuneParams {
        self.runtime.tune()
    }

    /// Sets the runtime's tunable execution parameters. Every setting is
    /// numerics-transparent: factors are bit-identical across prefetch
    /// depths and rank tiles; only wall time and overlap change.
    pub fn set_tune(&mut self, params: TuneParams) {
        self.runtime.set_tune(params);
    }

    /// Peak GPU memory charged, in bytes (max over GPUs).
    pub fn gpu_mem_peak(&self) -> u64 {
        self.runtime.gpu_mem_peak()
    }

    /// Host memory charged (the staging budget reservation).
    pub fn host_mem_used(&self) -> u64 {
        self.runtime.mem(Device::Host).used()
    }

    /// High-water mark of the staging budget actually used by chunk loads.
    pub fn stage_peak(&self) -> u64 {
        self.reader.budget().peak()
    }

    /// Swaps mode `assignment.mode`'s device assignment: re-runs the
    /// streaming plan's pass 2 for that mode (one bounded scan of its
    /// sorted section) under the new output-index ranges. The ALS-time rebalancing path —
    /// out-of-core replanning costs real chunk I/O, which is exactly the
    /// trade the imbalance threshold gates.
    pub fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError> {
        validate_replan(assignment, &self.reader.meta().shape, self.spec.num_gpus())?;
        let d = assignment.mode;
        let gpu = &self.spec.gpus[0];
        let cache_rows = (gpu.l2_bytes / (self.cfg.rank as u64 * 4)).max(1) as usize;
        self.plan
            .rebuild_mode(&mut self.reader, d, assignment.index_ranges(), cache_rows)
            .map_err(|e| e.into_sim())?;
        let plan = &self.plan;
        record_setup(&self.runtime.metrics(), plan.preprocess_wall, plan.busy);
        self.obs.replans.inc();
        Ok(())
    }

    /// Runs MTTKRP for output mode `d` out of core: the chunks of section
    /// `d` stream from disk through the staging budget, each GPU pulls the
    /// slices it owns, and every chunk executes as a grid of ISP blocks;
    /// updated rows travel through the configured all-gather.
    pub fn mttkrp_mode(
        &mut self,
        d: usize,
        factors: &[Mat],
    ) -> Result<(Mat, ModeTiming), SimError> {
        let order = self.reader.meta().order();
        assert!(d < order, "mode {d} out of range");
        assert_eq!(factors.len(), order, "one factor matrix per mode");
        let rank = self.cfg.rank;
        assert!(
            factors.iter().all(|f| f.cols() == rank),
            "factor rank must match engine configuration"
        );
        let m = self.spec.num_gpus();
        let elem_bytes = self.reader.meta().elem_bytes();
        let rows_out = self.reader.meta().shape[d] as usize;
        let num_chunks = self.reader.meta().num_chunks();
        let out = MttkrpOut::zeros(rows_out, rank);

        // Split borrows: the runtime and the chunk reader both take ops
        // (&mut) while the plan feeds routing (&).
        let Self {
            runtime,
            spec,
            cost,
            cfg,
            reader,
            plan,
            obs,
        } = self;
        let runtime = runtime.as_mut();
        let mp = &plan.modes[d];
        let loads = mp.gpu_loads();
        let active = loads.iter().filter(|&&l| l > 0).count().max(1);

        // --- The model: GPU `g` streams its slice of every chunk that has
        // one — host→GPU transfer, then a grid over the slice — through its
        // own double buffer, like the in-core engine's shards.
        let mut per_gpu = vec![TimeBreakdown::default(); m];
        let mut ends = vec![0.0f64; m];
        for g in 0..m {
            let slices = mp.chunks.iter().map(|route| &route.per_gpu[g]);
            let steps: Vec<(f64, f64)> = slices
                .filter(|stats| stats.nnz > 0)
                .map(|stats| {
                    let transfer = runtime.h2d_time(g, active, stats.nnz * elem_bytes);
                    let compute = slice_time(cost, spec, g, cfg, stats, order, elem_bytes);
                    (transfer, compute)
                })
                .collect();
            (ends[g], per_gpu[g]) = double_buffered(&steps);
        }

        // --- Real execution: stream every chunk of section `d` once through
        // the staging budget and run the elementwise computation
        // (Algorithm 2) as a grid of ISP blocks through the kernel layer
        // (the row-run path over the sorted chunk when it spans several
        // ISPs, direct accumulation otherwise).
        // The whole chunk executes as one zero-cost grid on device 0: a
        // host-side stand-in for functional output only — per-device
        // placement and timing are carried by the model above, so a
        // timeline of this engine shows compute placement in the h2d ops,
        // not these launches.
        let fviews = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
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
            let meta = reader.meta();
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
            obs.nnz_processed.add(chunk.nnz() as u64);
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
            launch_mttkrp(runtime, 0, &src, &fviews, &isps, &costs, &out);
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
                &obs.ooc_prefetch_hits,
                exec_chunk,
            )?;
        }

        // --- Inter-GPU barrier.
        let barrier = ends.iter().cloned().fold(0.0f64, f64::max);
        for (g, b) in per_gpu.iter_mut().enumerate() {
            b.idle += barrier - ends[g];
        }

        // --- All-gather of the updated output rows (Algorithm 1 line 11).
        let row_bytes = rank as u64 * 4;
        let block_bytes: Vec<u64> = mp.gpu_rows().iter().map(|&r| r * row_bytes).collect();
        let gather_time = runtime.allgather_time(cfg.gather.collective(), &block_bytes);
        for b in per_gpu.iter_mut() {
            b.p2p += gather_time;
        }

        let result = Mat::from_vec(rows_out, rank, out.to_vec());
        let timing = ModeTiming {
            mode: d,
            wall: barrier + gather_time,
            per_gpu,
        };
        Ok((result, timing))
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
                        in_flight.push_back((next_stage, staged.bytes()));
                        req_tx.send(staged).expect("prefetch reader thread alive");
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
            let staged_ahead = if in_flight.front().map(|f| f.0) == Some(k) {
                let (_, reserved) = in_flight.pop_front().expect("front checked");
                let read = match res_rx.recv() {
                    Ok(read) => read.map_err(|e| e.into_sim()),
                    Err(_) => Err(SimError::Unsupported(
                        "prefetch reader thread disconnected".into(),
                    )),
                };
                Some((reserved, read))
            } else {
                None
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
/// list-scheduled onto GPU `g`'s SMs and priced against *its* spec
/// (heterogeneous platforms model slow devices slower; on the homogeneous
/// default every spec is identical, bit for bit).
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

impl MttkrpEngine for OocEngine {
    fn mttkrp_mode(&mut self, d: usize, factors: &[Mat]) -> Result<(Mat, ModeTiming), SimError> {
        OocEngine::mttkrp_mode(self, d, factors)
    }

    fn rank(&self) -> usize {
        self.cfg.rank
    }

    fn shape(&self) -> &[Idx] {
        &self.reader.meta().shape
    }

    fn tensor_norm_sq(&self) -> f64 {
        self.reader.meta().norm_sq
    }

    fn num_gpus(&self) -> usize {
        self.spec.num_gpus()
    }

    fn preprocess_wall(&self) -> f64 {
        self.plan.preprocess_wall
    }

    fn mode_hist(&self, d: usize) -> Vec<u64> {
        self.reader.meta().hist[d].clone()
    }

    fn mode_loads(&self, d: usize) -> Vec<u64> {
        self.plan.modes[d].gpu_loads()
    }

    fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError> {
        OocEngine::replan(self, assignment)
    }

    fn timeline(&self) -> Option<amped_runtime::Timeline> {
        self.runtime.timeline()
    }

    fn metrics(&self) -> amped_sim::obs::MetricsRegistry {
        self.runtime.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use crate::reference::mttkrp_ref;
    use amped_stream::write_tnsb;
    use amped_tensor::gen::GenSpec;
    use amped_tensor::SparseTensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn platform(m: usize) -> PlatformSpec {
        PlatformSpec::rtx6000_ada_node(m).scaled(1e-3)
    }

    fn factors(t: &SparseTensor, r: usize, seed: u64) -> Vec<Mat> {
        let mut rng = SmallRng::seed_from_u64(seed);
        t.shape()
            .iter()
            .map(|&d| Mat::random(d as usize, r, &mut rng))
            .collect()
    }

    fn cfg(r: usize) -> AmpedConfig {
        AmpedConfig {
            rank: r,
            isp_nnz: 256,
            shard_nnz_budget: 1024,
            ..Default::default()
        }
    }

    /// Staging budget comfortably holding a depth-2 prefetch window.
    fn budget_for(t: &SparseTensor, cap: usize) -> u64 {
        cap as u64 * t.elem_bytes() * 3
    }

    #[test]
    fn ooc_matches_reference_all_modes() {
        let t = GenSpec {
            shape: vec![80, 60, 70],
            nnz: 5000,
            skew: vec![0.8, 0.0, 0.4],
            seed: 81,
        }
        .generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("ref.tnsb");
        write_tnsb(&t, &path, 512).unwrap();
        let fs = factors(&t, 16, 82);
        let mut e = OocEngine::open(&path, platform(4), cfg(16), budget_for(&t, 512)).unwrap();
        for d in 0..3 {
            let (out, timing) = e.mttkrp_mode(d, &fs).unwrap();
            let want = mttkrp_ref(&t, &fs, d);
            assert!(
                out.approx_eq(&want, 1e-3, 1e-4),
                "mode {d}: max diff {}",
                out.max_abs_diff(&want)
            );
            assert!(timing.wall > 0.0);
            assert_eq!(timing.per_gpu.len(), 4);
        }
        assert_eq!(e.reader.budget().used(), 0, "all chunks must be released");
    }

    #[test]
    fn ooc_matches_reference_5mode() {
        let t = GenSpec::uniform(vec![20, 24, 28, 16, 12], 2000, 83).generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("ref5.tnsb");
        write_tnsb(&t, &path, 300).unwrap();
        let fs = factors(&t, 8, 84);
        let mut e = OocEngine::open(&path, platform(3), cfg(8), budget_for(&t, 300)).unwrap();
        for d in 0..5 {
            let (out, _) = e.mttkrp_mode(d, &fs).unwrap();
            assert!(
                out.approx_eq(&mttkrp_ref(&t, &fs, d), 1e-3, 1e-4),
                "mode {d}"
            );
        }
    }

    #[test]
    fn simulated_time_is_deterministic_and_positive() {
        let t = GenSpec::uniform(vec![50, 50, 50], 3000, 91).generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("det.tnsb");
        write_tnsb(&t, &path, 256).unwrap();
        let fs = factors(&t, 8, 92);
        let b = budget_for(&t, 256);
        let mut e1 = OocEngine::open(&path, platform(4), cfg(8), b).unwrap();
        let mut e2 = OocEngine::open(&path, platform(4), cfg(8), b).unwrap();
        let (_, t1) = e1.mttkrp_mode(0, &fs).unwrap();
        let (_, t2) = e2.mttkrp_mode(0, &fs).unwrap();
        assert_eq!(t1.wall, t2.wall);
        assert!(t1.wall > 0.0);
        for (a, b) in t1.per_gpu.iter().zip(&t2.per_gpu) {
            assert_eq!(a.compute, b.compute);
            assert_eq!(a.h2d, b.h2d);
        }
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
            assert_eq!(e.reader.budget().used(), 0, "depth {depth} leaked budget");
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
        assert_eq!(
            e.reader.budget().used(),
            0,
            "stalled pipeline leaked budget"
        );
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
        assert_eq!(e.reader.budget().used(), 0);
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
    fn dynamic_queue_schedule_is_unsupported() {
        let t = GenSpec::uniform(vec![20, 20, 20], 500, 94).generate();
        let dir = ScratchDir::new("ooc");
        let path = dir.join("sched.tnsb");
        write_tnsb(&t, &path, 256).unwrap();
        let c = AmpedConfig {
            schedule: SchedulePolicy::DynamicQueue,
            ..cfg(8)
        };
        let err = OocEngine::open(&path, platform(2), c, budget_for(&t, 256)).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
    }

    #[test]
    fn missing_file_is_unsupported_not_panic() {
        let err =
            OocEngine::open("/nonexistent/amped.tnsb", platform(1), cfg(8), 1 << 20).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)), "{err}");
    }
}
