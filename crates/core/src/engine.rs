//! The AMPED multi-GPU MTTKRP engine (Algorithms 1–3), one engine over two
//! sources.
//!
//! [`Engine`] is Algorithm 1's loop, written once: argument checks, the
//! per-GPU pipelines a [`Source`] reports, the inter-GPU barrier, the timed
//! all-gather of the updated rows, and the construction, replanning and
//! accessor shell around them. Every GPU's kernels write their rows into one
//! host output buffer, so after the modeled gather that buffer becomes the
//! mode's factor in place: nothing is copied or reassembled. What differs
//! between running in core and out of core is only where a mode-sorted
//! element comes from, so that is all a source owns: [`Resident`] (this
//! module, [`AmpedEngine`]) keeps one mode-sorted copy per mode in host
//! memory and streams its shards; [`crate::ooc::Streamed`]
//! ([`crate::ooc::OocEngine`]) reads the same layout chunk by chunk from a
//! `.tnsb` file's sorted sections.
//!
//! The engine is pure orchestration: every kernel launch, transfer,
//! collective, and device allocation goes through the [`DeviceRuntime`] it
//! holds — by default the simulated [`amped_runtime::SimRuntime`], but any
//! backend (e.g. a tracing decorator, or eventually a real-GPU runtime)
//! slots in via [`AmpedEngine::with_runtime`].

use crate::config::AmpedConfig;
use amped_linalg::Mat;
use amped_partition::{isp_ranges, ModePlan, PartitionPlan, PlanBusy, Shard, StatsScratch};
use amped_plan::{ModeAssignment, NnzCcp, Partitioner, PlanStats, UniformCost};
use amped_runtime::kernels::{launch_mttkrp, FactorsView, MttkrpOut, SortedCoo};
use amped_runtime::{Collective, Device, DeviceRuntime, SimRuntime, Timeline, TuneParams};
use amped_sim::costmodel::CostModel;
use amped_sim::metrics::RunReport;
use amped_sim::obs::{Counter, MetricsRegistry};
use amped_sim::{host_workers, PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::{Idx, SparseTensor};
use std::ops::Range;

/// Timing of one output-mode MTTKRP (one pass of Algorithm 1's loop body).
#[derive(Clone, Debug)]
pub struct ModeTiming {
    /// Output mode.
    pub mode: usize,
    /// Simulated wall time: shard streaming + grids + barrier + all-gather.
    pub wall: f64,
    /// Per-GPU breakdown (compute, exposed h2d, p2p, idle).
    pub per_gpu: Vec<TimeBreakdown>,
}

/// The engine interface CP-ALS drives: one MTTKRP per output mode plus the
/// tensor and platform facts the outer loop needs. Implemented once, by
/// [`Engine`], so [`crate::als::cp_als`] runs unchanged on tensors that fit
/// in host memory ([`AmpedEngine`]) and on tensors that only exist as
/// `.tnsb` chunks on disk ([`crate::ooc::OocEngine`]).
pub trait MttkrpEngine {
    /// Runs MTTKRP for output mode `d`: returns the updated output factor
    /// `Ŷ_d` and the mode's simulated timing.
    fn mttkrp_mode(&mut self, d: usize, factors: &[Mat]) -> Result<(Mat, ModeTiming), SimError>;

    /// Factor-matrix rank the engine was configured with.
    fn rank(&self) -> usize;

    /// Mode sizes of the decomposed tensor.
    fn shape(&self) -> &[Idx];

    /// `‖X‖²` of the decomposed tensor (for the CP fit).
    fn tensor_norm_sq(&self) -> f64;

    /// Number of simulated GPUs.
    fn num_gpus(&self) -> usize;

    /// Real wall-clock seconds spent in preprocessing (partition planning).
    fn preprocess_wall(&self) -> f64;

    /// Output-index histogram of mode `d` — the planner input.
    fn mode_hist(&self, d: usize) -> Vec<u64>;

    /// Nonzeros owned by each GPU under the current mode-`d` assignment.
    fn mode_loads(&self, d: usize) -> Vec<u64>;

    /// Swaps mode `assignment.mode`'s device assignment in place —
    /// re-shards under the new ranges without rebuilding the engine.
    fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError>;

    /// The op timeline of the engine's runtime, when a tracing backend is
    /// attached — how [`crate::als::cp_als`] opens `iteration`/`mode` spans
    /// without knowing the runtime's concrete type. `None` (the default)
    /// means no observer: the driver skips span bookkeeping entirely.
    fn timeline(&self) -> Option<Timeline> {
        None
    }

    /// The metrics registry of the engine's runtime (detached by default).
    fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::detached()
    }
}

/// Where an [`Engine`]'s mode-sorted elements live, and the little only that
/// place knows: the tensor facts, how a mode is re-cut, and how a mode's
/// grids are priced and launched.
/// Sealed — [`Resident`] and [`crate::ooc::Streamed`] are the only sources,
/// and everything else the engine does is written once over them.
pub trait Source: sealed::Sealed {
    /// Mode sizes of the decomposed tensor.
    fn shape(&self) -> &[Idx];

    /// `‖X‖²` of the decomposed tensor.
    fn norm_sq(&self) -> f64;

    /// Output-index histogram of mode `d`.
    fn mode_hist(&self, d: usize) -> Vec<u64>;

    /// Nonzeros each GPU owns under mode `d`'s current assignment.
    fn mode_loads(&self, d: usize) -> Vec<u64>;

    /// Preprocessing wall so far, and its split into busy-seconds.
    fn setup(&self) -> (f64, PlanBusy);

    /// Moves mode `assignment.mode` to the assignment's output-index ranges
    /// (already validated against the tensor and the platform).
    fn recut(
        &mut self,
        runtime: &dyn DeviceRuntime,
        cfg: &AmpedConfig,
        assignment: &ModeAssignment,
    ) -> Result<(), SimError>;

    /// Prices every GPU's stream of mode `d` as `(transfer, compute)` steps
    /// and runs the mode's grids into `out`, in the source's own op order.
    fn launch(
        &mut self,
        runtime: &mut dyn DeviceRuntime,
        spec: &PlatformSpec,
        cfg: &AmpedConfig,
        d: usize,
        factors: &FactorsView,
        out: &MttkrpOut,
    ) -> Result<sealed::ModeRun, SimError>;
}

pub(crate) mod sealed {
    use super::{Idx, Range};

    /// Implemented by exactly the sources of this crate.
    pub trait Sealed {}

    /// What a source's launches leave for the engine's pipeline model,
    /// barrier and all-gather.
    pub struct ModeRun {
        /// Each GPU's stream: `(transfer, compute)` seconds per step.
        pub steps: Vec<Vec<(f64, f64)>>,
        /// Each GPU's output rows, as index ranges in stream order.
        pub rows: Vec<Vec<Range<Idx>>>,
    }
}

/// The AMPED engine over a [`Source`]: the device runtime it executes
/// through, the configuration, the engine's own meters, and where the
/// mode-sorted elements come from.
#[derive(Debug)]
pub struct Engine<S> {
    runtime: Box<dyn DeviceRuntime>,
    /// Cached copy of the runtime's spec for borrow-free planning reads.
    spec: PlatformSpec,
    cfg: AmpedConfig,
    obs: EngineMeters,
    pub(crate) source: S,
}

/// The in-core engine: every mode-sorted copy lives in host memory.
pub type AmpedEngine = Engine<Resident>;

/// The engine's own telemetry handles (runtime-level counters live in the
/// backend), resolved once at construction: nonzeros processed per mode and
/// replans applied. Detached — free — unless the runtime carries an
/// attached registry.
#[derive(Debug, Default)]
struct EngineMeters {
    nnz_processed: Counter,
    replans: Counter,
}

/// Publishes where setup went, after construction and after every replan:
/// `preprocess_wall` and its split into busy-seconds per phase (summed over
/// pool jobs), as gauges of the runtime's registry.
fn record_setup(registry: &MetricsRegistry, (wall, busy): (f64, PlanBusy)) {
    for (name, seconds) in [
        ("setup_wall_s", wall),
        ("setup_sort_busy_s", busy.sort_s),
        ("setup_stats_busy_s", busy.stats_s),
        ("setup_pricing_busy_s", busy.pricing_s),
    ] {
        registry.gauge(name).set(seconds);
    }
}

/// Charges GPU `g` a local copy of every factor matrix (§4.4). Each source
/// calls it at its own point of its allocation order.
pub(crate) fn charge_factors(
    runtime: &mut dyn DeviceRuntime,
    g: usize,
    shape: &[Idx],
    rank: usize,
) -> Result<(), SimError> {
    let bytes: u64 = shape.iter().map(|&d| d as u64 * rank as u64 * 4).sum();
    runtime.alloc(Device::Gpu(g), bytes, "factor-matrix copies")
}

impl<S: Source> Engine<S> {
    /// The construction core: validates `cfg`, lets `open` charge the
    /// devices and build the source, then binds the engine's meters and
    /// publishes setup.
    pub(crate) fn build(
        mut runtime: Box<dyn DeviceRuntime>,
        mut cfg: AmpedConfig,
        open: impl FnOnce(
            &mut dyn DeviceRuntime,
            &PlatformSpec,
            &mut AmpedConfig,
        ) -> Result<S, SimError>,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::Unsupported)?;
        let spec = runtime.spec().clone();
        let source = open(runtime.as_mut(), &spec, &mut cfg)?;
        let registry = runtime.metrics();
        let obs = EngineMeters {
            nnz_processed: registry.counter("nnz_processed"),
            replans: registry.counter("replans"),
        };
        record_setup(&registry, source.setup());
        Ok(Self {
            runtime,
            spec,
            cfg,
            obs,
            source,
        })
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

    /// The runtime's tunable execution parameters.
    pub fn tune(&self) -> TuneParams {
        self.runtime.tune()
    }

    /// Sets the runtime's tunable execution parameters. Every setting is
    /// numerics-transparent (see `amped_runtime::params`): factors are
    /// bit-identical across prefetch depths and rank tiles; only wall time
    /// and overlap change.
    pub fn set_tune(&mut self, params: TuneParams) {
        self.runtime.set_tune(params);
    }

    /// Peak GPU memory charged, in bytes (max over GPUs).
    pub fn gpu_mem_peak(&self) -> u64 {
        self.runtime.gpu_mem_peak()
    }

    /// Host memory charged, in bytes: the per-mode tensor copies in core,
    /// the staging budget's reservation out of core.
    pub fn host_mem_used(&self) -> u64 {
        self.runtime.mem(Device::Host).used()
    }

    /// Algorithm 1 in full: MTTKRP along every mode of one decomposition
    /// iteration. Each mode's gathered output replaces that factor before
    /// the next mode runs (line 11), as in the paper.
    pub fn mttkrp_all_modes(&mut self, factors: &mut [Mat]) -> Result<RunReport, SimError> {
        let mut report = RunReport {
            preprocess_wall: self.preprocess_wall(),
            per_gpu: vec![TimeBreakdown::default(); self.spec.num_gpus()],
            ..Default::default()
        };
        for d in 0..self.source.shape().len() {
            let (out, timing) = self.mttkrp_mode(d, factors)?;
            factors[d] = out;
            // λ-normalize the fresh factor (as ALS does) so chained values
            // stay within f32 range across modes; timing is value-independent.
            factors[d].normalize_cols();
            for (acc, g) in report.per_gpu.iter_mut().zip(&timing.per_gpu) {
                acc.add(g);
            }
            report.per_mode.push(timing.wall);
            report.total_time += timing.wall;
        }
        Ok(report)
    }
}

impl<S: Source> MttkrpEngine for Engine<S> {
    /// Runs MTTKRP for output mode `d` (Algorithm 1 loop body): returns the
    /// updated output factor `Ŷ_d` and the mode timing.
    ///
    /// Real execution: every ISP's elementwise computation (Algorithm 2) runs
    /// as one block of a [`DeviceRuntime::launch_grid`] grid through the
    /// kernel layer over a mode-sorted view — no atomic read-modify-write
    /// anywhere: multi-ISP grids walk the view as row runs with `f64`
    /// accumulation and one rounding per cell (see `amped_runtime::kernels`),
    /// single-ISP grids keep the single-writer `f32` order. The source
    /// prices and launches the grids; the engine then closes the mode with
    /// the inter-GPU barrier and the ring all-gather (Algorithm 3), timed
    /// and metered once through [`DeviceRuntime::allgather_time`]; the
    /// output buffer the grids wrote is returned as the factor, in place.
    fn mttkrp_mode(&mut self, d: usize, factors: &[Mat]) -> Result<(Mat, ModeTiming), SimError> {
        let order = self.source.shape().len();
        assert!(d < order, "mode {d} out of range");
        assert_eq!(factors.len(), order, "one factor matrix per mode");
        let rank = self.cfg.rank;
        assert!(
            factors.iter().all(|f| f.cols() == rank),
            "factor rank must match engine configuration"
        );
        let out = MttkrpOut::zeros(self.source.shape()[d] as usize, rank);
        let fviews = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
        let runtime = self.runtime.as_mut();
        let run = self
            .source
            .launch(runtime, &self.spec, &self.cfg, d, &fviews, &out)?;
        // Every nonzero some GPU owns ran this mode.
        let nnz: u64 = self.source.mode_loads(d).iter().sum();
        self.obs.nnz_processed.add(nnz);

        // --- Each GPU's double-buffered stream, then the inter-GPU barrier
        // (Algorithm 1 line 9).
        let (ends, mut per_gpu): (Vec<f64>, Vec<TimeBreakdown>) =
            run.steps.iter().map(|s| double_buffered(s)).unzip();
        let barrier = ends.iter().cloned().fold(0.0f64, f64::max);
        for (b, end) in per_gpu.iter_mut().zip(&ends) {
            b.idle += barrier - end;
        }

        // --- All-gather of the updated output rows (Algorithm 1 line 11).
        let row_bytes = rank as u64 * 4;
        let block_bytes: Vec<u64> = run
            .rows
            .iter()
            .map(|ranges| {
                ranges
                    .iter()
                    .map(|r| (r.end - r.start) as u64 * row_bytes)
                    .sum()
            })
            .collect();
        let gather_time = runtime.allgather_time(Collective::Ring, &block_bytes);
        for b in per_gpu.iter_mut() {
            b.p2p += gather_time;
        }

        // Every GPU's rows are in `out` already; after the modeled gather
        // they become the factor in place.
        let result = Mat::from_vec(out.rows(), rank, out.into_vec());
        let timing = ModeTiming {
            mode: d,
            wall: barrier + gather_time,
            per_gpu,
        };
        Ok((result, timing))
    }

    fn rank(&self) -> usize {
        self.cfg.rank
    }

    fn shape(&self) -> &[Idx] {
        self.source.shape()
    }

    fn tensor_norm_sq(&self) -> f64 {
        self.source.norm_sq()
    }

    fn num_gpus(&self) -> usize {
        self.spec.num_gpus()
    }

    /// Real preprocessing wall time (Fig. 10), replans included.
    fn preprocess_wall(&self) -> f64 {
        self.source.setup().0
    }

    fn mode_hist(&self, d: usize) -> Vec<u64> {
        self.source.mode_hist(d)
    }

    fn mode_loads(&self, d: usize) -> Vec<u64> {
        self.source.mode_loads(d)
    }

    /// Swaps mode `assignment.mode`'s device assignment, leaving every other
    /// mode (and all device memory) untouched. In core the shards of the
    /// stored sorted copy are re-cut in place (no sort, no second copy); out
    /// of core the streaming plan's pass 2 re-scans that mode's sorted
    /// section — real chunk I/O.
    fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError> {
        // `assignment` must name a mode, target every device and cover that
        // mode's index space.
        let (shape, m, d) = (self.source.shape(), self.spec.num_gpus(), assignment.mode);
        if d >= shape.len() {
            return Err(SimError::Unsupported(format!(
                "replan mode {d} out of range for order {}",
                shape.len()
            )));
        }
        if assignment.num_devices() != m {
            return Err(SimError::Unsupported(format!(
                "assignment targets {} devices, platform has {m}",
                assignment.num_devices(),
            )));
        }
        assignment
            .validate(shape[d])
            .map_err(SimError::Unsupported)?;
        self.source
            .recut(self.runtime.as_ref(), &self.cfg, assignment)?;
        record_setup(&self.runtime.metrics(), self.source.setup());
        self.obs.replans.inc();
        Ok(())
    }

    fn timeline(&self) -> Option<Timeline> {
        self.runtime.timeline()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.runtime.metrics()
    }
}

/// One GPU's double-buffered stream (§4.8) over `steps` of `(transfer,
/// compute)` seconds, in stream order: transfer `k + 1` overlaps compute
/// `k`, and transfer `k` must wait for buffer `k − 2` to free. Returns when
/// the GPU finishes and where its time went. Exposed h2d is derived from
/// the pipeline, not inferred as `end − compute`: each pre-compute stall
/// counts as transfer time only while the link was actually busy (the
/// trailing window of that step's transfer); the remainder — double-buffer
/// and pipeline slack — is idle time. The engine runs every source's steps
/// through this one recurrence: shards of a sorted copy in core, a GPU's
/// slices of the sorted section's chunks out of core.
fn double_buffered(steps: &[(f64, f64)]) -> (f64, TimeBreakdown) {
    let mut transfer_end = vec![0.0f64; steps.len()];
    let mut compute_end = vec![0.0f64; steps.len()];
    let (mut compute_busy, mut exposed) = (0.0f64, 0.0f64);
    for (k, &(transfer, compute)) in steps.iter().enumerate() {
        let prev_transfer = if k > 0 { transfer_end[k - 1] } else { 0.0 };
        let buffer_free = if k >= 2 { compute_end[k - 2] } else { 0.0 };
        transfer_end[k] = prev_transfer.max(buffer_free) + transfer;
        let prev_compute = if k > 0 { compute_end[k - 1] } else { 0.0 };
        compute_end[k] = prev_compute.max(transfer_end[k]) + compute;
        compute_busy += compute;
        let stall = (transfer_end[k] - prev_compute).max(0.0);
        exposed += stall.min(transfer);
    }
    let end = compute_end.last().copied().unwrap_or(0.0);
    let breakdown = TimeBreakdown {
        compute: compute_busy,
        h2d: exposed,
        idle: (end - compute_busy - exposed).max(0.0),
        ..TimeBreakdown::default()
    };
    (end, breakdown)
}

/// One inter-shard partition prepared for execution.
#[derive(Clone, Debug)]
struct IspUnit {
    range: Range<usize>,
    cost: f64,
}

/// A mode's priced ISPs, per shard in stream order.
type ModeIsps = Vec<Vec<IspUnit>>;

/// One shard prepared for execution: its stream bytes, its threadblocks, and
/// its precomputed grid makespan.
#[derive(Clone, Debug)]
struct ShardUnit {
    gpu: usize,
    isps: Vec<IspUnit>,
    transfer_bytes: u64,
    compute: f64,
    /// The output rows this shard owns: a contiguous piece of its GPU's
    /// range.
    index_range: Range<Idx>,
}

/// The in-core source: the partition plan — one mode-sorted copy per mode in
/// host memory, cut into shards — and the prepared per-mode execution
/// schedules.
#[derive(Debug)]
pub struct Resident {
    plan: PartitionPlan,
    mode_shards: Vec<Vec<ShardUnit>>,
}

impl sealed::Sealed for Resident {}

impl AmpedEngine {
    /// Partitions `tensor` for `platform` on the default simulated runtime
    /// and charges all resident memory.
    ///
    /// Fails with [`SimError::OutOfMemory`] if the host cannot hold the
    /// per-mode tensor copies or a GPU cannot hold its factor-matrix copies
    /// plus the double-buffered shard staging area.
    pub fn new(
        tensor: &SparseTensor,
        platform: PlatformSpec,
        cfg: AmpedConfig,
    ) -> Result<Self, SimError> {
        Self::with_runtime(tensor, Box::new(SimRuntime::new(platform)), cfg)
    }

    /// Partitions `tensor` for execution through an explicit `runtime` —
    /// the seam that lets the same engine run on the plain simulator, a
    /// [`amped_runtime::TracingRuntime`], or any future backend. Planning
    /// is nnz-weighted CCP ([`NnzCcp`]).
    pub fn with_runtime(
        tensor: &SparseTensor,
        runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
    ) -> Result<Self, SimError> {
        Self::build(runtime, cfg, |rt, spec, cfg| {
            Resident::open(rt, spec, cfg, tensor)
        })
    }

    /// The partition plan (for experiments that inspect shard structure).
    pub fn plan(&self) -> &PartitionPlan {
        &self.source.plan
    }
}

impl Resident {
    /// Charges the devices in the in-core order — factor copies on every
    /// GPU, then the shard buffers, then the host copies — and builds the
    /// plan and every mode's schedule.
    fn open(
        runtime: &mut dyn DeviceRuntime,
        spec: &PlatformSpec,
        cfg: &mut AmpedConfig,
        tensor: &SparseTensor,
    ) -> Result<Self, SimError> {
        let m = spec.num_gpus();

        // --- GPU memory: local copy of every factor matrix (§4.4) plus two
        // shard staging buffers for double-buffered streaming (§4.8). The
        // shard budget adapts to the device: like the real implementation,
        // streaming buffers are sized to the memory left after the factor
        // copies (at most half of it, two buffers).
        for g in 0..m {
            charge_factors(runtime, g, tensor.shape(), cfg.rank)?;
        }
        let avail = (0..m)
            .map(|g| runtime.mem(Device::Gpu(g)).available())
            .min()
            .unwrap_or(0);
        let mem_budget = (avail / (4 * tensor.elem_bytes())) as usize;
        cfg.shard_nnz_budget = cfg
            .shard_nnz_budget
            .min(mem_budget.max(cfg.isp_nnz))
            .max(cfg.isp_nnz);
        let shard_buffer = 2 * cfg.shard_nnz_budget as u64 * tensor.elem_bytes();
        for g in 0..m {
            runtime.alloc(Device::Gpu(g), shard_buffer, "shard streaming buffers")?;
        }

        let start = std::time::Instant::now();
        let (mut plan, priced) = plan_and_price(tensor, spec, cfg, host_workers())?;

        // --- Host memory: all per-mode tensor copies live there (§3.1). The
        // model charges the paper's COO copies; the gauge beside it is what
        // ours hold.
        runtime.alloc(Device::Host, plan.host_bytes(), "per-mode tensor copies")?;
        runtime
            .metrics()
            .gauge("host_copy_bytes")
            .set(plan.copy_bytes() as f64);

        let mode_shards: Vec<Vec<ShardUnit>> = plan
            .modes
            .iter()
            .zip(priced)
            .map(|(mp, isps)| schedule_mode(runtime, mp, isps))
            .collect();
        plan.preprocess_wall = start.elapsed().as_secs_f64();
        Ok(Self { plan, mode_shards })
    }
}

impl Source for Resident {
    fn shape(&self) -> &[Idx] {
        self.plan.modes[0].copy.shape()
    }

    fn norm_sq(&self) -> f64 {
        self.plan.modes[0].copy.norm_sq()
    }

    fn mode_hist(&self, d: usize) -> Vec<u64> {
        self.plan.modes[d].hist()
    }

    fn mode_loads(&self, d: usize) -> Vec<u64> {
        self.plan.modes[d].gpu_loads()
    }

    fn setup(&self) -> (f64, PlanBusy) {
        (self.plan.preprocess_wall, self.plan.busy)
    }

    /// Re-cuts the shards of the stored mode-sorted copy under the new
    /// output-index ranges (in place — no sort, no second copy) and
    /// recomputes the mode's execution schedule.
    fn recut(
        &mut self,
        runtime: &dyn DeviceRuntime,
        cfg: &AmpedConfig,
        assignment: &ModeAssignment,
    ) -> Result<(), SimError> {
        let d = assignment.mode;
        let start = std::time::Instant::now();
        let (spec, cost) = (runtime.spec(), CostModel::default());
        let isps = self.plan.recut_priced(
            d,
            assignment.ranges.clone(),
            cfg.shard_nnz_budget,
            host_workers(),
            |mp, shard, scratch| price_shard(spec, &cost, cfg, mp, shard, scratch),
        );
        self.mode_shards[d] = schedule_mode(runtime, &self.plan.modes[d], isps);
        self.plan.preprocess_wall += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Every GPU streams the shards it owns in order: each shard's staged
    /// transfer and grid launch sit inside its `shard` span, so traces nest
    /// `…/mode=d/shard=sid` around exactly the ops it issued.
    fn launch(
        &mut self,
        runtime: &mut dyn DeviceRuntime,
        spec: &PlatformSpec,
        _cfg: &AmpedConfig,
        d: usize,
        factors: &FactorsView,
        out: &MttkrpOut,
    ) -> Result<sealed::ModeRun, SimError> {
        let shards = &self.mode_shards[d];
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); spec.num_gpus()];
        for (i, s) in shards.iter().enumerate() {
            assignment[s.gpu].push(i);
        }
        let active = assignment.iter().filter(|a| !a.is_empty()).count().max(1);
        let tl = runtime.timeline();
        // The mode-`d` copy is sorted by output index: it is the view every
        // grid of this mode launches over.
        let copy = &self.plan.modes[d].copy;
        let src = SortedCoo::new(
            copy.inputs(),
            copy.values(),
            copy.row_ptr(),
            None,
            copy.order(),
            d,
        );
        let mut steps = Vec::with_capacity(assignment.len());
        for (g, shard_ids) in assignment.iter().enumerate() {
            let mut gpu_steps = Vec::with_capacity(shard_ids.len());
            for &sid in shard_ids {
                let su = &shards[sid];
                let _shard = tl.as_ref().map(|t| t.span("shard", sid as u64));
                let t_x = runtime.h2d_time(g, active, su.transfer_bytes);
                gpu_steps.push((t_x, su.compute));
                // One threadblock per ISP.
                let blocks: Vec<_> = su.isps.iter().map(|u| u.range.clone()).collect();
                let costs: Vec<f64> = su.isps.iter().map(|u| u.cost).collect();
                launch_mttkrp(runtime, g, &src, factors, &blocks, &costs, out);
            }
            steps.push(gpu_steps);
        }
        let rows = assignment
            .iter()
            .map(|ids| ids.iter().map(|&s| shards[s].index_range.clone()).collect())
            .collect();
        Ok(sealed::ModeRun { steps, rows })
    }
}

/// Runs nnz-CCP for every mode, materializes the assignments into a
/// [`PartitionPlan`] and prices every shard's ISPs — the histogram →
/// [`NnzCcp`] → ranges → sorted copy → shards → block costs wiring, all of
/// it on a pool of `workers` threads (see [`PartitionPlan::build_priced`]).
/// Nothing here needs the runtime; [`schedule_mode`] is the part that does.
fn plan_and_price(
    tensor: &SparseTensor,
    spec: &PlatformSpec,
    cfg: &AmpedConfig,
    workers: usize,
) -> Result<(PartitionPlan, Vec<ModeIsps>), SimError> {
    let cost = UniformCost::new(spec.num_gpus());
    let stats = PlanStats {
        nnz: tensor.nnz() as u64,
    };
    let block_cost = CostModel::default();
    PartitionPlan::build_priced(
        tensor,
        cfg.shard_nnz_budget,
        workers,
        |d, hist| {
            let a = NnzCcp
                .plan_mode(d, hist, &stats, &cost)
                .map_err(|e| SimError::Unsupported(e.to_string()))?;
            a.validate(tensor.dim(d)).map_err(SimError::Unsupported)?;
            Ok(a.ranges)
        },
        |mp, shard, scratch| price_shard(spec, &block_cost, cfg, mp, shard, scratch),
    )
}

/// ISP splits and per-block costs of one shard. Costs depend only on
/// workload statistics, so they are computed once and reused by every run.
/// The shard is priced against its owning GPU's spec.
fn price_shard(
    spec: &PlatformSpec,
    cost: &CostModel,
    cfg: &AmpedConfig,
    mp: &ModePlan,
    s: &Shard,
    scratch: &mut StatsScratch,
) -> Vec<IspUnit> {
    let gpu = &spec.gpus[s.gpu];
    let cache_rows = (gpu.l2_bytes / (cfg.rank as u64 * 4)).max(1) as usize;
    let ranges = isp_ranges(s.elem_range.clone(), cfg.isp_nnz);
    let concurrency = ranges.len();
    ranges
        .into_iter()
        .map(|r| {
            let st = mp.range_stats(r.clone(), cache_rows, scratch);
            // Per-mode sorted copies: output indices arrive clustered.
            let bs = st.block(mp.copy.order(), cfg.rank, mp.copy.elem_bytes(), true);
            IspUnit {
                range: r,
                cost: cost.block_time(gpu, &bs, 1.0, concurrency),
            }
        })
        .collect()
}

/// Folds a mode's priced shards into its execution schedule: each shard's
/// grid makespan is the runtime's to say (`dyn DeviceRuntime` is not
/// `Sync`, so this is the one planning step that stays on the caller).
fn schedule_mode(runtime: &dyn DeviceRuntime, mp: &ModePlan, priced: ModeIsps) -> Vec<ShardUnit> {
    let elem_bytes = mp.copy.elem_bytes();
    mp.shards
        .iter()
        .zip(priced)
        .map(|(s, isps)| {
            let costs: Vec<f64> = isps.iter().map(|i| i.cost).collect();
            let compute = runtime.makespan(s.gpu, &costs).makespan;
            ShardUnit {
                gpu: s.gpu,
                isps,
                transfer_bytes: s.bytes(elem_bytes),
                compute,
                index_range: s.index_range.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::common::ScratchDir;
    use crate::ooc::OocEngine;
    use crate::reference::mttkrp_ref;
    use amped_runtime::TracingRuntime;
    use amped_stream::write_tnsb;
    use amped_tensor::gen::GenSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    pub(crate) fn platform(m: usize) -> PlatformSpec {
        PlatformSpec::rtx6000_ada_node(m).scaled(1e-3)
    }

    pub(crate) fn factors(t: &SparseTensor, r: usize, seed: u64) -> Vec<Mat> {
        let mut rng = SmallRng::seed_from_u64(seed);
        t.shape()
            .iter()
            .map(|&d| Mat::random(d as usize, r, &mut rng))
            .collect()
    }

    pub(crate) fn cfg(r: usize) -> AmpedConfig {
        AmpedConfig {
            rank: r,
            isp_nnz: 256,
            shard_nnz_budget: 1024,
        }
    }

    /// Staging budget of three `cap`-element chunks: room for a depth-2
    /// prefetch window.
    pub(crate) fn budget_for(t: &SparseTensor, cap: usize) -> u64 {
        cap as u64 * t.elem_bytes() * 3
    }

    /// Builds the in-core engine over `t` on `gpus` GPUs; the chunk capacity
    /// only shapes the streamed source.
    pub(crate) fn in_core(
        t: &SparseTensor,
        gpus: usize,
        cfg: AmpedConfig,
        _chunk: usize,
    ) -> AmpedEngine {
        AmpedEngine::new(t, platform(gpus), cfg).unwrap()
    }

    /// Builds the streamed engine over `t` on `gpus` GPUs: each call writes
    /// its own `.tnsb` file of `chunk`-element chunks into `dir` and stages
    /// it through [`budget_for`].
    pub(crate) fn streamed(
        dir: &ScratchDir,
    ) -> impl Fn(&SparseTensor, usize, AmpedConfig, usize) -> OocEngine + '_ {
        let files = std::cell::Cell::new(0);
        move |t, gpus, cfg, chunk| {
            let path = dir.join(&format!("t{}.tnsb", files.replace(files.get() + 1)));
            write_tnsb(t, &path, chunk).unwrap();
            OocEngine::open(&path, platform(gpus), cfg, budget_for(t, chunk)).unwrap()
        }
    }

    /// Every mode of a skewed 3-mode tensor on 4 GPUs matches the reference.
    /// `make` builds the engine over one source (tensor, GPUs, config, chunk
    /// capacity); the engine is handed back for checks of that source.
    pub(crate) fn check_matches_reference_all_modes<E: MttkrpEngine>(
        make: impl Fn(&SparseTensor, usize, AmpedConfig, usize) -> E,
    ) -> E {
        let t = GenSpec {
            shape: vec![80, 60, 70],
            nnz: 5000,
            skew: vec![0.8, 0.0, 0.4],
            seed: 81,
        }
        .generate();
        let fs = factors(&t, 16, 82);
        let mut e = make(&t, 4, cfg(16), 512);
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
        e
    }

    /// Every mode of a 5-mode tensor on 3 GPUs matches the reference.
    pub(crate) fn check_matches_reference_5mode<E: MttkrpEngine>(
        make: impl Fn(&SparseTensor, usize, AmpedConfig, usize) -> E,
    ) {
        let t = GenSpec::uniform(vec![20, 24, 28, 16, 12], 2000, 83).generate();
        let fs = factors(&t, 8, 84);
        let mut e = make(&t, 3, cfg(8), 300);
        for d in 0..5 {
            let (out, _) = e.mttkrp_mode(d, &fs).unwrap();
            let want = mttkrp_ref(&t, &fs, d);
            assert!(out.approx_eq(&want, 1e-3, 1e-4), "mode {d}");
        }
    }

    /// Two engines built alike report the same positive simulated time.
    pub(crate) fn check_simulated_time_is_deterministic<E: MttkrpEngine>(
        make: impl Fn(&SparseTensor, usize, AmpedConfig, usize) -> E,
    ) {
        let t = GenSpec::uniform(vec![50, 50, 50], 3000, 91).generate();
        let fs = factors(&t, 8, 92);
        let mut e1 = make(&t, 4, cfg(8), 256);
        let mut e2 = make(&t, 4, cfg(8), 256);
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
    fn engine_matches_reference_all_modes() {
        check_matches_reference_all_modes(in_core);
    }

    #[test]
    fn engine_matches_reference_5mode() {
        check_matches_reference_5mode(in_core);
    }

    #[test]
    fn all_modes_runs_algorithm1() {
        let t = GenSpec::uniform(vec![40, 40, 40], 2000, 89).generate();
        let dir = ScratchDir::new("engine");
        let mut incore = in_core(&t, 2, cfg(8), 256);
        let mut ooc = streamed(&dir)(&t, 2, cfg(8), 256);
        let check = |report: RunReport, fs: &[Mat]| {
            assert_eq!(report.per_mode.len(), 3);
            assert!(report.total_time > 0.0);
            assert!((report.per_mode.iter().sum::<f64>() - report.total_time).abs() < 1e-12);
            // Factors were replaced by MTTKRP outputs.
            assert_eq!(fs[0].rows(), 40);
        };
        let mut fs = factors(&t, 8, 90);
        check(incore.mttkrp_all_modes(&mut fs).unwrap(), &fs);
        let mut fs = factors(&t, 8, 90);
        check(ooc.mttkrp_all_modes(&mut fs).unwrap(), &fs);
    }

    #[test]
    fn simulated_time_is_deterministic() {
        check_simulated_time_is_deterministic(in_core);
    }

    #[test]
    fn tracing_runtime_is_timing_transparent() {
        // The tracer decorator must not change a single simulated bit — the
        // proof the runtime seam is purely observational.
        let t = GenSpec::uniform(vec![50, 50, 50], 3000, 91).generate();
        let fs = factors(&t, 8, 92);
        let mut plain = AmpedEngine::new(&t, platform(2), cfg(8)).unwrap();
        let traced_rt = TracingRuntime::new(SimRuntime::new(platform(2)));
        let timeline = traced_rt.timeline();
        let mut traced = AmpedEngine::with_runtime(&t, Box::new(traced_rt), cfg(8)).unwrap();
        let (_, tp) = plain.mttkrp_mode(0, &fs).unwrap();
        let (_, tt) = traced.mttkrp_mode(0, &fs).unwrap();
        assert_eq!(tp.wall, tt.wall);
        for (a, b) in tp.per_gpu.iter().zip(&tt.per_gpu) {
            assert_eq!(a.compute, b.compute);
            assert_eq!(a.h2d, b.h2d);
            assert_eq!(a.p2p, b.p2p);
        }
        // …and it observed the run: allocations, transfers, launches,
        // and the mode's collective.
        use amped_runtime::OpKind;
        assert!(
            timeline.count(OpKind::Alloc) >= 5,
            "factor+shard+host allocs"
        );
        assert!(timeline.count(OpKind::LaunchGrid) > 0);
        assert!(timeline.count(OpKind::H2d) > 0);
        assert_eq!(timeline.count(OpKind::Allgather), 1, "one timed gather");
    }

    /// The serial reading of construction: one mode's schedule from its
    /// plan, shard by shard on the calling thread.
    fn schedule_serially(e: &AmpedEngine, mp: &ModePlan) -> Vec<ShardUnit> {
        let (cost, mut scratch) = (CostModel::default(), StatsScratch::new());
        let priced = mp
            .shards
            .iter()
            .map(|s| price_shard(&e.spec, &cost, &e.cfg, mp, s, &mut scratch))
            .collect();
        schedule_mode(e.runtime.as_ref(), mp, priced)
    }

    /// Replanning re-cuts the shards of the sorted copy where it lies — no
    /// sort, no second copy — and lands on the plan and schedule a build
    /// under the new ranges gives.
    #[test]
    fn replan_recuts_the_sorted_copy_in_place() {
        let t = GenSpec {
            shape: vec![80, 60, 70],
            nnz: 5000,
            skew: vec![0.8, 0.0, 0.4],
            seed: 81,
        }
        .generate();
        let mut e = AmpedEngine::new(&t, platform(4), cfg(16)).unwrap();
        let buffers = |e: &AmpedEngine| {
            let copy = &e.plan().modes[0].copy;
            (copy.inputs().as_ptr(), copy.values().as_ptr())
        };
        let (before, wall) = (buffers(&e), e.preprocess_wall());
        let ranges = vec![0..3, 3..20, 20..50, 50..80];
        e.replan(&ModeAssignment {
            mode: 0,
            ranges: ranges.clone(),
        })
        .unwrap();
        assert_eq!(buffers(&e), before, "the sorted copy must not move");
        assert!(e.preprocess_wall() > wall, "replanning is preprocessing");
        let fresh = ModePlan::build_with_ranges_hist(
            &t,
            0,
            &t.mode_hist(0),
            ranges,
            e.cfg.shard_nnz_budget,
        );
        let mp = &e.plan().modes[0];
        assert_eq!(mp.device_ranges, fresh.device_ranges);
        assert_eq!(format!("{:?}", mp.shards), format!("{:?}", fresh.shards));
        assert_eq!(
            format!("{:?}", e.source.mode_shards[0]),
            format!("{:?}", schedule_serially(&e, &fresh))
        );
        assert_eq!(MttkrpEngine::mode_hist(&e, 0), t.mode_hist(0));
    }

    /// The whole construction product — device ranges, shards, ISP ranges
    /// and cost bits, shard makespans — is the same
    /// whatever the pool size, and is the serial loop's.
    #[test]
    fn construction_is_identical_on_any_pool_size() {
        let t = GenSpec {
            shape: vec![40, 24, 28, 16, 12],
            nnz: 6000,
            skew: vec![0.7, 0.0, 0.3, 0.0, 0.0],
            seed: 98,
        }
        .generate();
        let e = AmpedEngine::new(&t, platform(3), cfg(8)).unwrap();
        let serial: Vec<ModePlan> = (0..t.order())
            .map(|d| ModePlan::build(&t, d, 3, e.cfg.shard_nnz_budget))
            .collect();
        let want: Vec<String> = serial
            .iter()
            .map(|mp| format!("{:?}", schedule_serially(&e, mp)))
            .collect();
        for (d, want) in want.iter().enumerate() {
            assert_eq!(&format!("{:?}", e.source.mode_shards[d]), want, "mode {d}");
        }
        for workers in [1, 2, 4] {
            let (plan, priced) = plan_and_price(&t, &e.spec, &e.cfg, workers).unwrap();
            for (d, (mp, isps)) in plan.modes.iter().zip(priced).enumerate() {
                assert_eq!(mp.device_ranges, serial[d].device_ranges);
                assert_eq!(
                    format!("{:?}", mp.shards),
                    format!("{:?}", serial[d].shards)
                );
                assert_eq!(mp.copy, serial[d].copy);
                assert_eq!(
                    format!("{:?}", schedule_mode(e.runtime.as_ref(), mp, isps)),
                    want[d],
                    "mode {d} on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn more_gpus_reduce_wall_time() {
        let t = GenSpec::uniform(vec![4000, 300, 300], 200_000, 93).generate();
        let fs = factors(&t, 32, 94);
        let c = AmpedConfig {
            isp_nnz: 2048,
            shard_nnz_budget: 16384,
            ..AmpedConfig::default()
        };
        let mut w = Vec::new();
        for m in [1usize, 2, 4] {
            let mut e = AmpedEngine::new(&t, platform(m), c.clone()).unwrap();
            let (_, timing) = e.mttkrp_mode(0, &fs).unwrap();
            w.push(timing.wall);
        }
        assert!(w[1] < w[0], "2 GPUs should beat 1: {w:?}");
        assert!(w[2] < w[1], "4 GPUs should beat 2: {w:?}");
    }

    #[test]
    fn oom_when_gpu_cannot_hold_factors() {
        let t = GenSpec::uniform(vec![200_000, 200_000, 200_000], 1000, 95).generate();
        // Tiny GPU memory: factor copies alone exceed it.
        let p = PlatformSpec::rtx6000_ada_node(2).scaled(1e-6);
        let err = AmpedEngine::new(&t, p, AmpedConfig::default()).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
        // The purpose tag names the offending allocation.
        assert!(
            err.to_string().contains("factor-matrix copies"),
            "OOM should carry its purpose: {err}"
        );
    }

    #[test]
    fn rank_mismatch_panics() {
        let t = GenSpec::uniform(vec![10, 10, 10], 100, 96).generate();
        let fs = factors(&t, 4, 97);
        let mut e = AmpedEngine::new(&t, platform(1), cfg(8)).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = e.mttkrp_mode(0, &fs);
        }));
        assert!(r.is_err());
    }
}
