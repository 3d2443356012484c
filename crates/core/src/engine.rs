//! The AMPED multi-GPU MTTKRP engine (Algorithms 1–3).
//!
//! The engine is pure orchestration: partitioning, schedule preparation, and
//! the double-buffered pipeline arithmetic live here, while every kernel
//! launch, transfer, collective, and device allocation goes through the
//! [`DeviceRuntime`] it holds — by default the simulated
//! [`amped_runtime::SimRuntime`], but any backend (e.g. a tracing decorator,
//! or eventually a real-GPU runtime) slots in via
//! [`AmpedEngine::with_runtime`].

use crate::config::{AmpedConfig, GatherAlgo, SchedulePolicy};
use amped_linalg::Mat;
use amped_partition::{isp_ranges, ModePlan, PartitionPlan, PlanBusy, Shard, StatsScratch};
use amped_plan::{
    AssignmentSpace, CostQuery, ModeAssignment, NnzCcp, Partitioner, PlanStats, PlatformCostQuery,
    UniformCost, WorkloadProfile,
};
use amped_runtime::kernels::{launch_mttkrp, FactorsView, MttkrpOut, SortedCoo};
use amped_runtime::{
    Collective, Device, DeviceRuntime, FactorBlock, SimRuntime, Timeline, TuneParams,
};
use amped_sim::costmodel::{BlockStats, CostModel};
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
/// tensor and platform facts the outer loop needs. Implemented by the
/// in-core [`AmpedEngine`] and the out-of-core [`crate::ooc::OocEngine`], so
/// [`crate::als::cp_als`] runs unchanged on tensors that fit in host memory
/// and on tensors that only exist as `.tnsb` chunks on disk.
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

    /// Output-index histogram of mode `d` — the planner input ALS-time
    /// rebalancing re-runs CCP over.
    fn mode_hist(&self, d: usize) -> Vec<u64>;

    /// Nonzeros owned by each GPU under the current mode-`d` assignment.
    fn mode_loads(&self, d: usize) -> Vec<u64>;

    /// Swaps mode `assignment.mode`'s device assignment in place —
    /// re-shards under the new ranges without rebuilding the engine, so
    /// [`crate::als::cp_als`] can rebalance between iterations.
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
    /// Output rows this shard owns (for all-gather sizing).
    rows: u64,
    /// First/last output index (static schedule keeps these contiguous).
    index_range: Range<u32>,
}

/// The AMPED engine: owns the partition plan, the device runtime it executes
/// through, and the prepared per-mode execution schedules.
#[derive(Debug)]
pub struct AmpedEngine {
    runtime: Box<dyn DeviceRuntime>,
    /// Cached copy of the runtime's spec for borrow-free planning reads.
    spec: PlatformSpec,
    cfg: AmpedConfig,
    plan: PartitionPlan,
    mode_shards: Vec<Vec<ShardUnit>>,
    /// Modeled per-GPU MTTKRP throughput (from [`PlatformCostQuery`]): the
    /// ratio `gpu_throughput[owner] / gpu_throughput[g]` re-prices a
    /// shard's precomputed compute time onto candidate GPU `g` — what the
    /// dynamic-queue schedule needs on heterogeneous platforms. All entries
    /// are equal on a homogeneous spec, making every ratio exactly 1.
    gpu_throughput: Vec<f64>,
    obs: EngineMeters,
}

/// Both engines' own telemetry handles (runtime-level counters live in the
/// backend), resolved once at construction: nonzeros processed per executed
/// shard or chunk, replans applied, and — out of core only — chunks the
/// prefetch pipeline had staged ahead. Detached — free — unless the runtime
/// carries an attached registry.
#[derive(Debug, Default)]
pub(crate) struct EngineMeters {
    pub(crate) nnz_processed: Counter,
    pub(crate) replans: Counter,
    /// Left detached by [`EngineMeters::attach`]; the out-of-core engine
    /// binds it.
    pub(crate) ooc_prefetch_hits: Counter,
}

impl EngineMeters {
    pub(crate) fn attach(registry: &MetricsRegistry) -> Self {
        Self {
            nnz_processed: registry.counter("nnz_processed"),
            replans: registry.counter("replans"),
            ooc_prefetch_hits: Counter::default(),
        }
    }
}

/// Publishes where setup went, after construction and after every replan:
/// `preprocess_wall` and its split into busy-seconds per phase (summed over
/// pool jobs), as gauges of the runtime's registry.
pub(crate) fn record_setup(registry: &MetricsRegistry, wall: f64, busy: PlanBusy) {
    for (name, seconds) in [
        ("setup_wall_s", wall),
        ("setup_sort_busy_s", busy.sort_s),
        ("setup_stats_busy_s", busy.stats_s),
        ("setup_pricing_busy_s", busy.pricing_s),
    ] {
        registry.gauge(name).set(seconds);
    }
}

/// The argument checks both engines' `replan` share: `assignment` must name
/// a mode of `shape`, own output indices, target `num_gpus` devices and
/// cover that mode's index space.
pub(crate) fn validate_replan(
    assignment: &ModeAssignment,
    shape: &[Idx],
    num_gpus: usize,
) -> Result<(), SimError> {
    let d = assignment.mode;
    let order = shape.len();
    if d >= order {
        return Err(SimError::Unsupported(format!(
            "replan mode {d} out of range for order {order}"
        )));
    }
    if assignment.space != AssignmentSpace::OutputIndex {
        return Err(SimError::Unsupported(
            "engine replan requires an output-index assignment".into(),
        ));
    }
    if assignment.num_devices() != num_gpus {
        return Err(SimError::Unsupported(format!(
            "assignment targets {} devices, platform has {num_gpus}",
            assignment.num_devices(),
        )));
    }
    assignment
        .validate(shape[d] as u64)
        .map_err(SimError::Unsupported)
}

/// Re-prices a shard's compute time (prepared against GPU `owner`'s spec)
/// onto GPU `g` using modeled throughput ratios. The homogeneous ratio is
/// exactly `1.0`, and `x * 1.0 == x` bit for bit, so the default platform's
/// schedule arithmetic is unchanged.
fn reprice(compute: f64, gpu_throughput: &[f64], owner: usize, g: usize) -> f64 {
    if owner == g {
        return compute;
    }
    compute * (gpu_throughput[owner] / gpu_throughput[g])
}

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
    /// uses the default nnz-weighted CCP policy ([`NnzCcp`]).
    pub fn with_runtime(
        tensor: &SparseTensor,
        runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
    ) -> Result<Self, SimError> {
        Self::with_planner(tensor, runtime, cfg, &NnzCcp)
    }

    /// [`AmpedEngine::with_runtime`] plus autotuning: after construction the
    /// [`amped_tune::Autotuner`] resolves [`TuneParams`] for this tensor and
    /// backend (a persistent-cache hit, or a subsampled grid search) and
    /// installs them on the runtime. The tuner's `tune_searches` /
    /// `tune_cache_hits` counters bind to the runtime's metrics registry.
    pub fn with_tuner(
        tensor: &SparseTensor,
        runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
        tuner: &mut amped_tune::Autotuner,
    ) -> Result<Self, SimError> {
        let rank = cfg.rank;
        let mut engine = Self::with_runtime(tensor, runtime, cfg)?;
        tuner.attach_metrics(&engine.runtime.metrics());
        let backend = amped_tune::backend_fingerprint(engine.runtime.name());
        let params = tuner.params_for_tensor(&backend, tensor, rank);
        engine.set_tune(params);
        Ok(engine)
    }

    /// Partitions `tensor` through an explicit runtime **and** an explicit
    /// [`Partitioner`] policy — the planner seam. The planner receives each
    /// mode's output-index histogram plus a [`PlatformCostQuery`] over the
    /// runtime's spec, so cost-guided policies
    /// ([`amped_plan::CostGuidedCcp`]) see modeled per-device throughput;
    /// with [`NnzCcp`] this is bit-identical to the pre-planner engine
    /// (`tests/runtime_equivalence.rs`).
    ///
    /// Fails with [`SimError::Unsupported`] if the planner produces an
    /// element-space or malformed assignment.
    pub fn with_planner(
        tensor: &SparseTensor,
        mut runtime: Box<dyn DeviceRuntime>,
        cfg: AmpedConfig,
        planner: &dyn Partitioner,
    ) -> Result<Self, SimError> {
        let mut cfg = cfg;
        cfg.validate().map_err(SimError::Unsupported)?;
        let spec = runtime.spec().clone();
        let m = spec.num_gpus();

        // --- GPU memory: local copy of every factor matrix (§4.4) plus two
        // shard staging buffers for double-buffered streaming (§4.8). The
        // shard budget adapts to the device: like the real implementation,
        // streaming buffers are sized to the memory left after the factor
        // copies (at most half of it, two buffers).
        let factor_bytes: u64 = tensor
            .shape()
            .iter()
            .map(|&d| d as u64 * cfg.rank as u64 * 4)
            .sum();
        for g in 0..m {
            runtime.alloc(Device::Gpu(g), factor_bytes, "factor-matrix copies")?;
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

        // Under the dynamic-queue ablation, shards are built without device
        // ownership (one global range) and assigned greedily at "runtime".
        let plan_gpus = match cfg.schedule {
            SchedulePolicy::StaticCcp => m,
            SchedulePolicy::DynamicQueue => 1,
        };
        let start = std::time::Instant::now();
        let (mut plan, priced) =
            plan_and_price(tensor, planner, &spec, &cfg, plan_gpus, host_workers())?;

        // --- Host memory: all per-mode tensor copies live there (§3.1). The
        // model charges the paper's COO copies; the gauge beside it is what
        // ours hold.
        runtime.alloc(Device::Host, plan.host_bytes(), "per-mode tensor copies")?;
        let registry = runtime.metrics();
        registry
            .gauge("host_copy_bytes")
            .set(plan.copy_bytes() as f64);

        let mode_shards: Vec<Vec<ShardUnit>> = plan
            .modes
            .iter()
            .zip(priced)
            .map(|(mp, isps)| schedule_mode(runtime.as_ref(), mp, isps))
            .collect();
        plan.preprocess_wall = start.elapsed().as_secs_f64();
        let throughput_query = PlatformCostQuery::new(
            &spec,
            WorkloadProfile {
                order: tensor.order(),
                rank: cfg.rank,
                elem_bytes: tensor.elem_bytes(),
                isp_nnz: cfg.isp_nnz,
            },
        );
        let gpu_throughput = (0..m)
            .map(|g| throughput_query.device_throughput(g))
            .collect();
        let obs = EngineMeters::attach(&registry);
        record_setup(&registry, plan.preprocess_wall, plan.busy);
        Ok(Self {
            runtime,
            spec,
            cfg,
            plan,
            mode_shards,
            gpu_throughput,
            obs,
        })
    }

    /// The partition plan (for experiments that inspect shard structure).
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// The platform specification.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// The device runtime the engine executes through.
    pub fn runtime(&self) -> &dyn DeviceRuntime {
        self.runtime.as_ref()
    }

    /// The runtime's tunable execution parameters.
    pub fn tune(&self) -> TuneParams {
        self.runtime.tune()
    }

    /// Sets the runtime's tunable execution parameters. Every setting is
    /// numerics-transparent (see `amped_runtime::params`); only wall time
    /// changes.
    pub fn set_tune(&mut self, params: TuneParams) {
        self.runtime.set_tune(params);
    }

    /// The engine configuration.
    pub fn config(&self) -> &AmpedConfig {
        &self.cfg
    }

    /// Real preprocessing wall time (Fig. 10).
    pub fn preprocess_wall(&self) -> f64 {
        self.plan.preprocess_wall
    }

    /// Peak GPU memory charged, in bytes (max over GPUs).
    pub fn gpu_mem_peak(&self) -> u64 {
        self.runtime.gpu_mem_peak()
    }

    /// Swaps mode `assignment.mode`'s device assignment: re-cuts the shards
    /// of the stored mode-sorted copy under the new output-index ranges
    /// (in place — no sort, no second copy) and recomputes the mode's
    /// execution schedule, leaving every other mode (and all device
    /// memory) untouched. This is the ALS-time rebalancing
    /// path — [`crate::als::cp_als`] calls it between iterations when a
    /// [`amped_plan::RebalancingPlanner`] triggers.
    pub fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError> {
        if self.cfg.schedule != SchedulePolicy::StaticCcp {
            return Err(SimError::Unsupported(
                "replanning requires the static CCP schedule: dynamic-queue ownership is \
                 decided per run"
                    .into(),
            ));
        }
        validate_replan(
            assignment,
            self.plan.modes[0].copy.shape(),
            self.spec.num_gpus(),
        )?;
        let d = assignment.mode;
        let start = std::time::Instant::now();
        let (spec, cfg, cost) = (&self.spec, &self.cfg, CostModel::default());
        let isps = self.plan.recut_priced(
            d,
            assignment.index_ranges(),
            cfg.shard_nnz_budget,
            host_workers(),
            |mp, shard, scratch| price_shard(spec, &cost, cfg, mp, shard, scratch),
        );
        self.mode_shards[d] = schedule_mode(self.runtime.as_ref(), &self.plan.modes[d], isps);
        self.plan.preprocess_wall += start.elapsed().as_secs_f64();
        let plan = &self.plan;
        record_setup(&self.runtime.metrics(), plan.preprocess_wall, plan.busy);
        self.obs.replans.inc();
        Ok(())
    }

    /// Host memory charged for tensor copies, in bytes.
    pub fn host_mem_used(&self) -> u64 {
        self.runtime.mem(Device::Host).used()
    }

    /// Resolves the shard→GPU assignment for mode `d` under the configured
    /// policy. Returns shard indices per GPU, in stream order.
    fn assignment(&self, d: usize) -> Vec<Vec<usize>> {
        let m = self.spec.num_gpus();
        let shards = &self.mode_shards[d];
        let mut per_gpu: Vec<Vec<usize>> = vec![Vec::new(); m];
        match self.cfg.schedule {
            SchedulePolicy::StaticCcp => {
                for (i, s) in shards.iter().enumerate() {
                    per_gpu[s.gpu].push(i);
                }
            }
            SchedulePolicy::DynamicQueue => {
                // Greedy earliest-finish: the next shard (in index order)
                // goes to the GPU that would finish it first. The shard's
                // precomputed compute time is priced against its planning
                // owner's spec, so each candidate GPU re-prices it through
                // the modeled throughput ratio — on a heterogeneous spec a
                // fast GPU's finish estimate must not carry a slow GPU's
                // cost (or vice versa). Uniform throughputs make both the
                // estimates and the selection identical to the historical
                // `min finish[g]` rule, preserving the homogeneous goldens.
                // Per-candidate links: on a cluster runtime each GPU's h2d
                // tier is its own node's, matching what `h2d_time` charges
                // at execution; single-node backends return one link for
                // every GPU, preserving the historical arithmetic.
                let active_est = m.min(shards.len().max(1));
                let links: Vec<_> = (0..m)
                    .map(|g| self.runtime.h2d_link_for(g, active_est))
                    .collect();
                let tp = &self.gpu_throughput;
                let uniform = tp.windows(2).all(|w| w[0] == w[1])
                    && links
                        .windows(2)
                        .all(|w| w[0].gbps == w[1].gbps && w[0].latency_s == w[1].latency_s);
                let mut finish = vec![0.0f64; m];
                for (i, s) in shards.iter().enumerate() {
                    let step = |g: usize| {
                        links[g]
                            .transfer_time(s.transfer_bytes)
                            .max(reprice(s.compute, tp, s.gpu, g))
                    };
                    let g = if uniform {
                        (0..m)
                            .min_by(|&a, &b| finish[a].total_cmp(&finish[b]))
                            .expect("at least one GPU")
                    } else {
                        (0..m)
                            .min_by(|&a, &b| {
                                (finish[a] + step(a)).total_cmp(&(finish[b] + step(b)))
                            })
                            .expect("at least one GPU")
                    };
                    finish[g] += step(g);
                    per_gpu[g].push(i);
                }
            }
        }
        per_gpu
    }

    /// Runs MTTKRP for output mode `d` (Algorithm 1 loop body): returns the
    /// updated output factor `Ŷ_d` and the mode timing.
    ///
    /// Real execution: every ISP's elementwise computation (Algorithm 2) runs
    /// as one block of a [`DeviceRuntime::launch_grid`] grid through the
    /// kernel layer — no atomic read-modify-write anywhere: multi-ISP shards
    /// walk the output-sorted copy as row runs with `f64` accumulation and
    /// one rounding per cell (see `amped_runtime::kernels`), single-ISP
    /// shards keep the legacy single-writer `f32` order. The ring all-gather
    /// (Algorithm 3) actually moves the produced rows between per-GPU blocks
    /// via [`DeviceRuntime::allgather_blocks`].
    pub fn mttkrp_mode(
        &mut self,
        d: usize,
        factors: &[Mat],
    ) -> Result<(Mat, ModeTiming), SimError> {
        let mp_order = self.plan.modes.len();
        assert!(d < mp_order, "mode {d} out of range");
        assert_eq!(factors.len(), mp_order, "one factor matrix per mode");
        let rank = self.cfg.rank;
        assert!(
            factors.iter().all(|f| f.cols() == rank),
            "factor rank must match engine configuration"
        );
        let m = self.spec.num_gpus();
        let assignment = self.assignment(d);
        let active = assignment.iter().filter(|a| !a.is_empty()).count().max(1);
        let rows_out = self.plan.modes[d].copy.dim(d) as usize;
        let out = MttkrpOut::zeros(rows_out, rank);

        let mut per_gpu = vec![TimeBreakdown::default(); m];
        let mut ends = vec![0.0f64; m];

        // Split borrows: the runtime takes ops (&mut) while the plan and
        // prepared shards feed the kernels (&).
        let Self {
            runtime,
            plan,
            mode_shards,
            cfg,
            gpu_throughput,
            obs,
            ..
        } = self;
        let tl = runtime.timeline();
        let runtime = runtime.as_mut();
        let mut nnz_done: u64 = 0;
        let fviews = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
        // The mode-`d` copy is sorted by output index: it is the view every
        // grid of this mode launches over.
        let copy = &plan.modes[d].copy;
        let src = SortedCoo::new(
            copy.inputs(),
            copy.values(),
            copy.row_ptr(),
            None,
            mp_order,
            d,
        );

        for (g, shard_ids) in assignment.iter().enumerate() {
            // (transfer, compute) seconds of every shard this GPU streams.
            let mut steps = Vec::with_capacity(shard_ids.len());
            for &sid in shard_ids {
                let su = &mode_shards[d][sid];
                // The shard span wraps both the staged transfer and the grid
                // launch, so traces nest `…/mode=d/shard=sid` around exactly
                // the ops this shard issued. `tl` is `None` without a tracer.
                let _shard = tl.as_ref().map(|t| t.span("shard", sid as u64));
                let t_x = runtime.h2d_time(g, active, su.transfer_bytes);
                steps.push((t_x, reprice(su.compute, gpu_throughput, su.gpu, g)));

                // --- Real execution of the grid (Algorithm 2) through the
                // kernel layer: one threadblock per ISP.
                let blocks: Vec<_> = su.isps.iter().map(|u| u.range.clone()).collect();
                let costs: Vec<f64> = su.isps.iter().map(|u| u.cost).collect();
                nnz_done += blocks.iter().map(|b| b.len() as u64).sum::<u64>();
                launch_mttkrp(runtime, g, &src, &fviews, &blocks, &costs, &out);
            }
            (ends[g], per_gpu[g]) = double_buffered(&steps);
        }

        obs.nnz_processed.add(nnz_done);

        // --- Inter-GPU barrier (Algorithm 1 line 9).
        let barrier = ends.iter().cloned().fold(0.0f64, f64::max);
        for (g, b) in per_gpu.iter_mut().enumerate() {
            b.idle += barrier - ends[g];
        }

        // --- All-gather of the updated output rows (Algorithm 1 line 11).
        let row_bytes = rank as u64 * 4;
        let block_bytes: Vec<u64> = (0..m)
            .map(|g| {
                assignment[g]
                    .iter()
                    .map(|&sid| mode_shards[d][sid].rows * row_bytes)
                    .sum()
            })
            .collect();
        let gather_time = runtime.allgather_time(cfg.gather.collective(), &block_bytes);
        for b in per_gpu.iter_mut() {
            b.p2p += gather_time;
        }

        // Functionally run the ring: extract each GPU's produced rows, pass
        // them around the ring, and reassemble — verifying Algorithm 3 moves
        // exactly the right data (checked against the direct snapshot).
        let result = gather_rows(runtime, &mode_shards[d], &assignment, &out, rank, rows_out);

        let timing = ModeTiming {
            mode: d,
            wall: barrier + gather_time,
            per_gpu,
        };
        Ok((result, timing))
    }

    /// Algorithm 1 in full: MTTKRP along every mode of one decomposition
    /// iteration. Each mode's gathered output replaces that factor before
    /// the next mode runs (line 11), as in the paper.
    pub fn mttkrp_all_modes(&mut self, factors: &mut [Mat]) -> Result<RunReport, SimError> {
        let n = self.plan.modes.len();
        let m = self.spec.num_gpus();
        let mut report = RunReport {
            preprocess_wall: self.plan.preprocess_wall,
            per_gpu: vec![TimeBreakdown::default(); m],
            ..Default::default()
        };
        for d in 0..n {
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

/// One GPU's double-buffered stream (§4.8) over `steps` of `(transfer,
/// compute)` seconds, in stream order: transfer `k + 1` overlaps compute
/// `k`, and transfer `k` must wait for buffer `k − 2` to free. Returns when
/// the GPU finishes and where its time went. Exposed h2d is derived from
/// the pipeline, not inferred as `end − compute`: each pre-compute stall
/// counts as transfer time only while the link was actually busy (the
/// trailing window of that step's transfer); the remainder — double-buffer
/// and pipeline slack — is idle time. Both engines price a mode through
/// this one recurrence: shards of a sorted copy in core, a GPU's slices of
/// the sorted section's chunks out of core.
pub(crate) fn double_buffered(steps: &[(f64, f64)]) -> (f64, TimeBreakdown) {
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

impl GatherAlgo {
    /// The runtime collective this configuration selects.
    pub fn collective(self) -> Collective {
        match self {
            GatherAlgo::Ring => Collective::Ring,
            GatherAlgo::HostStaged => Collective::HostStaged,
            GatherAlgo::Hierarchical => Collective::HierarchicalRing,
        }
    }
}

/// Runs the planner for every mode, materializes the assignments into a
/// [`PartitionPlan`] and prices every shard's ISPs — the histogram →
/// [`Partitioner`] → ranges → sorted copy → shards → block costs wiring
/// shared by every in-core planning policy, all of it on a pool of
/// `workers` threads (see [`PartitionPlan::build_priced`]). Nothing here
/// needs the runtime; [`schedule_mode`] is the part that does.
fn plan_and_price(
    tensor: &SparseTensor,
    planner: &dyn Partitioner,
    spec: &PlatformSpec,
    cfg: &AmpedConfig,
    plan_gpus: usize,
    workers: usize,
) -> Result<(PartitionPlan, Vec<ModeIsps>), SimError> {
    // Cost-aware policies see the platform through the cost facade; the
    // dynamic-queue ablation plans one global pool, where device throughput
    // is meaningless.
    let cost: Box<dyn CostQuery> = if plan_gpus == spec.num_gpus() {
        Box::new(PlatformCostQuery::new(
            spec,
            WorkloadProfile {
                order: tensor.order(),
                rank: cfg.rank,
                elem_bytes: tensor.elem_bytes(),
                isp_nnz: cfg.isp_nnz,
            },
        ))
    } else {
        Box::new(UniformCost::new(plan_gpus))
    };
    let stats = PlanStats {
        nnz: tensor.nnz() as u64,
    };
    let block_cost = CostModel::default();
    PartitionPlan::build_priced(
        tensor,
        cfg.shard_nnz_budget,
        workers,
        |d, hist| {
            let a = planner
                .plan_mode(d, hist, &stats, cost.as_ref())
                .map_err(|e| SimError::Unsupported(format!("planner '{}': {e}", planner.name())))?;
            if a.space != AssignmentSpace::OutputIndex {
                return Err(SimError::Unsupported(format!(
                    "planner '{}' produced an element-space assignment; the AMPED engine \
                     requires output-index ownership",
                    planner.name()
                )));
            }
            a.validate(tensor.dim(d) as u64)
                .map_err(SimError::Unsupported)?;
            Ok(a.index_ranges())
        },
        |mp, shard, scratch| price_shard(spec, &block_cost, cfg, mp, shard, scratch),
    )
}

/// ISP splits and per-block costs of one shard. Costs depend only on
/// workload statistics, so they are computed once and reused by every run.
/// The shard is priced against its *owning* GPU's spec, so heterogeneous
/// platforms model slow devices slower (on the homogeneous default spec
/// every `GpuSpec` is identical and the numbers are bit-for-bit those of
/// the former `gpus[0]`-only pricing).
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
            let bs = BlockStats {
                nnz: st.nnz,
                distinct_out: st.distinct_out,
                max_out_run: st.max_out_run,
                distinct_in_total: st.distinct_in_total,
                dram_factor_reads: st.dram_factor_reads,
                sorted_by_output: true, // per-mode sorted copies
                order: mp.copy.order(),
                rank: cfg.rank,
                elem_bytes: mp.copy.elem_bytes(),
            };
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
                rows: (s.index_range.end - s.index_range.start) as u64,
                index_range: s.index_range.clone(),
            }
        })
        .collect()
}

/// Extracts per-GPU row blocks, runs the functional ring all-gather through
/// the runtime, and reassembles the full output factor matrix.
fn gather_rows(
    runtime: &mut dyn DeviceRuntime,
    shards: &[ShardUnit],
    assignment: &[Vec<usize>],
    out: &MttkrpOut,
    rank: usize,
    rows_out: usize,
) -> Mat {
    // Each GPU's block: (row ids, packed row data).
    let blocks: Vec<FactorBlock> = assignment
        .iter()
        .map(|shard_ids| {
            let n: usize = shard_ids.iter().map(|&sid| shards[sid].rows as usize).sum();
            let mut rows = Vec::with_capacity(n);
            let mut data = Vec::with_capacity(n * rank);
            for &sid in shard_ids {
                let r = shards[sid].index_range.clone();
                out.extend_rows(r.start as usize..r.end as usize, &mut data);
                rows.extend(r);
            }
            FactorBlock {
                rows,
                data: data.into(),
            }
        })
        .collect();
    let gathered = runtime.allgather_blocks(&blocks);
    // Every GPU now holds all blocks; assemble GPU 0's copy.
    let mut full = Mat::zeros(rows_out, rank);
    for block in &gathered[0] {
        for (k, &i) in block.rows.iter().enumerate() {
            full.row_mut(i as usize)
                .copy_from_slice(&block.data[k * rank..(k + 1) * rank]);
        }
    }
    debug_assert!(
        {
            let direct = Mat::from_vec(rows_out, rank, out.to_vec());
            full.approx_eq(&direct, 0.0, 0.0)
        },
        "ring all-gather must reproduce the direct snapshot exactly"
    );
    full
}

impl MttkrpEngine for AmpedEngine {
    fn mttkrp_mode(&mut self, d: usize, factors: &[Mat]) -> Result<(Mat, ModeTiming), SimError> {
        AmpedEngine::mttkrp_mode(self, d, factors)
    }

    fn rank(&self) -> usize {
        self.cfg.rank
    }

    fn shape(&self) -> &[Idx] {
        self.plan.modes[0].copy.shape()
    }

    fn tensor_norm_sq(&self) -> f64 {
        self.plan.modes[0].copy.norm_sq()
    }

    fn num_gpus(&self) -> usize {
        self.spec.num_gpus()
    }

    fn preprocess_wall(&self) -> f64 {
        self.plan.preprocess_wall
    }

    fn mode_hist(&self, d: usize) -> Vec<u64> {
        self.plan.modes[d].hist()
    }

    fn mode_loads(&self, d: usize) -> Vec<u64> {
        self.plan.modes[d].gpu_loads()
    }

    fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError> {
        AmpedEngine::replan(self, assignment)
    }

    fn timeline(&self) -> Option<Timeline> {
        self.runtime.timeline()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.runtime.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::mttkrp_ref;
    use amped_runtime::TracingRuntime;
    use amped_tensor::gen::GenSpec;
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

    #[test]
    fn engine_matches_reference_all_modes() {
        let t = GenSpec {
            shape: vec![80, 60, 70],
            nnz: 5000,
            skew: vec![0.8, 0.0, 0.4],
            seed: 81,
        }
        .generate();
        let fs = factors(&t, 16, 82);
        let mut e = AmpedEngine::new(&t, platform(4), cfg(16)).unwrap();
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
    }

    #[test]
    fn engine_matches_reference_5mode() {
        let t = GenSpec::uniform(vec![20, 24, 28, 16, 12], 2000, 83).generate();
        let fs = factors(&t, 8, 84);
        let mut e = AmpedEngine::new(&t, platform(3), cfg(8)).unwrap();
        for d in 0..5 {
            let (out, _) = e.mttkrp_mode(d, &fs).unwrap();
            let want = mttkrp_ref(&t, &fs, d);
            assert!(out.approx_eq(&want, 1e-3, 1e-4), "mode {d}");
        }
    }

    #[test]
    fn dynamic_queue_matches_reference() {
        let t = GenSpec::uniform(vec![64, 32, 32], 3000, 85).generate();
        let fs = factors(&t, 8, 86);
        let c = AmpedConfig {
            schedule: SchedulePolicy::DynamicQueue,
            ..cfg(8)
        };
        let mut e = AmpedEngine::new(&t, platform(4), c).unwrap();
        let (out, _) = e.mttkrp_mode(0, &fs).unwrap();
        let want = mttkrp_ref(&t, &fs, 0);
        assert!(out.approx_eq(&want, 1e-3, 1e-4));
    }

    #[test]
    fn host_staged_gather_matches_reference() {
        let t = GenSpec::uniform(vec![64, 32, 32], 2000, 87).generate();
        let fs = factors(&t, 8, 88);
        let c = AmpedConfig {
            gather: GatherAlgo::HostStaged,
            ..cfg(8)
        };
        let mut e = AmpedEngine::new(&t, platform(2), c).unwrap();
        let (out, timing) = e.mttkrp_mode(0, &fs).unwrap();
        assert!(out.approx_eq(&mttkrp_ref(&t, &fs, 0), 1e-3, 1e-4));
        assert!(timing.per_gpu[0].p2p > 0.0);
    }

    #[test]
    fn all_modes_runs_algorithm1() {
        let t = GenSpec::uniform(vec![40, 40, 40], 2000, 89).generate();
        let mut fs = factors(&t, 8, 90);
        let mut e = AmpedEngine::new(&t, platform(2), cfg(8)).unwrap();
        let report = e.mttkrp_all_modes(&mut fs).unwrap();
        assert_eq!(report.per_mode.len(), 3);
        assert!(report.total_time > 0.0);
        assert!((report.per_mode.iter().sum::<f64>() - report.total_time).abs() < 1e-12);
        // Factors were replaced by MTTKRP outputs.
        assert_eq!(fs[0].rows(), 40);
    }

    #[test]
    fn simulated_time_is_deterministic() {
        let t = GenSpec::uniform(vec![50, 50, 50], 3000, 91).generate();
        let fs = factors(&t, 8, 92);
        let mut e1 = AmpedEngine::new(&t, platform(4), cfg(8)).unwrap();
        let mut e2 = AmpedEngine::new(&t, platform(4), cfg(8)).unwrap();
        let (_, t1) = e1.mttkrp_mode(0, &fs).unwrap();
        let (_, t2) = e2.mttkrp_mode(0, &fs).unwrap();
        assert_eq!(t1.wall, t2.wall);
        for (a, b) in t1.per_gpu.iter().zip(&t2.per_gpu) {
            assert_eq!(a.compute, b.compute);
            assert_eq!(a.h2d, b.h2d);
        }
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
        assert!(timeline.count(OpKind::Allgather) >= 2, "timed + functional");
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
            let copy = &e.plan.modes[0].copy;
            (copy.inputs().as_ptr(), copy.values().as_ptr())
        };
        let (before, wall) = (buffers(&e), e.preprocess_wall());
        let ranges = vec![0..3, 3..20, 20..50, 50..80];
        e.replan(&ModeAssignment::from_index_ranges(0, ranges.clone()))
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
        let mp = &e.plan.modes[0];
        assert_eq!(mp.device_ranges, fresh.device_ranges);
        assert_eq!(format!("{:?}", mp.shards), format!("{:?}", fresh.shards));
        assert_eq!(
            format!("{:?}", e.mode_shards[0]),
            format!("{:?}", schedule_serially(&e, &fresh))
        );
        assert_eq!(MttkrpEngine::mode_hist(&e, 0), t.mode_hist(0));
    }

    /// The whole construction product — device ranges, shards and their
    /// statistics, ISP ranges and cost bits, shard makespans — is the same
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
            assert_eq!(&format!("{:?}", e.mode_shards[d]), want, "mode {d}");
        }
        for workers in [1, 2, 4] {
            let (plan, priced) = plan_and_price(&t, &NnzCcp, &e.spec, &e.cfg, 3, workers).unwrap();
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
