//! The per-layer pass: the traced run through a delegating `DeviceRuntime`,
//! and micro-timings around public calls of each crate. Everything is timed
//! from here; no crate is instrumented.

use crate::env::cache_bytes;
use crate::measure::{
    check_against_incore, check_outputs, load_tensor, random_factors, steady, Ops, Pass, SteadyRun,
    INCORE_REF_ITERS,
};
use crate::spans::{
    chrome_trace, lock, per_iteration, per_iteration_of, record, self_times, SharedLog, Span,
    SpanLog,
};
use crate::stats::{fastest, iters_to_fit, FIT_TOL};
use crate::surface::{
    backend_fingerprint, cholesky, compile_mode, hadamard_grams, host_workers, mttkrp_compiled,
    mttkrp_host_compiled, mttkrp_privatized, mttkrp_ref, read_tnsb_meta, AmpedEngine, Autotuner,
    ChunkReader, Collective, CpuParallelRuntime, CsfTensor, Device, DeviceRuntime, FactorBlock,
    FactorsView, GridTiming, LinkSpec, Mat, MemPool, MetricsRegistry, MttkrpEngine, MttkrpOut,
    NnzCcp, OocEngine, PartitionPlan, Partitioner, PlanStats, PlatformSpec, SimError, SparseTensor,
    StreamPlan, Timeline, TuneParams, UniformCost,
};
use crate::workloads::{config, platform, EngineKind, GPUS, RANK};
use serde_json::{json, Value};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Iterations of each of this pass's two decompositions: the untraced one —
/// the baseline the traced run's overhead is taken against, and the source
/// of the `core.*` stamps — and the traced one. A workload whose end-to-end
/// steady phase is long because its iterations are short and noisy gets a
/// tenth of it instead.
const LAYER_ITERS: usize = 8;
/// Timed repeats of a kernel micro-timing, after one warm-up.
const KERNEL_REPS: usize = 5;
/// Bytes of each of the two stream-copy arrays.
const COPY_BYTES: usize = 256 << 20;

/// Every per-layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same names; a metric whose layer is not on a workload's path
/// reads 0 there and prints as `n/a`.
pub const METRICS: [(&str, &str); 54] = [
    ("tensor.gen_s", "s"),
    ("tensor.nnz", "count"),
    ("tensor.rows_total", "count"),
    ("tensor.working_set_mb", "MiB"),
    ("partition.plan_s", "s"),
    ("partition.shards", "count"),
    ("partition.isps", "count"),
    ("plan.ccp_s", "s"),
    ("plan.imbalance", "ratio"),
    ("stream.write_s", "s"),
    ("stream.plan_s", "s"),
    ("stream.stage_decode_s", "s"),
    ("stream.stage_mb_s", "MB/s"),
    ("stream.chunk_reads_per_iter", "count"),
    ("stream.stalls_per_iter", "count"),
    ("stream.prefetch_hits_per_iter", "count"),
    ("runtime.kernel_seq_s", "s"),
    ("runtime.kernel_privatized_s", "s"),
    ("runtime.kernel_compiled_s", "s"),
    ("runtime.kernel_compiled_w1_s", "s"),
    ("runtime.scaling_eff", "ratio"),
    ("runtime.compile_s", "s"),
    ("runtime.compile_over_kernel", "ratio"),
    ("runtime.kernel_gbs", "GB/s"),
    ("runtime.stream_copy_gbs", "GB/s"),
    ("runtime.kernel_bw_frac", "ratio"),
    ("runtime.launch_s", "s"),
    ("runtime.gather_s", "s"),
    ("runtime.launches_per_iter", "count"),
    ("runtime.blocks_per_iter", "count"),
    ("formats.csf_build_s", "s"),
    ("formats.csf_mttkrp_s", "s"),
    ("formats.csf_over_compiled", "ratio"),
    ("linalg.solve_s", "s"),
    ("linalg.gram_norm_s", "s"),
    ("linalg.solve_mrows_s", "s"),
    ("core.mttkrp_s", "s"),
    ("core.mttkrp_mnnz_s", "Mnnz/s"),
    ("core.als_other_s", "s"),
    ("core.engine_self_s", "s"),
    ("core.unattributed_frac", "ratio"),
    ("core.iters_to_fit", "count"),
    ("core.fit_final", "ratio"),
    ("core.compiles", "count"),
    ("core.compile_hits", "count"),
    ("core.incore_ref_iter_s", "s"),
    ("core.ooc_over_incore", "ratio"),
    ("sim.model_gap_launch", "ratio"),
    ("sim.modeled_compute_frac", "ratio"),
    ("sim.modeled_h2d_frac", "ratio"),
    ("sim.modeled_p2p_frac", "ratio"),
    ("sim.modeled_idle_frac", "ratio"),
    ("tune.search_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Delegates every `DeviceRuntime` call to a `CpuParallelRuntime` and
/// records a span around each op. Planning queries (`&self`, pure
/// arithmetic) pass through unrecorded.
#[derive(Debug)]
struct ProbeRuntime {
    inner: CpuParallelRuntime,
    log: SharedLog,
}

impl DeviceRuntime for ProbeRuntime {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tune(&self) -> TuneParams {
        self.inner.tune()
    }

    fn set_tune(&mut self, params: TuneParams) {
        self.inner.set_tune(params);
    }

    fn spec(&self) -> &PlatformSpec {
        self.inner.spec()
    }

    fn mem(&self, device: Device) -> &MemPool {
        self.inner.mem(device)
    }

    fn timeline(&self) -> Option<Timeline> {
        self.inner.timeline()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.inner.metrics()
    }

    fn h2d_link(&self, active: usize) -> LinkSpec {
        self.inner.h2d_link(active)
    }

    fn h2d_link_for(&self, gpu: usize, active: usize) -> LinkSpec {
        self.inner.h2d_link_for(gpu, active)
    }

    fn p2p_link(&self, a: usize, b: usize) -> LinkSpec {
        self.inner.p2p_link(a, b)
    }

    fn makespan(&self, gpu: usize, costs: &[f64]) -> GridTiming {
        self.inner.makespan(gpu, costs)
    }

    fn alloc(&mut self, device: Device, bytes: u64, purpose: &str) -> Result<(), SimError> {
        record(&self.log, "alloc", || {
            self.inner.alloc(device, bytes, purpose)
        })
    }

    fn free(&mut self, device: Device, bytes: u64) {
        record(&self.log, "free", || self.inner.free(device, bytes));
    }

    fn reset_mem(&mut self) {
        self.inner.reset_mem();
    }

    fn gpu_mem_peak(&self) -> u64 {
        self.inner.gpu_mem_peak()
    }

    fn launch_grid(
        &mut self,
        gpu: usize,
        kernel: &(dyn Fn(usize) + Sync),
        costs: &[f64],
    ) -> GridTiming {
        let modeled = self.inner.makespan(gpu, costs).makespan;
        {
            let mut log = lock(&self.log);
            log.blocks += costs.len() as u64;
            log.modeled_launch_s += modeled;
        }
        record(&self.log, "launch_grid", || {
            self.inner.launch_grid(gpu, kernel, costs)
        })
    }

    fn h2d_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64 {
        record(&self.log, "h2d_time", || {
            self.inner.h2d_time(gpu, active, bytes)
        })
    }

    fn d2h_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64 {
        record(&self.log, "d2h_time", || {
            self.inner.d2h_time(gpu, active, bytes)
        })
    }

    fn scatter_time(&mut self, active: usize, slice_bytes: &[u64]) -> f64 {
        record(&self.log, "scatter_time", || {
            self.inner.scatter_time(active, slice_bytes)
        })
    }

    fn allgather_time(&mut self, algo: Collective, block_bytes: &[u64]) -> f64 {
        record(&self.log, "allgather_time", || {
            self.inner.allgather_time(algo, block_bytes)
        })
    }

    fn allgather_blocks(&mut self, blocks: &[FactorBlock]) -> Vec<Vec<FactorBlock>> {
        record(&self.log, "allgather_blocks", || {
            self.inner.allgather_blocks(blocks)
        })
    }
}

fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// One warm-up, then the fastest of `KERNEL_REPS` timed calls.
fn time_reps<T>(mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let walls: Vec<f64> = (0..KERNEL_REPS).map(|_| time_once(&mut f).1).collect();
    fastest(&walls)
}

/// What the traced run measured, per iteration (the fastest of the traced
/// iterations) and in total.
struct Traced {
    iter_s: f64,
    launch_s: f64,
    gather_s: f64,
    /// Self time of the `mttkrp[d]` spans: the engine's own work between
    /// runtime ops.
    engine_self_s: f64,
    /// Launch time inside `mttkrp[0]` only.
    launch_mode0_s: f64,
    launches_per_iter: f64,
    blocks_per_iter: f64,
    model_gap_launch: f64,
    spans: Vec<Span>,
}

fn summarize_trace(log: &SharedLog, run: &SteadyRun) -> Traced {
    let mut l = lock(log);
    let n = run.result.iterations;
    let spans = std::mem::take(&mut l.spans);
    let own = self_times(&spans);
    let launch = per_iteration_of(&spans, n, "launch_grid");
    let gather = per_iteration_of(&spans, n, "allgather_blocks");
    let launch_mode0 = per_iteration(&spans, n, |_, s| {
        let under_mode0 = s.parent.is_some_and(|p| spans[p].name == "mttkrp[0]");
        if s.name == "launch_grid" && under_mode0 {
            s.duration()
        } else {
            0.0
        }
    });
    let engine_self = per_iteration(&spans, n, |i, s| {
        if s.name.starts_with("mttkrp[") {
            own[i]
        } else {
            0.0
        }
    });
    let launches = spans.iter().filter(|s| s.name == "launch_grid").count();
    let launch_total: f64 = launch.iter().sum();
    Traced {
        iter_s: fastest(&run.iter_walls),
        launch_s: fastest(&launch),
        gather_s: fastest(&gather),
        engine_self_s: fastest(&engine_self),
        launch_mode0_s: fastest(&launch_mode0),
        launches_per_iter: launches as f64 / n as f64,
        blocks_per_iter: l.blocks as f64 / n as f64,
        model_gap_launch: if launch_total > 0.0 {
            l.modeled_launch_s / launch_total
        } else {
            0.0
        },
        spans,
    }
}

/// Copies one `COPY_BYTES` array into another with `workers` threads, each
/// on its own slice; GB/s counts the bytes read plus the bytes written. The
/// ceiling `runtime.kernel_gbs` is held against.
fn stream_copy_gbs(workers: usize) -> f64 {
    let n = COPY_BYTES / 8;
    let src = vec![1u64; n];
    let mut dst = vec![0u64; n];
    let per = n.div_ceil(workers.max(1));
    let wall = time_reps(|| {
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(per).zip(src.chunks(per)) {
                s.spawn(move || d.copy_from_slice(black_box(c)));
            }
        });
    });
    black_box(&dst);
    2.0 * COPY_BYTES as f64 / wall / 1e9
}

/// `hadamard_grams + cholesky + clone + solve_mat_rows` and
/// `normalize_cols + gram` on a `dim_d × R` matrix per mode, summed over
/// modes: the dense work of one ALS iteration, timed on its own. Returns
/// `(solve_s, gram_norm_s, solve_mrows_s)`.
fn linalg_times(shape: &[u32], seed: u64) -> Result<(f64, f64, f64), String> {
    let factors = random_factors(shape, seed);
    let grams: Vec<Mat> = factors.iter().map(Mat::gram).collect();
    let (mut solve, mut gram_norm, mut mrows) = (0.0, 0.0, 0.0);
    for (d, m) in factors.iter().enumerate() {
        let chol = cholesky(&hadamard_grams(&grams, Some(d)), 1e-12)
            .ok_or("random Gram matrix is not positive definite")?;
        solve += time_reps(|| {
            let v = hadamard_grams(&grams, Some(d));
            let chol = cholesky(&v, 1e-12).expect("factored above");
            let mut a = m.clone();
            chol.solve_mat_rows(&mut a);
            a
        });
        // A fresh copy per call: solving one matrix in place over and over
        // shrinks it into denormals, which time differently.
        let mut copies: Vec<Mat> = (0..=KERNEL_REPS).map(|_| m.clone()).collect();
        mrows += time_reps(|| {
            let mut a = copies.pop().expect("one copy per timed call");
            chol.solve_mat_rows(&mut a);
            a
        });
        gram_norm += time_reps(|| {
            let mut a = m.clone();
            let lambda = a.normalize_cols();
            (a.gram(), lambda)
        });
    }
    Ok((solve, gram_norm, mrows))
}

/// `NnzCcp::plan_mode` over every mode's histogram: `(seconds, imbalance)`,
/// imbalance being max/mean of the per-GPU loads, averaged over modes.
fn ccp(tensor: &SparseTensor) -> Result<(f64, f64), String> {
    let stats = PlanStats {
        nnz: tensor.nnz() as u64,
    };
    let cost = UniformCost::new(GPUS);
    let (mut seconds, mut imbalance) = (0.0, 0.0);
    for d in 0..tensor.order() {
        let hist = tensor.mode_hist(d);
        let plan = NnzCcp
            .plan_mode(d, &hist, &stats, &cost)
            .map_err(|e| e.to_string())?;
        seconds += time_reps(|| NnzCcp.plan_mode(d, &hist, &stats, &cost));
        let loads = plan.loads(&hist);
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        imbalance += max / mean;
    }
    Ok((seconds, imbalance / tensor.order() as f64))
}

/// Facts of the input the `prepare` child measured.
pub struct InputFacts {
    pub gen_s: f64,
    pub write_s: f64,
    pub working_set_bytes: f64,
}

/// The metrics measured so far, by declared name.
struct Sink(Vec<(&'static str, f64)>);

impl Sink {
    fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|&(m, _)| m == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Kernel and format micro-timings on mode 0 of `tensor`.
fn kernels(tensor: &SparseTensor, seed: u64, traced: &Traced, out: &mut Sink) {
    let factors = random_factors(tensor.shape(), seed);
    let workers = host_workers();
    let rows = tensor.dim(0) as usize;

    let seq = time_reps(|| mttkrp_ref(tensor, &factors, 0));
    let privatized = time_reps(|| mttkrp_privatized(tensor, &factors, 0));
    let (shard, compile_s) = time_once(|| compile_mode(tensor, 0));
    let compiled = time_reps(|| mttkrp_compiled(&shard, tensor, &factors));
    let one_worker = TuneParams {
        workers: 1,
        ..TuneParams::default()
    };
    let compiled_w1 = time_reps(|| {
        let acc = MttkrpOut::zeros(rows, RANK);
        let views = FactorsView::new(factors.iter().map(Mat::as_slice).collect(), RANK);
        mttkrp_host_compiled(&shard, &views, &one_worker, &acc);
        Mat::from_vec(rows, RANK, acc.to_vec())
    });
    drop(shard);
    out.put("runtime.kernel_seq_s", seq);
    out.put("runtime.kernel_privatized_s", privatized);
    out.put("runtime.kernel_compiled_s", compiled);
    out.put("runtime.kernel_compiled_w1_s", compiled_w1);
    out.put(
        "runtime.scaling_eff",
        compiled_w1 / (workers as f64 * compiled),
    );
    out.put("runtime.compile_s", compile_s);
    out.put("runtime.compile_over_kernel", compile_s / compiled);

    // Computed bytes of one mode-0 MTTKRP: every element's coordinates and
    // value, one factor row per input mode per element, every output row
    // once. Cache misses are not in it.
    let (nnz, order) = (tensor.nnz() as f64, tensor.order() as f64);
    let row_bytes = 4.0 * RANK as f64;
    let bytes =
        nnz * (4.0 * order + 4.0) + nnz * (order - 1.0) * row_bytes + rows as f64 * row_bytes;
    let kernel_gbs = bytes / traced.launch_mode0_s / 1e9;
    let copy_gbs = stream_copy_gbs(workers);
    eprintln!(
        "  stream copy: {copy_gbs:.2} GB/s over 2 x {} MiB arrays on {workers} threads \
         (L2 {} KiB, reported L3 {} KiB)",
        COPY_BYTES >> 20,
        cache_bytes(2) >> 10,
        cache_bytes(3) >> 10
    );
    out.put("runtime.kernel_gbs", kernel_gbs);
    out.put("runtime.stream_copy_gbs", copy_gbs);
    out.put("runtime.kernel_bw_frac", kernel_gbs / copy_gbs);

    let order_for_0 = CsfTensor::order_for_output(tensor, 0);
    let (csf, csf_build) = time_once(|| CsfTensor::build(tensor, &order_for_0));
    let csf_mttkrp = time_reps(|| {
        let mut m = Mat::zeros(rows, RANK);
        csf.mttkrp_root(&factors, &mut m);
        m
    });
    out.put("formats.csf_build_s", csf_build);
    out.put("formats.csf_mttkrp_s", csf_mttkrp);
    out.put("formats.csf_over_compiled", csf_mttkrp / compiled);
}

/// The `stream` layer on its own: plan pass and one staging pass over every
/// chunk, through a budget of `budget` bytes.
fn stream_layer(tnsb: &Path, budget: u64, out: &mut Sink) -> Result<(), String> {
    let open = || {
        ChunkReader::open(tnsb, MemPool::new("benchmark-stage", budget)).map_err(|e| e.to_string())
    };
    let cache_rows = (platform().gpus[0].l2_bytes / (RANK as u64 * 4)).max(1) as usize;
    let mut reader = open()?;
    let (plan, plan_s) = time_once(|| StreamPlan::build(&mut reader, GPUS, cache_rows));
    plan.map_err(|e| e.to_string())?;
    let mut reader = open()?;
    let chunks = reader.meta().num_chunks();
    let payload = reader.meta().payload_bytes();
    let t = Instant::now();
    for c in 0..chunks {
        let chunk = reader.load_chunk(c).map_err(|e| e.to_string())?;
        reader.release(black_box(chunk));
    }
    let stage_s = t.elapsed().as_secs_f64();
    out.put("stream.plan_s", plan_s);
    out.put("stream.stage_decode_s", stage_s);
    out.put("stream.stage_mb_s", payload as f64 / 1e6 / stage_s);
    Ok(())
}

/// Iterations of the pass's untraced and of its traced decomposition.
fn layer_iters(pass: &Pass) -> usize {
    if pass.smoke {
        3
    } else {
        LAYER_ITERS.max(pass.steady_iters / 10)
    }
}

/// The part of an iteration outside `mttkrp_mode` — `cp_als`'s dense work —
/// in the iteration where it was smallest.
fn als_other_s(run: &SteadyRun) -> f64 {
    let other: Vec<f64> = run
        .iter_walls
        .iter()
        .zip(&run.mttkrp_per_iter)
        .map(|(wall, mttkrp)| wall - mttkrp)
        .collect();
    fastest(&other)
}

/// Untraced then traced decomposition on engines built by `build`, and the
/// `core.*`, `sim.*`, `runtime.launch*` and `trace.*` metrics they give.
/// Returns the traced engine for the output checks.
fn engine_passes<E: MttkrpEngine>(
    build_default: impl FnOnce() -> Result<E, SimError>,
    build_traced: impl FnOnce(Box<dyn DeviceRuntime>) -> Result<E, SimError>,
    pass: &Pass,
    mode_nnz: u64,
    ops: &mut Ops,
    out: &mut Sink,
) -> Result<(E, Traced, SteadyRun), String> {
    let seed = pass.seed;
    let iters = layer_iters(pass);
    let mut engine = build_default().map_err(|e| e.to_string())?;
    let untraced = steady(&mut engine, seed, iters, None, ops)?;
    drop(engine);

    let log = SpanLog::shared();
    let registry = MetricsRegistry::new();
    let probe = ProbeRuntime {
        inner: CpuParallelRuntime::new(platform()).with_metrics(registry.clone()),
        log: log.clone(),
    };
    let mut engine = build_traced(Box::new(probe)).map_err(|e| e.to_string())?;
    let run = steady(&mut engine, seed, iters, Some(&log), ops)?;
    let traced = summarize_trace(&log, &run);

    let iter_s = fastest(&untraced.iter_walls);
    let mttkrp_s = fastest(&untraced.mttkrp_per_iter);
    out.put("core.mttkrp_s", mttkrp_s);
    out.put("core.mttkrp_mnnz_s", mode_nnz as f64 / mttkrp_s / 1e6);
    out.put("core.als_other_s", als_other_s(&untraced));
    out.put("core.engine_self_s", traced.engine_self_s);
    let fits = &untraced.result.fits;
    out.put(
        "core.iters_to_fit",
        iters_to_fit(fits, FIT_TOL).unwrap_or(0) as f64,
    );
    out.put("core.fit_final", fits.last().copied().unwrap_or(0.0));
    let per_traced_iter = |name: &str| registry.counter_value(name, &[]) as f64 / iters as f64;
    out.put(
        "core.compiles",
        registry.counter_value("shard_compiles", &[]) as f64,
    );
    out.put(
        "core.compile_hits",
        registry.counter_value("compiled_cache_hits", &[]) as f64,
    );
    out.put(
        "stream.chunk_reads_per_iter",
        per_traced_iter("ooc_chunk_reads"),
    );
    out.put(
        "stream.stalls_per_iter",
        per_traced_iter("ooc_chunk_stalls"),
    );
    out.put(
        "stream.prefetch_hits_per_iter",
        per_traced_iter("ooc_prefetch_hits"),
    );

    let modeled = untraced.result.report.aggregate();
    let total = modeled.total();
    out.put("sim.model_gap_launch", traced.model_gap_launch);
    out.put("sim.modeled_compute_frac", modeled.compute / total);
    out.put("sim.modeled_h2d_frac", modeled.h2d / total);
    out.put("sim.modeled_p2p_frac", modeled.p2p / total);
    out.put("sim.modeled_idle_frac", modeled.idle / total);

    out.put("runtime.launch_s", traced.launch_s);
    out.put("runtime.gather_s", traced.gather_s);
    out.put("runtime.launches_per_iter", traced.launches_per_iter);
    out.put("runtime.blocks_per_iter", traced.blocks_per_iter);
    out.put("trace.overhead_frac", traced.iter_s / iter_s - 1.0);
    Ok((engine, traced, untraced))
}

/// The per-layer pass of one workload: every metric of [`METRICS`], and the
/// Chrome trace of the traced run written to `trace_path`.
pub fn per_layer(
    pass: &Pass,
    facts: &InputFacts,
    trace_path: &Path,
    ops: &mut Ops,
) -> Result<Value, String> {
    let &Pass {
        workload: w,
        tnsb,
        seed,
        ..
    } = pass;
    let mut out = Sink(Vec::new());
    let tensor = load_tensor(tnsb)?;
    let (nnz, order) = (tensor.nnz() as u64, tensor.order());
    let rows_total: u64 = tensor.shape().iter().map(|&d| u64::from(d)).sum();
    out.put("tensor.gen_s", facts.gen_s);
    out.put("tensor.nnz", nnz as f64);
    out.put("tensor.rows_total", rows_total as f64);
    out.put(
        "tensor.working_set_mb",
        facts.working_set_bytes / (1u64 << 20) as f64,
    );

    let (traced, untraced) = match w.engine {
        EngineKind::InCore => {
            let (mut engine, traced, untraced) = engine_passes(
                || AmpedEngine::new(&tensor, platform(), config()),
                |rt| AmpedEngine::with_runtime(&tensor, rt, config()),
                pass,
                nnz * order as u64,
                ops,
                &mut out,
            )?;
            let plan = engine.plan();
            let isp_nnz = engine.config().isp_nnz;
            let shards = plan.modes.iter().flat_map(|m| &m.shards);
            out.put("partition.shards", shards.clone().count() as f64);
            out.put(
                "partition.isps",
                shards
                    .map(|s| s.elem_range.len().div_ceil(isp_nnz))
                    .sum::<usize>() as f64,
            );
            check_outputs(&mut engine, &tensor, &untraced.result.fits, pass, ops)?;
            drop(engine);
            let budget = config().shard_nnz_budget;
            let (_, plan_s) = time_once(|| PartitionPlan::build(&tensor, GPUS, budget));
            out.put("partition.plan_s", plan_s);
            (traced, untraced)
        }
        EngineKind::OutOfCore => {
            let budget = w.stage_budget(
                read_tnsb_meta(tnsb)
                    .map_err(|e| e.to_string())?
                    .payload_bytes(),
            );
            let (mut engine, traced, untraced) = engine_passes(
                || OocEngine::open(tnsb, platform(), config(), budget),
                |rt| OocEngine::with_runtime(tnsb, rt, config(), budget),
                pass,
                nnz * order as u64,
                ops,
                &mut out,
            )?;
            check_outputs(&mut engine, &tensor, &untraced.result.fits, pass, ops)?;
            drop(engine);
            let incore = check_against_incore(&tensor, &untraced.result.fits, seed, ops)?;
            let incore_iter_s = fastest(&incore);
            out.put("core.incore_ref_iter_s", incore_iter_s);
            out.put(
                "core.ooc_over_incore",
                fastest(&untraced.iter_walls) / incore_iter_s,
            );
            out.put("stream.write_s", facts.write_s);
            stream_layer(tnsb, budget, &mut out)?;
            (traced, untraced)
        }
    };

    let (ccp_s, imbalance) = ccp(&tensor)?;
    out.put("plan.ccp_s", ccp_s);
    out.put("plan.imbalance", imbalance);
    kernels(&tensor, seed, &traced, &mut out);
    let (solve_s, gram_norm_s, mrows_s) = linalg_times(tensor.shape(), seed)?;
    out.put("linalg.solve_s", solve_s);
    out.put("linalg.gram_norm_s", gram_norm_s);
    out.put("linalg.solve_mrows_s", mrows_s);
    let backend = backend_fingerprint("sim");
    let (_, search_s) =
        time_once(|| Autotuner::in_memory().params_for_tensor(&backend, &tensor, RANK));
    out.put("tune.search_s", search_s);

    // The dense part of an iteration as the stamps see it, against the same
    // dense calls timed on their own.
    out.put(
        "core.unattributed_frac",
        (als_other_s(&untraced) - solve_s - gram_norm_s).abs() / fastest(&untraced.iter_walls),
    );

    let text = serde_json::to_string(&chrome_trace(&traced.spans)).map_err(|e| e.to_string())?;
    std::fs::write(trace_path, text)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    // Report order; a metric nothing measured on this workload reads 0.
    let metrics: Vec<(String, Value)> = METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = out.get(name).unwrap_or(0.0);
            (name.to_string(), json!({ "value": value, "unit": unit }))
        })
        .collect();
    let measured: Vec<&str> = out.0.iter().map(|&(n, _)| n).collect();
    Ok(json!({
        "metrics": Value::Obj(metrics),
        "measured": measured,
        "layer_iters": layer_iters(pass),
        "incore_ref_iters": INCORE_REF_ITERS
    }))
}
