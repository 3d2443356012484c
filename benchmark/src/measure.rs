//! The end-to-end protocol: cold repeats, one steady decomposition stamped
//! from outside, peak memory, then the output checks.
//!
//! Everything here goes through the path a user gets by default —
//! `AmpedEngine::new` / `OocEngine::open`, default `TuneParams`,
//! `host_workers()` threads — and sets no knob of its own.

use crate::spans::{lock, SharedLog};
use crate::stats::{fastest, iters_to_fit, Summary, FIT_TOL};
use crate::surface::{
    cp_als, mttkrp_ref, read_tnsb_meta, AlsOptions, AlsResult, AmpedEngine, ChunkReader, Mat,
    MemPool, MetricsRegistry, ModeAssignment, ModeTiming, MttkrpEngine, OocEngine, SimError,
    SparseTensor, Timeline,
};
use crate::workloads::{config, platform, EngineKind, Workload, RANK};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// In-core iterations run on the out-of-core workload's tensor: the fit
/// trace the streamed engine must reproduce, and the in-core time it is
/// compared with.
pub const INCORE_REF_ITERS: usize = 6;

/// One measured pass: which workload, on which prepared input, how long.
#[derive(Clone, Copy, Debug)]
pub struct Pass<'a> {
    pub workload: &'a Workload,
    /// The `.tnsb` file the `prepare` child wrote.
    pub tnsb: &'a Path,
    pub seed: u64,
    /// Steady-phase iterations of the end-to-end pass.
    pub steady_iters: usize,
    pub smoke: bool,
}

/// Operations attempted and failed. Every ALS iteration and every check is
/// one operation; an `Err` ends the run and is reported by the caller.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn passed(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Reads a `.tnsb` file back into memory. Inputs reach the measured process
/// only this way, so it never holds the generator's tables.
pub fn load_tensor(path: &Path) -> Result<SparseTensor, String> {
    let err = |e: &dyn std::fmt::Display| format!("loading {}: {e}", path.display());
    let mut reader =
        ChunkReader::open(path, MemPool::new("benchmark-load", u64::MAX)).map_err(|e| err(&e))?;
    let meta = reader.meta().clone();
    let nnz = meta.nnz as usize;
    let mut coords = Vec::with_capacity(nnz * meta.order());
    let mut values = Vec::with_capacity(nnz);
    for c in 0..meta.num_chunks() {
        let chunk = reader.load_chunk(c).map_err(|e| err(&e))?;
        coords.extend_from_slice(chunk.coords_flat());
        values.extend((0..chunk.nnz()).map(|e| chunk.value(e)));
        reader.release(chunk);
    }
    Ok(SparseTensor::from_parts(meta.shape, coords, values))
}

fn als_options(seed: u64, iters: usize) -> AlsOptions {
    AlsOptions {
        max_iters: iters,
        tol: 0.0,
        seed,
        ..AlsOptions::default()
    }
}

/// Entry and exit of one `mttkrp_mode` call.
#[derive(Clone, Copy, Debug)]
struct ModeStamp {
    mode: usize,
    entry: Instant,
    exit: Instant,
}

/// Delegates every `MttkrpEngine` method to the engine it borrows and stamps
/// the clock on entry and exit of each `mttkrp_mode`. With a span log it
/// also opens `als_iteration[i]` / `mttkrp[d]` spans, under which the traced
/// runtime's spans nest.
struct StampEngine<'a, E> {
    inner: &'a mut E,
    stamps: Vec<ModeStamp>,
    log: Option<SharedLog>,
    open_iteration: Option<usize>,
    iterations: u32,
}

impl<E: MttkrpEngine> StampEngine<'_, E> {
    fn close_iteration(&mut self) {
        if let (Some(log), Some(id)) = (&self.log, self.open_iteration.take()) {
            lock(log).close(id);
        }
    }
}

impl<E: MttkrpEngine> MttkrpEngine for StampEngine<'_, E> {
    fn mttkrp_mode(&mut self, d: usize, factors: &[Mat]) -> Result<(Mat, ModeTiming), SimError> {
        if d == 0 {
            self.close_iteration();
            if let Some(log) = &self.log {
                let mut l = lock(log);
                l.set_iteration(self.iterations);
                self.open_iteration = Some(l.open(format!("als_iteration[{}]", self.iterations)));
            }
            self.iterations += 1;
        }
        let span = self
            .log
            .as_ref()
            .map(|l| lock(l).open(format!("mttkrp[{d}]")));
        let entry = Instant::now();
        let out = self.inner.mttkrp_mode(d, factors);
        let exit = Instant::now();
        if let (Some(log), Some(id)) = (&self.log, span) {
            lock(log).close(id);
        }
        self.stamps.push(ModeStamp {
            mode: d,
            entry,
            exit,
        });
        out
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn shape(&self) -> &[u32] {
        self.inner.shape()
    }

    fn tensor_norm_sq(&self) -> f64 {
        self.inner.tensor_norm_sq()
    }

    fn num_gpus(&self) -> usize {
        self.inner.num_gpus()
    }

    fn preprocess_wall(&self) -> f64 {
        self.inner.preprocess_wall()
    }

    fn mode_hist(&self, d: usize) -> Vec<u64> {
        self.inner.mode_hist(d)
    }

    fn mode_loads(&self, d: usize) -> Vec<u64> {
        self.inner.mode_loads(d)
    }

    fn replan(&mut self, assignment: &ModeAssignment) -> Result<(), SimError> {
        self.inner.replan(assignment)
    }

    fn timeline(&self) -> Option<Timeline> {
        self.inner.timeline()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.inner.metrics()
    }
}

/// No single decomposition runs past this many iterations. Beyond about a
/// hundred, `f32` round-off makes the fit trace of these unstructured
/// tensors wander by more than the monotonicity check allows (past about 250
/// on `amazon_small` it collapses and recovers), for reasons no change under
/// test controls; a longer steady phase is several decompositions.
const MAX_DECOMPOSITION_ITERS: usize = 50;

/// The steady phase timed from outside.
pub struct SteadyRun {
    /// The first decomposition's result: the fit trace and modeled report.
    pub result: AlsResult,
    /// Wall of every iteration: from its mode-0 entry to the next one's, a
    /// decomposition's last closed by `cp_als` returning.
    pub iter_walls: Vec<f64>,
    /// Per iteration, the time inside `mttkrp_mode` summed over modes.
    pub mttkrp_per_iter: Vec<f64>,
}

impl SteadyRun {
    pub fn modeled_iter_s(&self) -> f64 {
        self.result.report.total_time / self.result.iterations as f64
    }
}

/// Runs `iters` ALS iterations (tolerance 0, so none is skipped) through the
/// stamping wrapper, as decompositions of at most
/// [`MAX_DECOMPOSITION_ITERS`]; with `log`, as the traced run.
pub fn steady<E: MttkrpEngine>(
    engine: &mut E,
    seed: u64,
    iters: usize,
    log: Option<&SharedLog>,
    ops: &mut Ops,
) -> Result<SteadyRun, String> {
    let order = engine.shape().len();
    let mut wrapper = StampEngine {
        inner: engine,
        stamps: Vec::with_capacity(iters * order),
        log: log.cloned(),
        open_iteration: None,
        iterations: 0,
    };
    let mut first = None;
    let mut iter_walls = Vec::with_capacity(iters);
    let mut done = 0;
    while done < iters {
        let n = (iters - done).min(MAX_DECOMPOSITION_ITERS);
        let result = cp_als(&mut wrapper, &als_options(seed, n)).map_err(|e| e.to_string())?;
        let end = Instant::now();
        wrapper.close_iteration();
        ops.passed(result.iterations);
        let mut starts: Vec<Instant> = wrapper.stamps[done * order..]
            .iter()
            .filter(|s| s.mode == 0)
            .map(|s| s.entry)
            .collect();
        starts.push(end);
        iter_walls.extend(starts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()));
        done += result.iterations;
        first.get_or_insert(result);
    }
    let mttkrp_per_iter = wrapper
        .stamps
        .chunks(order)
        .map(|it| it.iter().map(|s| (s.exit - s.entry).as_secs_f64()).sum())
        .collect();
    Ok(SteadyRun {
        result: first.ok_or("a steady phase needs at least one iteration")?,
        iter_walls,
        mttkrp_per_iter,
    })
}

/// The timed phases of one workload.
struct Timed {
    setup_s: Vec<f64>,
    first_iter_s: Vec<f64>,
    steady: SteadyRun,
    peak_rss_mb: f64,
}

/// Cold phase, then the steady phase on the last engine, then `VmHWM`.
/// `build` is the engine construction a user would write.
fn timed<E: MttkrpEngine>(
    build: impl Fn() -> Result<E, SimError>,
    pass: &Pass,
    ops: &mut Ops,
) -> Result<(E, Timed), String> {
    let (seed, repeats) = (pass.seed, pass.workload.cold_repeats);
    let mut setup_s = Vec::with_capacity(repeats);
    let mut first_iter_s = Vec::with_capacity(repeats);
    let mut engine = None;
    for _ in 0..repeats {
        // The previous engine goes first: two resident at once would double
        // the peak a user sees.
        drop(engine.take());
        let t = Instant::now();
        let mut e = build().map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let first = cp_als(&mut e, &als_options(seed, 1)).map_err(|e| e.to_string())?;
        first_iter_s.push(t.elapsed().as_secs_f64());
        ops.passed(first.iterations);
        engine = Some(e);
    }
    let mut engine = engine.ok_or("a workload needs at least one cold repeat")?;
    let steady = steady(&mut engine, seed, pass.steady_iters, None, ops)?;
    // Before any check allocates.
    let peak_rss_mb = crate::env::peak_rss_mib()?;
    Ok((
        engine,
        Timed {
            setup_s,
            first_iter_s,
            steady,
            peak_rss_mb,
        },
    ))
}

/// Random factor matrices of the run's rank, one per mode: inputs of the
/// output checks and the kernel micro-timings, unrelated to any ALS state.
pub fn random_factors(shape: &[u32], seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0C4E_C4ED);
    shape
        .iter()
        .map(|&d| Mat::random(d as usize, RANK, &mut rng))
        .collect()
}

/// Each mode's engine MTTKRP on fresh random factors against the `f64`
/// oracle, the fit trace's monotonicity, and — unless the run is too short
/// to get there (`smoke`) — that the fit target was reached. One operation
/// each.
pub fn check_outputs<E: MttkrpEngine>(
    engine: &mut E,
    tensor: &SparseTensor,
    fits: &[f64],
    pass: &Pass,
    ops: &mut Ops,
) -> Result<(), String> {
    let factors = random_factors(tensor.shape(), pass.seed);
    for d in 0..tensor.order() {
        let (got, _) = engine.mttkrp_mode(d, &factors).map_err(|e| e.to_string())?;
        let want = mttkrp_ref(tensor, &factors, d);
        ops.check(got.approx_eq(&want, 1e-3, 1e-4), || {
            format!(
                "mode {d}: engine MTTKRP differs from mttkrp_ref by {:e}",
                got.max_abs_diff(&want)
            )
        });
    }
    ops.check(fits.windows(2).all(|w| w[1] >= w[0] - 1e-6), || {
        format!("fit trace decreases: {fits:?}")
    });
    if !pass.smoke {
        ops.check(iters_to_fit(fits, FIT_TOL).is_some(), || {
            format!("fit gain never fell below {FIT_TOL:e}: {fits:?}")
        });
    }
    Ok(())
}

/// In-core decomposition of the out-of-core workload's tensor: returns its
/// iteration walls after checking that the streamed engine's fit trace
/// matches it.
pub fn check_against_incore(
    tensor: &SparseTensor,
    ooc_fits: &[f64],
    seed: u64,
    ops: &mut Ops,
) -> Result<Vec<f64>, String> {
    let mut engine = AmpedEngine::new(tensor, platform(), config()).map_err(|e| e.to_string())?;
    let iters = INCORE_REF_ITERS.min(ooc_fits.len());
    let run = steady(&mut engine, seed, iters, None, ops)?;
    let agree = run
        .result
        .fits
        .iter()
        .zip(ooc_fits)
        .all(|(a, b)| (a - b).abs() <= 1e-5);
    ops.check(agree, || {
        format!(
            "out-of-core fits {ooc_fits:?} differ from in-core {:?}",
            run.result.fits
        )
    });
    Ok(run.iter_walls)
}

/// The end-to-end metrics with their units, in report order;
/// `BENCHMARK.json` lists the same names with their bounds.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("first_iter_s", "s"),
    ("als_iter_s", "s"),
    ("time_to_fit_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("modeled_iter_s", "s"),
];

/// The end-to-end pass of one workload on the input at `tnsb`: the six
/// end-to-end metrics, their dispersion, and the facts of the run.
pub fn end_to_end(pass: &Pass, ops: &mut Ops) -> Result<Value, String> {
    let (w, tnsb) = (pass.workload, pass.tnsb);
    let t = match w.engine {
        EngineKind::InCore => {
            let tensor = load_tensor(tnsb)?;
            let build = || AmpedEngine::new(&tensor, platform(), config());
            let (mut engine, t) = timed(build, pass, ops)?;
            check_outputs(&mut engine, &tensor, &t.steady.result.fits, pass, ops)?;
            t
        }
        EngineKind::OutOfCore => {
            let meta = read_tnsb_meta(tnsb).map_err(|e| e.to_string())?;
            let budget = w.stage_budget(meta.payload_bytes());
            let build = || OocEngine::open(tnsb, platform(), config(), budget);
            let (mut engine, t) = timed(build, pass, ops)?;
            let tensor = load_tensor(tnsb)?;
            check_outputs(&mut engine, &tensor, &t.steady.result.fits, pass, ops)?;
            check_against_incore(&tensor, &t.steady.result.fits, pass.seed, ops)?;
            t
        }
    };

    let fits = &t.steady.result.fits;
    let setup = Summary::of(&t.setup_s);
    let first = Summary::of(&t.first_iter_s);
    let iter = Summary::of(&t.steady.iter_walls);
    // An unreached fit target was already counted as a failed operation;
    // the full trace stands in so the metric stays defined.
    let i_star = iters_to_fit(fits, FIT_TOL).unwrap_or(fits.len());
    let time_to_fit = setup.min + first.min + (i_star - 1) as f64 * iter.min;
    let values = [
        setup.min,
        first.min,
        iter.min,
        time_to_fit,
        t.peak_rss_mb,
        t.steady.modeled_iter_s(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name.to_string(), json!({ "value": value, "unit": unit })))
        .collect();
    Ok(json!({
        "metrics": Value::Obj(metrics),
        "summaries": json!({
            "setup_s": setup.to_json(),
            "first_iter_s": first.to_json(),
            "als_iter_s": iter.to_json()
        }),
        "samples": json!({
            "setup_s": t.setup_s,
            "first_iter_s": t.first_iter_s,
            "als_iter_s": t.steady.iter_walls
        }),
        "steady_iters": t.steady.iter_walls.len(),
        "cold_repeats": w.cold_repeats,
        "iters_to_fit": i_star,
        "mttkrp_s": fastest(&t.steady.mttkrp_per_iter),
        "fits": fits
    }))
}
