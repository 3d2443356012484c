//! CP-ALS on top of the AMPED engine.
//!
//! The paper's workload is one iteration of alternating least squares: for
//! each mode `d`, compute `M = X₍d₎ (⊙_{w≠d} A_w)` (the MTTKRP the engine
//! accelerates), then solve the normal equations
//! `Â_d = M (⊛_{w≠d} A_wᵀA_w)⁻¹`, normalize columns into λ, and continue.
//!
//! Only the `R × R` factorization of that system is small. Applying it is one
//! triangular solve per factor row, and the column norms and the new Gram
//! matrix are sweeps over the same `I_d` rows — on a tall tensor with few
//! nonzeros per row that is as much host work as the MTTKRP itself. So the
//! whole dense half of a mode update is one blocked step, [`dense_update`],
//! split across the host workers in a way that keeps every output bit
//! (DESIGN.md §15).
//!
//! The loop is generic over [`MttkrpEngine`], so the same ALS drives the
//! one [`crate::engine::Engine`] over either source: the in-core
//! [`crate::engine::AmpedEngine`] and the out-of-core
//! [`crate::ooc::OocEngine`].

use crate::engine::MttkrpEngine;
use amped_linalg::{
    cholesky, div_cols, hadamard_grams, model_norm_sq, norms_from_sq_sums, CholFactor, Mat,
};
use amped_runtime::smexec::{for_each_part_mut, host_workers};
use amped_sim::metrics::RunReport;
use amped_sim::obs::warn_once;
use amped_sim::SimError;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

/// CP-ALS options.
#[derive(Clone, Debug, Serialize)]
pub struct AlsOptions {
    /// Maximum ALS iterations.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between iterations.
    pub tol: f64,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Carries nothing: it makes a literal of these options outside this
    /// crate end in `..AlsOptions::default()`, so that a field added later
    /// breaks no caller. (`#[non_exhaustive]` would forbid such literals.)
    #[doc(hidden)]
    pub _non_exhaustive: (),
}

impl Default for AlsOptions {
    fn default() -> Self {
        Self {
            max_iters: 25,
            tol: 1e-5,
            seed: 0,
            _non_exhaustive: (),
        }
    }
}

/// CP-ALS result: factors, weights, fit trace, and accumulated simulated
/// execution report.
#[derive(Debug)]
pub struct AlsResult {
    /// Unit-column factor matrices, one per mode.
    pub factors: Vec<Mat>,
    /// Component weights λ.
    pub lambda: Vec<f32>,
    /// Fit `1 − ‖X − X̂‖/‖X‖` after each iteration.
    pub fits: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Simulated time report accumulated over all MTTKRP calls.
    pub report: RunReport,
}

/// The `rows × rank²` multiply-adds of a [`dense_update`] that repay one
/// thread: a matrix is cut into as many parts as it has this much work for
/// (and no more than there are workers), so one under twice this stays on
/// the calling thread. Measured on a 2-vCPU host at rank 8 and rank 32: two
/// parts break even with one at about 2¹⁹–2²⁰ in total, four scopes of
/// roughly 40 µs each against 0.4 ns per multiply-add.
const DENSE_PART_MIN_WORK: usize = 1 << 19;

/// `parts + 1` ascending bounds cutting `0..units` into `parts` near-equal
/// ranges (some empty when `parts > units`).
fn even_bounds(units: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|k| units * k / parts).collect()
}

/// Bounds cutting the rows `0..n` of an upper triangle into `parts` bands of
/// near-equal area: row `i` holds `n − i` cells, so the bands widen downwards.
fn triangle_bounds(n: usize, parts: usize) -> Vec<usize> {
    let area = n * (n + 1) / 2;
    let mut bounds = vec![0];
    let (mut i, mut above) = (0, 0);
    for k in 1..parts {
        while i < n && above < area * k / parts {
            above += n - i;
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(n);
    bounds
}

/// The dense half of one ALS mode update, in place on the MTTKRP result
/// `a`: solve the normal equations for every row (`Â = M V⁻¹` through
/// `chol`), normalize the columns, and form the new Gram matrix. Returns
/// `(λ, ÂᵀÂ)` and leaves the unit-column factor in `a`.
///
/// Each of the four passes is cut into at most `workers` parts that run
/// side by side, and every cut keeps each output cell's arithmetic whole:
/// the solve and the divide go by row ranges (rows are independent), the
/// column norms by bands of columns and the Gram triangle by bands of its
/// rows `i` (each cell still sums the factor rows in row order). The result
/// is therefore the bits of `solve_mat_rows → normalize_cols → gram` at any
/// worker count. How many parts a matrix is worth is read off its size
/// (`DENSE_PART_MIN_WORK`); a small one is not cut at all.
pub fn dense_update(chol: &CholFactor, a: &mut Mat, workers: usize) -> (Vec<f32>, Mat) {
    let (rows, rank) = (a.rows(), a.cols());
    assert_eq!(rank, chol.n(), "matrix width must match factor dimension");
    let parts = (rows * rank * rank / DENSE_PART_MIN_WORK).clamp(1, workers.max(1));
    let row_bounds: Vec<usize> = even_bounds(rows, parts).iter().map(|r| r * rank).collect();

    for_each_part_mut(a.as_mut_slice(), &row_bounds, |_, part| {
        chol.solve_rows(part)
    });
    let mut sq_sums = vec![0.0f64; rank];
    for_each_part_mut(&mut sq_sums, &even_bounds(rank, parts), |c0, band| {
        a.col_sq_sums(c0, band)
    });
    let lambda = norms_from_sq_sums(&sq_sums);
    for_each_part_mut(a.as_mut_slice(), &row_bounds, |_, part| {
        div_cols(part, &lambda)
    });
    let mut gram = Mat::zeros(rank, rank);
    let gram_bounds: Vec<usize> = triangle_bounds(rank, parts)
        .iter()
        .map(|i| i * rank)
        .collect();
    for_each_part_mut(gram.as_mut_slice(), &gram_bounds, |at, band| {
        a.gram_band(at / rank, band)
    });
    gram.mirror_upper();
    (lambda, gram)
}

/// Runs CP-ALS using `engine` for every MTTKRP. The tensor and rank are the
/// ones the engine was built with.
pub fn cp_als(engine: &mut impl MttkrpEngine, opts: &AlsOptions) -> Result<AlsResult, SimError> {
    let rank = engine.rank();
    let shape: Vec<u32> = engine.shape().to_vec();
    let n = shape.len();
    let norm_x_sq = engine.tensor_norm_sq();
    let norm_x = norm_x_sq.sqrt();

    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut factors: Vec<Mat> = shape
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect();
    let mut lambda = vec![1.0f32; rank];
    let mut grams: Vec<Mat> = factors.iter().map(|f| f.gram()).collect();

    let mut report = RunReport {
        preprocess_wall: engine.preprocess_wall(),
        per_gpu: vec![Default::default(); engine.num_gpus()],
        ..Default::default()
    };
    let mut fits = Vec::new();
    let mut iterations = 0;
    // Observability: when the engine's runtime carries a tracer, every
    // iteration/mode region opens a span so op records (and the Chrome
    // trace exported from them) nest `iteration=i/mode=d/shard=s`. With no
    // tracer `tl` is `None` and the loop body does nothing extra.
    let tl = engine.timeline();
    let workers = host_workers();
    let registry = engine.metrics();
    let als_iterations = registry.counter("als_iterations");
    let residual_clamped = registry.counter("als_residual_clamped");

    for iter in 0..opts.max_iters {
        let _iter_span = tl.as_ref().map(|t| t.span("iteration", iter as u64));
        // The last mode's MTTKRP result, which the fit below reads again.
        let mut m_last = Mat::zeros(0, rank);
        for d in 0..n {
            let _mode_span = tl.as_ref().map(|t| t.span("mode", d as u64));
            let (m, timing) = engine.mttkrp_mode(d, &factors)?;
            for (acc, g) in report.per_gpu.iter_mut().zip(&timing.per_gpu) {
                acc.add(g);
            }
            report.total_time += timing.wall;
            report.per_mode.push(timing.wall);

            let _dense_span = tl.as_ref().map(|t| t.span("dense", d as u64));
            let v = hadamard_grams(&grams, Some(d));
            let chol = cholesky(&v, 1e-12)
                .ok_or_else(|| SimError::Unsupported("degenerate ALS normal equations".into()))?;
            // Only the last mode's MTTKRP result is read again (by the fit
            // below); every other mode's becomes its factor in place.
            let mut a = if d == n - 1 {
                m_last = m;
                m_last.clone()
            } else {
                m
            };
            (lambda, grams[d]) = dense_update(&chol, &mut a, workers);
            factors[d] = a;
        }
        iterations += 1;
        als_iterations.inc();

        // Fit via the standard CP-ALS shortcut: ⟨X, X̂⟩ folds the last
        // MTTKRP result against the newest factor and λ.
        let a_last = &factors[n - 1];
        let mut inner = 0.0f64;
        for row in 0..a_last.rows() {
            let mr = m_last.row(row);
            let ar = a_last.row(row);
            for c in 0..rank {
                inner += mr[c] as f64 * ar[c] as f64 * lambda[c] as f64;
            }
        }
        let norm_model_sq = model_norm_sq(&lambda, &hadamard_grams(&grams, None));
        // A negative (or NaN) squared residual means the shortcut lost to
        // rounding or the engine's ‖X‖² is off. It is clamped to 0, which
        // reports fit 1, so every clamp is counted and the first one said.
        let mut resid_sq = norm_x_sq + norm_model_sq - 2.0 * inner;
        if resid_sq.is_nan() || resid_sq < 0.0 {
            residual_clamped.inc();
            warn_once(
                "als-residual-clamped",
                &format!(
                    "cp_als iteration {iter}: squared residual {resid_sq:e} \
                     clamped to 0, so the reported fit is 1 \
                     (als_residual_clamped counts every clamp)"
                ),
            );
            resid_sq = 0.0;
        }
        let fit = 1.0 - resid_sq.sqrt() / norm_x;
        let done = fits
            .last()
            .map(|&prev: &f64| (fit - prev).abs() < opts.tol)
            .unwrap_or(false);
        fits.push(fit);
        if done {
            break;
        }
    }

    Ok(AlsResult {
        factors,
        lambda,
        fits,
        iterations,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmpedConfig;
    use crate::engine::{AmpedEngine, ModeTiming};
    use amped_plan::ModeAssignment;
    use amped_sim::obs::MetricsRegistry;
    use amped_sim::PlatformSpec;
    use amped_tensor::gen::{low_rank, low_rank_dense};
    use amped_tensor::Idx;

    fn engine(t: &amped_tensor::SparseTensor, rank: usize) -> AmpedEngine {
        let cfg = AmpedConfig {
            rank,
            isp_nnz: 512,
            shard_nnz_budget: 4096,
        };
        AmpedEngine::new(t, PlatformSpec::rtx6000_ada_node(2).scaled(1e-3), cfg).unwrap()
    }

    #[test]
    fn als_recovers_noiseless_low_rank_tensor() {
        let (t, _) = low_rank_dense(&[18, 15, 12], 4, 0.0, 101);
        let mut e = engine(&t, 4);
        let res = cp_als(
            &mut e,
            &AlsOptions {
                max_iters: 60,
                tol: 1e-9,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let final_fit = *res.fits.last().unwrap();
        assert!(
            final_fit > 0.98,
            "noiseless rank-4 tensor should fit ≈ 1, got {final_fit} ({} iters)",
            res.iterations
        );
    }

    #[test]
    fn fit_is_monotone_nondecreasing_modulo_noise() {
        let (t, _) = low_rank(&[20, 20, 20], 3, 2000, 0.05, 102);
        let mut e = engine(&t, 3);
        let res = cp_als(
            &mut e,
            &AlsOptions {
                max_iters: 15,
                tol: 0.0,
                seed: 6,
                ..Default::default()
            },
        )
        .unwrap();
        for w in res.fits.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-4,
                "ALS fit decreased: {} -> {} (trace {:?})",
                w[0],
                w[1],
                res.fits
            );
        }
    }

    #[test]
    fn als_report_accumulates_time() {
        let (t, _) = low_rank(&[15, 15, 15], 2, 800, 0.0, 103);
        let mut e = engine(&t, 2);
        let res = cp_als(
            &mut e,
            &AlsOptions {
                max_iters: 3,
                tol: 0.0,
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.iterations, 3);
        assert_eq!(res.report.per_mode.len(), 9); // 3 iters × 3 modes
        assert!(res.report.total_time > 0.0);
        assert_eq!(res.factors.len(), 3);
        assert_eq!(res.lambda.len(), 2);
    }

    #[test]
    fn bounds_cover_their_range_and_triangle_bands_balance() {
        assert_eq!(even_bounds(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(even_bounds(2, 4), vec![0, 0, 1, 1, 2]);
        assert_eq!(triangle_bounds(32, 1), vec![0, 32]);
        assert_eq!(triangle_bounds(0, 3), vec![0, 0, 0, 0]);
        for (n, parts) in [(32usize, 2usize), (32, 8), (7, 3), (3, 8)] {
            let b = triangle_bounds(n, parts);
            assert_eq!((b.len(), b[0], b[parts]), (parts + 1, 0, n));
            let areas: Vec<usize> = b
                .windows(2)
                .map(|w| (w[0]..w[1]).map(|i| n - i).sum())
                .collect();
            // No band is more than one triangle row over its share.
            let share = n * (n + 1) / 2 / parts;
            assert!(
                areas.iter().all(|&a| a <= share + n),
                "{n}/{parts}: {areas:?}"
            );
        }
    }

    #[test]
    fn dense_span_closes_before_the_next_mode_launches() {
        use amped_runtime::{SimRuntime, TracingRuntime};
        let (t, _) = low_rank(&[15, 15, 15], 2, 800, 0.0, 105);
        let cfg = AmpedConfig {
            rank: 2,
            isp_nnz: 512,
            shard_nnz_budget: 4096,
        };
        let rt = TracingRuntime::new(SimRuntime::new(
            PlatformSpec::rtx6000_ada_node(2).scaled(1e-3),
        ));
        let tl = rt.timeline();
        let mut e = AmpedEngine::with_runtime(&t, Box::new(rt), cfg).unwrap();
        let opts = AlsOptions {
            max_iters: 2,
            tol: 0.0,
            ..Default::default()
        };
        cp_als(&mut e, &opts).unwrap();
        // The dense update issues no runtime op, so its span labels none:
        // every op still sits directly under `iteration/mode`, and the path
        // is back at the root once the run returns.
        let in_run: Vec<_> = tl
            .snapshot()
            .into_iter()
            .filter(|r| !r.span.is_root())
            .collect();
        assert!(!in_run.is_empty());
        for r in in_run {
            let keys: Vec<_> = r.span.labels().iter().map(|l| l.key).collect();
            assert_eq!(keys[..2], ["iteration", "mode"], "{}", r.span.render());
            assert!(!keys.contains(&"dense"), "{}", r.span.render());
        }
        assert!(tl.current_span().is_root());
    }

    /// An engine that reports `‖X‖²` times `norm_scale` and records into a
    /// registry of its own; everything else is the wrapped engine's.
    struct MisreportedNorm {
        inner: AmpedEngine,
        norm_scale: f64,
        metrics: MetricsRegistry,
    }

    impl MttkrpEngine for MisreportedNorm {
        fn mttkrp_mode(
            &mut self,
            d: usize,
            factors: &[Mat],
        ) -> Result<(Mat, ModeTiming), SimError> {
            self.inner.mttkrp_mode(d, factors)
        }
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn shape(&self) -> &[Idx] {
            self.inner.shape()
        }
        fn tensor_norm_sq(&self) -> f64 {
            self.inner.tensor_norm_sq() * self.norm_scale
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
        fn metrics(&self) -> MetricsRegistry {
            self.metrics.clone()
        }
    }

    #[test]
    fn a_negative_residual_is_counted_not_hidden() {
        let (t, _) = low_rank(&[15, 15, 15], 2, 800, 0.05, 106);
        let opts = AlsOptions {
            max_iters: 4,
            tol: 0.0,
            seed: 9,
            ..Default::default()
        };
        let run = |norm_scale| {
            let mut e = MisreportedNorm {
                inner: engine(&t, 2),
                norm_scale,
                metrics: MetricsRegistry::new(),
            };
            let fits = cp_als(&mut e, &opts).unwrap().fits;
            (fits, e.metrics.counter("als_residual_clamped").get())
        };
        let (fits, clamped) = run(1.0);
        assert_eq!(clamped, 0, "an honest ‖X‖² clamps nothing: {fits:?}");
        assert!(fits.iter().all(|&f| f < 1.0), "{fits:?}");
        // A hundredth of ‖X‖²: every residual is negative, and each clamp is
        // counted while the reported fit stays what the clamp gives.
        let (fits, clamped) = run(0.01);
        assert_eq!(clamped, fits.len() as u64, "{fits:?}");
        assert!(fits.iter().all(|&f| f == 1.0), "{fits:?}");
    }

    #[test]
    fn tolerance_stops_early() {
        let (t, _) = low_rank(&[15, 15, 15], 2, 800, 0.0, 104);
        let mut e = engine(&t, 2);
        let res = cp_als(
            &mut e,
            &AlsOptions {
                max_iters: 50,
                tol: 1e-3,
                seed: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            res.iterations < 50,
            "should converge early, ran {}",
            res.iterations
        );
    }
}
