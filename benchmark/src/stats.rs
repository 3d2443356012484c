//! Order statistics for timing samples, and the fit-target rule.
//!
//! The value the harness compares for a timing is its **fastest repeat**
//! ([`fastest`]), with the median, MAD and tail percentile beside it. The
//! host this was written on is a shared 2-vCPU machine where interference
//! only ever adds time, in bursts of seconds to minutes: over five runs of
//! one seed the median `amazon_incore` iteration ranged over 28 %, the
//! fastest over 6 %; over ten seeds the quartile distance was 15 % against
//! 5 %. A median of that few samples measures the neighbours.

use serde_json::{json, Value};

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one repeat.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The fastest of `xs`: what a repeat costs when nothing interferes.
///
/// # Panics
/// Panics on an empty slice, like [`median`].
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)` with the value being the sample that exactly ten
/// larger samples follow. `None` with ten samples or fewer — a tail read off
/// fewer than ten samples is noise.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// What the harness reports for one timed quantity. `min` is the value that
/// is compared between runs (see the module docs); the rest says how the
/// samples spread above it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub min: f64,
    pub mad: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Self {
        Self {
            n: xs.len(),
            p50: median(xs),
            min: fastest(xs),
            mad: mad(xs),
            tail: tail(xs),
        }
    }

    pub fn to_json(&self) -> Value {
        let (tail_pct, tail_value) = match self.tail {
            Some((p, v)) => (json!(p), json!(v)),
            None => (Value::Null, Value::Null),
        };
        json!({
            "n": self.n,
            "p50": self.p50,
            "min": self.min,
            "mad": self.mad,
            "tail_pct": tail_pct,
            "tail_value": tail_value,
            "text": self.dispersion()
        })
    }

    /// `n=30 p50=0.88 mad=0.004 tail p67=0.91` — the dispersion printed next
    /// to each fastest repeat.
    pub fn dispersion(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" tail p{p:.0}={v:.4}"),
            None => String::new(),
        };
        format!("n={} p50={:.4} mad={:.4}{tail}", self.n, self.p50, self.mad)
    }
}

/// Fit gain below which a decomposition counts as having reached its fit.
///
/// On the generated tensors the per-iteration gain falls by 2–10× per
/// iteration early in the trace; 2.5e-3 sits at least 20 % away from the
/// nearest gain on every workload and seed tried (gains of 3.1e-3 and 1.8e-3
/// around it on `amazon_small`, 1e-2 and 1e-3 on `twitch_tall`), so neither
/// another seed nor a ≤ 1-ulp kernel change flips the iteration count.
pub const FIT_TOL: f64 = 2.5e-3;

/// The 1-based iteration `i*` whose fit gain over the previous iteration is
/// the first below `tol`; `None` when the trace never flattens that far.
pub fn iters_to_fit(fits: &[f64], tol: f64) -> Option<usize> {
    fits.windows(2)
        .position(|w| w[1] - w[0] < tol)
        .map(|p| p + 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // deviations from 3: 2 1 0 1 6 → median 1
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0]), 0.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        // one sample has ten beyond it: the smallest, the 9.09th percentile
        let (p, v) = tail(&eleven).unwrap();
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn tail_is_p67_of_thirty_and_counts_ten_beyond() {
        let xs: Vec<f64> = (0..30).rev().map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert!((p - 200.0 / 3.0).abs() < 1e-12);
        assert_eq!(v, 19.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn summary_reports_the_median_and_the_fastest() {
        let s = Summary::of(&[0.5, 0.3, 0.4]);
        assert_eq!((s.n, s.p50, s.min), (3, 0.4, 0.3));
        assert_eq!(fastest(&[0.5, 0.3, 0.4]), 0.3);
        assert!(s.tail.is_none());
    }

    #[test]
    fn fit_target_is_the_first_small_gain() {
        // gains 8e-3, 2e-3, 1e-3: the third iteration is the first below 2.5e-3
        let fits = [0.010, 0.018, 0.020, 0.021];
        assert_eq!(iters_to_fit(&fits, FIT_TOL), Some(3));
        assert_eq!(iters_to_fit(&fits, 1.5e-3), Some(4));
        assert_eq!(iters_to_fit(&fits, 1e-4), None);
        assert_eq!(iters_to_fit(&fits[..1], FIT_TOL), None);
    }

    #[test]
    fn a_falling_fit_counts_as_flat() {
        assert_eq!(iters_to_fit(&[0.5, 0.4], FIT_TOL), Some(2));
    }
}
