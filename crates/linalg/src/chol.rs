//! Cholesky factorization and SPD solves for the ALS normal equations.

use crate::Mat;

/// Rows the panel kernel solves side by side. Eight `f64` lanes are four
/// SSE2 (two AVX2) registers per operand: enough independent subtract
/// chains to hide the latency a single row's chain is bound by.
const PANEL: usize = 8;

/// A lower-triangular Cholesky factor `L` with `V = L Lᵀ`, stored in `f64`
/// for numerical stability (the `R × R` Hadamard-of-Grams matrix in ALS can be
/// poorly conditioned once factors become collinear).
#[derive(Clone, Debug)]
pub struct CholFactor {
    n: usize,
    l: Vec<f64>,  // row-major lower triangle, full n×n storage
    lt: Vec<f64>, // `Lᵀ`, row-major: back substitution reads rows, not columns
}

/// Factorizes the symmetric positive (semi-)definite matrix `v`.
///
/// If the factorization encounters a non-positive pivot, it is retried with a
/// ridge term `ridge * trace(v)/n * I` added, doubling the ridge up to a few
/// times. Returns `None` only if the matrix stays non-factorizable, which for
/// ALS would indicate completely degenerate factors.
pub fn cholesky(v: &Mat, ridge: f64) -> Option<CholFactor> {
    assert_eq!(v.rows(), v.cols(), "cholesky requires a square matrix");
    let n = v.rows();
    let mean_diag: f64 = (0..n).map(|i| v.get(i, i) as f64).sum::<f64>() / n.max(1) as f64;
    let mut jitter = ridge * mean_diag.max(f64::MIN_POSITIVE);
    for _attempt in 0..8 {
        if let Some(f) = try_cholesky(v, jitter) {
            return Some(f);
        }
        jitter = if jitter == 0.0 {
            1e-12 * mean_diag.max(1.0)
        } else {
            jitter * 10.0
        };
    }
    None
}

fn try_cholesky(v: &Mat, jitter: f64) -> Option<CholFactor> {
    let n = v.rows();
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = v.get(i, j) as f64;
            if i == j {
                sum += jitter;
            }
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    let mut lt = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            lt[j * n + i] = l[i * n + j];
        }
    }
    Some(CholFactor { n, l, lt })
}

impl CholFactor {
    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The factor `L`, row-major `n × n` with the strict upper triangle zero.
    pub fn l(&self) -> &[f64] {
        &self.l
    }

    /// Solves `V x = b` in place (`b` holds the solution on return).
    pub fn solve_row(&self, b: &mut [f32]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        self.solve_rows(b);
    }

    /// Solves `V xᵀ = rowᵀ` for every row of `m`, in place.
    ///
    /// This is the ALS factor update `Â = M V⁻¹` (valid because `V` is
    /// symmetric), applied row by row to the MTTKRP output `M`.
    pub fn solve_mat_rows(&self, m: &mut Mat) {
        assert_eq!(m.cols(), self.n, "matrix width must match factor dimension");
        self.solve_rows(m.as_mut_slice());
    }

    /// Solves every `n`-wide row packed in `rows`, in place: the one solve
    /// this crate has. Rows are independent, so any split of a matrix into
    /// row ranges solved separately gives the same bits as one call.
    ///
    /// Full groups of `PANEL` (8) rows go through the kernel side by side, the
    /// rest one at a time through the same kernel at one lane. One scratch
    /// panel is allocated per call, none per row.
    pub fn solve_rows(&self, rows: &mut [f32]) {
        let n = self.n;
        if n == 0 {
            assert!(rows.is_empty(), "a 0 × 0 factor solves no rows");
            return;
        }
        assert_eq!(rows.len() % n, 0, "rows must pack whole n-wide rows");
        let mut y = vec![0.0f64; n * PANEL];
        let mut panels = rows.chunks_exact_mut(n * PANEL);
        for panel in &mut panels {
            self.solve_panel::<PANEL>(panel, &mut y);
        }
        for row in panels.into_remainder().chunks_exact_mut(n) {
            self.solve_panel::<1>(row, &mut y[..n]);
        }
    }

    /// Forward then back substitution on `P` packed rows at once. `y` is the
    /// `n × P` scratch panel, column `i` of all `P` rows adjacent, so each
    /// substitution step is one multiply-subtract across the rows — which
    /// vectorises — instead of a chain within one. Lanes never mix, and each
    /// lane does what the scalar textbook loop does in the same order: start
    /// from `b_i`, subtract the `k` terms ascending, divide; back
    /// substitution reads the `x_k` already rounded to `f32` and widened
    /// again. So the result is that loop's, bit for bit, at any `P`.
    fn solve_panel<const P: usize>(&self, rows: &mut [f32], y: &mut [f64]) {
        let n = self.n;
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut sum = [0.0f64; P];
            for (p, s) in sum.iter_mut().enumerate() {
                *s = rows[p * n + i] as f64;
            }
            let l_row = &self.l[i * n..i * n + i];
            for (&lik, yk) in l_row.iter().zip(y.chunks_exact(P)) {
                for (s, &ykp) in sum.iter_mut().zip(yk) {
                    *s -= lik * ykp;
                }
            }
            let diag = self.l[i * n + i];
            for (yi, s) in y[i * P..(i + 1) * P].iter_mut().zip(sum) {
                *yi = s / diag;
            }
        }
        // Backward substitution: Lᵀ x = y, with x overwriting y from the
        // bottom up.
        for i in (0..n).rev() {
            let (head, solved) = y.split_at_mut((i + 1) * P);
            let yi = &mut head[i * P..];
            let mut sum = [0.0f64; P];
            sum.copy_from_slice(yi);
            let lt_row = &self.lt[i * n + i + 1..(i + 1) * n];
            for (&lki, xk) in lt_row.iter().zip(solved.chunks_exact(P)) {
                for (s, &xkp) in sum.iter_mut().zip(xk) {
                    *s -= lki * xkp;
                }
            }
            let diag = self.l[i * n + i];
            for (p, (yip, s)) in yi.iter_mut().zip(sum).enumerate() {
                let x = (s / diag) as f32;
                rows[p * n + i] = x;
                *yip = x as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spd(n: usize, seed: u64) -> Mat {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = Mat::random(n + 3, n, &mut rng);
        let mut g = a.gram();
        for i in 0..n {
            g.set(i, i, g.get(i, i) + 0.5);
        }
        g
    }

    #[test]
    fn solve_recovers_known_solution() {
        let v = spd(6, 42);
        let x_true: Vec<f32> = (0..6).map(|i| (i as f32) - 2.5).collect();
        // b = V x
        let mut b = vec![0.0f32; 6];
        for (i, bi) in b.iter_mut().enumerate() {
            *bi = (0..6).map(|j| v.get(i, j) * x_true[j]).sum();
        }
        let f = cholesky(&v, 0.0).expect("SPD matrix must factorize");
        f.solve_row(&mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-3, "got {got}, want {want}");
        }
    }

    #[test]
    fn solve_mat_rows_matches_row_solves() {
        let v = spd(4, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let m = Mat::random(5, 4, &mut rng);
        let f = cholesky(&v, 0.0).unwrap();

        let mut all = m.clone();
        f.solve_mat_rows(&mut all);
        for r in 0..m.rows() {
            let mut row = m.row(r).to_vec();
            f.solve_row(&mut row);
            assert_eq!(all.row(r), row.as_slice());
        }
    }

    #[test]
    fn row_ranges_solve_to_the_bits_of_one_call() {
        // 21 rows: two full panels and a five-row tail in one call; the
        // split at row 3 moves every row to a different lane or to the tail.
        let v = spd(7, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let m = Mat::random(21, 7, &mut rng);
        let f = cholesky(&v, 0.0).unwrap();

        let mut all = m.clone();
        f.solve_mat_rows(&mut all);
        let mut split = m.clone();
        let (top, bottom) = split.as_mut_slice().split_at_mut(3 * 7);
        f.solve_rows(top);
        f.solve_rows(bottom);
        assert_eq!(split, all);
        // x = V⁻¹ b really is what came out.
        let x = all.row(20);
        for i in 0..7 {
            let b: f32 = (0..7).map(|j| v.get(i, j) * x[j]).sum();
            assert!((b - m.get(20, i)).abs() < 1e-3);
        }
    }

    #[test]
    fn singular_matrix_falls_back_to_ridge() {
        // Rank-1 matrix: plain Cholesky fails, ridge fallback must succeed.
        let v = Mat::from_vec(3, 3, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let f = cholesky(&v, 1e-9);
        assert!(
            f.is_some(),
            "ridge fallback should make rank-deficient matrix factorizable"
        );
    }

    #[test]
    fn identity_solve_is_identity() {
        let id = Mat::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 });
        let f = cholesky(&id, 0.0).unwrap();
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        f.solve_row(&mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
