//! Cholesky factorization and the ALS normal-equation solve `X = M V⁻¹`.

use crate::{Mat, RowSums};

/// Rows the solve kernel applies `W` to side by side: each step of `k`
/// loads one lane group of `W`'s row `k` and feeds it to this many rows.
const GROUP: usize = 4;

/// Columns of `x` one sweep of the solve kernel produces: with `GROUP` rows,
/// 8 independent ymm vectors of sums, enough to hide their adds' latency.
const LANES: usize = 8;

/// A Cholesky factor `L` of `V = L Lᵀ` and the inverse `W = V⁻¹ = L⁻ᵀL⁻¹`
/// formed from it, both in `f64` (the `R × R` Hadamard-of-Grams matrix in
/// ALS can be poorly conditioned once factors become collinear).
#[derive(Clone, Debug)]
pub struct CholFactor {
    n: usize,
    l: Vec<f64>, // row-major lower triangle, full n×n storage
    /// `W` in lane groups of `LANES` columns, group-major: columns
    /// `8b..8b + 8` of row `k` at `b · n + k`, the last group zero-padded.
    w: Vec<[f64; LANES]>,
}

/// Factorizes the symmetric positive (semi-)definite matrix `v` and forms
/// its inverse.
///
/// If the factorization encounters a non-positive pivot, it is retried with a
/// ridge term `ridge * trace(v)/n * I` added, doubling the ridge up to a few
/// times. Returns `None` only if the matrix stays non-factorizable, which for
/// ALS would indicate completely degenerate factors.
pub fn cholesky<T: Copy + Default + Into<f64>>(v: &Mat<T>, ridge: f64) -> Option<CholFactor> {
    assert_eq!(v.rows(), v.cols(), "cholesky requires a square matrix");
    let n = v.rows();
    let mean_diag: f64 = (0..n).map(|i| v.get(i, i).into()).sum::<f64>() / n.max(1) as f64;
    let mut jitter = ridge * mean_diag.max(f64::MIN_POSITIVE);
    for _attempt in 0..8 {
        if let Some(l) = try_cholesky(v, jitter) {
            let w = inverse_chunks(&l, n);
            return Some(CholFactor { n, l, w });
        }
        jitter = if jitter == 0.0 {
            1e-12 * mean_diag.max(1.0)
        } else {
            jitter * 10.0
        };
    }
    None
}

fn try_cholesky<T: Copy + Default + Into<f64>>(v: &Mat<T>, jitter: f64) -> Option<Vec<f64>> {
    let n = v.rows();
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum: f64 = v.get(i, j).into();
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
    Some(l)
}

/// `W = L⁻ᵀL⁻¹` in the lane-group layout of [`CholFactor`]. `L⁻¹` comes from
/// forward substitution against the identity, one column at a time, and
/// `W_ij = Σ_{k ≥ max(i, j)} L⁻¹_ki L⁻¹_kj` with the same products in the
/// same order for `(i, j)` and `(j, i)`, so `W` is symmetric in bits.
fn inverse_chunks(l: &[f64], n: usize) -> Vec<[f64; LANES]> {
    let mut li = vec![0.0f64; n * n];
    for j in 0..n {
        li[j * n + j] = 1.0 / l[j * n + j];
        for i in j + 1..n {
            let mut sum = 0.0;
            for k in j..i {
                sum += l[i * n + k] * li[k * n + j];
            }
            li[i * n + j] = -sum / l[i * n + i];
        }
    }
    let mut w = vec![[0.0f64; LANES]; n * n.div_ceil(LANES)];
    for i in 0..n {
        for j in 0..n {
            let mut sum = 0.0;
            for k in i.max(j)..n {
                sum += li[k * n + i] * li[k * n + j];
            }
            w[j / LANES * n + i][j % LANES] = sum;
        }
    }
    w
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

    /// The inverse `W = V⁻¹` the solves apply.
    pub fn inverse(&self) -> Mat<f64> {
        let n = self.n;
        Mat::from_fn(n, n, |k, j| self.w[j / LANES * n + k][j % LANES])
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
    /// this crate has. Each row `m` becomes `x = m W`, every `x_j` the sum
    /// `Σ_k m_k W_kj` in `f64` with `k` ascending from `+0.0`, rounded to
    /// `f32` once. Rows are independent, so any split of a matrix into row
    /// ranges solved separately gives the same bits as one call.
    pub fn solve_rows(&self, rows: &mut [f32]) {
        self.solve_groups(rows, |_, _| {});
    }

    /// [`CholFactor::solve_rows`], adding each group of solved rows to their
    /// [`RowSums`] (Gram and column dots) while it is still in cache.
    pub fn solve_rows_summed(&self, rows: &mut [f32]) -> RowSums {
        let mut sums = RowSums::new(self.n);
        self.solve_groups(rows, |x, m| {
            sums.add_rows(x);
            for (x, m) in x.chunks_exact(self.n).zip(m.chunks_exact(self.n)) {
                for ((d, &x), &m) in sums.dot.iter_mut().zip(x).zip(m) {
                    *d += m as f64 * x as f64;
                }
            }
        });
        sums
    }

    /// Solves `rows` a `GROUP` at a time and hands `then` each group's solved
    /// rows with a copy of their inputs. The leftover rows are solved as a
    /// group padded with zero rows: rows never mix.
    fn solve_groups(&self, rows: &mut [f32], mut then: impl FnMut(&[f32], &[f32])) {
        let n = self.n;
        if n == 0 {
            assert!(rows.is_empty(), "a 0 × 0 factor solves no rows");
            return;
        }
        assert_eq!(rows.len() % n, 0, "rows must pack whole n-wide rows");
        let (mut input, mut m) = (vec![0.0f32; GROUP * n], vec![0.0f64; GROUP * n]);
        let mut groups = rows.chunks_exact_mut(GROUP * n);
        for group in &mut groups {
            input.copy_from_slice(group);
            self.apply(group, &mut m);
            then(group, &input);
        }
        let tail = groups.into_remainder();
        if !tail.is_empty() {
            let mut padded = vec![0.0f32; GROUP * n];
            padded[..tail.len()].copy_from_slice(tail);
            input.copy_from_slice(&padded);
            self.apply(&mut padded, &mut m);
            tail.copy_from_slice(&padded[..tail.len()]);
            then(tail, &input);
        }
    }

    /// `x = m W` for the `GROUP` rows in `rows`, in place, from their copy
    /// widened and transposed into `m`: one sweep over `k` per lane group,
    /// the `GROUP × LANES` sums in registers. No `mul_add`: a build without
    /// FMA would call a software fma, and `s += m·w` rounds alike on both.
    fn apply(&self, rows: &mut [f32], m: &mut [f64]) {
        let n = self.n;
        for (r, row) in rows.chunks_exact(n).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m[c * GROUP + r] = v as f64;
            }
        }
        let (m, _) = m.as_chunks::<GROUP>();
        for (b, w) in self.w.chunks_exact(n).enumerate() {
            let mut s = [[0.0f64; LANES]; GROUP];
            for (mk, wk) in m.iter().zip(w) {
                for r in 0..GROUP {
                    for l in 0..LANES {
                        s[r][l] += mk[r] * wk[l];
                    }
                }
            }
            for (row, s) in rows.chunks_exact_mut(n).zip(&s) {
                for (x, &v) in row[LANES * b..].iter_mut().zip(s) {
                    *x = v as f32;
                }
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
        // 21 rows: five groups of four and a one-row tail in one call; the
        // split at row 3 moves every row to another slot or into a tail.
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
