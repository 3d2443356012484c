//! Row-major dense matrix.

use rand::Rng;
use std::ops::MulAssign;

/// A row-major dense matrix, `f32` unless said otherwise.
///
/// `Mat` (`f32`) holds the CP factor matrices (`rows = I_d`, `cols = R`);
/// `Mat<f64>` holds the small `R × R` Gram matrices of the ALS normal
/// equations. Row-major layout keeps a factor row — the unit of work of the
/// elementwise MTTKRP computation — in one or two cache lines for the
/// paper's default rank `R = 32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat<T = f32> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Mat<T> {
    /// An all-zero matrix of the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::default(); rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total size in bytes of the matrix payload (used by the memory model).
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.data.len() * core::mem::size_of::<T>()) as u64
    }

    /// Borrow row `r` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] = v;
    }

    /// The whole row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole row-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies the upper triangle of a square matrix onto the lower one.
    pub fn mirror_upper(&mut self) {
        assert_eq!(self.rows, self.cols, "only a square matrix has a mirror");
        let n = self.cols;
        for i in 0..n {
            for j in i + 1..n {
                self.data[j * n + i] = self.data[i * n + j];
            }
        }
    }

    /// Entry-wise (Hadamard) product, in place.
    pub fn hadamard_inplace(&mut self, other: &Self)
    where
        T: MulAssign,
    {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard dimension mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= *b;
        }
    }
}

impl Mat {
    /// A matrix with entries drawn uniformly from `[0, 1)`.
    ///
    /// This is the factor-matrix initialization used throughout the paper's
    /// evaluation ("randomly initialized factor matrices").
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen::<f32>())
    }

    /// Gram matrix `AᵀA` (`cols × cols`): [`Mat::gram_f64`] with every cell
    /// rounded to `f32` once.
    pub fn gram(&self) -> Mat {
        let g = self.gram_f64();
        Mat::from_fn(g.rows, g.cols, |i, j| g.get(i, j) as f32)
    }

    /// Gram matrix `AᵀA` in `f64`: every cell summed down the rows of
    /// `self` in row order, through the register-blocked [`RowSums`].
    pub fn gram_f64(&self) -> Mat<f64> {
        let mut sums = RowSums::new(self.cols);
        sums.add_rows(&self.data);
        sums.gram()
    }

    /// Dense product `self × other`.
    ///
    /// Only used for `I × R` times `R × R` shapes in ALS, so a simple
    /// ikj-ordered triple loop is plenty.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Frobenius norm, accumulated in `f64`.
    pub fn frob_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Transposed copy.
    #[cfg(test)]
    fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Largest absolute entry-wise difference against `other`.
    pub fn max_abs_diff(&self, other: &Mat) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Entry-wise approximate equality with combined relative/absolute tolerance:
    /// `|a-b| <= abs + rel * max(|a|, |b|)` for every entry.
    pub fn approx_eq(&self, other: &Mat, rel: f32, abs: f32) -> bool {
        if (self.rows, self.cols) != (other.rows, other.cols) {
            return false;
        }
        self.data
            .iter()
            .zip(&other.data)
            .all(|(&a, &b)| (a - b).abs() <= abs + rel * a.abs().max(b.abs()))
    }

    /// Normalizes every column to unit Euclidean norm, returning the norms
    /// (the CP weight vector λ). Zero columns are left untouched with λ = 0.
    pub fn normalize_cols(&mut self) -> Vec<f32> {
        let mut sq = vec![0.0f64; self.cols];
        self.col_sq_sums(0, &mut sq);
        let norms = norms_from_sq_sums(&sq);
        div_cols(&mut self.data, &norms);
        norms
    }

    /// Sums of squares of the columns `c0..c0 + out.len()`, each accumulated
    /// in `f64` down the rows in row order — so bands of columns summed
    /// separately give the bits of one sweep over all of them.
    pub fn col_sq_sums(&self, c0: usize, out: &mut [f64]) {
        out.fill(0.0);
        let cols = c0..c0 + out.len();
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(&self.row(r)[cols.clone()]) {
                *o += (v as f64) * (v as f64);
            }
        }
    }
}

/// Factor rows [`RowSums`] adds to each Gram cell per load and store.
const GRAM_BLOCK: usize = 4;

/// Columns of the Gram one vector of cells covers: two ymm registers of an
/// x86-64-v3 build.
const GRAM_LANES: usize = 8;

/// Sums over the factor rows added so far, each in `f64` in row order: the
/// Gram matrix `AᵀA` and, when a solve adds them, the column dots
/// `Σ_r m_rc x_rc` of its inputs and outputs
/// ([`crate::CholFactor::solve_rows_summed`]).
///
/// The Gram's upper triangle is kept in lane groups: cells `(i, 8b..8b + 8)`
/// are one vector at `b · n + i`, for every `i < 8b + 8` (cells left of the
/// diagonal or past the last column are summed and never read). For each
/// lane group four factor rows (`GRAM_BLOCK`) stay in registers while every
/// cell vector takes their products in ascending row order
/// (`s = cell; s += p₀; …; s += p₃`): the additions of one row at a time, so
/// how rows are grouped into calls moves no bit.
#[derive(Clone, Debug)]
pub struct RowSums {
    n: usize,
    acc: Vec<[f64; GRAM_LANES]>,
    pub(crate) dot: Vec<f64>,
    /// Scratch: up to `GRAM_BLOCK` rows widened once into lane groups, the
    /// last zero-padded.
    rows: [Vec<[f64; GRAM_LANES]>; GRAM_BLOCK],
}

impl RowSums {
    /// All-zero sums for `n`-wide rows.
    pub fn new(n: usize) -> Self {
        let groups = n.div_ceil(GRAM_LANES);
        Self {
            n,
            acc: vec![[0.0; GRAM_LANES]; groups * n],
            dot: vec![0.0; n],
            rows: [(); GRAM_BLOCK].map(|_| vec![[0.0; GRAM_LANES]; groups]),
        }
    }

    /// Adds the products of every `n`-wide row packed in `rows`, in row
    /// order: four at a time, the leftover rows one at a time.
    pub(crate) fn add_rows(&mut self, rows: &[f32]) {
        if self.n == 0 {
            return;
        }
        let mut blocks = rows.chunks_exact(GRAM_BLOCK * self.n);
        for block in &mut blocks {
            for (w, row) in self.rows.iter_mut().zip(block.chunks_exact(self.n)) {
                widen_row(row, w);
            }
            self.add_to_cells::<GRAM_BLOCK>();
        }
        for row in blocks.remainder().chunks_exact(self.n) {
            widen_row(row, &mut self.rows[0]);
            self.add_to_cells::<1>();
        }
    }

    /// Adds the products of the first `K` widened rows to every cell
    /// vector, each cell taking its `K` products one after another in row
    /// order.
    fn add_to_cells<const K: usize>(&mut self) {
        let (n, rows) = (self.n, &self.rows);
        for (b, cells) in self.acc.chunks_exact_mut(n).enumerate() {
            let xj: [[f64; GRAM_LANES]; K] = std::array::from_fn(|k| rows[k][b]);
            let below = n.min(GRAM_LANES * (b + 1));
            for (i, cell) in cells[..below].iter_mut().enumerate() {
                let xi: [f64; K] = std::array::from_fn(|k| rows[k][i / GRAM_LANES][i % GRAM_LANES]);
                let mut s = *cell;
                for k in 0..K {
                    for l in 0..GRAM_LANES {
                        s[l] += xi[k] * xj[k][l];
                    }
                }
                *cell = s;
            }
        }
    }

    /// Adds `other`'s sums to these, cell by cell and column by column.
    pub fn add(&mut self, other: &Self) {
        assert_eq!(self.n, other.n, "sums of different widths");
        for (cells, o) in self.acc.iter_mut().zip(&other.acc) {
            for (c, &o) in cells.iter_mut().zip(o) {
                *c += o;
            }
        }
        for (d, &o) in self.dot.iter_mut().zip(&other.dot) {
            *d += o;
        }
    }

    /// The column dots `Σ_r m_rc x_rc`.
    pub fn dot(&self) -> &[f64] {
        &self.dot
    }

    /// The Gram matrix `AᵀA`, full and symmetric.
    pub fn gram(&self) -> Mat<f64> {
        let n = self.n;
        let mut g = Mat::from_fn(n, n, |i, j| match j >= i {
            true => self.acc[j / GRAM_LANES * n + i][j % GRAM_LANES],
            false => 0.0,
        });
        g.mirror_upper();
        g
    }
}

/// Writes `row` widened to `f64` into lane groups (a short last group keeps
/// its padding).
fn widen_row(row: &[f32], groups: &mut [[f64; GRAM_LANES]]) {
    for (group, values) in groups.iter_mut().zip(row.chunks(GRAM_LANES)) {
        for (w, &v) in group.iter_mut().zip(values) {
            *w = v as f64;
        }
    }
}

/// Column norms from the sums [`Mat::col_sq_sums`] returns.
pub fn norms_from_sq_sums(sq: &[f64]) -> Vec<f32> {
    sq.iter().map(|&s| s.sqrt() as f32).collect()
}

/// Divides column `c` of every `norms.len()`-wide row packed in `rows` by
/// `norms[c]`; a column whose norm is not positive is left untouched. Entry
/// by entry, so any split into row ranges gives the same bits.
pub fn div_cols(rows: &mut [f32], norms: &[f32]) {
    if norms.is_empty() {
        return;
    }
    for row in rows.chunks_exact_mut(norms.len()) {
        for (v, &norm) in row.iter_mut().zip(norms) {
            if norm > 0.0 {
                *v /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_accessors() {
        let mut m: Mat = Mat::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.bytes(), 24);
        m.set(2, 1, 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.row(2), &[0.0, 5.0]);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "row-major data length mismatch")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn gram_matches_manual() {
        let a = Mat::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram();
        // AᵀA = [[35, 44], [44, 56]]
        assert_eq!(g.get(0, 0), 35.0);
        assert_eq!(g.get(0, 1), 44.0);
        assert_eq!(g.get(1, 0), 44.0);
        assert_eq!(g.get(1, 1), 56.0);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = Mat::random(4, 3, &mut rng);
        let id = Mat::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = a.matmul(&id);
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_matches_gram() {
        let mut rng = SmallRng::seed_from_u64(8);
        let a = Mat::random(5, 4, &mut rng);
        let g1 = a.transpose().matmul(&a);
        let g2 = a.gram();
        assert!(g1.approx_eq(&g2, 1e-5, 1e-6));
    }

    #[test]
    fn hadamard_and_scale() {
        let mut a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![2.0, 2.0, 2.0, 2.0]);
        a.hadamard_inplace(&b);
        assert_eq!(a.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn normalize_cols_returns_lambda() {
        let mut a = Mat::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]);
        let lambda = a.normalize_cols();
        assert_eq!(lambda, vec![5.0, 0.0]);
        assert!((a.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((a.get(1, 0) - 0.8).abs() < 1e-6);
        // Zero column untouched.
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn column_bands_and_row_ranges_normalize_in_bits() {
        let mut rng = SmallRng::seed_from_u64(11);
        let a = Mat::random(40, 6, &mut rng);
        let mut whole = a.clone();
        let lambda = whole.normalize_cols();

        let mut sq = vec![7.0f64; 6]; // stale values are overwritten
        let (left, right) = sq.split_at_mut(2);
        a.col_sq_sums(0, left);
        a.col_sq_sums(2, right);
        assert_eq!(norms_from_sq_sums(&sq), lambda);
        let mut split = a.clone();
        let (top, bottom) = split.as_mut_slice().split_at_mut(13 * 6);
        div_cols(top, &lambda);
        div_cols(bottom, &lambda);
        assert_eq!(split, whole);
    }

    #[test]
    fn frob_norm_simple() {
        let a = Mat::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = SmallRng::seed_from_u64(9);
        let a = Mat::random(4, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }
}
