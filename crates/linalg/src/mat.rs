//! Row-major dense matrix.

use rand::Rng;

/// A row-major dense `f32` matrix.
///
/// Used for CP factor matrices (`rows = I_d`, `cols = R`) and for the small
/// `R × R` Gram matrices of the ALS normal equations. Row-major layout keeps a
/// factor row — the unit of work of the elementwise MTTKRP computation — in one
/// or two cache lines for the paper's default rank `R = 32`.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// An all-zero matrix of the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A matrix with entries drawn uniformly from `[0, 1)`.
    ///
    /// This is the factor-matrix initialization used throughout the paper's
    /// evaluation ("randomly initialized factor matrices").
    pub fn random(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.gen::<f32>())
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
        (self.data.len() * core::mem::size_of::<f32>()) as u64
    }

    /// Borrow row `r` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// The whole row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole row-major backing slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Gram matrix `AᵀA` (`cols × cols`), accumulated in `f64`.
    pub fn gram(&self) -> Mat {
        let n = self.cols;
        let mut out = Mat::zeros(n, n);
        self.gram_band(0, &mut out.data);
        out.mirror_upper();
        out
    }

    /// Rows `i0..i0 + out.len() / cols` of the upper triangle of `AᵀA`,
    /// written into `out` (those rows of the Gram matrix, packed; entries
    /// left of the diagonal are not touched). Every cell is accumulated in
    /// `f64` down the rows of `self` in row order and rounded once, so
    /// cutting the triangle into bands of `i` computed separately gives the
    /// bits of [`Mat::gram`]; [`Mat::mirror_upper`] completes the matrix.
    ///
    /// Register-blocked: the cells are held in `4 × 4` tiles, and each tile
    /// takes the products of four factor rows (`GRAM_BLOCK`) per load and
    /// store, added to every cell one row after another in ascending row
    /// order. That is the sequence of `f64` additions of one row at a time,
    /// so the blocking moves no bit. Leftover rows go through the same
    /// tiles one at a time.
    pub fn gram_band(&self, i0: usize, out: &mut [f32]) {
        let n = self.cols;
        if n == 0 {
            return;
        }
        assert_eq!(out.len() % n, 0, "out must pack whole Gram rows");
        let i1 = i0 + out.len() / n;
        assert!(i1 <= n, "band runs past the last Gram row");
        if i1 == i0 {
            return;
        }
        // The Gram's rows and columns in chunks of 4: the band's rows
        // `i0..i1` lie in chunks `a0..a1`, and tile `(a, b)` holds rows
        // `4a..4a + 4` by columns `4b..4b + 4`. Only tiles with `b ≥ a` are
        // summed; their cells left of the diagonal, outside the band or
        // past the last column are summed too and never read.
        let chunks = n.div_ceil(4);
        let (a0, a1) = (i0 / 4, i1.div_ceil(4));
        let mut acc = vec![[[0.0f64; 4]; 4]; (a1 - a0) * chunks];
        let tiles: Vec<(usize, usize)> = (a0..a1)
            .flat_map(|a| (a..chunks).map(move |b| (a, b)))
            .collect();
        // The rows widened once, in 4-column chunks, the last zero-padded.
        let mut rows = [(); GRAM_BLOCK].map(|_| vec![[0.0f64; 4]; chunks]);
        let blocked = self.rows - self.rows % GRAM_BLOCK;
        for r in (0..blocked).step_by(GRAM_BLOCK) {
            for (k, w) in rows.iter_mut().enumerate() {
                widen_row(self.row(r + k), w);
            }
            add_to_tiles::<GRAM_BLOCK>(&rows, &tiles, a0, &mut acc);
        }
        for r in blocked..self.rows {
            widen_row(self.row(r), &mut rows[0]);
            add_to_tiles::<1>(&rows, &tiles, a0, &mut acc);
        }
        for (out_i, i) in out.chunks_exact_mut(n).zip(i0..) {
            let tiles = &acc[(i / 4 - a0) * chunks..][..chunks];
            for (o, j) in out_i[i..].iter_mut().zip(i..) {
                *o = tiles[j / 4][i % 4][j % 4] as f32;
            }
        }
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

    /// Entry-wise (Hadamard) product, in place.
    pub fn hadamard_inplace(&mut self, other: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard dimension mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
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

/// Factor rows [`Mat::gram_band`] adds to each Gram tile per load and store.
/// A `4 × 4` tile of `f64` cells is four ymm registers of an x86-64-v3
/// build; the four rows' column operands are four more.
const GRAM_BLOCK: usize = 4;

/// Writes `row` widened to `f64` into 4-column chunks (a short last chunk
/// keeps its padding).
fn widen_row(row: &[f32], chunks: &mut [[f64; 4]]) {
    for (chunk, values) in chunks.iter_mut().zip(row.chunks(4)) {
        for (w, &v) in chunk.iter_mut().zip(values) {
            *w = v as f64;
        }
    }
}

/// Adds the products of the first `K` widened rows to each listed tile
/// `(a, b)`, stored at `(a − a0) · chunks + b` in `acc`. Each cell takes its
/// `K` products one after another in row order, so a tile is loaded and
/// stored once per `K` rows.
fn add_to_tiles<const K: usize>(
    rows: &[Vec<[f64; 4]>; GRAM_BLOCK],
    tiles: &[(usize, usize)],
    a0: usize,
    acc: &mut [[[f64; 4]; 4]],
) {
    let chunks = rows[0].len();
    for &(a, b) in tiles {
        let xi: [[f64; 4]; K] = std::array::from_fn(|k| rows[k][a]);
        let xj: [[f64; 4]; K] = std::array::from_fn(|k| rows[k][b]);
        let tile = &mut acc[(a - a0) * chunks + b];
        for (ii, cells) in tile.iter_mut().enumerate() {
            // Four cells of a tile row as one vector; each takes one
            // addition per factor row, in row order: the unblocked sum.
            let mut s = *cells;
            for (xi, xj) in xi.iter().zip(&xj) {
                for (s, &x) in s.iter_mut().zip(xj) {
                    *s += xi[ii] * x;
                }
            }
            *cells = s;
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
        let mut m = Mat::zeros(3, 2);
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
    fn gram_bands_assemble_the_gram_in_bits() {
        let mut rng = SmallRng::seed_from_u64(10);
        let a = Mat::random(57, 7, &mut rng);
        let whole = a.gram();
        // Uneven bands, one of them empty.
        let mut banded = Mat::zeros(7, 7);
        for (i0, i1) in [(0usize, 1usize), (1, 1), (1, 5), (5, 7)] {
            a.gram_band(i0, &mut banded.as_mut_slice()[i0 * 7..i1 * 7]);
        }
        assert_eq!(banded.get(3, 1), 0.0, "bands write the upper triangle only");
        banded.mirror_upper();
        assert_eq!(banded, whole);
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
