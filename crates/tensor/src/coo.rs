//! N-mode COO sparse tensor.

use crate::{Idx, Val};

/// An N-mode sparse tensor in COOrdinate format.
///
/// Coordinates are stored element-major (`[i₀ i₁ … i_{N−1}]` per nonzero,
/// elements back to back) so that the elementwise computation of paper §3.0.1 —
/// which needs *all* coordinates of one nonzero at once — touches a single
/// contiguous run of memory per element.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseTensor {
    shape: Vec<Idx>,
    indices: Vec<Idx>, // nnz * order, element-major
    values: Vec<Val>,
}

/// A borrowed view of one nonzero element: its coordinates and value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElemRef<'a> {
    /// Coordinates, one per mode.
    pub coords: &'a [Idx],
    /// The nonzero value.
    pub val: Val,
}

impl SparseTensor {
    /// An empty tensor with the given mode sizes.
    ///
    /// # Panics
    /// Panics if `shape` is empty or any mode size is zero.
    pub fn new(shape: Vec<Idx>) -> Self {
        assert!(!shape.is_empty(), "a tensor needs at least one mode");
        assert!(shape.iter().all(|&s| s > 0), "mode sizes must be nonzero");
        Self {
            shape,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// An empty tensor with capacity reserved for `nnz` nonzeros.
    pub fn with_capacity(shape: Vec<Idx>, nnz: usize) -> Self {
        let mut t = Self::new(shape);
        t.indices.reserve_exact(nnz * t.order());
        t.values.reserve_exact(nnz);
        t
    }

    /// Builds a tensor from parallel coordinate/value arrays.
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-bounds coordinates.
    pub fn from_parts(shape: Vec<Idx>, indices: Vec<Idx>, values: Vec<Val>) -> Self {
        let t = Self {
            shape,
            indices,
            values,
        };
        assert_eq!(
            t.indices.len(),
            t.values.len() * t.order(),
            "coordinate array length mismatch"
        );
        t.validate()
            .expect("coordinates must be within the declared shape");
        t
    }

    /// Number of tensor modes (the paper's `N`).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored nonzero elements.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Mode sizes.
    #[inline]
    pub fn shape(&self) -> &[Idx] {
        &self.shape
    }

    /// Size of mode `m`.
    #[inline]
    pub fn dim(&self, m: usize) -> Idx {
        self.shape[m]
    }

    /// Coordinate of element `e` along mode `m`.
    #[inline]
    pub fn idx(&self, e: usize, m: usize) -> Idx {
        self.indices[e * self.shape.len() + m]
    }

    /// All coordinates of element `e`.
    #[inline]
    pub fn coords(&self, e: usize) -> &[Idx] {
        let n = self.shape.len();
        &self.indices[e * n..(e + 1) * n]
    }

    /// Value of element `e`.
    #[inline]
    pub fn value(&self, e: usize) -> Val {
        self.values[e]
    }

    /// The raw element-major coordinate array (`nnz × order`).
    #[inline]
    pub fn indices_flat(&self) -> &[Idx] {
        &self.indices
    }

    /// The raw value array.
    #[inline]
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Appends one nonzero element.
    ///
    /// # Panics
    /// Panics if the coordinate arity or bounds are wrong.
    pub fn push(&mut self, coords: &[Idx], val: Val) {
        assert_eq!(coords.len(), self.order(), "coordinate arity mismatch");
        for (m, &c) in coords.iter().enumerate() {
            assert!(
                c < self.shape[m],
                "coordinate {c} out of bounds for mode {m} (size {})",
                self.shape[m]
            );
        }
        self.indices.extend_from_slice(coords);
        self.values.push(val);
    }

    /// Iterates over all nonzero elements.
    pub fn iter(&self) -> impl Iterator<Item = ElemRef<'_>> + '_ {
        let n = self.order();
        self.values
            .iter()
            .enumerate()
            .map(move |(e, &val)| ElemRef {
                coords: &self.indices[e * n..(e + 1) * n],
                val,
            })
    }

    /// Checks that every coordinate is within the declared shape.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.order();
        if self.indices.len() != self.values.len() * n {
            return Err(format!(
                "coordinate array has {} entries, expected {}",
                self.indices.len(),
                self.values.len() * n
            ));
        }
        for e in 0..self.nnz() {
            for m in 0..n {
                let c = self.idx(e, m);
                if c >= self.shape[m] {
                    return Err(format!(
                        "element {e}: coordinate {c} out of bounds for mode {m} (size {})",
                        self.shape[m]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Bytes occupied by one COO element: `order` coordinates plus one value.
    #[inline]
    pub fn elem_bytes(&self) -> u64 {
        (self.order() * core::mem::size_of::<Idx>() + core::mem::size_of::<Val>()) as u64
    }

    /// Total payload size in bytes (what the memory model charges for a copy).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.elem_bytes() * self.nnz() as u64
    }

    /// Histogram of nonzero counts per index of mode `d`
    /// (the paper's per-output-index workload used for sharding).
    pub fn mode_hist(&self, d: usize) -> Vec<u64> {
        let mut hist = vec![0u64; self.shape[d] as usize];
        let n = self.order();
        for e in 0..self.nnz() {
            hist[self.indices[e * n + d] as usize] += 1;
        }
        hist
    }

    /// Returns a copy of the tensor with elements reordered by `perm`
    /// (`perm[k]` = index of the source element placed at position `k`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..nnz`.
    fn permuted(&self, perm: &[usize]) -> SparseTensor {
        assert_eq!(perm.len(), self.nnz(), "permutation length mismatch");
        let mut indices = Vec::with_capacity(self.indices.len());
        let mut values = Vec::with_capacity(self.values.len());
        let mut seen = vec![false; self.nnz()];
        for &src in perm {
            assert!(!seen[src], "permutation repeats element {src}");
            seen[src] = true;
            indices.extend_from_slice(self.coords(src));
            values.push(self.values[src]);
        }
        SparseTensor {
            shape: self.shape.clone(),
            indices,
            values,
        }
    }

    /// The tensor with its elements stably sorted by their mode-`d`
    /// coordinate, every coordinate kept: a `sort_by_key` over a permutation,
    /// the plain statement of what [`SparseTensor::sorted_copy`] and the
    /// `.tnsb` sorted sections hold, which tests compare them against.
    pub fn sorted_by_mode(&self, d: usize) -> SparseTensor {
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        perm.sort_by_key(|&e| self.idx(e, d));
        self.permuted(&perm)
    }

    /// Lexicographic sort of elements by the mode order given in `mode_order`
    /// (first entry = most significant). Used by the CSF and linearized-format
    /// builders.
    pub fn sorted_lex(&self, mode_order: &[usize]) -> SparseTensor {
        assert_eq!(mode_order.len(), self.order(), "mode order arity mismatch");
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        perm.sort_by(|&a, &b| {
            for &m in mode_order {
                match self.idx(a, m).cmp(&self.idx(b, m)) {
                    core::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            core::cmp::Ordering::Equal
        });
        self.permuted(&perm)
    }

    /// Merges duplicate coordinates by summing their values, returning a
    /// tensor with unique coordinates in lexicographic order.
    pub fn deduplicated(&self) -> SparseTensor {
        let order: Vec<usize> = (0..self.order()).collect();
        let sorted = self.sorted_lex(&order);
        let mut out = SparseTensor::with_capacity(self.shape.clone(), sorted.nnz());
        let mut e = 0;
        while e < sorted.nnz() {
            let coords = sorted.coords(e).to_vec();
            let mut v = sorted.value(e);
            let mut j = e + 1;
            while j < sorted.nnz() && sorted.coords(j) == coords.as_slice() {
                v += sorted.value(j);
                j += 1;
            }
            out.indices.extend_from_slice(&coords);
            out.values.push(v);
            e = j;
        }
        out
    }

    /// Sum of squared values `‖X‖²`, accumulated in `f64` (used by CP fit).
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseTensor {
        let mut t = SparseTensor::new(vec![3, 4, 5]);
        t.push(&[2, 0, 1], 1.0);
        t.push(&[0, 3, 4], 2.0);
        t.push(&[1, 1, 1], 3.0);
        t.push(&[0, 0, 0], 4.0);
        t
    }

    #[test]
    fn basic_accessors() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.dim(2), 5);
        assert_eq!(t.coords(1), &[0, 3, 4]);
        assert_eq!(t.value(2), 3.0);
        assert_eq!(t.elem_bytes(), 16);
        assert_eq!(t.bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_rejects_out_of_bounds() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[2, 0], 1.0);
    }

    #[test]
    fn mode_hist_counts() {
        let t = small();
        assert_eq!(t.mode_hist(0), vec![2, 1, 1]);
        assert_eq!(t.mode_hist(1), vec![2, 1, 0, 1]);
    }

    #[test]
    fn sorted_by_mode_groups_indices() {
        let t = small().sorted_by_mode(0);
        let keys: Vec<Idx> = (0..t.nnz()).map(|e| t.idx(e, 0)).collect();
        assert_eq!(keys, vec![0, 0, 1, 2]);
        // Stability: original order preserved within the same key.
        assert_eq!(t.value(0), 2.0);
        assert_eq!(t.value(1), 4.0);
    }

    /// Coordinates from a small LCG over `shape`, `rows` restricting mode 0.
    fn drawn(shape: &[Idx], nnz: usize, rows: std::ops::Range<Idx>) -> SparseTensor {
        let mut t = SparseTensor::new(shape.to_vec());
        let mut state = 0x2545_F491_4F6C_DD1Du64 ^ (nnz as u64) << 8 ^ shape.len() as u64;
        let mut next = |bound: Idx| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % bound as u64) as Idx
        };
        for e in 0..nnz {
            let mut coords: Vec<Idx> = shape.iter().map(|&s| next(s)).collect();
            coords[0] = rows.start + next(rows.end - rows.start);
            t.push(&coords, e as Val);
        }
        t
    }

    /// The direct scatter is a stable sort by the mode-`d` coordinate: on
    /// every shape its copy must reassemble to exactly what `sort_by_key`
    /// (stable) gives — small dimensions make duplicates the rule — with
    /// row pointers that are the histogram's prefix sums and nothing but the
    /// input coordinates stored per element.
    #[test]
    fn sorted_by_mode_equals_a_stable_sort_by_key() {
        let mut cases = vec![
            SparseTensor::new(vec![4, 3]), // nnz 0
            drawn(&[9, 6, 5], 150, 4..5),  // every nonzero in one row
            drawn(&[12, 6, 5], 150, 3..8), // empty rows at both ends
            drawn(&[1, 1], 20, 0..1),      // nothing but duplicates
            drawn(&[9], 40, 0..9),         // order 1: no input coordinates
        ];
        for order in 2..=5 {
            // A dimension of 1 in every tensor of order ≥ 2; order 5 last.
            cases.push(drawn(&[7, 1, 5, 3, 4][..order], 200, 0..7));
        }
        for t in &cases {
            for d in 0..t.order() {
                let want = t.sorted_by_mode(d);
                let hist = t.mode_hist(d);
                let copy = t.sorted_copy(d, &hist);
                assert_eq!(copy.to_tensor(), want, "shape {:?} mode {d}", t.shape());
                assert_eq!((copy.mode(), copy.nnz()), (d, t.nnz()));
                assert_eq!(copy.inputs().len(), t.nnz() * (t.order() - 1));
                let widths: Vec<u64> = copy
                    .row_ptr()
                    .windows(2)
                    .map(|w| (w[1] - w[0]) as u64)
                    .collect();
                assert_eq!(widths, hist);
                assert_eq!(copy.norm_sq().to_bits(), want.norm_sq().to_bits());
                let pointers = 8 * (t.dim(d) as u64 + 1);
                assert_eq!(
                    copy.resident_bytes(),
                    4 * t.order() as u64 * t.nnz() as u64 + pointers
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not this tensor's mode-0 histogram")]
    fn sorted_copy_rejects_a_foreign_histogram() {
        // Right length, right sum, wrong rows.
        let _ = small().sorted_copy(0, &[1, 2, 1]);
    }

    #[test]
    fn sorted_lex_orders_all_modes() {
        let t = small().sorted_lex(&[0, 1, 2]);
        let mut prev: Option<Vec<Idx>> = None;
        for e in 0..t.nnz() {
            let cur = t.coords(e).to_vec();
            if let Some(p) = prev {
                assert!(p <= cur, "not lexicographically sorted");
            }
            prev = Some(cur);
        }
    }

    #[test]
    fn dedup_sums_values() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[0, 1], 1.0);
        t.push(&[0, 1], 2.5);
        t.push(&[1, 0], 1.0);
        let d = t.deduplicated();
        assert_eq!(d.nnz(), 2);
        let m: Vec<(Vec<Idx>, Val)> = d.iter().map(|e| (e.coords.to_vec(), e.val)).collect();
        assert!(m.contains(&(vec![0, 1], 3.5)));
        assert!(m.contains(&(vec![1, 0], 1.0)));
    }

    #[test]
    fn permuted_round_trip() {
        let t = small();
        let perm = vec![3, 2, 1, 0];
        let p = t.permuted(&perm);
        let back = p.permuted(&perm);
        assert_eq!(back, t);
    }

    #[test]
    #[should_panic(expected = "repeats element")]
    fn permuted_rejects_non_permutation() {
        let t = small();
        let _ = t.permuted(&[0, 0, 1, 2]);
    }

    #[test]
    fn norm_sq_matches_manual() {
        let t = small();
        assert!((t.norm_sq() - (1.0 + 4.0 + 9.0 + 16.0)).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_corrupt_indices() {
        let t = SparseTensor {
            shape: vec![2, 2],
            indices: vec![0, 5],
            values: vec![1.0],
        };
        assert!(t.validate().is_err());
    }
}
