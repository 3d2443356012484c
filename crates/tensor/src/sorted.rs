//! A tensor copy sorted by one mode, storing per row what is per row.

use crate::{Idx, SparseTensor, Val};

/// The nonzeros of a tensor stably sorted by their mode-`d` coordinate (ties
/// in the source's element order), laid out as CSF's root level: each nonzero
/// keeps its `order − 1` *input* coordinates — every mode but `d`, in
/// ascending mode order — and its value, and each index of mode `d` keeps one
/// row pointer. Row `i` owns elements `row_ptr[i]..row_ptr[i + 1]`, so its
/// mode-`d` coordinate is stored once instead of once per nonzero.
///
/// This is the in-memory form of the paper's per-mode tensor copies (§3.1):
/// `4 × order` bytes per nonzero plus `8 × (dim_d + 1)` for the pointers
/// ([`SortedCopy::resident_bytes`]). The simulator still charges the paper's
/// COO element ([`SortedCopy::elem_bytes`]) for holding and streaming it.
#[derive(Clone, Debug, PartialEq)]
pub struct SortedCopy {
    shape: Vec<Idx>,
    mode: usize,
    /// `nnz × (order − 1)`, element-major.
    inputs: Vec<Idx>,
    values: Vec<Val>,
    /// `dim_d + 1` entries, from 0 to nnz.
    row_ptr: Vec<usize>,
}

impl SortedCopy {
    /// The mode the copy is sorted by (its output mode).
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Number of tensor modes.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Mode sizes of the tensor.
    pub fn shape(&self) -> &[Idx] {
        &self.shape
    }

    /// Size of mode `m`.
    pub fn dim(&self, m: usize) -> Idx {
        self.shape[m]
    }

    /// Number of nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The input coordinates, element-major: element `e`'s are
    /// `inputs[e × (order − 1)..(e + 1) × (order − 1)]`, mode `mode()`
    /// skipped.
    pub fn inputs(&self) -> &[Idx] {
        &self.inputs
    }

    /// The values, element `e` beside its input coordinates.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Row pointers (`dim_d + 1` entries): row `i` owns elements
    /// `row_ptr[i]..row_ptr[i + 1]`.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Bytes of one COO element of this tensor (`order` coordinates plus a
    /// value) — what the simulator charges per nonzero of a copy, as the
    /// paper's copies are COO.
    pub fn elem_bytes(&self) -> u64 {
        (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<Val>()) as u64
    }

    /// Bytes the copy holds: its input coordinates, values and row pointers.
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.inputs.as_slice())
            + std::mem::size_of_val(self.values.as_slice())
            + std::mem::size_of_val(self.row_ptr.as_slice())) as u64
    }

    /// Sum of squared values `‖X‖²`, accumulated in `f64` in element order.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// The same elements in the same order with every coordinate spelled
    /// out — the form tests compare against
    /// [`SparseTensor::sorted_by_mode`].
    #[cfg(test)]
    pub(crate) fn to_tensor(&self) -> SparseTensor {
        let (n, d) = (self.order(), self.mode);
        let mut t = SparseTensor::with_capacity(self.shape.clone(), self.nnz());
        let mut coords = vec![0 as Idx; n];
        for (row, w) in self.row_ptr.windows(2).enumerate() {
            for e in w[0]..w[1] {
                let inputs = &self.inputs[e * (n - 1)..(e + 1) * (n - 1)];
                coords[..d].copy_from_slice(&inputs[..d]);
                coords[d] = row as Idx;
                coords[d + 1..].copy_from_slice(&inputs[d..]);
                t.push(&coords, self.values[e]);
            }
        }
        t
    }
}

impl SparseTensor {
    /// The mode-`d` [`SortedCopy`] of this tensor, given its mode-`d`
    /// histogram: the row pointers are the histogram's prefix sums, and one
    /// sequential read of the source scatters each element's input
    /// coordinates and value straight to its row's cursor — a stable
    /// counting sort in `O(nnz + I_d)` with no permutation and no
    /// full-coordinate copy, the per-mode preprocessing pass of the AMPED
    /// partitioner.
    ///
    /// # Panics
    /// Panics if `hist` is not the mode-`d` histogram of this tensor.
    pub fn sorted_copy(&self, d: usize, hist: &[u64]) -> SortedCopy {
        assert_eq!(hist.len(), self.dim(d) as usize, "histogram/mode mismatch");
        let mut row_ptr = Vec::with_capacity(hist.len() + 1);
        let mut at = 0usize;
        row_ptr.push(at);
        for &h in hist {
            at += h as usize;
            row_ptr.push(at);
        }
        assert_eq!(at, self.nnz(), "histogram does not sum to nnz");
        let n = self.order();
        let k = n - 1;
        let mut cursor = row_ptr[..hist.len()].to_vec();
        let mut inputs = vec![0 as Idx; self.nnz() * k];
        let mut values = vec![0.0 as Val; self.nnz()];
        for (src, &val) in self.indices_flat().chunks_exact(n).zip(self.values()) {
            let at = &mut cursor[src[d] as usize];
            let dst = &mut inputs[*at * k..(*at + 1) * k];
            for (j, c) in dst.iter_mut().enumerate() {
                *c = src[j + usize::from(j >= d)];
            }
            values[*at] = val;
            *at += 1;
        }
        // Every cursor must have stopped at its row's end: a histogram with
        // the right sum but the wrong counts spills one row into the next.
        assert!(
            cursor.iter().zip(&row_ptr[1..]).all(|(c, end)| c == end),
            "histogram is not this tensor's mode-{d} histogram"
        );
        SortedCopy {
            shape: self.shape().to_vec(),
            mode: d,
            inputs,
            values,
            row_ptr,
        }
    }
}
