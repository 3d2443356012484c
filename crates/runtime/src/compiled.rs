//! An owned mode-sorted copy of a shard — what is left of PR 9's *compiled
//! dispatch*.
//!
//! PR 9 compiled each `(mode, shard)` pair into a second sorted layout (CSR
//! segment pointers plus mode-major gathered coordinates) with its own
//! segmented-reduction kernel, per-engine caches and a tuner axis. Since
//! PRs 12–13 both engines hand the kernel layer data that is already sorted
//! by the output mode and run it through the row-run path, which beat the
//! compiled kernel on every workload, so the kernel, the caches and the
//! option are gone (DESIGN.md §13). The one part that was not a duplicate
//! stays: the stable sort by output coordinate into an owned copy in the
//! layout [`SortedCoo`] borrows, for callers whose data is *not* sorted yet
//! — the autotuner's probe subsample and the `reference::compile_mode`
//! probe of the benchmark harness.

use crate::kernels::SortedCoo;

/// A copy stably sorted by one mode's coordinate, owned, in the layout of
/// the engines' copies: per element the input coordinates and value, per
/// row one pointer. Lend it to the kernel layer with
/// [`CompiledShard::sorted_coo`].
///
/// The type keeps PR 9's name because `amped_core::reference::compile_mode`
/// returns it to `benchmark/src/surface.rs`, which this tree may not edit.
#[derive(Debug)]
pub struct CompiledShard {
    d: usize,
    order: usize,
    inputs: Vec<u32>,
    values: Vec<f32>,
    /// Rows `0..=max coordinate` of mode `d`.
    row_ptr: Vec<usize>,
}

impl CompiledShard {
    /// Copies `indices` (`values.len() × order`, element-major) and `values`
    /// sorted by their mode-`d` coordinate, by counting sort: the mode's
    /// histogram gives the row pointers, and one pass scatters every
    /// element's input coordinates and value to its row's cursor. The sort
    /// is *stable*: elements of one output row keep their original order,
    /// so every cell sums its elements in the order the unsorted source
    /// would.
    pub fn compile(indices: &[u32], values: &[f32], order: usize, d: usize) -> Self {
        assert!(d < order, "output mode {d} out of range for order {order}");
        assert_eq!(
            indices.len(),
            values.len() * order,
            "coordinate array length mismatch"
        );
        // Row `r`'s count lands in `row_ptr[r + 1]`; prefix sums then make
        // the counts pointers.
        let mut row_ptr = vec![0usize];
        for c in indices.chunks_exact(order) {
            let next = c[d] as usize + 1;
            if next >= row_ptr.len() {
                row_ptr.resize(next + 1, 0);
            }
            row_ptr[next] += 1;
        }
        let mut at = 0;
        for p in &mut row_ptr {
            at += *p;
            *p = at;
        }
        let k = order - 1;
        let mut cursor = row_ptr[..row_ptr.len() - 1].to_vec();
        let mut inputs = vec![0u32; values.len() * k];
        let mut sorted = vec![0f32; values.len()];
        for (src, &val) in indices.chunks_exact(order).zip(values) {
            let at = &mut cursor[src[d] as usize];
            for (j, c) in inputs[*at * k..(*at + 1) * k].iter_mut().enumerate() {
                *c = src[j + usize::from(j >= d)];
            }
            sorted[*at] = val;
            *at += 1;
        }
        Self {
            d,
            order,
            inputs,
            values: sorted,
            row_ptr,
        }
    }

    /// The mode the copy is sorted by.
    pub fn mode(&self) -> usize {
        self.d
    }

    /// Number of nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The copy as the kernel layer's borrowed view.
    pub fn sorted_coo(&self) -> SortedCoo<'_> {
        SortedCoo::new(
            &self.inputs,
            &self.values,
            &self.row_ptr,
            None,
            self.order,
            self.d,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::EcSource;

    #[test]
    fn compile_builds_sorted_segments() {
        let coords: [u32; 15] = [2, 0, 1, 0, 1, 0, 2, 1, 1, 0, 0, 0, 1, 1, 1];
        let vals = [1.0, -2.0, 0.5, 3.0, 4.0];
        let cs = CompiledShard::compile(&coords, &vals, 3, 0);
        assert_eq!((cs.mode(), cs.nnz()), (0, 5));
        // One contiguous segment per output row; within row 0 the stable
        // sort keeps element 1 before element 3, within row 2 0 before 2.
        assert_eq!(cs.values, vec![-2.0, 3.0, 4.0, 1.0, 0.5]);
        assert_eq!(cs.row_ptr, vec![0, 2, 3, 5]);
        assert_eq!(cs.inputs, vec![1, 0, 0, 0, 1, 1, 0, 1, 1, 1]);
        assert!(cs.sorted_coo().sorted_coo(0).is_some());
        assert!(cs.sorted_coo().sorted_coo(1).is_none());
        // Along mode 2: rows 0 and 1, the input coordinates modes 0 and 1.
        let cs = CompiledShard::compile(&coords, &vals, 3, 2);
        assert_eq!(cs.row_ptr, vec![0, 2, 5]);
        assert_eq!(cs.values, vec![-2.0, 3.0, 1.0, 0.5, 4.0]);
        assert_eq!(cs.inputs, vec![0, 1, 0, 0, 2, 0, 2, 1, 1, 1]);
    }

    #[test]
    fn empty_input_compiles_to_an_empty_copy() {
        let cs = CompiledShard::compile(&[], &[], 3, 1);
        assert_eq!((cs.mode(), cs.nnz()), (1, 0));
        assert_eq!(cs.row_ptr, vec![0]);
    }
}
