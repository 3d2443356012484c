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
//! element-major layout [`SortedCoo`] borrows, for callers whose data is
//! *not* sorted yet — the autotuner's probe subsample and the
//! `reference::compile_mode` probe of the benchmark harness.

use crate::kernels::SortedCoo;

/// Element-major COO arrays stably sorted by one mode's coordinate, owned.
/// Lend it to the kernel layer with [`CompiledShard::sorted_coo`].
///
/// The type keeps PR 9's name because `amped_core::reference::compile_mode`
/// returns it to `benchmark/src/surface.rs`, which this tree may not edit.
#[derive(Debug)]
pub struct CompiledShard {
    d: usize,
    order: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CompiledShard {
    /// Copies `indices` (`values.len() × order`, element-major) and `values`
    /// sorted by their mode-`d` coordinate. The sort is *stable*: elements of
    /// one output row keep their original order, so every cell sums its
    /// elements in the order the unsorted source would.
    pub fn compile(indices: &[u32], values: &[f32], order: usize, d: usize) -> Self {
        assert!(d < order, "output mode {d} out of range for order {order}");
        assert_eq!(
            indices.len(),
            values.len() * order,
            "coordinate array length mismatch"
        );
        let mut perm: Vec<usize> = (0..values.len()).collect();
        perm.sort_by_key(|&e| indices[e * order + d]);
        Self {
            d,
            order,
            indices: perm
                .iter()
                .flat_map(|&e| &indices[e * order..(e + 1) * order])
                .copied()
                .collect(),
            values: perm.iter().map(|&e| values[e]).collect(),
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

    /// The copy as the run path's borrowed view.
    pub fn sorted_coo(&self) -> SortedCoo<'_> {
        SortedCoo::new(&self.indices, &self.values, self.order, self.d)
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
        assert_eq!(
            cs.indices,
            vec![0, 1, 0, 0, 0, 0, 1, 1, 1, 2, 0, 1, 2, 1, 1]
        );
        assert!(cs.sorted_coo().sorted_coo(0).is_some());
        assert!(cs.sorted_coo().sorted_coo(1).is_none());
    }

    #[test]
    fn empty_input_compiles_to_an_empty_copy() {
        let cs = CompiledShard::compile(&[], &[], 3, 1);
        assert_eq!((cs.mode(), cs.nnz()), (1, 0));
    }
}
