//! The kernel layer: rank-blocked MTTKRP over output-sorted row runs.
//!
//! Every execution path in the workspace — the AMPED engine, the OOC engine,
//! the baseline systems, and the host reference kernels — funnels its
//! elementwise computation (paper §3.0.1) through this module instead of
//! hand-rolling per-element atomic updates. What a launch executes is always
//! a [`SortedCoo`] view, a tensor sorted by the launch's output mode (paper
//! §3.1): the in-core engine's per-mode copies, the out-of-core engine's
//! chunks read from the `.tnsb` file's sorted sections, FLYCOO's resident
//! copy, and [`CompiledShard`] copies of everything else (the equal-nnz
//! streamed pieces, BLCO blocks, ParTI's HiCOO elements, the host reference
//! and the autotuner's probe). Which of its two paths a launch takes follows
//! from its block count, never from an option:
//!
//! * **Direct** (single-block grids): the block walks its elements as row
//!   runs and accumulates straight into the shared output in element order
//!   with `f32` products and plain `f32` adds. One block means one writer,
//!   so no atomics are needed, and the value sequence reproduces the
//!   historical CAS-loop execution bit for bit — this is what keeps
//!   `tests/runtime_equivalence.rs` golden.
//! * **Run** (multi-block grids): a block walks its element range as *runs*
//!   of equal output row through the view's row pointers, accumulates each
//!   run in an `f64` register tile, rounds the rows that lie strictly inside
//!   the block into the output itself, and hands back at most two *edge
//!   partials* — the runs touching its first and last element, the only
//!   rows another block can share. After the grid joins the edge partials
//!   fold **in block-index order**. A hot row spanning many blocks is split
//!   across them (Nisa et al.'s and Wijeratne et al.'s output-sorted
//!   formulation).
//!
//! **The run path's arithmetic contract.** Cell by cell it computes: per
//! block, an `f64` partial from `+0.0` over the block's elements of that row
//! in element order; the partials of the blocks holding that row summed from
//! `+0.0` in block-index order; an exact-zero total skipped, any other total
//! added to the widened cell and rounded to `f32` once per launch. A row
//! strictly inside a block has no other block's partial, so it is rounded on
//! the spot; the rows at a block's ends are exactly the ones the fold
//! handles. `tests/prop_kernel_runs.rs` holds the run path to a scalar
//! oracle of this contract in bits. It does not depend on the host worker
//! count, because the fold order is fixed by block index.
//!
//! Sortedness is the view's structure, not a claim: a [`SortedCoo`] stores
//! each row once, as a pointer, and [`SortedCoo::new`] checks the pointers
//! once (from 0, never decreasing, ending at nnz). A block finds its first
//! row with one bisection and walks the pointers from there. The one order
//! left to check is the blocks': the edge fold panics if rows decrease from
//! one block to the next, so blocks out of element order are a contract
//! panic, never a silently wrong factor.
//!
//! The inner loop is *rank-blocked* the way Tensor Toolbox chunks sptensor
//! `mttkrp` (`nzchunk` × `rchunk`): the factor-column loop is tiled by
//! [`TuneParams::rank_chunk`] so the per-element Hadamard partial stays in
//! registers and the factor-row working set per pass shrinks at large rank.
//! The run path cuts each chunk further into monomorphic fixed-width tiles
//! (`column_tiles`), and for orders 3 and 5 also makes the input-mode count
//! a compile-time constant of its per-run loop (`RunGrid::tile_n`): the
//! input factors are hoisted out of the element loop and no coordinate read
//! is bounds-checked. Other orders run the same arithmetic at a runtime
//! order. Rank blocking never reorders the per-cell
//! accumulation over elements — each output cell still sums its elements in
//! element order, whatever the tile width — so *every* `rank_chunk` is
//! bit-transparent on both paths, which is what lets the autotuner search
//! it freely. (Direct accumulates in `f32` and owes the sequential `f64`
//! reference only its legacy error; run stays within one `f32` ulp of it.)

pub use crate::compiled::CompiledShard;
use crate::params::{TuneParams, MAX_RANK_CHUNK};
use crate::runtime::DeviceRuntime;
use crate::smexec::{execute_blocks, GridTiming};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// A borrowed mode-sorted tensor in the layout of CSF's root level — the
/// shape of the engines' per-mode tensor copies (paper §3.1) and of a
/// `.tnsb` sorted-section chunk: each nonzero's `order − 1` input
/// coordinates (ascending modes, `sorted_mode` skipped) and value, and one
/// pointer per row. Sortedness is the structure itself: segment `i`,
/// elements `row_ptr[i]..row_ptr[i + 1]`, is row `i` — a pointer for every
/// row of the mode, as an engine's copy has — or row `row_ids[i]` when the
/// rows are listed (CSF's fiber ids), as a streamed chunk's are: it keeps a
/// pointer only for the rows it holds, so it costs O(nnz) however far apart
/// they lie. It is what every launch executes, for output mode
/// `sorted_mode`.
#[derive(Clone, Copy)]
pub struct SortedCoo<'a> {
    inputs: &'a [u32],
    values: &'a [f32],
    row_ptr: &'a [usize],
    row_ids: Option<&'a [u32]>,
    order: usize,
    sorted_mode: usize,
}

impl<'a> SortedCoo<'a> {
    /// Wraps `inputs` (`values.len() × (order − 1)`, element-major),
    /// `values`, the row pointers and, if the rows are listed, their ids,
    /// checking them once: the pointers must start at 0, never decrease,
    /// and end at `values.len()`; listed ids must be one per segment and
    /// strictly ascending.
    ///
    /// # Panics
    /// Panics if the arrays do not describe such a copy.
    pub fn new(
        inputs: &'a [u32],
        values: &'a [f32],
        row_ptr: &'a [usize],
        row_ids: Option<&'a [u32]>,
        order: usize,
        sorted_mode: usize,
    ) -> Self {
        assert!(
            sorted_mode < order,
            "sorted mode {sorted_mode} out of range for order {order}"
        );
        assert_eq!(
            inputs.len(),
            values.len() * (order - 1),
            "coordinate array length mismatch"
        );
        assert!(
            row_ptr.first() == Some(&0) && row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row pointers must start at 0 and never decrease"
        );
        assert_eq!(
            row_ptr.last(),
            Some(&values.len()),
            "row pointers must end at nnz"
        );
        if let Some(ids) = row_ids {
            assert_eq!(ids.len() + 1, row_ptr.len(), "one row id per segment");
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "row ids must strictly ascend"
            );
        }
        Self {
            inputs,
            values,
            row_ptr,
            row_ids,
            order,
            sorted_mode,
        }
    }

    /// The row of segment `i`.
    #[inline]
    fn row(&self, i: usize) -> usize {
        self.row_ids.map_or(i, |ids| ids[i] as usize)
    }

    /// The runs of equal row among elements `range`, ascending: `(row,
    /// elements)`, empty rows skipped. One bisection finds the row of the
    /// first element; the rest is a walk of the row pointers.
    fn runs(&self, range: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let mut r = self.row_ptr.partition_point(|&p| p <= range.start);
        let mut e = range.start;
        std::iter::from_fn(move || {
            if e >= range.end {
                return None;
            }
            while self.row_ptr[r] <= e {
                r += 1;
            }
            let run = e..self.row_ptr[r].min(range.end);
            e = run.end;
            Some((self.row(r - 1), run))
        })
    }

    /// Element `e`'s input coordinates, in ascending mode order.
    #[inline]
    fn inputs_of(&self, e: usize) -> &'a [u32] {
        let k = self.order - 1;
        &self.inputs[e * k..(e + 1) * k]
    }
}

/// Borrowed views of all factor matrices (row-major, equal rank): the kernel
/// reads input-mode rows through this without depending on any matrix crate.
pub struct FactorsView<'a> {
    mats: Vec<&'a [f32]>,
    rank: usize,
}

impl<'a> FactorsView<'a> {
    /// Wraps row-major factor slices of column count `rank`.
    pub fn new(mats: Vec<&'a [f32]>, rank: usize) -> Self {
        assert!(rank > 0, "rank must be positive");
        debug_assert!(mats.iter().all(|m| m.len() % rank == 0));
        Self { mats, rank }
    }

    /// Number of factor matrices (the tensor order).
    pub fn order(&self) -> usize {
        self.mats.len()
    }

    /// Factor rank (columns of every matrix).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Row `i` of factor `m`.
    #[inline]
    fn row(&self, m: usize, i: usize) -> &'a [f32] {
        &self.mats[m][i * self.rank..(i + 1) * self.rank]
    }

    /// All of factor `m`, row-major.
    #[inline]
    fn mat(&self, m: usize) -> &'a [f32] {
        self.mats[m]
    }
}

/// The shared MTTKRP output buffer: a dense row-major `f32` matrix whose
/// cells are `AtomicU32` bit patterns so the blocks of a grid and the edge
/// fold can write through a shared reference without `unsafe`. Writes are
/// single-writer by construction (one direct block, a row strictly inside
/// one run-path block, or the sequential edge fold), so plain
/// load/add/store suffices — no compare-exchange loops.
#[derive(Debug)]
pub struct MttkrpOut {
    rows: usize,
    rank: usize,
    cells: Vec<AtomicU32>,
}

impl MttkrpOut {
    /// An all-zero output of `rows` × `rank`.
    pub fn zeros(rows: usize, rank: usize) -> Self {
        let mut cells = Vec::with_capacity(rows * rank);
        cells.resize_with(rows * rank, || AtomicU32::new(0f32.to_bits()));
        Self { rows, rank, cells }
    }

    /// Number of output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Factor rank (columns).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Reads entry `(r, c)` (valid once all writers are joined).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        // relaxed: per the doc contract, reads are only valid after writers
        // are joined; the join edge orders them, not this load.
        f32::from_bits(self.cells[r * self.rank + c].load(Ordering::Relaxed))
    }

    /// Snapshot into a plain row-major vector (valid once all writers are
    /// joined).
    pub fn to_vec(&self) -> Vec<f32> {
        // relaxed: same post-join contract as `get`.
        self.cells
            .iter()
            .map(|a| f32::from_bits(a.load(Ordering::Relaxed)))
            .collect()
    }

    /// The cells as a plain row-major vector, in place: std's in-place
    /// collect reuses the `AtomicU32` buffer for the `f32`s (same size and
    /// alignment), so nothing is copied or allocated.
    pub fn into_vec(self) -> Vec<f32> {
        self.cells
            .into_iter()
            .map(|cell| f32::from_bits(cell.into_inner()))
            .collect()
    }

    /// Single-writer `f32` add at flat index `idx` — the legacy accumulation
    /// order of the direct path.
    #[inline]
    fn add_f32(&self, idx: usize, v: f32) {
        let cell = &self.cells[idx];
        // relaxed: single-writer cell (row ownership partitions writers), so
        // the load/store pair never races; joins publish the final value.
        let cur = f32::from_bits(cell.load(Ordering::Relaxed));
        cell.store((cur + v).to_bits(), Ordering::Relaxed);
    }

    /// Single-writer merge of one row's `f64` totals: every nonzero total is
    /// added to its widened cell and rounded once; exact-zero totals are
    /// skipped so cells the launch never touched keep their bits (a `-0.0`
    /// stays `-0.0`).
    fn merge_row(&self, row: usize, totals: &[f64]) {
        let cells = &self.cells[row * self.rank..(row + 1) * self.rank];
        for (cell, &v) in cells.iter().zip(totals) {
            if v != 0.0 {
                // relaxed: single-writer cell (a row strictly inside one
                // block, or the sequential edge fold); joins publish it.
                let cur = f32::from_bits(cell.load(Ordering::Relaxed)) as f64;
                cell.store(((cur + v) as f32).to_bits(), Ordering::Relaxed);
            }
        }
    }
}

/// Lane counts of the run path's column tiles, widest first. Each is its
/// own monomorphic [`RunGrid::tile`], so the lane loops have constant trip
/// counts and vectorize; the power-of-two ladder down to one lane means
/// every rank and every `rank_chunk` decomposes exactly, with no
/// dynamic-width tile.
const TILE_LANES: [usize; 6] = [32, 16, 8, 4, 2, 1];

/// Cuts `0..rank` into the run path's column tiles: `rank_chunk`-wide chunks
/// (the tuned width is never exceeded), each chunk greedily into the widest
/// [`TILE_LANES`] entries that fit. Rank 40 at chunk 32 is `[32, 8]`; rank 7
/// is `[4, 2, 1]`; chunk 1 is all single lanes.
fn column_tiles(rank: usize, rank_chunk: usize) -> Vec<Range<usize>> {
    let mut tiles = Vec::new();
    for chunk in (0..rank).step_by(rank_chunk) {
        let end = (chunk + rank_chunk).min(rank);
        let mut c0 = chunk;
        for w in TILE_LANES {
            while end - c0 >= w {
                tiles.push(c0..c0 + w);
                c0 += w;
            }
        }
    }
    tiles
}

/// One block-end run's `f64` totals: the only rows of a sorted block that
/// another block may also hold, so they are folded after the join instead
/// of being rounded by the block.
struct EdgePartial {
    row: usize,
    acc: Vec<f64>,
}

/// What the blocks of one launch over a [`SortedCoo`] view share.
struct RunGrid<'a> {
    /// The source; its `sorted_mode` is the launch's output mode.
    coo: SortedCoo<'a>,
    /// All modes but the output mode, ascending — the modes of an
    /// element's input coordinates, in the Hadamard product's order.
    in_modes: Vec<usize>,
    factors: &'a FactorsView<'a>,
    tiles: Vec<Range<usize>>,
}

impl RunGrid<'_> {
    /// Accumulates columns `c0..c0 + W` of one run (elements `run`, all of
    /// one output row) into `dst`: per element the `f64` Hadamard product
    /// over the input modes in ascending order, summed from `+0.0` in
    /// element order, held in a register tile.
    ///
    /// Orders 3 and 5 — the orders of every dataset and workload — take
    /// [`Self::tile_n`], whose input-mode count is a compile-time constant.
    /// Any other order takes [`Self::tile_any`].
    #[inline]
    fn tile<const W: usize>(&self, run: Range<usize>, c0: usize, dst: &mut [f64]) {
        let acc = match self.coo.order {
            3 => self.tile_n::<W, 2>(run, c0),
            5 => self.tile_n::<W, 4>(run, c0),
            _ => self.tile_any::<W>(run, c0),
        };
        dst[c0..c0 + W].copy_from_slice(&acc);
    }

    /// [`Self::tile`] at a fixed order: an element's input coordinates come
    /// as one `[u32; N]` chunk, zipped with the `N` input modes' factor
    /// slices (already offset to column `c0`), which are hoisted into an
    /// array once per call — no coordinate read is bounds-checked; the one
    /// check left per element and mode is the factor row's, which a
    /// coordinate past its factor's rows must fail.
    #[inline]
    fn tile_n<const W: usize, const N: usize>(&self, run: Range<usize>, c0: usize) -> [f64; W] {
        let mats: [&[f32]; N] = std::array::from_fn(|k| &self.factors.mat(self.in_modes[k])[c0..]);
        let rank = self.factors.rank();
        let (inputs, _) = self.coo.inputs[run.start * N..run.end * N].as_chunks::<N>();
        let mut acc = [0.0f64; W];
        for (coords, &v) in inputs.iter().zip(&self.coo.values[run]) {
            let mut prod = [v as f64; W];
            for (mat, &i) in mats.iter().zip(coords) {
                let base = i as usize * rank;
                for (p, &x) in prod.iter_mut().zip(&mat[base..base + W]) {
                    *p *= x as f64;
                }
            }
            for (a, p) in acc.iter_mut().zip(prod) {
                *a += p;
            }
        }
        acc
    }

    /// [`Self::tile`] at any order: the input modes walked from
    /// `in_modes`, each element's coordinates a slice of runtime length.
    fn tile_any<const W: usize>(&self, run: Range<usize>, c0: usize) -> [f64; W] {
        let mut acc = [0.0f64; W];
        for (e, &v) in run.clone().zip(&self.coo.values[run]) {
            let mut prod = [v as f64; W];
            for (&m, &i) in self.in_modes.iter().zip(self.coo.inputs_of(e)) {
                let row = &self.factors.row(m, i as usize)[c0..c0 + W];
                for (p, &x) in prod.iter_mut().zip(row) {
                    *p *= x as f64;
                }
            }
            for (a, p) in acc.iter_mut().zip(prod) {
                *a += p;
            }
        }
        acc
    }

    /// Executes one block: walks `range` as runs of equal output row,
    /// accumulates each run tile by tile, rounds interior rows into `out`,
    /// and returns the edge partials (first run, then last run if it is a
    /// different one) in element order. Empty blocks return none.
    fn block(&self, range: Range<usize>, out: &MttkrpOut) -> Vec<EdgePartial> {
        let mut edges = Vec::new();
        let mut acc = vec![0.0f64; self.factors.rank()];
        for (row, run) in self.coo.runs(range.clone()) {
            let edge = run.start == range.start || run.end == range.end;
            for t in &self.tiles {
                let (run, c0) = (run.clone(), t.start);
                match t.len() {
                    32 => self.tile::<32>(run, c0, &mut acc),
                    16 => self.tile::<16>(run, c0, &mut acc),
                    8 => self.tile::<8>(run, c0, &mut acc),
                    4 => self.tile::<4>(run, c0, &mut acc),
                    2 => self.tile::<2>(run, c0, &mut acc),
                    _ => self.tile::<1>(run, c0, &mut acc),
                }
            }
            if edge {
                edges.push(EdgePartial {
                    row,
                    acc: acc.clone(),
                });
            } else {
                out.merge_row(row, &acc);
            }
        }
        edges
    }

    /// The direct path: the runs of `range` in element order, `f32`
    /// products over the input modes in ascending order and one `f32` add
    /// per element and column — the legacy single-writer sequence,
    /// bit-identical to the pre-kernel-layer CAS loop.
    fn direct(&self, range: Range<usize>, rank_chunk: usize, out: &MttkrpOut) {
        let rank = self.factors.rank();
        let mut prod = [0.0f32; MAX_RANK_CHUNK];
        for c0 in (0..rank).step_by(rank_chunk) {
            let cw = rank_chunk.min(rank - c0);
            for (row, run) in self.coo.runs(range.clone()) {
                let base = row * rank + c0;
                for e in run {
                    let prod = &mut prod[..cw];
                    prod.fill(self.coo.values[e]);
                    for (&m, &i) in self.in_modes.iter().zip(self.coo.inputs_of(e)) {
                        let factor_row = &self.factors.row(m, i as usize)[c0..c0 + cw];
                        for (p, &x) in prod.iter_mut().zip(factor_row) {
                            *p *= x;
                        }
                    }
                    for (c, &p) in prod.iter().enumerate() {
                        out.add_f32(base + c, p);
                    }
                }
            }
        }
    }
}

/// Folds the blocks' edge partials (given in block-index order, element
/// order within a block) into `out`: consecutive partials of one row sum
/// from `+0.0`, and each row's totals are rounded once.
///
/// Panics if the rows decrease from one partial to the next: the rows of a
/// view ascend, so the blocks were not in element order.
fn fold_edges<'a>(out: &MttkrpOut, edges: impl Iterator<Item = &'a EdgePartial>) {
    let mut total = vec![0.0f64; out.rank()];
    let mut cur: Option<usize> = None;
    for e in edges {
        if cur != Some(e.row) {
            if let Some(row) = cur {
                assert!(
                    row < e.row,
                    "run path: blocks are not in output-row order (row {} after {row})",
                    e.row
                );
                out.merge_row(row, &total);
                total.fill(0.0);
            }
            cur = Some(e.row);
        }
        for (t, &a) in total.iter_mut().zip(&e.acc) {
            *t += a;
        }
    }
    if let Some(row) = cur {
        out.merge_row(row, &total);
    }
}

/// Runs the block jobs of one MTTKRP grid through `execute` (which must call
/// the given kernel closure once per block index, possibly concurrently),
/// then folds the edge partials deterministically. Picks the path from the
/// block count (see the module docs). Factored out so the runtime-launched
/// and host-only entry points share one dispatch.
fn dispatch<E>(
    src: &SortedCoo<'_>,
    factors: &FactorsView<'_>,
    blocks: &[Range<usize>],
    rank_chunk: usize,
    out: &MttkrpOut,
    execute: E,
) -> GridTiming
where
    E: FnOnce(&(dyn Fn(usize) + Sync)) -> GridTiming,
{
    assert_eq!(src.order, factors.order(), "one factor matrix per mode");
    let grid = RunGrid {
        coo: *src,
        in_modes: (0..src.order).filter(|&m| m != src.sorted_mode).collect(),
        factors,
        tiles: column_tiles(factors.rank(), rank_chunk),
    };
    if blocks.len() <= 1 {
        return execute(&|_b: usize| {
            if let Some(r) = blocks.first() {
                grid.direct(r.clone(), rank_chunk, out);
            }
        });
    }
    let edges: Vec<OnceLock<Vec<EdgePartial>>> =
        (0..blocks.len()).map(|_| OnceLock::new()).collect();
    let timing = execute(&|b: usize| {
        let _ = edges[b].set(grid.block(blocks[b].clone(), out));
    });
    // Deterministic fold: block-index order, independent of which worker
    // ran which block and of the worker count.
    fold_edges(out, edges.iter().filter_map(OnceLock::get).flatten());
    timing
}

/// Launches one MTTKRP grid over `src` through a [`DeviceRuntime`]; the
/// output mode is the view's sorted mode. `blocks[b]` is the element range
/// of threadblock `b`, `costs[b]` its simulated cost. Single-block grids
/// take the direct path (legacy `f32` element order), multi-block grids the
/// run path (see the module docs). The returned timing is whatever the
/// runtime reports for the grid (pure model on [`crate::SimRuntime`],
/// measured wall on [`crate::CpuParallelRuntime`]).
///
/// Tunables come from the runtime's [`TuneParams`]
/// ([`DeviceRuntime::tune`]): the kernel tiles factor columns by its
/// `rank_chunk`, and the runtime's own `launch_grid` applies its worker
/// count — so a tuned engine threads one `TuneParams` through both halves
/// by setting it once on the runtime.
pub fn launch_mttkrp(
    rt: &mut dyn DeviceRuntime,
    gpu: usize,
    src: &SortedCoo<'_>,
    factors: &FactorsView<'_>,
    blocks: &[Range<usize>],
    costs: &[f64],
    out: &MttkrpOut,
) -> GridTiming {
    assert_eq!(blocks.len(), costs.len(), "one cost per block");
    let rank_chunk = rt.tune().effective_rank_chunk();
    dispatch(src, factors, blocks, rank_chunk, out, |kernel| {
        rt.launch_grid(gpu, kernel, costs)
    })
}

/// Host-only MTTKRP over explicit blocks — the same dispatch as
/// [`launch_mttkrp`] without a runtime (no simulated timing). Runs on up to
/// `tune.effective_workers()` threads with `tune.effective_rank_chunk()`
/// column tiles. Used by the host reference kernels, the kernel proptests,
/// and the autotuner's search probes.
pub fn mttkrp_host(
    src: &SortedCoo<'_>,
    factors: &FactorsView<'_>,
    blocks: &[Range<usize>],
    tune: &TuneParams,
    out: &MttkrpOut,
) {
    dispatch(
        src,
        factors,
        blocks,
        tune.effective_rank_chunk(),
        out,
        |kernel| {
            execute_blocks(tune.effective_workers(), blocks.len(), kernel);
            GridTiming {
                makespan: 0.0,
                busy_sum: 0.0,
                blocks: blocks.len(),
            }
        },
    );
}

/// [`mttkrp_host`] over an owned mode-sorted copy: `4 × workers` even blocks
/// of its [`SortedCoo`] view, i.e. the run path. Not a kernel of its own —
/// the name survives PR 9's compiled dispatch only because
/// `benchmark/src/surface.rs` links it and this tree may not edit
/// `benchmark/`.
pub fn mttkrp_host_compiled(
    shard: &CompiledShard,
    factors: &FactorsView<'_>,
    tune: &TuneParams,
    out: &MttkrpOut,
) {
    let blocks = even_blocks(shard.nnz(), 4 * tune.effective_workers());
    mttkrp_host(&shard.sorted_coo(), factors, &blocks, tune, out);
}

/// Splits `0..n` into `parts` near-equal contiguous element ranges (at most
/// `parts`, fewer when `n < parts`) — the standard block decomposition for
/// host-parallel kernels.
pub fn even_blocks(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let chunk = n.div_ceil(parts).max(1);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_runtime::SimRuntime;
    use amped_sim::PlatformSpec;

    /// Default tunables at an explicit worker count.
    fn tp(workers: usize) -> TuneParams {
        TuneParams {
            workers,
            ..Default::default()
        }
    }

    /// A tiny fixed COO tensor, unsorted along modes 1 and 2.
    struct Coo {
        coords: Vec<[u32; 3]>,
        vals: Vec<f32>,
    }

    impl Coo {
        /// The tensor stably sorted by mode `d`: the kernel's input.
        fn sorted(&self, d: usize) -> CompiledShard {
            CompiledShard::compile(self.coords.as_flattened(), &self.vals, 3, d)
        }
    }

    fn tiny() -> (Coo, Vec<Vec<f32>>, usize) {
        // 3×2×2 tensor, rank 2.
        let src = Coo {
            coords: vec![[0, 0, 0], [0, 1, 1], [1, 0, 1], [2, 1, 0], [2, 1, 1]],
            vals: vec![1.0, 2.0, 0.5, -1.0, 3.0],
        };
        let f0 = vec![0.0; 6];
        let f1 = vec![1.0, 2.0, 3.0, 4.0];
        let f2 = vec![0.5, 1.0, 2.0, 0.25];
        (src, vec![f0, f1, f2], 2)
    }

    fn dense_ref(src: &Coo, factors: &[Vec<f32>], rank: usize, d: usize, rows: usize) -> Vec<f64> {
        let mut acc = vec![0.0f64; rows * rank];
        for (c, &v) in src.coords.iter().zip(&src.vals) {
            for col in 0..rank {
                let mut p = v as f64;
                for (m, f) in factors.iter().enumerate() {
                    if m == d {
                        continue;
                    }
                    p *= f[c[m] as usize * rank + col] as f64;
                }
                acc[c[d] as usize * rank + col] += p;
            }
        }
        acc
    }

    #[test]
    fn direct_and_privatized_match_dense_reference() {
        // Mode-0 blocks 0..2 | 2..4 | 4..5 put row 2 on a block boundary,
        // so the run path's edge fold sums two partials.
        let (src, factors, rank) = tiny();
        let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
        let want = dense_ref(&src, &factors, rank, 0, 3);
        let sorted = src.sorted(0);
        for blocks in [even_blocks(5, 1), vec![0..2, 2..4, 4..5]] {
            let out = MttkrpOut::zeros(3, rank);
            mttkrp_host(&sorted.sorted_coo(), &views, &blocks, &tp(4), &out);
            for (j, &w) in want.iter().enumerate() {
                let got = out.to_vec()[j] as f64;
                assert!(
                    (got - w).abs() <= 1e-6 * w.abs().max(1.0),
                    "cell {j}: got {got}, want {w} (blocks {blocks:?})"
                );
            }
        }
    }

    #[test]
    fn privatized_result_is_independent_of_worker_count() {
        let (src, factors, rank) = tiny();
        let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
        let sorted = src.sorted(0);
        let blocks = vec![0..2, 2..3, 3..5];
        let mut bits = Vec::new();
        for workers in [1usize, 2, 8] {
            let out = MttkrpOut::zeros(3, rank);
            mttkrp_host(&sorted.sorted_coo(), &views, &blocks, &tp(workers), &out);
            bits.push(out.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[1], bits[2]);
    }

    #[test]
    fn launch_reports_runtime_timing_and_accumulates_across_grids() {
        let (src, factors, rank) = tiny();
        let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
        let sorted = src.sorted(0);
        let view = sorted.sorted_coo();
        let mut rt = SimRuntime::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
        let out = MttkrpOut::zeros(3, rank);
        // Two sequential grids over disjoint element ranges accumulate into
        // one shared output (the OOC chunk pattern).
        let single = even_blocks(3, 1);
        let t1 = launch_mttkrp(&mut rt, 0, &view, &views, &single, &[0.5], &out);
        let t2 = launch_mttkrp(&mut rt, 0, &view, &views, &[3..4, 4..5], &[0.5, 0.5], &out);
        assert_eq!(t1.blocks, 1);
        assert_eq!(t2.blocks, 2);
        assert_eq!(t2.makespan, 0.5);
        let want = dense_ref(&src, &factors, rank, 0, 3);
        for (j, &w) in want.iter().enumerate() {
            let got = out.to_vec()[j] as f64;
            assert!((got - w).abs() <= 1e-6 * w.abs().max(1.0));
        }
    }

    #[test]
    fn rank_chunking_covers_ranks_beyond_one_tile() {
        // rank > rank_chunk exercises the column-tile loop.
        let rank = TuneParams::default().rank_chunk + 3;
        let src = Coo {
            coords: vec![[0, 0, 0], [1, 1, 1], [0, 1, 0]],
            vals: vec![1.5, -2.0, 0.25],
        };
        let factors: Vec<Vec<f32>> = (0..3)
            .map(|m| {
                (0..2 * rank)
                    .map(|j| ((j + m) % 5) as f32 * 0.5 + 0.1)
                    .collect()
            })
            .collect();
        let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
        let want = dense_ref(&src, &factors, rank, 1, 2);
        let sorted = src.sorted(1);
        for blocks in [even_blocks(3, 1), vec![0..1, 1..3]] {
            let out = MttkrpOut::zeros(2, rank);
            mttkrp_host(&sorted.sorted_coo(), &views, &blocks, &tp(2), &out);
            for (j, &w) in want.iter().enumerate() {
                let got = out.to_vec()[j] as f64;
                assert!((got - w).abs() <= 1e-5 * w.abs().max(1.0), "cell {j}");
            }
        }
    }

    #[test]
    fn runs_walk_the_row_pointers_and_skip_empty_rows() {
        // Rows 0..=9: 4 holds two elements, 7 one, 9 three, the rest none —
        // a pointer for every row, or for the three listed rows alone.
        let vals = [1.0f32; 6];
        let every = [0, 0, 0, 0, 0, 2, 2, 2, 3, 3, 6];
        let (listed, ids) = ([0, 2, 3, 6], [4, 7, 9]);
        for sorted in [
            SortedCoo::new(&[], &vals, &every, None, 1, 0),
            SortedCoo::new(&[], &vals, &listed, Some(&ids), 1, 0),
        ] {
            let runs = |r: Range<usize>| sorted.runs(r).collect::<Vec<_>>();
            assert_eq!(runs(0..6), vec![(4, 0..2), (7, 2..3), (9, 3..6)]);
            assert_eq!(runs(1..4), vec![(4, 1..2), (7, 2..3), (9, 3..4)]);
            assert_eq!(runs(3..3), vec![]);
            assert_eq!(runs(6..6), vec![]);
        }
    }

    #[test]
    #[should_panic(expected = "row ids must strictly ascend")]
    fn listed_rows_must_ascend() {
        let _ = SortedCoo::new(&[], &[1.0; 3], &[0, 2, 3], Some(&[5, 5]), 1, 0);
    }

    #[test]
    fn column_tiles_respect_rank_chunk_and_cover_the_rank() {
        assert_eq!(column_tiles(40, 32), vec![0..32, 32..40]);
        assert_eq!(column_tiles(7, 32), vec![0..4, 4..6, 6..7]);
        assert_eq!(column_tiles(32, 8), vec![0..8, 8..16, 16..24, 24..32]);
        assert_eq!(column_tiles(3, 1), vec![0..1, 1..2, 2..3]);
        for (rank, chunk) in [(257, 256), (257, 32), (100, 24), (1, 256)] {
            let tiles = column_tiles(rank, chunk);
            assert_eq!(tiles.first().map(|t| t.start), Some(0));
            assert_eq!(tiles.last().map(|t| t.end), Some(rank));
            assert!(tiles.windows(2).all(|w| w[0].end == w[1].start));
            assert!(tiles
                .iter()
                .all(|t| TILE_LANES.contains(&t.len()) && t.len() <= chunk));
        }
    }

    #[test]
    fn to_vec_reads_whole_rows_in_order() {
        let out = MttkrpOut::zeros(3, 2);
        for (idx, v) in [(2, 1.5), (3, -2.0), (5, 4.0)] {
            out.add_f32(idx, v);
        }
        assert_eq!(out.to_vec(), vec![0.0, 0.0, 1.5, -2.0, 0.0, 4.0]);
    }

    #[test]
    fn even_blocks_cover_everything() {
        assert_eq!(even_blocks(10, 3), vec![0..4, 4..8, 8..10]);
        assert_eq!(even_blocks(2, 8), vec![0..1, 1..2]);
        assert_eq!(even_blocks(0, 4), Vec::<Range<usize>>::new());
        let blocks = even_blocks(1000, 7);
        assert_eq!(blocks.iter().map(|r| r.len()).sum::<usize>(), 1000);
    }
}
