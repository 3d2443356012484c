//! Property tests: the kernel layer's **run path** (row runs, register
//! tiles, edge partials folded in block order) and its **direct path**
//! produce exactly the bits of [`oracle`], a scalar loop of the arithmetic
//! the kernel layer documents — for every order, rank, `rank_chunk`, worker
//! count and block decomposition, including the shapes that stress the edge
//! fold: one row spanning many blocks, empty blocks, empty rows, and
//! signed-zero values. Orders 1–7 cover each order-specialized run loop
//! (3, 5) and the runtime-order loop around them (1, 2, 4, 6, 7). Equality
//! here is equality of bits, not `approx_eq`: it is what lets a launch
//! change how it walks a view without moving a golden, a fit trace or a
//! modeled time. The oracle's multi-block arithmetic is that of the
//! privatized *tile path* — per-block `f64` tiles merged in block order —
//! which the kernel layer executed beside the run path until every launch
//! became a sorted view; the test names keep that name for it.
//!
//! The run path also stays within one `f32` ulp of the sequential `f64`
//! reference `mttkrp_ref`.

use amped::partition::isp_ranges;
use amped::prelude::*;
use amped::runtime::kernels::{even_blocks, mttkrp_host};
use amped::runtime::mttkrp_host_compiled;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

const RANKS: [usize; 5] = [1, 7, 32, 40, 257];
const RANK_CHUNKS: [usize; 4] = [1, 8, 32, 256];
const WORKERS: [usize; 3] = [1, 2, 8];

/// The kernel layer's arithmetic for one launch of `blocks` over the
/// element-major COO arrays `indices`/`values`, added into `out`
/// (`rows × rank`, row-major). One block: per element and column the `f32`
/// product of the value and the input modes' factor entries in ascending
/// mode order, added to the cell in element order. Several blocks: per
/// block an `f64` partial per cell from `+0.0` over the block's elements in
/// element order, the partials summed from `+0.0` in block order, an
/// exact-zero total skipped and any other added to the widened cell and
/// rounded once.
fn oracle(
    indices: &[u32],
    values: &[f32],
    mode: usize,
    factors: &[Mat],
    blocks: &[Range<usize>],
    out: &mut [f32],
) {
    let (order, rank) = (factors.len(), factors[0].cols());
    let coords = |e: usize| &indices[e * order..(e + 1) * order];
    let entry = |c: &[u32], m: usize, col: usize| factors[m].row(c[m] as usize)[col];
    let in_modes: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    if blocks.len() <= 1 {
        for e in blocks.iter().flat_map(Range::clone) {
            let c = coords(e);
            for col in 0..rank {
                let p = in_modes
                    .iter()
                    .fold(values[e], |p, &m| p * entry(c, m, col));
                out[c[mode] as usize * rank + col] += p;
            }
        }
        return;
    }
    let mut total = vec![0.0f64; out.len()];
    for block in blocks {
        let mut partial = vec![0.0f64; out.len()];
        for e in block.clone() {
            let c = coords(e);
            for col in 0..rank {
                let p = in_modes
                    .iter()
                    .fold(values[e] as f64, |p, &m| p * entry(c, m, col) as f64);
                partial[c[mode] as usize * rank + col] += p;
            }
        }
        for (t, p) in total.iter_mut().zip(&partial) {
            *t += p;
        }
    }
    for (cell, &t) in out.iter_mut().zip(&total) {
        if t != 0.0 {
            *cell = (*cell as f64 + t) as f32;
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Nonzeros sorted by `mode` — element-major COO arrays for the oracle,
/// input coordinates and row pointers for the kernel's view, a pointer for
/// every row or for the non-empty rows only, beside their ids — plus
/// factors of rank `rank`.
struct Case {
    shape: Vec<u32>,
    indices: Vec<u32>,
    inputs: Vec<u32>,
    row_ptr: Vec<usize>,
    listed_ptr: Vec<usize>,
    row_ids: Vec<u32>,
    values: Vec<f32>,
    mode: usize,
    factors: Vec<Mat>,
}

impl Case {
    /// `nnz` elements over `shape`, stably sorted by their `mode` coordinate.
    /// Every second output row is left empty; `hot` sends that share of the
    /// elements to one row. Values mix both signs with exact `0.0` and
    /// `-0.0`; factors are signed too, so products hit every sign of zero.
    fn random(shape: &[u32], nnz: usize, mode: usize, hot: f64, rank: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hot_row = rng.gen_range(0..shape[mode]);
        let mut elems: Vec<(Vec<u32>, f32)> = (0..nnz)
            .map(|_| {
                let mut c: Vec<u32> = shape.iter().map(|&d| rng.gen_range(0..d)).collect();
                c[mode] = if rng.gen_bool(hot) {
                    hot_row
                } else {
                    c[mode] & !1 // odd rows stay empty
                };
                let v = match rng.gen_range(0..10u32) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                };
                (c, v)
            })
            .collect();
        elems.sort_by_key(|(c, _)| c[mode]);
        let mut row_ptr = vec![0usize; shape[mode] as usize + 1];
        for (c, _) in &elems {
            row_ptr[c[mode] as usize + 1] += 1;
        }
        for r in 1..row_ptr.len() {
            row_ptr[r] += row_ptr[r - 1];
        }
        let (mut listed_ptr, mut row_ids) = (vec![0], Vec::new());
        for (r, w) in row_ptr.windows(2).enumerate().filter(|(_, w)| w[0] < w[1]) {
            listed_ptr.push(w[1]);
            row_ids.push(r as u32);
        }
        let inputs = elems
            .iter()
            .flat_map(|(c, _)| c.iter().enumerate().filter(|&(m, _)| m != mode))
            .map(|(_, &i)| i)
            .collect();
        let factors = shape
            .iter()
            .map(|&d| {
                let data = (0..d as usize * rank)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                Mat::from_vec(d as usize, rank, data)
            })
            .collect();
        Self {
            shape: shape.to_vec(),
            indices: elems.iter().flat_map(|(c, _)| c.iter().copied()).collect(),
            inputs,
            row_ptr,
            listed_ptr,
            row_ids,
            values: elems.iter().map(|&(_, v)| v).collect(),
            mode,
            factors,
        }
    }

    fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Two launches of `blocks` into one output (the second adds to
    /// non-zero cells) through the kernel layer, over either form of the
    /// view.
    fn run(
        &self,
        blocks: &[Range<usize>],
        workers: usize,
        rank_chunk: usize,
        form: Form,
    ) -> Vec<u32> {
        let rank = self.factors[0].cols();
        let out = MttkrpOut::zeros(self.shape[self.mode] as usize, rank);
        let views = FactorsView::new(self.factors.iter().map(|f| f.as_slice()).collect(), rank);
        let tune = TuneParams {
            workers,
            rank_chunk,
            ..Default::default()
        };
        let (row_ptr, row_ids) = match form {
            Form::EveryRow => (&self.row_ptr, None),
            Form::ListedRows => (&self.listed_ptr, Some(self.row_ids.as_slice())),
        };
        let order = self.shape.len();
        let src = SortedCoo::new(
            &self.inputs,
            &self.values,
            row_ptr,
            row_ids,
            order,
            self.mode,
        );
        for _ in 0..2 {
            mttkrp_host(&src, &views, blocks, &tune, &out);
        }
        bits(&out.to_vec())
    }

    /// The same two launches through [`oracle`].
    fn expected(&self, blocks: &[Range<usize>]) -> Vec<u32> {
        let rank = self.factors[0].cols();
        let mut out = vec![0.0f32; self.shape[self.mode] as usize * rank];
        for _ in 0..2 {
            oracle(
                &self.indices,
                &self.values,
                self.mode,
                &self.factors,
                blocks,
                &mut out,
            );
        }
        bits(&out)
    }

    /// Asserts kernel ≡ oracle on `blocks`, bit for bit, over both view
    /// forms.
    fn assert_paths_agree(&self, blocks: &[Range<usize>], workers: usize, rank_chunk: usize) {
        let want = self.expected(blocks);
        for form in [Form::EveryRow, Form::ListedRows] {
            let got = self.run(blocks, workers, rank_chunk, form);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g,
                    w,
                    "cell {i}: kernel {} vs oracle {} ({form:?}, blocks {blocks:?}, \
                     workers {workers}, rank_chunk {rank_chunk})",
                    f32::from_bits(*g),
                    f32::from_bits(*w),
                );
            }
        }
    }
}

/// How a launch sees a [`Case`].
#[derive(Clone, Copy, Debug)]
enum Form {
    /// A view with a pointer for every row of the mode.
    EveryRow,
    /// A view with pointers for the non-empty rows and their ids.
    ListedRows,
}

/// Consecutive blocks covering `0..n` with lengths drawn from `0..=max_len`
/// (zero-length draws are the empty blocks), always at least two blocks so
/// the grid leaves the direct path.
fn random_blocks(n: usize, max_len: usize, rng: &mut SmallRng) -> Vec<Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + rng.gen_range(0..max_len + 1)).min(n);
        blocks.push(start..end);
        start = end;
    }
    while blocks.len() < 2 {
        blocks.push(n..n);
    }
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 112, ..ProptestConfig::default() })]

    /// Random sorted tensors over orders 1–7 (≈ 16 cases per order) under
    /// random block decompositions: block lengths from 1 element (every row spans ≥ 3
    /// boundaries) to longer than the tensor (rows span none), with empty
    /// blocks mixed in.
    #[test]
    fn run_path_is_bit_equal_to_tile_path(
        order in 1usize..8,
        nnz in 0usize..400,
        rank_idx in 0usize..5,
        rc_idx in 0usize..4,
        w_idx in 0usize..3,
        len_idx in 0usize..5,
        hot_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB10C);
        let shape: Vec<u32> = (0..order).map(|_| rng.gen_range(1..24u32)).collect();
        let mode = rng.gen_range(0..order);
        let hot = [0.0, 0.5, 0.93][hot_idx];
        let case = Case::random(&shape, nnz, mode, hot, RANKS[rank_idx], seed);
        let max_len = [1, 3, 17, nnz / 3 + 1, nnz + 5][len_idx];
        let blocks = random_blocks(case.nnz(), max_len, &mut rng);
        case.assert_paths_agree(&blocks, WORKERS[w_idx], RANK_CHUNKS[rc_idx]);
    }

    /// On the run path every output cell is a sum of per-block `f64`
    /// partials rounded once, so over a `compile_mode` copy it matches the
    /// sequential `f64` reference bit for bit or lands one `f32` ulp away
    /// (when `f64` reassociation crosses a rounding boundary), at orders 3
    /// and 5, any worker count and any `rank_chunk`.
    #[test]
    fn run_path_is_within_one_ulp_of_the_sequential_reference(
        order_idx in 0usize..2,
        nnz in 1usize..500,
        rank in 1usize..20,
        parts in 2usize..12,
        w_idx in 0usize..3,
        rc_idx in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51DE);
        let order = [3, 5][order_idx];
        let shape: Vec<u32> = (0..order).map(|_| rng.gen_range(2..40u32)).collect();
        let mode = rng.gen_range(0..order);
        let t = GenSpec::uniform(shape, nnz, seed).generate();
        let fs: Vec<Mat> =
            t.shape().iter().map(|&d| Mat::random(d as usize, rank, &mut rng)).collect();
        let blocks = even_blocks(t.nnz(), parts);
        // `even_blocks` collapses tiny inputs into fewer ranges; the run
        // path needs at least two.
        prop_assume!(blocks.len() > 1);
        let tune = TuneParams {
            workers: WORKERS[w_idx],
            rank_chunk: RANK_CHUNKS[rc_idx],
            ..Default::default()
        };
        let out = MttkrpOut::zeros(t.dim(mode) as usize, rank);
        let views = FactorsView::new(fs.iter().map(|f| f.as_slice()).collect(), rank);
        mttkrp_host(&compile_mode(&t, mode).sorted_coo(), &views, &blocks, &tune, &out);
        let want = mttkrp_ref(&t, &fs, mode);
        for (i, (g, w)) in out.to_vec().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(
                within_one_ulp(*g, *w),
                "cell {}: kernel {} vs reference {} (more than one ulp apart)", i, g, w
            );
        }
    }
}

/// `a` and `b` are the same bits, or adjacent finite `f32` values of one
/// sign (one ulp apart).
fn within_one_ulp(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
        || (a.is_finite()
            && b.is_finite()
            && (a < 0.0) == (b < 0.0)
            && a.to_bits().abs_diff(b.to_bits()) <= 1)
}

/// The full rank × `rank_chunk` × workers grid on one tensor whose hottest
/// row holds over 90 % of the nonzeros, at block sizes that cut that row 0,
/// 1 and many times.
#[test]
fn hot_row_split_across_blocks_matches_at_every_rank_chunk_and_worker_count() {
    let nnz = 300;
    for &rank in &RANKS {
        let case = Case::random(&[12, 9, 7, 5], nnz, 1, 0.93, rank, 4242 + rank as u64);
        let hot = (0..nnz)
            .filter(|&e| case.indices[e * 4 + 1] == case.indices[(nnz / 2) * 4 + 1])
            .count();
        assert!(hot * 10 > nnz * 9, "hot row holds {hot} of {nnz}");
        for &rank_chunk in &RANK_CHUNKS {
            for &workers in &WORKERS {
                for block_len in [nnz, nnz / 2 + 1, 16] {
                    let mut blocks = isp_ranges(0..nnz, block_len);
                    blocks.insert(1, 7..7); // an empty block inside the hot row
                    blocks.push(nnz..nnz);
                    case.assert_paths_agree(&blocks, workers, rank_chunk);
                }
            }
        }
    }
}

/// Degenerate grids: every element in one row (each block is a single run,
/// so everything goes through the edge fold), and nothing but empty blocks.
#[test]
fn single_row_and_all_empty_grids_match() {
    let case = Case::random(&[6, 5, 4], 90, 0, 1.0, 7, 99);
    for block_len in [1, 4, 45, 89] {
        case.assert_paths_agree(&isp_ranges(0..90, block_len), 2, 8);
    }
    case.assert_paths_agree(&[0..0, 40..40, 90..90], 2, 32);
    let empty = Case::random(&[6, 5, 4], 0, 2, 0.0, 32, 100);
    empty.assert_paths_agree(&[0..0, 0..0], 8, 32);
}

/// Sortedness is the view's structure, checked once: `SortedCoo::new`
/// rejects row pointers that decrease and row pointers that do not end at
/// nnz, so no unsorted source reaches a block.
#[test]
fn sorted_coo_rejects_row_pointers_that_decrease_or_miss_nnz() {
    let case = Case::random(&[8, 5, 4], 60, 0, 0.0, 7, 7);
    let rejection = |row_ptr: &[usize]| {
        let view = || SortedCoo::new(&case.inputs, &case.values, row_ptr, None, 3, 0);
        let err = std::panic::catch_unwind(view)
            .err()
            .expect("the view was accepted");
        let text = err.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    };
    let mut decreasing = case.row_ptr.clone();
    decreasing[1] = 60;
    assert!(decreasing[2] < 60, "{decreasing:?} does not decrease");
    assert!(rejection(&decreasing).contains("never decrease"));
    // Rows 0..6 only: row 6's elements fall off the end.
    let short = &case.row_ptr[..7];
    assert!(short[6] < 60, "{short:?} ends at nnz");
    assert!(rejection(short).contains("end at nnz"));
}

/// Blocks out of element order make rows decrease *between* blocks, which
/// trips the edge fold's check.
#[test]
#[should_panic(expected = "not in output-row order")]
fn blocks_out_of_row_order_panic_at_the_fold() {
    let case = Case::random(&[8, 5, 4], 60, 0, 0.0, 7, 8);
    let _ = case.run(&[30..60, 0..30], 1, 32, Form::EveryRow);
}

/// Unsorted data reaches the run path through an owned sorted copy
/// (`compile_mode` + `mttkrp_compiled` / `mttkrp_host_compiled` — the
/// baselines', the tuner probe's and the benchmark probe's path). It must
/// produce the oracle's bits over the same stably-sorted element order, at
/// every worker count and `rank_chunk`.
#[test]
fn sorted_copy_of_an_unsorted_tensor_matches_the_tile_path() {
    let t = GenSpec {
        shape: vec![40, 25, 30],
        nnz: 3000,
        skew: vec![1.0, 0.0, 0.5],
        seed: 515,
    }
    .generate();
    let rank = 40;
    let mut rng = SmallRng::seed_from_u64(516);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect();
    let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
    for d in 0..t.order() {
        assert!(
            (1..t.nnz()).any(|e| t.idx(e - 1, d) > t.idx(e, d)),
            "mode {d}: the generated tensor is already sorted, nothing tested"
        );
        let shard = compile_mode(&t, d);
        // The same element order, every coordinate spelled out.
        let sorted = t.sorted_by_mode(d);
        let expected = |blocks: &[Range<usize>]| {
            let mut out = vec![0.0f32; t.dim(d) as usize * rank];
            let (indices, values) = (sorted.indices_flat(), sorted.values());
            oracle(indices, values, d, &factors, blocks, &mut out);
            bits(&out)
        };
        let rows = t.dim(d) as usize;
        for workers in [1usize, 2, 4] {
            let blocks = even_blocks(t.nnz(), 4 * workers);
            for &rank_chunk in &RANK_CHUNKS {
                let tune = TuneParams {
                    workers,
                    rank_chunk,
                    ..Default::default()
                };
                let got = MttkrpOut::zeros(rows, rank);
                mttkrp_host_compiled(&shard, &views, &tune, &got);
                assert_eq!(
                    bits(&got.to_vec()),
                    expected(&blocks),
                    "mode {d}, workers {workers}, rank_chunk {rank_chunk}"
                );
            }
        }
        // `mttkrp_compiled` is the same launch at the host pool's size.
        let blocks = even_blocks(t.nnz(), 4 * TuneParams::default().effective_workers());
        let got = mttkrp_compiled(&shard, &t, &factors);
        assert_eq!(
            bits(got.as_slice()),
            expected(&blocks),
            "mode {d}: mttkrp_compiled"
        );
    }
}

/// The in-core engine under default dispatch (run path on every multi-ISP
/// shard) returns the bits the tile path produced before the switch. The
/// expectation is captured here, not in a golden file: the engine's own
/// plan is replayed shard by shard through [`oracle`], one launch per
/// shard. An order-3 tensor
/// and a Twitch-shaped order-5 one (two 64-row modes) drive the engine
/// through both order-specialized run loops.
#[test]
fn engine_default_dispatch_keeps_the_tile_path_bits() {
    let order_3 = GenSpec {
        shape: vec![300, 120, 90],
        nnz: 20_000,
        skew: vec![1.1, 0.4, 0.0],
        seed: 1212,
    };
    let twitch_shaped = GenSpec {
        shape: vec![400, 250, 120, 64, 64],
        nnz: 20_000,
        skew: vec![1.4, 1.5, 1.3, 1.0, 1.0],
        seed: 1214,
    };
    for spec in [order_3, twitch_shaped] {
        engine_matches_its_plan_replayed_on_the_tile_path(&spec.generate());
    }
}

fn engine_matches_its_plan_replayed_on_the_tile_path(t: &SparseTensor) {
    let rank = 16;
    let cfg = AmpedConfig {
        rank,
        isp_nnz: 256,
        shard_nnz_budget: 2048,
    };
    let mut rng = SmallRng::seed_from_u64(1213);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect();
    let platform = PlatformSpec::rtx6000_ada_node(3).scaled(1e-3);
    let mut engine = AmpedEngine::new(t, platform, cfg.clone()).unwrap();
    for d in 0..t.order() {
        let mp = &engine.plan().modes[d];
        // The copy's element order, every coordinate spelled out.
        let sorted = t.sorted_by_mode(d);
        let mut want = vec![0.0f32; t.dim(d) as usize * rank];
        let mut multi_isp = 0;
        for shard in &mp.shards {
            let blocks = isp_ranges(shard.elem_range.clone(), cfg.isp_nnz);
            multi_isp += (blocks.len() > 1) as usize;
            let (indices, values) = (sorted.indices_flat(), sorted.values());
            oracle(indices, values, d, &factors, &blocks, &mut want);
        }
        assert!(
            multi_isp > 0,
            "mode {d}: no multi-ISP shard, nothing tested"
        );
        let (got, _) = engine.mttkrp_mode(d, &factors).unwrap();
        assert_eq!(
            bits(got.as_slice()),
            bits(&want),
            "order {}, mode {d}: engine bits moved off the tile path's",
            t.order()
        );
    }
}
