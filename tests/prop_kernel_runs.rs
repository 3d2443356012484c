//! Property tests: on a source sorted by the output mode, the kernel
//! layer's **run path** (row runs, register tiles, edge partials folded in
//! block order) produces exactly the bits of the **tile path** (privatized
//! `f64` tiles merged in block order) — for every order, rank, `rank_chunk`,
//! worker count and block decomposition, including the shapes that stress
//! the edge fold: one row spanning many blocks, empty blocks, empty rows,
//! and signed-zero values. Orders 1–7 cover each order-specialized run loop
//! (3, 5) and the runtime-order loop around them (1, 2, 4, 6, 7).
//! Equality here is equality of bits, not `approx_eq`: it is what lets the
//! in-core engine switch paths without moving a golden, a fit trace or a
//! modeled time.

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

/// Nonzeros sorted by `mode` — element-major COO arrays for the tile path,
/// input coordinates and row pointers for the run path's view, a pointer
/// for every row or for the non-empty rows only, beside their ids — plus
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
    /// non-zero cells), through the tile path or the run path over either
    /// form of the view.
    fn run(
        &self,
        blocks: &[Range<usize>],
        workers: usize,
        rank_chunk: usize,
        form: Form,
    ) -> Vec<u32> {
        let order = self.shape.len();
        let rank = self.factors[0].cols();
        let out = MttkrpOut::zeros(self.shape[self.mode] as usize, rank);
        let views = FactorsView::new(self.factors.iter().map(|f| f.as_slice()).collect(), rank);
        let tune = TuneParams {
            workers,
            rank_chunk,
            ..Default::default()
        };
        for _ in 0..2 {
            let (row_ptr, row_ids) = match form {
                Form::Tile => {
                    let src = FnSource::new(
                        |e: usize, m: usize| self.indices[e * order + m],
                        |e: usize| self.values[e],
                    );
                    mttkrp_host(&src, self.mode, &views, blocks, &tune, &out);
                    continue;
                }
                Form::EveryRow => (&self.row_ptr, None),
                Form::ListedRows => (&self.listed_ptr, Some(self.row_ids.as_slice())),
            };
            let src = SortedCoo::new(
                &self.inputs,
                &self.values,
                row_ptr,
                row_ids,
                order,
                self.mode,
            );
            mttkrp_host(&src, self.mode, &views, blocks, &tune, &out);
        }
        out.to_vec().iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts run ≡ tile on `blocks`, bit for bit, over both view forms.
    fn assert_paths_agree(&self, blocks: &[Range<usize>], workers: usize, rank_chunk: usize) {
        let tile = self.run(blocks, workers, rank_chunk, Form::Tile);
        for form in [Form::EveryRow, Form::ListedRows] {
            let run = self.run(blocks, workers, rank_chunk, form);
            for (i, (r, t)) in run.iter().zip(&tile).enumerate() {
                assert_eq!(
                    r,
                    t,
                    "cell {i}: run {} vs tile {} ({form:?}, blocks {blocks:?}, \
                     workers {workers}, rank_chunk {rank_chunk})",
                    f32::from_bits(*r),
                    f32::from_bits(*t),
                );
            }
        }
    }
}

/// How a launch sees a [`Case`].
#[derive(Clone, Copy, Debug)]
enum Form {
    /// Through a closure source: the tile path.
    Tile,
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
/// (`compile_mode` + `mttkrp_compiled` / `mttkrp_host_compiled` — the tuner
/// probe's and the benchmark probe's path). It must produce the bits of the
/// tile path over the same stably-sorted element order, at every worker
/// count and `rank_chunk`.
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
    let bits = |o: &MttkrpOut| o.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for d in 0..t.order() {
        assert!(
            (1..t.nnz()).any(|e| t.idx(e - 1, d) > t.idx(e, d)),
            "mode {d}: the generated tensor is already sorted, nothing tested"
        );
        let shard = compile_mode(&t, d);
        // The same element order, from a closure: tile path only.
        let mut perm: Vec<usize> = (0..t.nnz()).collect();
        perm.sort_by_key(|&e| t.idx(e, d));
        let tile_src = FnSource::new(|e, m| t.idx(perm[e], m), |e| t.value(perm[e]));
        let rows = t.dim(d) as usize;
        for workers in [1usize, 2, 4] {
            let blocks = even_blocks(t.nnz(), 4 * workers);
            for &rank_chunk in &RANK_CHUNKS {
                let tune = TuneParams {
                    workers,
                    rank_chunk,
                    ..Default::default()
                };
                let (want, got) = (MttkrpOut::zeros(rows, rank), MttkrpOut::zeros(rows, rank));
                mttkrp_host(&tile_src, d, &views, &blocks, &tune, &want);
                mttkrp_host_compiled(&shard, &views, &tune, &got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "mode {d}, workers {workers}, rank_chunk {rank_chunk}"
                );
            }
        }
        // `mttkrp_compiled` is the same launch at the host pool's size.
        let tune = TuneParams::default();
        let blocks = even_blocks(t.nnz(), 4 * tune.effective_workers());
        let want = MttkrpOut::zeros(rows, rank);
        mttkrp_host(&tile_src, d, &views, &blocks, &tune, &want);
        let got = mttkrp_compiled(&shard, &t, &factors);
        let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits(&want), "mode {d}: mttkrp_compiled");
    }
}

/// The in-core engine under default dispatch (run path on every multi-ISP
/// shard) returns the bits the tile path produced before the switch. The
/// expectation is captured here, not in a golden file: the engine's own
/// plan is replayed shard by shard through the kernel layer with a closure
/// source, which can only take the direct and tile paths. An order-3 tensor
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
        ..Default::default()
    };
    let mut rng = SmallRng::seed_from_u64(1213);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect();
    let platform = PlatformSpec::rtx6000_ada_node(3).scaled(1e-3);
    let mut engine = AmpedEngine::new(t, platform, cfg.clone()).unwrap();
    let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), rank);
    for d in 0..t.order() {
        let mp = &engine.plan().modes[d];
        // The copy's element order, every coordinate spelled out.
        let sorted = t.sorted_by_mode(d);
        let src = FnSource::new(|e, m| sorted.idx(e, m), |e| sorted.value(e));
        let want = MttkrpOut::zeros(t.dim(d) as usize, rank);
        let mut multi_isp = 0;
        for shard in &mp.shards {
            let blocks = isp_ranges(shard.elem_range.clone(), cfg.isp_nnz);
            multi_isp += (blocks.len() > 1) as usize;
            mttkrp_host(&src, d, &views, &blocks, &engine.tune(), &want);
        }
        assert!(
            multi_isp > 0,
            "mode {d}: no multi-ISP shard, nothing tested"
        );
        let (got, _) = engine.mttkrp_mode(d, &factors).unwrap();
        let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = want.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got,
            want,
            "order {}, mode {d}: engine bits moved off the tile path's",
            t.order()
        );
    }
}
