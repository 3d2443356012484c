//! The out-of-core engine on the `.tnsb` file's sorted sections: for output
//! mode `d` it streams the chunks of section `d` — the tensor sorted by `d`
//! once, by the writer — and runs the kernel layer's row-run path on each. A
//! chunk is the bytes the file holds and the run path folds in block-index
//! order, so the MTTKRP output is one set of **bits** — across prefetch
//! depths, host worker counts and `rank_chunk` widths, whichever thread read
//! a chunk, and equal to a host replay of the same section chunks through
//! `mttkrp_host` — and stays within the usual tolerance of the `f64` oracle.
//! Budgets tight enough to force the single-buffer fallback and a mid-run
//! prefetch stall are part of the matrix, and every run must leave the
//! staging budget empty with a peak no higher than its chunk window —
//! payloads only: nothing is sorted, so nothing is charged beside them, and
//! a decoded chunk whose box spans fewer rows than a third of its nonzeros
//! holds less than its payload.

mod common;

use amped::partition::isp_ranges;
use amped::prelude::*;
use amped::runtime::kernels::mttkrp_host;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

const DEPTHS: [usize; 3] = [0, 1, 2];
const WORKERS: [usize; 3] = [1, 2, 8];
const RANK_CHUNKS: [usize; 3] = [1, 8, 32];
const RANK: usize = 12;
const ISP_NNZ: usize = 64;

fn platform() -> PlatformSpec {
    PlatformSpec::rtx6000_ada_node(2).scaled(1e-3)
}

fn config() -> AmpedConfig {
    AmpedConfig {
        rank: RANK,
        isp_nnz: ISP_NNZ,
        shard_nnz_budget: 1024,
    }
}

/// A skewed tensor with `hot` of its nonzeros in row 3 of mode `hot_mode`.
fn tensor(shape: &[Idx], nnz: usize, hot_mode: usize, hot: f64, seed: u64) -> SparseTensor {
    let skew = (0..shape.len()).map(|m| 0.3 * m as f64).collect();
    let base = GenSpec {
        shape: shape.to_vec(),
        nnz,
        skew,
        seed,
    }
    .generate();
    // The generator drops duplicates, so small shapes yield fewer elements.
    let nnz = base.nnz();
    let mut indices = base.indices_flat().to_vec();
    let hot_elems = (nnz as f64 * hot) as usize;
    // Spread the hot elements over the file so every chunk holds some.
    for e in (0..nnz).filter(|e| (e * hot_elems) / nnz != ((e + 1) * hot_elems) / nnz) {
        indices[e * shape.len() + hot_mode] = 3;
    }
    SparseTensor::from_parts(shape.to_vec(), indices, base.values().to_vec())
}

fn factors(t: &SparseTensor, seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    t.shape()
        .iter()
        .map(|&d| Mat::random(d as usize, RANK, &mut rng))
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One engine run of every mode at the given tunables: output bits per
/// mode, the staging peak, and the stall and prefetch-hit counts.
struct Run {
    bits: Vec<Vec<u32>>,
    stage_peak: u64,
    stalls: u64,
    prefetch_hits: u64,
}

fn engine_run(
    path: &Path,
    t: &SparseTensor,
    fs: &[Mat],
    budget: u64,
    tune: TuneParams,
    check_oracle: bool,
) -> Run {
    let reg = MetricsRegistry::new();
    let rt = CpuParallelRuntime::new(platform()).with_metrics(reg.clone());
    let mut e = OocEngine::with_runtime(path, Box::new(rt), config(), budget).unwrap();
    e.set_tune(tune);
    let mut out_bits = Vec::new();
    for d in 0..t.order() {
        let (out, _) = e.mttkrp_mode(d, fs).unwrap();
        assert_eq!(
            reg.gauge("ooc_resident_bytes").get(),
            0.0,
            "mode {d} left bytes in the staging budget ({tune:?})"
        );
        if check_oracle {
            let want = mttkrp_ref(t, fs, d);
            assert!(
                out.approx_eq(&want, 1e-3, 1e-4),
                "mode {d} diverged from the oracle by {} ({tune:?})",
                out.max_abs_diff(&want)
            );
        }
        out_bits.push(bits(out.as_slice()));
    }
    Run {
        bits: out_bits,
        stage_peak: e.stage_peak(),
        stalls: reg.counter_value("ooc_chunk_stalls", &[]),
        prefetch_hits: reg.counter_value("ooc_prefetch_hits", &[]),
    }
}

/// The same MTTKRP without the engine: every chunk of section `d` read
/// straight from the reader and launched over the engine's ISP blocks with
/// `mttkrp_host`, all chunks accumulating into one output.
fn host_replay(path: &Path, t: &SparseTensor, fs: &[Mat], d: usize) -> Vec<u32> {
    let mut reader = ChunkReader::open(path, MemPool::new("replay", 1 << 40)).unwrap();
    let views = FactorsView::new(fs.iter().map(|f| f.as_slice()).collect(), RANK);
    let out = MttkrpOut::zeros(t.dim(d) as usize, RANK);
    for k in 0..reader.meta().num_chunks() {
        let staged = reader.stage(k, Some(d)).unwrap();
        let chunk = staged.read().unwrap();
        reader.finish_stage(&chunk);
        let src = SortedCoo::new(
            chunk.input_coords(),
            chunk.values(),
            chunk.row_ptr(),
            Some(chunk.row_ids()),
            t.order(),
            d,
        );
        let blocks = isp_ranges(0..chunk.nnz(), ISP_NNZ);
        mttkrp_host(&src, &views, &blocks, &TuneParams::default(), &out);
        reader.release(chunk);
    }
    bits(&out.to_vec())
}

/// Bytes of the most chunks a run at `depth` through a budget of `budget`
/// bytes may hold at once: the `depth + 1` chunks of its prefetch window
/// while it iterates, and one chunk per planning-pool thread — as far as
/// the budget holds them — while its engine was built.
fn window_bytes(t: &SparseTensor, cap: usize, depth: usize, budget: u64) -> u64 {
    let chunk = cap as u64 * t.elem_bytes();
    let setup = (amped::sim::host_workers() as u64).min(budget / chunk);
    (depth as u64 + 1).max(setup) * chunk
}

/// The full matrix on one tensor with a roomy budget: one set of bits, equal
/// to the host replay, within tolerance of the oracle, budget accounted.
fn check_matrix(t: &SparseTensor, cap: usize, seed: u64) {
    let dir = common::ScratchDir::new("prop_ooc_sorted");
    let path = dir.join("t.tnsb");
    write_tnsb(t, &path, cap).unwrap();
    let fs = factors(t, seed);
    let replay: Vec<Vec<u32>> = (0..t.order())
        .map(|d| host_replay(&path, t, &fs, d))
        .collect();
    // Room for a depth-2 window.
    let budget = 4 * cap as u64 * t.elem_bytes();
    for depth in DEPTHS {
        for workers in WORKERS {
            for rank_chunk in RANK_CHUNKS {
                let tune = TuneParams {
                    prefetch_depth: depth,
                    ooc_chunk_budget: depth + 1,
                    workers,
                    rank_chunk,
                };
                // The oracle comparison is the same at every point of the
                // matrix once the bits are; pay for it once per depth.
                let oracle = workers == 1 && rank_chunk == 32;
                let run = engine_run(&path, t, &fs, budget, tune, oracle);
                assert_eq!(run.bits, replay, "{tune:?}");
                let allowed = window_bytes(t, cap, depth, budget);
                assert!(
                    run.stage_peak <= allowed,
                    "stage peak {} above {allowed} ({tune:?})",
                    run.stage_peak
                );
                if depth > 0 {
                    assert!(run.prefetch_hits > 0, "{tune:?} never prefetched");
                }
            }
        }
    }
}

#[test]
fn bits_are_one_set_on_a_skewed_3_mode_tensor_with_a_hot_row() {
    // 93 % of the nonzeros in one row of mode 0: in section 0 its run fills
    // six whole chunks, so the row accumulates across launches and, inside
    // each, the edge fold carries it across every block.
    let t = tensor(&[90, 40, 70], 2600, 0, 0.93, 5);
    let hot = (0..t.nnz()).filter(|&e| t.idx(e, 0) == 3).count();
    assert!(hot * 10 > t.nnz() * 9, "hot row holds only {hot} elements");
    check_matrix(&t, 400, 6);
}

#[test]
fn bits_are_one_set_on_a_skewed_5_mode_tensor() {
    let t = tensor(&[30, 24, 1, 16, 50], 2000, 4, 0.5, 7);
    check_matrix(&t, 300, 8);
}

#[test]
fn tight_budgets_change_the_cadence_never_the_bits() {
    // Chunks of 100 / 100 / 100 / 90 elements (the generator may drop a
    // few duplicates from the last).
    let t = tensor(&[40, 30, 20], 390, 1, 0.3, 9);
    assert!((386..=390).contains(&t.nnz()), "{} elements", t.nnz());
    let dir = common::ScratchDir::new("prop_ooc_sorted");
    let path = dir.join("tight.tnsb");
    write_tnsb(&t, &path, 100).unwrap();
    let fs = factors(&t, 10);
    let replay: Vec<Vec<u32>> = (0..t.order())
        .map(|d| host_replay(&path, &t, &fs, d))
        .collect();
    let elem = t.elem_bytes();
    for workers in WORKERS {
        let tune = TuneParams {
            prefetch_depth: 1,
            ooc_chunk_budget: 2,
            workers,
            ..Default::default()
        };
        // 185 elements: one chunk, never two (the smallest pair is
        // 100 + 86) — the engine runs the blocking loop.
        let single = engine_run(&path, &t, &fs, 185 * elem, tune, true);
        assert_eq!(
            single.bits, replay,
            "single-buffer fallback, {workers} workers"
        );
        assert_eq!(single.prefetch_hits, 0, "fallback must not prefetch");
        assert!(single.stage_peak <= 185 * elem);
        // 195 elements: two full chunks never fit (100 + 100), the last
        // pair does (100 + 90 at most) — every attempt to widen the window
        // past a full chunk stalls, and the run ends overlapped.
        let squeezed = engine_run(&path, &t, &fs, 195 * elem, tune, true);
        assert_eq!(squeezed.bits, replay, "mid-run stall, {workers} workers");
        assert!(squeezed.stalls > 0, "the squeezed budget never stalled");
        assert!(
            squeezed.prefetch_hits > 0,
            "the squeezed budget never prefetched"
        );
        assert!(squeezed.stage_peak <= 195 * elem);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random shapes, chunk sizes and hot-row shares: the blocking loop at
    /// one worker and the deepest pipeline at eight give the replay's bits.
    #[test]
    fn engine_bits_equal_the_host_replay(
        d0 in 1u32..80,
        d1 in 1u32..50,
        d2 in 1u32..50,
        nnz in 1usize..1500,
        cap in 1usize..500,
        hot in 0.0f64..0.95,
        seed in 0u64..1000,
    ) {
        let t = tensor(&[d0.max(4), d1, d2], nnz, 0, hot, seed);
        let dir = common::ScratchDir::new("prop_ooc_sorted");
        let path = dir.join("p.tnsb");
        write_tnsb(&t, &path, cap).unwrap();
        let fs = factors(&t, seed ^ 0xabc);
        let budget = 4 * cap as u64 * t.elem_bytes();
        let blocking = TuneParams { prefetch_depth: 0, workers: 1, rank_chunk: 1, ..Default::default() };
        let deep = TuneParams {
            prefetch_depth: 2,
            ooc_chunk_budget: 3,
            workers: 8,
            rank_chunk: 8,
        };
        let a = engine_run(&path, &t, &fs, budget, blocking, true);
        let b = engine_run(&path, &t, &fs, budget, deep, false);
        for d in 0..3 {
            let replay = host_replay(&path, &t, &fs, d);
            prop_assert_eq!(&a.bits[d], &replay, "blocking loop, mode {}", d);
            prop_assert_eq!(&b.bits[d], &replay, "depth-2 pipeline, mode {}", d);
        }
    }
}
