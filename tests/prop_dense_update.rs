//! The dense half of an ALS mode update keeps its bits: the panel Cholesky
//! solve is the scalar textbook substitution lane by lane, `dense_update`
//! (solve → column norms → divide → Gram, each pass cut across the host
//! workers) is the sequential `solve_mat_rows → normalize_cols → gram` at any
//! worker count, and so a whole `cp_als` run — factors, λ and fit trace — is
//! one set of bits whatever `AMPED_THREADS` says, on both engines.

mod common;

use amped::core::als::dense_update;
use amped::linalg::{cholesky, CholFactor};
use amped::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RANKS: [usize; 5] = [1, 2, 7, 32, 40];
const ROWS: [usize; 6] = [0, 1, 7, 8, 9, 1003];
const WORKERS: [usize; 3] = [1, 2, 8];

/// The oracle: one row, forward then back substitution as the textbook
/// writes them — the loop `CholFactor::solve_row` was before the panel
/// kernel, kept here so the kernel has something that is not itself to
/// equal.
fn solve_row_scalar(chol: &CholFactor, b: &mut [f32]) {
    let (n, l) = (chol.n(), chol.l());
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = b[i] as f64;
        for (k, &yk) in y[..i].iter().enumerate() {
            sum -= l[i * n + k] * yk;
        }
        y[i] = sum / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut sum = y[i];
        for (k, &bk) in b.iter().enumerate().skip(i + 1) {
            sum -= l[k * n + i] * (bk as f64);
        }
        b[i] = (sum / l[i * n + i]) as f32;
    }
}

/// Bit equality, except that any NaN equals any NaN: which payload a NaN
/// carries out of a subtraction is the instruction's choice, not the
/// algorithm's.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_rows_match_oracle(chol: &CholFactor, m: &Mat, what: &str) {
    let mut got = m.clone();
    chol.solve_mat_rows(&mut got);
    for r in 0..m.rows() {
        let mut want = m.row(r).to_vec();
        solve_row_scalar(chol, &mut want);
        for (c, (&g, &w)) in got.row(r).iter().zip(&want).enumerate() {
            assert!(same_bits(g, w), "{what}: row {r} col {c}: {g:e} != {w:e}");
        }
        // One row through the public single-row entry is the same kernel.
        let mut single = m.row(r).to_vec();
        chol.solve_row(&mut single);
        assert!(
            single.iter().zip(&want).all(|(&g, &w)| same_bits(g, w)),
            "{what}: solve_row on row {r}"
        );
    }
}

/// A well-conditioned SPD matrix: a random Gram plus a diagonal shift.
fn spd(n: usize, rng: &mut SmallRng) -> Mat {
    let mut g = Mat::random(n + 3, n, rng).gram();
    for i in 0..n {
        g.set(i, i, g.get(i, i) + 0.5);
    }
    g
}

#[test]
fn panel_solve_is_the_scalar_oracle_in_bits() {
    let mut rng = SmallRng::seed_from_u64(11);
    for n in RANKS {
        let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
        for rows in ROWS {
            let m = Mat::from_fn(rows, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
            assert_rows_match_oracle(&chol, &m, &format!("rank {n}, {rows} rows"));
        }
    }
}

#[test]
fn panel_solve_matches_on_ridge_fallback_factors() {
    let mut rng = SmallRng::seed_from_u64(12);
    for n in [2usize, 7, 32] {
        // Rank one: plain Cholesky hits a zero pivot and the ridge retries.
        let ones = Mat::from_fn(n, n, |_, _| 1.0);
        let chol = cholesky(&ones, 1e-12).expect("ridge fallback factorizes");
        let m = Mat::random(19, n, &mut rng);
        assert_rows_match_oracle(&chol, &m, &format!("ridge factor, rank {n}"));
    }
}

#[test]
fn a_poisoned_row_stays_in_its_lane() {
    let mut rng = SmallRng::seed_from_u64(13);
    for n in [1usize, 7, 32] {
        let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
        let clean = Mat::random(21, n, &mut rng);
        let mut solved_clean = clean.clone();
        chol.solve_mat_rows(&mut solved_clean);
        // Rows 2, 9, 12 and 20 sit in three different panels and the
        // one-lane tail; every other row must come out as if they were not
        // there.
        let poison = [
            (2usize, f32::NAN),
            (9, f32::INFINITY),
            (12, f32::NEG_INFINITY),
            (20, -0.0),
        ];
        let mut m = clean.clone();
        for &(r, v) in &poison {
            m.set(r, n / 2, v);
            m.set(r, 0, v);
        }
        assert_rows_match_oracle(&chol, &m, &format!("poisoned, rank {n}"));
        let mut solved = m.clone();
        chol.solve_mat_rows(&mut solved);
        for r in (0..m.rows()).filter(|r| poison.iter().all(|&(p, _)| p != *r)) {
            assert_eq!(
                bits(solved.row(r)),
                bits(solved_clean.row(r)),
                "rank {n}: clean row {r} changed beside a poisoned one"
            );
        }
        for &(r, v) in &poison[..3] {
            assert!(
                solved.row(r).iter().any(|x| !x.is_finite()),
                "rank {n}: row {r} lost its {v}"
            );
        }
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// What `cp_als` did for one mode before `dense_update`.
fn sequential_update(chol: &CholFactor, m: &Mat) -> (Mat, Vec<f32>, Mat) {
    let mut a = m.clone();
    chol.solve_mat_rows(&mut a);
    let lambda = a.normalize_cols();
    let gram = a.gram();
    (a, lambda, gram)
}

fn assert_dense_update_is_sequential(chol: &CholFactor, m: &Mat, what: &str) {
    let (a, lambda, gram) = sequential_update(chol, m);
    for workers in WORKERS {
        let mut got = m.clone();
        let (got_lambda, got_gram) = dense_update(chol, &mut got, workers);
        let what = format!("{what}, {workers} workers");
        assert_eq!(bits(got.as_slice()), bits(a.as_slice()), "{what}: factor");
        assert_eq!(bits(&got_lambda), bits(&lambda), "{what}: lambda");
        assert_eq!(
            bits(got_gram.as_slice()),
            bits(gram.as_slice()),
            "{what}: gram"
        );
    }
}

#[test]
fn dense_update_is_the_sequential_update_in_bits() {
    let mut rng = SmallRng::seed_from_u64(14);
    // rows × rank² on both sides of the small-matrix threshold (2²⁰): the
    // first is worth eight parts, the next three two, the last three are not
    // cut at all.
    for (rows, n) in [
        (4200usize, 32usize),
        (1500, 32),
        (22_000, 7),
        (700, 40),
        (1003, 7),
        (9, 32),
        (0, 5),
    ] {
        let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
        let m = Mat::from_fn(rows, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
        assert_dense_update_is_sequential(&chol, &m, &format!("{rows} × {n}"));
    }
}

#[test]
fn dense_update_leaves_a_zero_column_untouched() {
    let mut rng = SmallRng::seed_from_u64(15);
    let (rows, n) = (2000usize, 32usize);
    // Under the identity the solve maps a zero column to a zero column.
    let identity = Mat::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 });
    let chol = cholesky(&identity, 0.0).expect("identity");
    let m = Mat::from_fn(rows, n, |_, c| if c == 5 { 0.0 } else { rng.gen::<f32>() });
    assert_dense_update_is_sequential(&chol, &m, "zero column");
    let mut a = m.clone();
    let (lambda, gram) = dense_update(&chol, &mut a, 2);
    assert_eq!(lambda[5], 0.0);
    assert!((0..rows).all(|r| a.get(r, 5).to_bits() == 0));
    assert!((0..n).all(|c| gram.get(5, c) == 0.0 && gram.get(c, 5) == 0.0));
    assert!(lambda.iter().enumerate().all(|(c, &l)| c == 5 || l > 0.0));
}

/// The Gram oracle: cell `(i, j)` as one `f64` sum down the rows in row
/// order, rounded once — what `Mat::gram_band` computes, without its
/// four-row register blocking.
fn gram_cell(m: &Mat, i: usize, j: usize) -> f32 {
    let mut s = 0.0f64;
    for r in 0..m.rows() {
        s += m.get(r, i) as f64 * m.get(r, j) as f64;
    }
    s as f32
}

fn assert_gram_is_the_oracle(m: &Mat, gram: &Mat, what: &str) {
    for i in 0..m.cols() {
        for j in 0..m.cols() {
            let want = gram_cell(m, i.min(j), i.max(j));
            let got = gram.get(i, j);
            assert!(
                same_bits(got, want),
                "{what}: ({i}, {j}): {got:e} != {want:e}"
            );
        }
    }
}

#[test]
fn blocked_gram_is_the_per_cell_oracle_in_bits() {
    let mut rng = SmallRng::seed_from_u64(16);
    // Every remainder of the four-row blocking, from no block at all up to
    // two blocks and a tail, and one tall matrix with a three-row tail.
    let row_counts = (0..=9).chain([2051]);
    for (rows, n) in row_counts.flat_map(|r| [1usize, 7, 32].map(|n| (r, n))) {
        let m = Mat::from_fn(rows, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
        let what = format!("{rows} × {n}");
        assert_gram_is_the_oracle(&m, &m.gram(), &what);
        // Bands starting past row 0, one of them empty; cells left of the
        // diagonal keep the sentinel.
        let cuts = [0, n / 3, n / 3, 2 * n / 3, n];
        let mut banded = Mat::from_fn(n, n, |_, _| 7.0);
        for w in cuts.windows(2) {
            m.gram_band(w[0], &mut banded.as_mut_slice()[w[0] * n..w[1] * n]);
        }
        for i in 0..n {
            for j in 0..n {
                let want = if j < i { 7.0 } else { gram_cell(&m, i, j) };
                let got = banded.get(i, j);
                assert!(same_bits(got, want), "{what} banded: ({i}, {j})");
            }
        }
    }
    // The Gram `dense_update` returns, cut into one band and into two.
    for (rows, n) in [(2051usize, 32usize), (9, 7), (6, 1)] {
        let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
        let m = Mat::from_fn(rows, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
        for workers in [1, 2] {
            let mut a = m.clone();
            let (_, gram) = dense_update(&chol, &mut a, workers);
            let what = format!("dense_update {rows} × {n}, {workers} workers");
            assert_gram_is_the_oracle(&a, &gram, &what);
        }
    }
}

#[test]
fn gram_cells_sum_in_row_order_wherever_the_blocks_fall() {
    // Cell (0, 1) sums `2^30`, then `−2^30` and `2^-30` `gap` rows later:
    // in row order that is `2^-30`, but summing `−2^30` and `2^-30` before
    // they meet the `2^30` (a block's products summed apart from the cell,
    // or any other grouping) loses the `2^-30` and gives 0. Every start row
    // and gap, across and within the four-row blocks and into the tail.
    let mut rng = SmallRng::seed_from_u64(17);
    for rows in 3..=13usize {
        for start in 0..rows - 2 {
            for gap in 1..rows - 1 - start {
                let mut col = vec![0.0f32; rows];
                col[start] = 2f32.powi(30);
                col[start + gap] = -(2f32.powi(30));
                col[start + gap + 1] = 2f32.powi(-30);
                let m = Mat::from_fn(rows, 3, |r, c| match c {
                    0 => 1.0,
                    1 => col[r],
                    _ => rng.gen::<f32>(),
                });
                assert_eq!(gram_cell(&m, 0, 1), 2f32.powi(-30));
                let what = format!("{rows} rows, 2^30 at {start}, gap {gap}");
                assert_gram_is_the_oracle(&m, &m.gram(), &what);
            }
        }
    }
}

/// Factors, λ and fit trace of one run, as bits.
fn als_bits(res: &AlsResult) -> (Vec<Vec<u32>>, Vec<u32>, Vec<u64>) {
    (
        res.factors.iter().map(|f| bits(f.as_slice())).collect(),
        bits(&res.lambda),
        res.fits.iter().map(|f| f.to_bits()).collect(),
    )
}

#[test]
fn cp_als_is_one_set_of_bits_across_amped_threads() {
    // Mode 0 is tall enough (5000 × 16² > 2²⁰) that its dense update is cut
    // across the workers; modes 1 and 2 stay on the calling thread.
    let rank = 16;
    let t = GenSpec {
        shape: vec![5000, 40, 30],
        nnz: 30_000,
        skew: vec![1.2, 0.5, 0.0],
        seed: 21,
    }
    .generate();
    let cfg = AmpedConfig {
        rank,
        isp_nnz: 512,
        shard_nnz_budget: 4096,
    };
    let platform = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
    let opts = AlsOptions {
        max_iters: 4,
        tol: 0.0,
        seed: 3,
        ..Default::default()
    };
    let dir = common::ScratchDir::new("prop_dense_update");
    let path = dir.join("t.tnsb");
    write_tnsb(&t, &path, 4096).unwrap();

    // Process-global, so this test owns the variable only while it runs and
    // puts back what it found; the worker count never changes a result (that
    // is the claim), so a concurrent test reading it stays correct.
    let before = std::env::var("AMPED_THREADS").ok();
    let mut runs = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("AMPED_THREADS", threads);
        let mut incore = AmpedEngine::new(&t, platform.clone(), cfg.clone()).unwrap();
        let mut ooc = OocEngine::open(&path, platform.clone(), cfg.clone(), 1 << 20).unwrap();
        runs.push((
            als_bits(&cp_als(&mut incore, &opts).unwrap()),
            als_bits(&cp_als(&mut ooc, &opts).unwrap()),
        ));
    }
    match before {
        Some(v) => std::env::set_var("AMPED_THREADS", v),
        None => std::env::remove_var("AMPED_THREADS"),
    }
    assert_eq!(runs[0].0 .2.len(), 4, "four fits per run");
    for (threads, run) in ["2", "4"].iter().zip(&runs[1..]) {
        assert_eq!(
            run.0, runs[0].0,
            "AmpedEngine: AMPED_THREADS={threads} vs 1"
        );
        assert_eq!(run.1, runs[0].1, "OocEngine: AMPED_THREADS={threads} vs 1");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random shapes, ranks and worker counts on both sides of the
    /// threshold: the blocked update is the sequential one, and the panel
    /// solve inside it is the oracle's.
    #[test]
    fn dense_update_equals_sequential_for_any_shape(
        rows in 0usize..3000,
        n in 1usize..41,
        workers in 1usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
        let m = Mat::from_fn(rows, n, |_, _| rng.gen::<f32>() * 2.0 - 1.0);
        let (a, lambda, gram) = sequential_update(&chol, &m);
        let mut got = m.clone();
        let (got_lambda, got_gram) = dense_update(&chol, &mut got, workers);
        prop_assert_eq!(bits(got.as_slice()), bits(a.as_slice()));
        prop_assert_eq!(bits(&got_lambda), bits(&lambda));
        prop_assert_eq!(bits(got_gram.as_slice()), bits(gram.as_slice()));
        // The first rows against the scalar oracle (a full panel and a tail).
        let head = Mat::from_fn(rows.min(11), n, |r, c| m.get(r, c));
        assert_rows_match_oracle(&chol, &head, "proptest head");
    }
}
