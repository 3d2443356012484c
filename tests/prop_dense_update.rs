//! The dense half of an ALS mode update keeps one set of bits: the solve is
//! `x = m·W` with `W = V⁻¹`, each `x_j` one ascending `f64` sum rounded
//! once (a scalar oracle of that contract is matched in bits, and the
//! result is within one `f32` ulp of the row maximum of an `f64`
//! triangular-solve oracle); `dense_update` (that solve, the `f64` Gram and
//! the column dots in one pass over fixed 1024-row blocks whose sums fold
//! in block order) is the scalar oracle of the same contract at any worker
//! count; and so a whole `cp_als` run — factors, λ and fit trace — is one
//! set of bits whatever `AMPED_THREADS` says, on both engines.

mod common;

use amped::core::als::dense_update;
use amped::linalg::{cholesky, CholFactor};
use amped::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const RANKS: [usize; 5] = [1, 2, 7, 32, 40];
const ROWS: [usize; 9] = [0, 1, 3, 4, 5, 7, 8, 9, 1003];
const WORKERS: [usize; 4] = [1, 2, 3, 8];
/// The dense update's block grid, as its contract states it.
const BLOCK_ROWS: usize = 1024;

/// The solve oracle: one row as the contract writes it, `x_j = Σ_k m_k W_kj`
/// summed in `f64` from `+0.0` with `k` ascending, rounded to `f32` once.
fn solve_row_scalar(w: &Mat<f64>, m: &[f32]) -> Vec<f32> {
    let n = m.len();
    (0..n)
        .map(|j| {
            let mut sum = 0.0f64;
            for (k, &mk) in m.iter().enumerate() {
                sum += mk as f64 * w.get(k, j);
            }
            sum as f32
        })
        .collect()
}

/// The accuracy oracle: `V x = m` by forward then back substitution on the
/// factor `L`, entirely in `f64` (no intermediate rounding).
fn solve_row_f64(chol: &CholFactor, m: &[f32]) -> Vec<f64> {
    let (n, l) = (chol.n(), chol.l());
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut sum = m[i] as f64;
        for (k, &yk) in y[..i].iter().enumerate() {
            sum -= l[i * n + k] * yk;
        }
        y[i] = sum / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * y[k];
        }
        y[i] = sum / l[i * n + i];
    }
    y
}

/// Bit equality, except that any NaN equals any NaN: which payload a NaN
/// carries out of an addition is the instruction's choice, not the
/// algorithm's.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn bits64(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_rows_match_oracle(chol: &CholFactor, m: &Mat, what: &str) {
    let w = chol.inverse();
    let mut got = m.clone();
    chol.solve_mat_rows(&mut got);
    for r in 0..m.rows() {
        let want = solve_row_scalar(&w, m.row(r));
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
fn spd(n: usize, rng: &mut SmallRng) -> Mat<f64> {
    let mut g = Mat::random(n + 3, n, rng).gram_f64();
    for i in 0..n {
        g.set(i, i, g.get(i, i) + 0.5);
    }
    g
}

/// A matrix the plain factorization rejects, so that `cholesky` takes the
/// ridge path: a well-conditioned SPD matrix whose last pivot `L_nn²` is
/// taken off its diagonal and a little more, `5·10⁻⁶` of the mean diagonal.
/// The retries stop at a ridge of `10⁻⁵` of it, leaving a condition number
/// near 10⁷. (At rank 1 the ridge path has no such matrix: the ridge is
/// relative to a mean diagonal that would be negative.)
fn ridge_path(n: usize, rng: &mut SmallRng) -> Mat<f64> {
    let mut v = spd(n, rng);
    let last = n - 1;
    let l = cholesky(&v, 0.0).expect("SPD").l()[last * n + last];
    let mean = (0..n).map(|i| v.get(i, i)).sum::<f64>() / n as f64;
    v.set(last, last, v.get(last, last) - l * l - 5e-6 * mean);
    v
}

/// A panel of rows (`solve_mat_rows` over a whole `Mat`, and each row
/// through `solve_row`) is the scalar oracle in bits.
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
        let ones = Mat::from_fn(n, n, |_, _| 1.0f32);
        let chol = cholesky(&ones, 1e-12).expect("ridge fallback factorizes");
        let m = Mat::random(19, n, &mut rng);
        assert_rows_match_oracle(&chol, &m, &format!("ridge factor, rank {n}"));
    }
}

#[test]
fn solve_is_within_an_ulp_of_the_f64_oracle() {
    let mut rng = SmallRng::seed_from_u64(12);
    for n in [1usize, 7, 32] {
        let mut cases = vec![("SPD", spd(n, &mut rng))];
        if n > 1 {
            cases.push(("ridge", ridge_path(n, &mut rng)));
        }
        for (kind, v) in cases {
            let chol = cholesky(&v, 1e-12).expect("factorizes");
            let mut m = Mat::from_fn(37, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
            let input = m.clone();
            chol.solve_mat_rows(&mut m);
            for r in 0..m.rows() {
                let want = solve_row_f64(&chol, input.row(r));
                let max = want.iter().fold(0.0f64, |a, &x| a.max(x.abs())) as f32;
                let ulp = f32::from_bits(max.to_bits() + 1) - max;
                for (c, (&g, &w)) in m.row(r).iter().zip(&want).enumerate() {
                    let err = (g as f64 - w).abs();
                    assert!(
                        err <= ulp as f64,
                        "{kind} rank {n}, row {r} col {c}: {g:e} vs {w:e}, error {err:e} > ulp {ulp:e}"
                    );
                }
            }
        }
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
        // Rows 2, 9, 12 and 20 sit in three different four-row groups and
        // the one-row tail; every other row must come out as if they were
        // not there.
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

/// `dense_update`'s contract, one scalar step at a time: every row solved by
/// the solve oracle; per 1024-row block, each Gram cell `Σ x_ri x_rj` and
/// each dot `Σ m_rc x_rc` summed in `f64` from `+0.0` in row order; the
/// blocks' sums added from `+0.0` in `block_order`; then `λ = √G_cc`, the
/// factor divided by `λ` rounded to `f32` (a zero column untouched), the
/// Gram normalized by `λ_i λ_j` (1 in place of a zero λ) and the dots summed
/// in column order. Returns `(factor, λ, Ĝ, ⟨M, X⟩)`.
fn update_oracle(
    chol: &CholFactor,
    m: &Mat,
    block_order: &[usize],
) -> (Mat, Vec<f64>, Mat<f64>, f64) {
    let (rows, n) = (m.rows(), m.cols());
    let w = chol.inverse();
    let mut x = Mat::from_fn(rows, n, |_, _| 0.0f32);
    for r in 0..rows {
        x.row_mut(r)
            .copy_from_slice(&solve_row_scalar(&w, m.row(r)));
    }
    let block_sums = |b: usize| {
        let (mut g, mut dot) = (vec![0.0f64; n * n], vec![0.0f64; n]);
        for r in b * BLOCK_ROWS..((b + 1) * BLOCK_ROWS).min(rows) {
            for i in 0..n {
                for j in 0..n {
                    g[i * n + j] += x.get(r, i) as f64 * x.get(r, j) as f64;
                }
                dot[i] += m.get(r, i) as f64 * x.get(r, i) as f64;
            }
        }
        (g, dot)
    };
    let (mut g, mut dot) = (vec![0.0f64; n * n], vec![0.0f64; n]);
    for &b in block_order {
        let (bg, bd) = block_sums(b);
        g.iter_mut().zip(&bg).for_each(|(s, v)| *s += v);
        dot.iter_mut().zip(&bd).for_each(|(s, v)| *s += v);
    }
    let lambda: Vec<f64> = (0..n).map(|c| g[c * n + c].sqrt()).collect();
    for (c, &norm) in lambda.iter().enumerate() {
        let norm = norm as f32;
        if norm > 0.0 {
            for r in 0..rows {
                x.set(r, c, x.get(r, c) / norm);
            }
        }
    }
    let d = |c: usize| if lambda[c] > 0.0 { lambda[c] } else { 1.0 };
    let gram = Mat::from_fn(n, n, |i, j| g[i * n + j] / (d(i) * d(j)));
    (x, lambda, gram, dot.iter().sum())
}

fn assert_dense_update_is_the_oracle(chol: &CholFactor, m: &Mat, workers: &[usize], what: &str) {
    let blocks: Vec<usize> = (0..m.rows().div_ceil(BLOCK_ROWS)).collect();
    let (x, lambda, gram, inner) = update_oracle(chol, m, &blocks);
    for &workers in workers {
        let mut got = m.clone();
        let (got_lambda, got_gram, got_inner) = dense_update(chol, &mut got, workers);
        let what = format!("{what}, {workers} workers");
        assert_eq!(bits(got.as_slice()), bits(x.as_slice()), "{what}: factor");
        assert_eq!(bits64(&got_lambda), bits64(&lambda), "{what}: lambda");
        assert_eq!(
            bits64(got_gram.as_slice()),
            bits64(gram.as_slice()),
            "{what}: gram"
        );
        assert_eq!(got_inner.to_bits(), inner.to_bits(), "{what}: inner");
    }
}

#[test]
fn dense_update_is_the_sequential_update_in_bits() {
    let mut rng = SmallRng::seed_from_u64(14);
    // Up to a block and into the tail, at and across the block edges, and
    // three blocks with a tail of three rows.
    let row_counts = (0..=9).chain([1023, 1024, 1025, 2051]);
    for (rows, n) in row_counts.flat_map(|r| [1usize, 7, 32].map(|n| (r, n))) {
        let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
        let m = Mat::from_fn(rows, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
        assert_dense_update_is_the_oracle(&chol, &m, &WORKERS, &format!("{rows} × {n}"));
    }
}

#[test]
fn the_oracle_sees_the_block_fold_order() {
    // The contract pins the order the blocks' sums fold in: on three blocks
    // the reversed order is another set of bits, so the oracle (and the
    // test above) would catch a fold in completion or reverse order.
    let mut rng = SmallRng::seed_from_u64(18);
    let n = 7;
    let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
    let m = Mat::from_fn(2051, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
    let (_, lambda, gram, inner) = update_oracle(&chol, &m, &[0, 1, 2]);
    let (_, lambda_r, gram_r, inner_r) = update_oracle(&chol, &m, &[2, 1, 0]);
    assert!(
        bits64(&lambda) != bits64(&lambda_r)
            || bits64(gram.as_slice()) != bits64(gram_r.as_slice())
            || inner.to_bits() != inner_r.to_bits(),
        "reversing the fold moved no bit: the data cannot tell the orders apart"
    );
}

/// FNV-1a over the bits of everything `dense_update` returns.
fn update_hash(a: &Mat, lambda: &[f64], gram: &Mat<f64>, inner: f64) -> u64 {
    let words = a.as_slice().iter().map(|v| v.to_bits() as u64);
    let words = words.chain(lambda.iter().chain(gram.as_slice()).map(|v| v.to_bits()));
    words
        .chain([inner.to_bits()])
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn dense_update_bits_are_pinned_across_builds() {
    // The same bits in every build: ci.sh runs this suite once more at the
    // portable x86-64 baseline, where the pinned hash must still come out.
    let mut rng = SmallRng::seed_from_u64(19);
    let n = 32;
    let chol = cholesky(&spd(n, &mut rng), 1e-12).expect("SPD");
    let mut a = Mat::from_fn(2051, n, |_, _| rng.gen::<f32>() * 4.0 - 2.0);
    let (lambda, gram, inner) = dense_update(&chol, &mut a, 2);
    assert_eq!(
        update_hash(&a, &lambda, &gram, inner),
        4_093_907_606_486_743_602,
        "dense_update's bits moved"
    );
}

#[test]
fn dense_update_leaves_a_zero_column_untouched() {
    let mut rng = SmallRng::seed_from_u64(15);
    let (rows, n) = (2000usize, 32usize);
    // Under the identity the solve maps a zero column to a zero column.
    let identity = Mat::from_fn(n, n, |r, c| if r == c { 1.0f32 } else { 0.0 });
    let chol = cholesky(&identity, 0.0).expect("identity");
    let m = Mat::from_fn(rows, n, |_, c| if c == 5 { 0.0 } else { rng.gen::<f32>() });
    assert_dense_update_is_the_oracle(&chol, &m, &WORKERS, "zero column");
    let mut a = m.clone();
    let (lambda, gram, _) = dense_update(&chol, &mut a, 2);
    assert_eq!(lambda[5], 0.0);
    assert!((0..rows).all(|r| a.get(r, 5).to_bits() == 0));
    assert!((0..n).all(|c| gram.get(5, c) == 0.0 && gram.get(c, 5) == 0.0));
    assert!(lambda.iter().enumerate().all(|(c, &l)| c == 5 || l > 0.0));
}

/// The Gram oracle: cell `(i, j)` as one `f64` sum down the rows in row
/// order — what the Gram tiles compute, without their four-row register
/// blocking.
fn gram_cell(m: &Mat, i: usize, j: usize) -> f64 {
    let mut s = 0.0f64;
    for r in 0..m.rows() {
        s += m.get(r, i) as f64 * m.get(r, j) as f64;
    }
    s
}

fn assert_gram_is_the_oracle(m: &Mat, what: &str) {
    let (gram, gram64) = (m.gram(), m.gram_f64());
    for i in 0..m.cols() {
        for j in 0..m.cols() {
            let want = gram_cell(m, i.min(j), i.max(j));
            let got = gram.get(i, j);
            assert!(
                same_bits(got, want as f32),
                "{what}: ({i}, {j}): {got:e} != {want:e}"
            );
            assert_eq!(
                gram64.get(i, j).to_bits(),
                want.to_bits(),
                "{what}: f64 ({i}, {j})"
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
        assert_gram_is_the_oracle(&m, &format!("{rows} × {n}"));
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
                assert_eq!(gram_cell(&m, 0, 1), 2f64.powi(-30));
                let what = format!("{rows} rows, 2^30 at {start}, gap {gap}");
                assert_gram_is_the_oracle(&m, &what);
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
    // Mode 0 is five blocks of the dense update's grid, which the workers
    // claim; modes 1 and 2 are one block each.
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

    /// Random shapes, ranks and worker counts: the one-pass update is its
    /// contract's scalar oracle.
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
        assert_dense_update_is_the_oracle(&chol, &m, &[workers], "proptest");
    }
}
