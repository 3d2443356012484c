//! Reference MTTKRP implementations — the correctness oracles.

use amped_linalg::Mat;
use amped_runtime::kernels::{mttkrp_host_compiled, CompiledShard, FactorsView, MttkrpOut};
use amped_runtime::smexec::host_workers;
use amped_runtime::TuneParams;
use amped_tensor::SparseTensor;

/// Sequential COO MTTKRP with `f64` accumulation:
/// `out(i_d, :) = Σ_{x ∈ X} val(x) · ⊛_{w ≠ d} F_w(i_w, :)`.
///
/// This is Equation 1 of the paper evaluated directly; every parallel kernel
/// in the workspace is validated against it.
pub fn mttkrp_ref(t: &SparseTensor, factors: &[Mat], mode: usize) -> Mat {
    assert_eq!(factors.len(), t.order(), "one factor matrix per mode");
    let r = factors[mode].cols();
    let rows = t.dim(mode) as usize;
    let mut acc = vec![0.0f64; rows * r];
    let mut prod = vec![0.0f64; r];
    for e in t.iter() {
        prod.fill(e.val as f64);
        for (w, f) in factors.iter().enumerate() {
            if w == mode {
                continue;
            }
            let row = f.row(e.coords[w] as usize);
            for (p, &x) in prod.iter_mut().zip(row) {
                *p *= x as f64;
            }
        }
        let i = e.coords[mode] as usize;
        for (a, &p) in acc[i * r..(i + 1) * r].iter_mut().zip(&prod) {
            *a += p;
        }
    }
    Mat::from_vec(rows, r, acc.into_iter().map(|v| v as f32).collect())
}

/// Multithreaded COO MTTKRP: [`mttkrp_compiled`] over [`compile_mode`]'s
/// sorted copy of `t`, sort included — a fast oracle for larger tensors.
/// The kernel layer has had no privatized path of its own since every
/// launch became a sorted view; the name stays because
/// `benchmark/src/surface.rs` links it and times it as the sort-plus-kernel
/// probe.
pub fn mttkrp_privatized(t: &SparseTensor, factors: &[Mat], mode: usize) -> Mat {
    mttkrp_compiled(&compile_mode(t, mode), t, factors)
}

/// An owned copy of `t` stably sorted by its `mode` coordinate — the input
/// of [`mttkrp_compiled`]. Like it, this name survives PR 9's compiled
/// dispatch only because `benchmark/src/surface.rs` links it and this tree
/// may not edit `benchmark/`.
pub fn compile_mode(t: &SparseTensor, mode: usize) -> CompiledShard {
    CompiledShard::compile(t.indices_flat(), t.values(), t.order(), mode)
}

/// Multithreaded MTTKRP over [`compile_mode`]'s sorted copy: the kernel
/// layer's run path at the host worker count, the kernel both engines
/// launch. Matches [`mttkrp_ref`] to `f64` reassociation error (a row cut by
/// a block boundary sums per-block partials), within one `f32` ulp per cell.
pub fn mttkrp_compiled(shard: &CompiledShard, t: &SparseTensor, factors: &[Mat]) -> Mat {
    assert_eq!(factors.len(), t.order(), "one factor matrix per mode");
    let r = factors[shard.mode()].cols();
    let rows = t.dim(shard.mode()) as usize;
    let out = MttkrpOut::zeros(rows, r);
    let views = FactorsView::new(factors.iter().map(|f| f.as_slice()).collect(), r);
    let tune = TuneParams {
        workers: host_workers(),
        ..Default::default()
    };
    mttkrp_host_compiled(shard, &views, &tune, &out);
    Mat::from_vec(rows, r, out.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(shape: Vec<u32>, nnz: usize, r: usize) -> (SparseTensor, Vec<Mat>) {
        let t = GenSpec::uniform(shape, nnz, 71).generate();
        let mut rng = SmallRng::seed_from_u64(72);
        let fs = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, r, &mut rng))
            .collect();
        (t, fs)
    }

    #[test]
    fn hand_computed_tiny_case() {
        // X(0,1) = 2 on a 2×2 matrix (order-2 tensor): MTTKRP for mode 0 is
        // out(0, :) = 2 · F1(1, :).
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[0, 1], 2.0);
        let f1 = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let f0 = Mat::zeros(2, 2);
        let out = mttkrp_ref(&t, &[f0, f1], 0);
        assert_eq!(out.row(0), &[6.0, 8.0]);
        assert_eq!(out.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn mode_symmetry_small_case() {
        // For X(i,i,i)=1 diagonal tensor and identical factors, all modes
        // give identical MTTKRP results.
        let mut t = SparseTensor::new(vec![3, 3, 3]);
        for i in 0..3 {
            t.push(&[i, i, i], 1.0);
        }
        let mut rng = SmallRng::seed_from_u64(73);
        let f = Mat::random(3, 4, &mut rng);
        let fs = vec![f.clone(), f.clone(), f];
        let m0 = mttkrp_ref(&t, &fs, 0);
        let m1 = mttkrp_ref(&t, &fs, 1);
        let m2 = mttkrp_ref(&t, &fs, 2);
        assert!(m0.approx_eq(&m1, 1e-6, 1e-7));
        assert!(m1.approx_eq(&m2, 1e-6, 1e-7));
    }

    #[test]
    fn par_matches_ref() {
        let (t, fs) = setup(vec![40, 30, 20], 3000, 8);
        for d in 0..3 {
            let a = mttkrp_ref(&t, &fs, d);
            let b = mttkrp_privatized(&t, &fs, d);
            assert!(
                a.approx_eq(&b, 1e-3, 1e-4),
                "mode {d}: max diff {}",
                a.max_abs_diff(&b)
            );
        }
    }

    #[test]
    fn par_matches_ref_5mode() {
        let (t, fs) = setup(vec![10, 12, 8, 9, 11], 1500, 4);
        for d in 0..5 {
            let a = mttkrp_ref(&t, &fs, d);
            let b = mttkrp_privatized(&t, &fs, d);
            assert!(a.approx_eq(&b, 1e-3, 1e-4), "mode {d}");
        }
    }

    #[test]
    fn compiled_matches_ref() {
        let (t, fs) = setup(vec![40, 30, 20], 3000, 8);
        for d in 0..3 {
            let a = mttkrp_ref(&t, &fs, d);
            let b = mttkrp_compiled(&compile_mode(&t, d), &t, &fs);
            assert!(a.approx_eq(&b, 1e-3, 1e-4), "mode {d}");
        }
    }

    #[test]
    fn matches_khatri_rao_definition() {
        // MTTKRP is X₍d₎ · (⊙ of the other factors); check against the dense
        // textbook formula on a tiny tensor.
        let (t, fs) = setup(vec![4, 3, 5], 30, 3);
        let krp = amped_linalg::khatri_rao(&fs[1], &fs[2]); // rows: i1 * 5 + i2
        let mut x0 = Mat::zeros(4, 15);
        for e in t.iter() {
            let col = e.coords[1] as usize * 5 + e.coords[2] as usize;
            x0.set(e.coords[0] as usize, col, e.val);
        }
        let dense = x0.matmul(&krp);
        let sparse = mttkrp_ref(&t, &fs, 0);
        assert!(dense.approx_eq(&sparse, 1e-4, 1e-5));
    }
}
