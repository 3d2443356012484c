//! CP-decomposition specific dense operations.

use crate::Mat;
use std::ops::MulAssign;

/// Hadamard product of Gram matrices `⊛_{m ≠ skip} grams[m]`.
///
/// This is the `V` matrix of the ALS normal equations for the mode `skip`
/// (Equation 1 of the paper rewritten as `Â = X₍d₎ KRP · V⁻¹`). When `skip` is
/// `None` all Grams are multiplied, which is what the CP fit computation needs.
pub fn hadamard_grams<T>(grams: &[Mat<T>], skip: Option<usize>) -> Mat<T>
where
    T: Copy + Default + From<u8> + MulAssign,
{
    let r = grams.first().expect("at least one gram matrix").rows();
    let mut v = Mat::from_fn(r, r, |_, _| T::from(1));
    for (m, g) in grams.iter().enumerate() {
        if Some(m) == skip {
            continue;
        }
        v.hadamard_inplace(g);
    }
    v
}

/// Squared norm of the CP model `‖⟦λ; A₀,…,A_{N−1}⟧‖² = λᵀ (⊛ₘ AₘᵀAₘ) λ`.
pub fn model_norm_sq(lambda: &[f64], gram_had_all: &Mat<f64>) -> f64 {
    let r = lambda.len();
    assert_eq!(gram_had_all.rows(), r);
    let mut acc = 0.0f64;
    for i in 0..r {
        for j in 0..r {
            acc += lambda[i] * gram_had_all.get(i, j) * lambda[j];
        }
    }
    acc
}

/// Dense Khatri-Rao product `A ⊙ B` (column-wise Kronecker): the result has
/// `A.rows() * B.rows()` rows and the shared column count.
///
/// Only used by tests and the reference implementation to validate the sparse
/// kernels against the textbook definition of MTTKRP — real code paths never
/// materialize the KRP (that is the whole point of sparse MTTKRP kernels).
pub fn khatri_rao(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(
        a.cols(),
        b.cols(),
        "khatri-rao requires equal column counts"
    );
    let r = a.cols();
    Mat::from_fn(a.rows() * b.rows(), r, |row, c| {
        let ia = row / b.rows();
        let ib = row % b.rows();
        a.get(ia, c) * b.get(ib, c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadamard_grams_skips_requested_mode() {
        let g0 = Mat::from_vec(2, 2, vec![2.0, 0.0, 0.0, 2.0]);
        let g1 = Mat::from_vec(2, 2, vec![3.0, 1.0, 1.0, 3.0]);
        let g2 = Mat::from_vec(2, 2, vec![5.0, 0.0, 0.0, 5.0]);
        let v = hadamard_grams(&[g0.clone(), g1.clone(), g2.clone()], Some(1));
        assert_eq!(v.as_slice(), &[10.0, 0.0, 0.0, 10.0]);
        let v_all = hadamard_grams(&[g0, g1, g2], None);
        assert_eq!(v_all.as_slice(), &[30.0, 0.0, 0.0, 30.0]);
    }

    #[test]
    fn model_norm_matches_direct_computation() {
        // Rank-1 model with a single factor: ‖λ a‖² = λ² ‖a‖².
        let a = Mat::from_vec(3, 1, vec![1.0, 2.0, 2.0]);
        let g = a.gram_f64(); // [[9]]
        let n = model_norm_sq(&[2.0], &g);
        assert!((n - 36.0).abs() < 1e-9);
    }

    #[test]
    fn khatri_rao_textbook_example() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Mat::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let k = khatri_rao(&a, &b);
        assert_eq!(k.rows(), 4);
        // Column 0: a[:,0] ⊗ b[:,0] = [1*5, 1*7, 3*5, 3*7]
        assert_eq!(k.get(0, 0), 5.0);
        assert_eq!(k.get(1, 0), 7.0);
        assert_eq!(k.get(2, 0), 15.0);
        assert_eq!(k.get(3, 0), 21.0);
        // Column 1: [2*6, 2*8, 4*6, 4*8]
        assert_eq!(k.get(0, 1), 12.0);
        assert_eq!(k.get(3, 1), 32.0);
    }
}
