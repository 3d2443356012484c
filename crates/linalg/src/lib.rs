//! Small dense linear algebra used by CP-ALS and the MTTKRP kernels.
//!
//! Factor matrices in CP decomposition are tall-skinny (`I_d × R` with `R ≈ 32`).
//! The `R × R` part of an ALS mode update — Gram matrices, their Hadamard
//! product, one Cholesky factorization — is tiny. The `I_d`-proportional part
//! is not: one SPD solve per factor row, the column norms and the new Gram
//! matrix are sweeps over every row, and on a tall tensor with few nonzeros
//! per row they cost as much as the sparse MTTKRP. This crate implements
//! exactly that surface — row-major `f32` storage (matching the GPU baselines
//! evaluated in the paper) with `f64` internal accumulation where it matters
//! for stability.
//!
//! The row-proportional kernels work on packed rows
//! ([`CholFactor::solve_rows`], [`CholFactor::solve_rows_summed`],
//! [`div_cols`]), each documented with the split under which its output
//! bits do not change, so a caller may run the parts side by side; the
//! crate itself starts no thread. Scratch is allocated once per call, never
//! per row. The `R × R` matrices are `Mat<f64>`; the factors are `Mat`
//! (`f32`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chol;
mod mat;
mod ops;

pub use chol::{cholesky, CholFactor};
pub use mat::{div_cols, norms_from_sq_sums, Mat, RowSums};
pub use ops::{hadamard_grams, khatri_rao, model_norm_sq};
