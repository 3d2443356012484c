//! Sparse tensor substrate for the AMPED reproduction.
//!
//! Provides the N-mode COOrdinate (COO) sparse tensor used by every kernel in
//! the workspace, FROSTT `.tns` text I/O so real datasets can be dropped in,
//! synthetic generators that reproduce the *shape signature* (mode sizes, nnz
//! count, per-mode index skew) of the paper's four billion-scale tensors at a
//! configurable scale, and per-mode distribution statistics used by the
//! partitioner and the simulator cost model.
//!
//! # Conventions
//!
//! * Indices are `u32` (`Idx`) — the scaled datasets stay far below 2³² per
//!   mode; the FROSTT reader rejects larger coordinates explicitly.
//! * Values are `f32` (`Val`), matching the single-precision arithmetic of all
//!   GPU baselines evaluated in the paper.
//! * Element storage is array-of-structures: all coordinates of one nonzero
//!   are adjacent, which is what the elementwise computation (paper §3.0.1)
//!   reads together.
//! * A mode-sorted copy ([`SortedCopy`]) stores per row what is per row: the
//!   sorted mode's coordinate becomes one row pointer per index, and each
//!   nonzero keeps only its input coordinates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
pub mod datasets;
pub mod gen;
pub mod io;
mod sorted;
pub mod stats;
mod zipf;

/// The integration tests' scratch-directory helper, shared by this crate's
/// unit tests: one unique-per-call directory, removed on drop.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

pub use coo::{ElemRef, SparseTensor};
pub use sorted::SortedCopy;
pub use zipf::Zipf;

/// Per-mode coordinate type.
pub type Idx = u32;
/// Nonzero value type (single precision, as in the paper's GPU kernels).
pub type Val = f32;
