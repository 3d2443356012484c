//! # AMPED — multi-GPU sparse MTTKRP
//!
//! Reproduction of *AMPED: Accelerating MTTKRP for Billion-Scale Sparse
//! Tensor Decomposition on Multiple GPUs* (Wijeratne, Kannan, Prasanna,
//! ICPP 2025) as a Rust library running on the simulated multi-GPU platform
//! of [`amped_sim`] (see DESIGN.md for the substitution rationale).
//!
//! The crate implements the paper's parallel algorithm end to end:
//!
//! * [`engine::Engine`] — Algorithm 1's mode-by-mode loop, written once over
//!   a [`engine::Source`] of mode-sorted elements: shards of each mode's
//!   sorted copy stream to their owning GPUs, grids of threadblocks execute
//!   the elementwise computation (Algorithm 2) over output-sorted row runs
//!   with no atomic read-modify-write, GPUs synchronize at an inter-GPU
//!   barrier, and the updated output-factor rows travel through the ring
//!   all-gather of Algorithm 3 — producing both *real* factor matrices and
//!   *simulated* per-GPU time breakdowns. [`AmpedEngine`] holds the sorted
//!   copies in host memory; [`OocEngine`] streams them from a `.tnsb` file's
//!   sorted sections through a bounded staging budget.
//! * [`als`] — CP-ALS on top of the engine (the decomposition whose inner
//!   loop the paper accelerates), with λ-normalization and fit tracking.
//! * [`mod@reference`] — sequential and multithreaded COO MTTKRP oracles used by
//!   every correctness test in the workspace.
//!
//! ## Quick start
//!
//! ```
//! use amped_core::{config::AmpedConfig, engine::AmpedEngine, reference, MttkrpEngine};
//! use amped_sim::PlatformSpec;
//! use amped_tensor::gen::GenSpec;
//! use amped_linalg::Mat;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let tensor = GenSpec::uniform(vec![64, 48, 56], 4_000, 1).generate();
//! let platform = PlatformSpec::rtx6000_ada_node(4).scaled(1e-3);
//! let cfg = AmpedConfig { rank: 16, ..AmpedConfig::default() };
//! let mut engine = AmpedEngine::new(&tensor, platform, cfg).unwrap();
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let factors: Vec<Mat> =
//!     tensor.shape().iter().map(|&d| Mat::random(d as usize, 16, &mut rng)).collect();
//! let (out, timing) = engine.mttkrp_mode(0, &factors).unwrap();
//!
//! let want = reference::mttkrp_ref(&tensor, &factors, 0);
//! assert!(out.approx_eq(&want, 1e-3, 1e-4));
//! assert!(timing.wall > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod als;
pub mod config;
pub mod engine;
pub mod ooc;
pub mod reference;

/// The integration tests' scratch-directory helper, shared by this crate's
/// unit tests: one unique-per-call directory, removed on drop.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

pub use config::AmpedConfig;
pub use engine::{AmpedEngine, ModeTiming, MttkrpEngine};
pub use ooc::OocEngine;
