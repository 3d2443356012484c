//! State-of-the-art MTTKRP baselines, reimplemented on the AMPED simulator.
//!
//! The paper's Figure 5 compares AMPED against four published GPU systems.
//! Their original implementations are CUDA codebases; here each system's
//! *algorithmic essence* — format, data placement, communication pattern,
//! and documented limitations — is rebuilt on the same simulated platform and
//! cost model, so the comparison isolates algorithm structure exactly as the
//! paper's argument does (DESIGN.md §1):
//!
//! | System | Crate module | Format | Placement | Limits |
//! |---|---|---|---|---|
//! | AMPED | [`amped`] | COO shards | host-resident, streamed to `m` GPUs | — |
//! | BLCO (ICS'22) | [`blco`] | blocked linearized | host-resident, streamed to 1 GPU | single GPU |
//! | MM-CSF (SC'19) | [`mmcsf`] | CSF fibers | GPU-resident (1 GPU) | ≤ 4 modes, GPU-side build |
//! | ParTI / HiCOO-GPU | [`parti`] | HiCOO blocks | GPU-resident (1 GPU) | 3 modes only |
//! | FLYCOO-GPU (CF'24) | [`flycoo`] | 2 × COO copies | GPU-resident (1 GPU) | 2 tensor copies |
//! | equal-nnz (Fig. 6) | [`equal_nnz`] | COO chunks | streamed to `m` GPUs | host merge per mode |
//!
//! The baselines are models, not executors: each one is its format's
//! partition into blocks, its memory charges and its per-block pricing,
//! producing a simulated [`amped_sim::metrics::RunReport`] and the nonzeros
//! it priced per mode ([`SystemRun::priced_nnz`]). No baseline computes
//! factors; AMPED, the system under test, runs its engine. Out-of-memory
//! outcomes arise from capacity accounting against the scaled platform, not
//! from hard-coded tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amped;
pub mod blco;
pub mod equal_nnz;
pub mod flycoo;
pub mod mmcsf;
pub mod parti;
pub mod system;

pub use amped::AmpedSystem;
pub use blco::BlcoSystem;
pub use equal_nnz::EqualNnzSystem;
pub use flycoo::FlycooSystem;
pub use mmcsf::MmCsfSystem;
pub use parti::PartiSystem;
pub use system::{Capabilities, MttkrpSystem, SystemRun};
