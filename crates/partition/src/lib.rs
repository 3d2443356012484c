//! The AMPED tensor partitioning scheme (paper §3).
//!
//! For every output mode `d`, the input tensor is reorganized so that
//!
//! 1. **Device ranges** — the output-mode index space `I_d` is cut into `m`
//!    *contiguous* ranges, one per GPU, balanced by nonzero count
//!    (chains-on-chains partitioning over the per-index histogram). All
//!    nonzeros sharing an output index land on one GPU, which removes every
//!    inter-GPU write conflict (§3.1.1) — the property that lets AMPED skip
//!    cross-GPU coherence entirely.
//! 2. **Tensor shards** (TS) — each device range is cut into shards of
//!    bounded nonzero count. A shard is the unit streamed from host memory
//!    and executed as one GPU grid (§4.2).
//! 3. **Inter-shard partitions** (ISP) — equal-sized contiguous chunks of a
//!    shard, one per threadblock/SM, with atomics resolving intra-GPU
//!    conflicts (§3.1.2).
//!
//! The module also implements the *equal-nnz* strawman the paper compares
//! against in Fig. 6 (equal element counts per GPU, ignoring index
//! boundaries), which forces partial-result merging on the host CPU.
//!
//! Preprocessing is real work (histogram + prefix sums + counting sort per
//! mode) and its wall time is measured for Fig. 10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccp;
pub mod equal;
pub mod plan;
pub mod shard;

pub use ccp::{chains_on_chains, try_chains_on_chains, CcpError};
pub use equal::EqualPlan;
pub use plan::{pool_map, PartitionPlan, PlanBusy};
pub use shard::{assert_ranges_tile, isp_ranges, ModePlan, Shard, ShardStats, StatsScratch};
