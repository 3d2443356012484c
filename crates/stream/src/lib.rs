//! # `amped-stream` — out-of-core tensor pipeline
//!
//! The AMPED paper targets *billion-scale* tensors; the in-core pipeline
//! (generate/parse → [`amped_partition::PartitionPlan`] → engine) needs the
//! whole COO tensor plus one sorted copy per mode resident in host memory,
//! so the billion-scale regime is exactly the one it cannot reach. This
//! crate removes that wall with three pieces, following the chunked
//! out-of-memory MTTKRP recipe of Nguyen et al.:
//!
//! * [`mod@format`] — the `.tnsb` chunked binary tensor format: the
//!   nonzeros in fixed-capacity chunks, once in file order and once per mode
//!   in that mode's sorted order (the paper's per-mode copies, on disk),
//!   plus a metadata footer (per-mode histograms, per-chunk index bounding
//!   boxes, `‖X‖²`) that lets planning start without payload I/O. Writers
//!   stream ([`TnsbWriter`], which sorts in a bounded window), and
//!   [`convert_tns_to_tnsb`] turns FROSTT `.tns` text into `.tnsb` in two
//!   bounded passes.
//! * [`reader`] — [`ChunkReader`]: loads chunks through a bounded host
//!   staging budget charged against an [`amped_sim::MemPool`], so holding
//!   too much produces the same out-of-memory error a real staging
//!   allocator would.
//! * [`partition`] — [`StreamPlan`]: the streaming two-pass partitioner.
//!   Pass 1 derives chains-on-chains device ranges from chunk/footer
//!   metadata alone; pass 2 streams the sorted sections once (within the
//!   budget, on the planning pool) to compute per-chunk, per-GPU slice
//!   statistics for the simulator cost model.
//!
//! The out-of-core *execution* mode lives in `amped_core::ooc`, which
//! consumes these types to run MTTKRP/ALS on tensors whose nonzero
//! footprint exceeds both simulated GPU and host capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod partition;
pub mod reader;

/// The integration tests' scratch-directory helper, shared by this crate's
/// unit tests: one unique-per-call directory, removed on drop.
#[cfg(test)]
#[path = "../../../tests/common/mod.rs"]
mod common;

pub use error::StreamError;
pub use format::{
    convert_tns_to_tnsb, read_tnsb_meta, write_tnsb, ChunkMeta, TnsbMeta, TnsbWriter,
};
pub use partition::{ChunkRoute, StreamModePlan, StreamPlan};
pub use reader::{Chunk, ChunkReader, StagedRead};
