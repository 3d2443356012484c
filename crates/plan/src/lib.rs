//! The planner layer (`amped-plan`).
//!
//! AMPED's headline property is load balance: chains-on-chains partitioning
//! (CCP) over the per-output-index histogram keeps per-GPU work even, which
//! is what makes the conflict-free sharding and the ring all-gather pay off
//! (paper §3). The in-core [`amped_partition::PartitionPlan`] and the
//! streaming plan's pass 1 both plan through this crate:
//!
//! * [`Partitioner`] — histogram + workload stats + the device count
//!   ([`UniformCost`]) in, a [`ModeAssignment`] out.
//! * [`NnzCcp`] — the policy, producing bit-identical assignments to the
//!   pre-refactor implementations (pinned by `tests/planner_equivalence.rs`
//!   at the workspace root).
//!
//! Planning is fallible: [`Partitioner::plan_mode`] returns [`PlanError`]
//! instead of panicking — in particular [`PlanError::IndexSpaceTooLarge`]
//! when a mode's index space exceeds the `u32` range bounds, the condition
//! billion-scale tensors actually hit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod error;
pub mod partitioner;

pub use assignment::ModeAssignment;
pub use error::PlanError;
pub use partitioner::{NnzCcp, Partitioner, PlanStats, UniformCost};
