//! The unified planner layer (`amped-plan`).
//!
//! AMPED's headline property is load balance: chains-on-chains partitioning
//! (CCP) over the per-output-index histogram keeps per-GPU work even, which
//! is what makes the conflict-free sharding and the ring all-gather pay off
//! (paper §3). The in-core [`amped_partition::ModePlan`] and the streaming
//! plan's pass 1 both plan through this crate, so either can model
//! heterogeneous devices or react to observed imbalance.
//!
//! This crate gives planning the same seam PR 3 gave execution:
//!
//! * [`Partitioner`] — one object-safe trait: histogram + workload stats +
//!   a [`CostQuery`] in, a [`ModeAssignment`] out.
//! * [`NnzCcp`] — the classic policy, producing bit-identical assignments
//!   to the pre-refactor implementations (pinned by
//!   `tests/planner_equivalence.rs` at the workspace root).
//! * [`CostGuidedCcp`] — CCP over *modeled per-slice execution time*: the
//!   [`PlatformCostQuery`] facade prices nonzeros through
//!   [`amped_sim::costmodel`] per device, so a platform mixing fast and slow
//!   GPUs (e.g. [`amped_sim::PlatformSpec::hetero_2fast_2slow`]) gets ranges
//!   proportional to device throughput instead of equal nonzero counts.
//! * [`RebalancingPlanner`] — a decorator that turns observed per-GPU
//!   compute times from a run report into per-device throughput estimates
//!   and re-runs heterogeneity-aware CCP when the imbalance overhead
//!   crosses a threshold; the engines' `replan` path swaps the resulting
//!   assignment in between ALS iterations without rebuilding the engine.
//!
//! Every policy plans through one fallible surface: [`Partitioner::plan_mode`]
//! returns [`PlanError`] instead of panicking — in particular
//! [`PlanError::IndexSpaceTooLarge`] when a mode's index space exceeds the
//! `u32` range bounds, the condition billion-scale tensors actually hit.
//!
//! On a homogeneous platform every device models identical throughput, so
//! [`CostGuidedCcp`] degenerates to nnz-weighted CCP and the default paths
//! stay bit-identical (the PR-3 golden runtime-equivalence suite is the
//! proof).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod cost;
pub mod error;
pub mod partitioner;
pub mod rebalance;

pub use assignment::ModeAssignment;
pub use cost::{modeled_makespan, CostQuery, PlatformCostQuery, UniformCost, WorkloadProfile};
pub use error::PlanError;
pub use partitioner::{
    hetero_chains, try_hetero_chains, CostGuidedCcp, NnzCcp, Partitioner, PlanStats,
};
pub use rebalance::RebalancingPlanner;
