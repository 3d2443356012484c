//! Deterministic multi-GPU platform simulator.
//!
//! The AMPED paper evaluates on a single node with four NVIDIA RTX 6000 Ada
//! GPUs connected over PCIe with GPUDirect peer-to-peer. This crate stands in
//! for that hardware (DESIGN.md §1 "substitutions"): kernels **execute for
//! real** on host threads, on real data, while *simulated time* is produced
//! by an analytic cost model that is deterministic given the workload
//! statistics (Algorithm 2's atomics are priced there, not performed).
//!
//! The pieces:
//!
//! * [`spec`] — hardware descriptions ([`GpuSpec`], [`LinkSpec`],
//!   [`PlatformSpec`]) with an RTX-6000-Ada-node preset and capacity scaling
//!   (memory capacities shrink with the dataset scale so out-of-memory
//!   behaviour matches the paper's full-scale runs).
//! * [`memory`] — allocation tracking with real out-of-memory errors.
//! * [`costmodel`] — the elementwise-computation kernel cost model
//!   (bandwidth-bound, with L2 reuse and atomic-contention terms) and link
//!   transfer times. Every calibration constant lives here.
//! * [`metrics`] — per-GPU time breakdowns (Fig. 7) and run reports.
//! * [`obs`] — the observability registry ([`MetricsRegistry`]): lock-cheap
//!   counters/gauges/histograms components record into, a Prometheus-style
//!   text exposition, and one-shot warnings. Lives here — at the bottom of
//!   the crate graph — so `amped-stream`, `amped-plan`, and the runtime
//!   backends can all report into one registry.
//!
//! The *execution* primitives — the grid executor and the ring all-gather —
//! live one layer up in `amped-runtime`, behind its `DeviceRuntime` trait;
//! this crate provides the specs, cost arithmetic, and accounting those
//! backends are built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod memory;
pub mod metrics;
pub mod obs;
pub mod spec;

mod error;

pub use error::SimError;
pub use memory::MemPool;
pub use metrics::TimeBreakdown;
pub use obs::{host_workers, MetricsRegistry};
pub use spec::{GpuSpec, HostSpec, LinkSpec, PlatformSpec};
