//! The device-runtime layer: every kernel launch, transfer, collective, and
//! device allocation in the workspace goes through the [`DeviceRuntime`]
//! trait defined here.
//!
//! The layers above (the `amped-core` engines, every baseline system in
//! `amped-baselines`) never touch the execution primitives
//! directly; they hold a `Box<dyn DeviceRuntime>` and issue *ops*. That seam
//! is what makes new platform scenarios — an NVLink node, multi-node rings,
//! an eventual real-GPU backend — a matter of adding a `DeviceRuntime`
//! implementation instead of editing six call sites.
//!
//! The pieces:
//!
//! * [`DeviceRuntime`] — the trait: grid launches returning [`GridTiming`],
//!   H2D/D2H/scatter transfer costing, collective all-gathers (functional
//!   and timed), and per-device memory pools with purpose-labeled
//!   out-of-memory errors.
//! * [`Platform`] — the per-device state a backend owns: one
//!   [`MemPool`](amped_sim::MemPool) per GPU plus the host pool, built from
//!   a [`PlatformSpec`](amped_sim::PlatformSpec).
//! * [`SimRuntime`] — the default backend: wraps the deterministic
//!   simulation primitives ([`smexec`], [`collective`]) and the
//!   `amped-sim` cost model, preserving the pre-extraction behavior bit
//!   for bit (proved by `tests/runtime_equivalence.rs` at the workspace
//!   root).
//! * [`CpuParallelRuntime`] — the measured backend: launches really run on
//!   host cores and report wall time, while planning queries, transfers,
//!   and collectives keep the simulated model — the honest
//!   `GridTiming`-vs-wall calibration seam.
//! * [`TracingRuntime`] — a decorator over any backend that records an
//!   op-level timeline (op kind, device, bytes, blocks, simulated
//!   start/end, span path); see `examples/timeline.rs`.
//! * [`spans`] — hierarchical span scopes ([`SpanScope`]) the ALS driver
//!   and engines open around `iteration/mode/shard` regions, plus the
//!   [`StragglerReport`] per-device busy statistics derived from a traced
//!   run.
//! * [`export`] — the Chrome trace-event JSON exporter
//!   ([`chrome_trace`]): one track per device, spans as nested slices,
//!   loadable in Perfetto. The metrics registry itself (counters, gauges,
//!   histograms, Prometheus exposition) lives in [`amped_sim::obs`] so the
//!   planning and streaming crates can record into it too; backends here
//!   report through [`DeviceRuntime::metrics`].
//! * [`kernels`] — the kernel layer: rank-blocked MTTKRP over a
//!   [`SortedCoo`] view, on one of two paths (direct for single-block
//!   grids, row runs with a block-ordered edge fold for the rest). Engines
//!   and baselines launch through [`kernels::launch_mttkrp`] instead of
//!   writing per-element atomic updates.
//! * [`compiled`] — an owned mode-sorted copy ([`CompiledShard`]) for
//!   callers whose data is not sorted by the output mode yet; it lends the
//!   kernel layer the same [`SortedCoo`] view the engines' copies do.
//! * [`params`] — the tunable execution parameters ([`TuneParams`]: rank
//!   tile, worker count, OOC chunk budget and prefetch depth) a runtime
//!   carries and the `amped-tune` autotuner searches. Every setting is
//!   bit-transparent.
//! * [`smexec`] / [`collective`] — the execution primitives themselves
//!   (grid executor, flat and hierarchical ring all-gathers), moved here
//!   from `amped-sim` so that no caller outside this crate reaches them
//!   directly.
//!
//! Multi-node clusters slot in through the same seam:
//! [`SimRuntime::cluster`] builds the per-node device/host pools from a
//! [`ClusterSpec`](amped_sim::ClusterSpec), transfers resolve the link tier
//! per device pair ([`DeviceRuntime::p2p_link`]), and
//! [`Collective::HierarchicalRing`] swaps the flat ring for the
//! intra-node-ring + inter-node-exchange schedule — the engines above run
//! unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod compiled;
pub mod cpu_runtime;
pub mod device;
pub mod export;
pub mod kernels;
pub mod params;
pub mod sim_runtime;
pub mod smexec;
pub mod spans;
pub mod tracing;

mod runtime;

pub use compiled::CompiledShard;
pub use cpu_runtime::CpuParallelRuntime;
pub use device::{Device, Platform};
pub use export::{chrome_trace, chrome_trace_string};
pub use kernels::{launch_mttkrp, mttkrp_host_compiled, FactorsView, MttkrpOut, SortedCoo};
pub use params::{TuneParams, MAX_RANK_CHUNK};
pub use runtime::{Collective, DeviceRuntime, FactorBlock};
pub use sim_runtime::SimRuntime;
pub use smexec::GridTiming;
pub use spans::{SpanLabel, SpanPath, SpanScope, StragglerReport};
pub use tracing::{OpKind, OpRecord, Timeline, TracingRuntime};
