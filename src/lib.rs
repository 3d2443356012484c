//! # AMPED — multi-GPU sparse MTTKRP for billion-scale tensor decomposition
//!
//! Facade crate re-exporting the whole workspace: the AMPED engine
//! ([`amped_core`]), the sparse tensor substrate ([`amped_tensor`]), the
//! simulated multi-GPU platform ([`amped_sim`]), the device-runtime layer
//! every engine and baseline executes through ([`amped_runtime`]), the
//! partitioner ([`amped_partition`]), the out-of-core streaming pipeline
//! ([`amped_stream`]), the baseline formats ([`amped_formats`]) and
//! systems ([`amped_baselines`]), and the dense linear algebra
//! ([`amped_linalg`]).
//!
//! See the repository README for a tour, DESIGN.md for the system inventory
//! and hardware-substitution rationale, and `examples/` for runnable entry
//! points:
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example cpd_als
//! cargo run --release --example multi_gpu_scaling
//! cargo run --release --example out_of_core
//! cargo run --release --example stream_ooc
//! cargo run --release --example twitch_5mode
//! cargo run --release --example cluster
//! ```

#![forbid(unsafe_code)]

pub use amped_baselines as baselines;
pub use amped_core as core;
pub use amped_formats as formats;
pub use amped_linalg as linalg;
pub use amped_partition as partition;
pub use amped_plan as plan;
pub use amped_runtime as runtime;
pub use amped_sim as sim;
pub use amped_stream as stream;
pub use amped_tensor as tensor;
pub use amped_tune as tune;

/// Convenience re-exports covering the common workflow: build a tensor,
/// configure a platform, run the engine, inspect reports.
pub mod prelude {
    pub use amped_baselines::{
        AmpedSystem, BlcoSystem, EqualNnzSystem, FlycooSystem, MmCsfSystem, MttkrpSystem,
        PartiSystem, SystemRun,
    };
    pub use amped_core::als::{cp_als, AlsOptions, AlsResult, RebalanceOptions};
    pub use amped_core::reference::{compile_mode, mttkrp_compiled, mttkrp_ref};
    pub use amped_core::{
        AmpedConfig, AmpedEngine, GatherAlgo, ModeTiming, MttkrpEngine, OocEngine, SchedulePolicy,
    };
    pub use amped_linalg::Mat;
    pub use amped_partition::{EqualPlan, ModePlan, PartitionPlan};
    pub use amped_plan::{
        modeled_makespan, AssignmentSpace, CostGuidedCcp, CostQuery, EqualSplit, HierarchicalCcp,
        ModeAssignment, NnzCcp, Partitioner, PlanError, PlanStats, PlatformCostQuery,
        RebalancingPlanner, UniformCost, WorkloadProfile,
    };
    pub use amped_runtime::{
        chrome_trace, chrome_trace_string, launch_mttkrp, Collective, CompiledShard,
        CpuParallelRuntime, Device, DeviceRuntime, FactorBlock, FactorsView, GridTiming, MttkrpOut,
        Platform, SimRuntime, SortedCoo, SpanPath, SpanScope, StragglerReport, Timeline,
        TracingRuntime, TuneParams,
    };
    pub use amped_sim::metrics::{geomean, RunReport};
    pub use amped_sim::obs::MetricsRegistry;
    pub use amped_sim::{ClusterSpec, MemPool, PlatformSpec, SimError, TimeBreakdown};
    pub use amped_stream::{
        convert_tns_to_tnsb, write_tnsb, ChunkReader, StreamError, StreamPlan, TnsbMeta, TnsbWriter,
    };
    pub use amped_tensor::datasets::Dataset;
    pub use amped_tensor::gen::{low_rank, low_rank_dense, GenSpec};
    pub use amped_tensor::{io, Idx, SparseTensor, Val};
    pub use amped_tune::{backend_fingerprint, Autotuner, TensorStats, TuneError};
}
