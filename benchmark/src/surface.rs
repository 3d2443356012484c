//! The one place the harness names the `amped` API.
//!
//! Every item the benchmark calls is re-exported here and listed in
//! `benchmark/README.md` ("API surface"). A refactor that renames or removes
//! one of these must either keep the name compiling or be preceded by a
//! benchmark change that retires the metric measured through it
//! (`runtime.kernel_privatized_s` is the first candidate).

// Inputs: generated tensors and their on-disk form.
pub use amped::stream::{read_tnsb_meta, write_tnsb, ChunkReader, StreamPlan};
pub use amped::tensor::datasets::Dataset;
pub use amped::tensor::gen::GenSpec;
pub use amped::tensor::SparseTensor;

// The default path a user gets: engines, configuration, the ALS driver.
pub use amped::core::als::{cp_als, AlsOptions, AlsResult};
pub use amped::core::{AmpedConfig, AmpedEngine, ModeTiming, MttkrpEngine, OocEngine};
pub use amped::plan::ModeAssignment;
pub use amped::sim::{host_workers, MemPool, PlatformSpec, SimError};

// The runtime seam the traced pass wraps.
pub use amped::runtime::{
    Collective, CpuParallelRuntime, Device, DeviceRuntime, FactorBlock, GridTiming, Timeline,
    TuneParams,
};
pub use amped::sim::obs::MetricsRegistry;
pub use amped::sim::LinkSpec;

// Per-layer probes: oracle and kernels, planners, formats, dense algebra.
pub use amped::core::reference::{compile_mode, mttkrp_compiled, mttkrp_privatized, mttkrp_ref};
pub use amped::formats::CsfTensor;
pub use amped::linalg::{cholesky, hadamard_grams, Mat};
pub use amped::partition::PartitionPlan;
pub use amped::plan::{NnzCcp, Partitioner, PlanStats, UniformCost};
pub use amped::runtime::{mttkrp_host_compiled, FactorsView, MttkrpOut};
pub use amped::tune::{backend_fingerprint, Autotuner};
