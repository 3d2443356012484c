//! The [`DeviceRuntime`] trait: the op surface engines and baselines
//! execute through.

use crate::device::Device;
use crate::params::TuneParams;
use crate::smexec::GridTiming;
use crate::tracing::Timeline;
use amped_sim::obs::MetricsRegistry;
use amped_sim::{LinkSpec, MemPool, PlatformSpec, SimError};

/// Which collective algorithm redistributes output-factor rows after a mode
/// (Algorithm 1 line 11): the paper's ring over GPUDirect P2P is the only
/// one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collective {
    /// Ring all-gather over the GPU↔GPU links (Algorithm 3).
    Ring,
}

/// One GPU's contribution to a factor all-gather: the output-row ids it owns
/// and their packed row data (`rows.len() × rank` values).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FactorBlock {
    /// Output-row indices, in the order `data` packs them.
    pub rows: Vec<u32>,
    /// Row-major packed row values. Shared: the functional all-gathers
    /// forward a block M² times per mode, and every hop of this payload is a
    /// reference bump, not a copy of the factor rows.
    pub data: std::sync::Arc<[f32]>,
}

/// The device abstraction the whole system executes through.
///
/// Implementations own per-device state (a [`crate::Platform`]) and provide
/// three kinds of method:
///
/// * **Ops** (`&mut self`) — kernel-grid launches, transfers, collectives,
///   allocations. These are what a decorator like
///   [`crate::TracingRuntime`] observes, and what a real-GPU backend would
///   turn into driver calls.
/// * **Planning queries** (`&self`) — pure cost arithmetic (effective-link
///   lookup, list-schedule makespans) engines use to *prepare* schedules.
///   Never recorded by decorators.
/// * **Introspection** (`&self`) — spec and memory-pool access.
///
/// Every timing method returns *simulated* seconds from the deterministic
/// cost model of the backing platform; functional results (grid kernels,
/// gathered blocks) are computed for real.
pub trait DeviceRuntime: std::fmt::Debug {
    // --- Introspection -----------------------------------------------------

    /// A stable backend identifier (`"sim"`, `"cpu-parallel"`, …), e.g. for
    /// labelling reports by the backend that ran them. Decorators forward to
    /// the inner backend: they change observation, not execution.
    fn name(&self) -> &'static str {
        "device"
    }

    /// The tunable execution parameters this runtime applies to its grid
    /// launches. Defaults to [`TuneParams::default`] (the historical
    /// constants) for backends without tunable state.
    fn tune(&self) -> TuneParams {
        TuneParams::default()
    }

    /// Installs tuned execution parameters. Backends without tunable state
    /// ignore the call; [`crate::SimRuntime`] and
    /// [`crate::CpuParallelRuntime`] store and apply them.
    fn set_tune(&mut self, params: TuneParams) {
        let _ = params;
    }

    /// The hardware specification of the platform this runtime drives.
    fn spec(&self) -> &PlatformSpec;

    /// The memory pool of `device` (used/peak/available introspection).
    fn mem(&self, device: Device) -> &MemPool;

    /// The op timeline this runtime records into, if it records one.
    /// Backends return `None` (the default); decorators like
    /// [`crate::TracingRuntime`] return their [`Timeline`] so drivers above
    /// the trait object (the ALS loop, the engines) can open
    /// `iteration/mode/shard` spans without knowing the concrete type.
    fn timeline(&self) -> Option<Timeline> {
        None
    }

    /// The metrics registry this runtime records into. Detached by default
    /// — recording into a detached registry is a single branch, so
    /// uninstrumented runs pay (near) nothing. Backends that support
    /// attachment (e.g. `SimRuntime::with_metrics`) return their attached
    /// handle; decorators forward to the inner backend.
    fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::detached()
    }

    // --- Planning queries (pure, never traced) -----------------------------

    /// The effective host→device link when `active` GPUs stream
    /// concurrently: each PCIe link caps at its own rate, all streams
    /// together cap at the host's aggregate memory bandwidth. This is the
    /// single definition of the link every scatter/stream path prices
    /// against (formerly copied into each engine and baseline).
    fn h2d_link(&self, active: usize) -> LinkSpec {
        let spec = self.spec();
        LinkSpec {
            gbps: spec.h2d_effective_gbps(active),
            latency_s: spec.pcie.latency_s,
        }
    }

    /// The effective host→device link of GPU `gpu` when `active` GPUs
    /// stream concurrently. Every GPU shares the node's one host, so this
    /// is [`DeviceRuntime::h2d_link`].
    fn h2d_link_for(&self, gpu: usize, active: usize) -> LinkSpec {
        let _ = gpu;
        self.h2d_link(active)
    }

    /// The GPU↔GPU link of device pair `(a, b)`: the platform's one P2P
    /// link.
    fn p2p_link(&self, a: usize, b: usize) -> LinkSpec {
        let _ = (a, b);
        self.spec().p2p.clone()
    }

    /// Deterministic makespan of list-scheduling `costs` (in order) onto GPU
    /// `gpu`'s SMs, without executing anything — engines use this to
    /// precompute shard schedules.
    fn makespan(&self, gpu: usize, costs: &[f64]) -> GridTiming;

    // --- Memory ops --------------------------------------------------------

    /// Allocates `bytes` on `device`; `purpose` labels what was being
    /// allocated (e.g. `"factor matrices"`, `"chunk staging"`) so
    /// [`SimError::OutOfMemory`] diagnoses itself.
    fn alloc(&mut self, device: Device, bytes: u64, purpose: &str) -> Result<(), SimError>;

    /// Releases `bytes` on `device`.
    fn free(&mut self, device: Device, bytes: u64);

    /// Releases every allocation and clears high-water marks on all pools —
    /// the boundary between independent runs (baseline systems call it at
    /// the top of `execute`). Decorators treat it like a planning query and
    /// pass it through unrecorded: it marks a fresh timeline epoch, not an
    /// op of the run being traced.
    fn reset_mem(&mut self);

    /// Peak GPU memory charged, in bytes (max over GPUs) — the quantity
    /// Figure 5's footprint comparisons report.
    fn gpu_mem_peak(&self) -> u64 {
        (0..self.spec().num_gpus())
            .map(|g| self.mem(Device::Gpu(g)).peak())
            .max()
            .unwrap_or(0)
    }

    // --- Execution ops -----------------------------------------------------

    /// Launches a kernel grid on GPU `gpu`: executes `kernel(block)` for
    /// every block in `0..costs.len()` **for real** (concurrently for
    /// distinct blocks — shared state must be `Sync`) and returns the grid's
    /// [`GridTiming`]. Simulated backends compute it by list-scheduling the
    /// `costs` sequence onto the GPU's SMs — a pure model, bit-identical for
    /// identical costs regardless of host threading; measured backends
    /// ([`crate::CpuParallelRuntime`]) report real wall time instead.
    ///
    /// Engines do not write kernels against this directly — the MTTKRP entry
    /// points in [`crate::kernels`] build the closures and fold the blocks'
    /// shared output rows.
    fn launch_grid(
        &mut self,
        gpu: usize,
        kernel: &(dyn Fn(usize) + Sync),
        costs: &[f64],
    ) -> GridTiming;

    // --- Transfer ops ------------------------------------------------------

    /// Simulated time to move `bytes` host→GPU `gpu` while `active` GPUs
    /// stream concurrently.
    fn h2d_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64;

    /// Simulated time to move `bytes` GPU `gpu`→host while `active` GPUs
    /// stream concurrently (links are symmetric on the paper's platform).
    fn d2h_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64;

    /// Simulated time of a host-staged scatter: the host holds one chunk and
    /// GPU `g` pulls `slice_bytes[g]` over its own link, all slices
    /// concurrent, so the stage costs the slowest slice in flight. GPUs with
    /// empty slices cost nothing.
    fn scatter_time(&mut self, active: usize, slice_bytes: &[u64]) -> f64;

    // --- Collectives -------------------------------------------------------

    /// Simulated time of the all-gather of per-GPU blocks sized
    /// `block_bytes` under `algo` (the ring).
    fn allgather_time(&mut self, algo: Collective, block_bytes: &[u64]) -> f64;

    /// Functionally runs the ring all-gather over per-GPU factor blocks:
    /// returns, for each GPU, all blocks indexed by source GPU. The data
    /// really travels the ring schedule step by step (Algorithm 3) — this is
    /// how the engines verify the collective moves exactly the right rows.
    fn allgather_blocks(&mut self, blocks: &[FactorBlock]) -> Vec<Vec<FactorBlock>>;
}
