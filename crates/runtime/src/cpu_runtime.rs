//! A measured backend: grids really run on host cores and report wall time.
//!
//! [`CpuParallelRuntime`] is the workspace's second [`DeviceRuntime`]
//! backend (ROADMAP: "second `DeviceRuntime` backend"). It shares the
//! simulator's platform description — memory pools, link models, collective
//! timing and planning queries all behave exactly like [`SimRuntime`] — but
//! [`DeviceRuntime::launch_grid`] executes the grid's blocks on the host
//! worker pool and returns the **measured** wall time instead of the
//! list-scheduled model. Running the same workload through both backends is
//! therefore an honest `GridTiming`-vs-wall calibration: same kernels, same
//! block decomposition, one clock simulated and one real.
//!
//! Contract notes:
//!
//! * Measured time covers block execution only (the grid join), matching
//!   what `launch_grid` means on a device; kernel-layer post-processing
//!   such as the run path's edge fold is outside the op, as a device-side
//!   epilogue would be.
//! * `busy_sum` cannot be attributed per-block without per-block probes, so
//!   it equals the measured makespan (as if one SM had run the grid).
//! * Measured timings are **not** run-to-run stable the way [`SimRuntime`]
//!   timings are; use it for measurement, not goldens. (The kernels' output
//!   bits are: every launch folds in block-index order.)

use crate::device::Device;
use crate::params::TuneParams;
use crate::runtime::{Collective, DeviceRuntime, FactorBlock};
use crate::sim_runtime::SimRuntime;
use crate::smexec::{execute_blocks, GridTiming};
use crate::tracing::Timeline;
use amped_sim::obs::MetricsRegistry;
use amped_sim::{ClusterSpec, LinkSpec, MemPool, PlatformSpec, SimError};
use std::time::Instant;

/// [`DeviceRuntime`] that executes launches on host cores and reports
/// measured wall time; every other op delegates to an inner [`SimRuntime`].
#[derive(Clone, Debug)]
pub struct CpuParallelRuntime {
    inner: SimRuntime,
    /// Observed `modeled / measured` launch-time ratio used to rescale
    /// [`Self::modeled_makespan`]; `1.0` (the default) leaves the GPU-model
    /// numbers untouched.
    launch_calibration: f64,
}

impl CpuParallelRuntime {
    /// A measured runtime over a single node `spec`.
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            inner: SimRuntime::new(spec),
            launch_calibration: 1.0,
        }
    }

    /// A measured runtime over a multi-node `cluster`.
    pub fn cluster(cluster: ClusterSpec) -> Self {
        Self {
            inner: SimRuntime::cluster(cluster),
            launch_calibration: 1.0,
        }
    }

    /// The modeled timing of the same grid on the simulated platform,
    /// rescaled by the observed launch calibration ratio (see
    /// [`Self::set_launch_calibration`]) — convenience for calibration
    /// reports and for predicting wall time on *this* backend. At the
    /// default ratio of `1.0` this is the raw GPU-model timing.
    pub fn modeled_makespan(&self, gpu: usize, costs: &[f64]) -> GridTiming {
        let t = self.inner.makespan(gpu, costs);
        GridTiming {
            makespan: t.makespan / self.launch_calibration,
            busy_sum: t.busy_sum / self.launch_calibration,
            blocks: t.blocks,
        }
    }

    /// Sets the observed `modeled / measured` launch ratio (e.g. a
    /// `CalibrationRow::ratio` from a calibration run — `0.0122` was
    /// measured for this backend at PR 8, i.e. the GPU model is ~80×
    /// optimistic about host launches). Subsequent [`Self::modeled_makespan`]
    /// calls divide modeled time by this ratio so predictions land near the
    /// measured clock instead of silently reporting GPU-model numbers.
    ///
    /// The trait-level [`DeviceRuntime::makespan`] intentionally stays
    /// *unscaled*: planners compare candidate partitions under one
    /// consistent cost model, and a uniform rescale never changes which
    /// candidate wins.
    ///
    /// `CalibrationRow::ratio` is in `amped-bench`, which depends on this
    /// crate — hence a plain `f64` here.
    pub fn set_launch_calibration(&mut self, modeled_over_measured: f64) {
        assert!(
            modeled_over_measured.is_finite() && modeled_over_measured > 0.0,
            "calibration ratio must be a positive finite modeled/measured quotient"
        );
        self.launch_calibration = modeled_over_measured;
    }

    /// Attaches `registry` to the shared inner backend: transfer/collective
    /// /alloc counters flow exactly as on [`SimRuntime`], and launches are
    /// counted there too (this backend only changes *how* a launch's time
    /// is obtained, not that it happened).
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.inner.set_metrics(registry);
        self
    }
}

impl DeviceRuntime for CpuParallelRuntime {
    fn name(&self) -> &'static str {
        "cpu-parallel"
    }

    fn tune(&self) -> TuneParams {
        self.inner.tune()
    }

    fn set_tune(&mut self, params: TuneParams) {
        self.inner.set_tune(params);
    }

    fn spec(&self) -> &PlatformSpec {
        self.inner.spec()
    }

    fn mem(&self, device: Device) -> &MemPool {
        self.inner.mem(device)
    }

    fn makespan(&self, gpu: usize, costs: &[f64]) -> GridTiming {
        self.inner.makespan(gpu, costs)
    }

    fn timeline(&self) -> Option<Timeline> {
        self.inner.timeline()
    }

    fn metrics(&self) -> MetricsRegistry {
        self.inner.metrics()
    }

    fn alloc(&mut self, device: Device, bytes: u64, purpose: &str) -> Result<(), SimError> {
        self.inner.alloc(device, bytes, purpose)
    }

    fn free(&mut self, device: Device, bytes: u64) {
        self.inner.free(device, bytes);
    }

    fn reset_mem(&mut self) {
        self.inner.reset_mem();
    }

    fn launch_grid(
        &mut self,
        gpu: usize,
        kernel: &(dyn Fn(usize) + Sync),
        costs: &[f64],
    ) -> GridTiming {
        // The host pool stands in for every simulated GPU; `gpu` only
        // selects where a simulated backend would have placed the grid.
        let _ = gpu;
        let reg = self.inner.metrics();
        if reg.is_attached() {
            reg.counter("launches").inc();
            reg.histogram("launch_blocks").observe(costs.len() as f64);
        }
        let start = Instant::now();
        execute_blocks(self.tune().effective_workers(), costs.len(), kernel);
        let wall = start.elapsed().as_secs_f64();
        GridTiming {
            makespan: wall,
            busy_sum: wall,
            blocks: costs.len(),
        }
    }

    fn h2d_link_for(&self, gpu: usize, active: usize) -> LinkSpec {
        self.inner.h2d_link_for(gpu, active)
    }

    fn p2p_link(&self, a: usize, b: usize) -> LinkSpec {
        self.inner.p2p_link(a, b)
    }

    fn h2d_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64 {
        self.inner.h2d_time(gpu, active, bytes)
    }

    fn d2h_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64 {
        self.inner.d2h_time(gpu, active, bytes)
    }

    fn scatter_time(&mut self, active: usize, slice_bytes: &[u64]) -> f64 {
        self.inner.scatter_time(active, slice_bytes)
    }

    fn allgather_time(&mut self, algo: Collective, block_bytes: &[u64]) -> f64 {
        self.inner.allgather_time(algo, block_bytes)
    }

    fn allgather_blocks(&mut self, blocks: &[FactorBlock]) -> Vec<Vec<FactorBlock>> {
        self.inner.allgather_blocks(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};

    fn rt() -> CpuParallelRuntime {
        CpuParallelRuntime::new(PlatformSpec::rtx6000_ada_node(2).scaled(1e-3))
    }

    #[test]
    fn launch_executes_blocks_and_measures_wall_time() {
        let mut r = rt();
        let hits: Vec<AtomicU32> = (0..32).map(|_| AtomicU32::new(0)).collect();
        let count = |b: usize| assert_eq!(hits[b].fetch_add(1, SeqCst), 0);
        let t = r.launch_grid(0, &count, &[0.25; 32]);
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
        assert_eq!(t.blocks, 32);
        // Measured wall: non-negative real seconds, not the 0.25-cost model.
        assert!(t.makespan >= 0.0 && t.makespan < 60.0);
        assert_eq!(t.busy_sum, t.makespan);
    }

    #[test]
    fn planning_queries_stay_on_the_model() {
        let mut r = rt();
        let costs = [0.5; 8];
        let modeled = r.makespan(0, &costs);
        assert_eq!(modeled, r.modeled_makespan(0, &costs));
        assert!(modeled.makespan > 0.0);
        // Transfers and collectives keep simulated time too.
        let h2d = r.h2d_time(0, 1, 1_000_000);
        assert!(h2d > 0.0);
        assert_eq!(
            r.allgather_time(Collective::Ring, &[4096, 4096]),
            SimRuntime::new(PlatformSpec::rtx6000_ada_node(2).scaled(1e-3))
                .allgather_time(Collective::Ring, &[4096, 4096])
        );
    }

    #[test]
    fn launch_calibration_rescales_modeled_makespan_only() {
        let mut r = rt();
        let costs = [0.5; 8];
        let raw = r.makespan(0, &costs);
        // A ratio of 0.0122 (modeled / measured, the pr8 observation) means
        // the model is ~80× optimistic; the rescaled prediction stretches
        // modeled time back toward the measured clock.
        r.set_launch_calibration(0.0122);
        let scaled = r.modeled_makespan(0, &costs);
        assert!((scaled.makespan - raw.makespan / 0.0122).abs() < 1e-12);
        assert!((scaled.busy_sum - raw.busy_sum / 0.0122).abs() < 1e-12);
        assert_eq!(scaled.blocks, raw.blocks);
        // The planning-side trait query is deliberately untouched.
        assert_eq!(r.makespan(0, &costs), raw);
    }

    #[test]
    fn launch_calibration_rejects_garbage_ratios() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let r = std::panic::catch_unwind(|| rt().set_launch_calibration(bad));
            assert!(r.is_err(), "ratio {bad} must be rejected");
        }
    }

    #[test]
    fn memory_ops_route_to_the_shared_pools() {
        let mut r = rt();
        r.alloc(Device::Gpu(1), 256, "factor matrices").unwrap();
        assert_eq!(r.mem(Device::Gpu(1)).used(), 256);
        r.free(Device::Gpu(1), 256);
        r.reset_mem();
        assert_eq!(r.gpu_mem_peak(), 0);
    }
}
