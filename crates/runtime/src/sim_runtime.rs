//! The default backend: deterministic simulation on host threads.

use crate::collective::{host_staged_scatter_time, ring_allgather, ring_allgather_time};
use crate::device::{Device, Platform};
use crate::params::TuneParams;
use crate::runtime::{Collective, DeviceRuntime, FactorBlock};
use crate::smexec::{list_schedule_makespan, run_grid, GridTiming};
use amped_sim::obs::{Counter, Histogram, MetricsRegistry};
use amped_sim::{MemPool, PlatformSpec, SimError};

/// Pre-registered metric handles for the runtime's hot ops — one relaxed
/// atomic per recording when attached, one branch when detached (the
/// default). Byte counters are split per link tier: host↔device PCIe in
/// each direction, and GPU↔GPU traffic.
#[derive(Clone, Debug, Default)]
struct RtMeters {
    registry: MetricsRegistry,
    launches: Counter,
    launch_blocks: Histogram,
    bytes_h2d: Counter,
    bytes_d2h: Counter,
    bytes_p2p: Counter,
    scatters: Counter,
    allgathers: Counter,
    allocs: Counter,
    oom_failures: Counter,
}

impl RtMeters {
    fn attach(registry: MetricsRegistry) -> Self {
        Self {
            launches: registry.counter("launches"),
            launch_blocks: registry.histogram("launch_blocks"),
            bytes_h2d: registry.counter_with("link_bytes", &[("tier", "h2d")]),
            bytes_d2h: registry.counter_with("link_bytes", &[("tier", "d2h")]),
            bytes_p2p: registry.counter_with("link_bytes", &[("tier", "p2p")]),
            scatters: registry.counter("scatters"),
            allgathers: registry.counter("allgathers"),
            allocs: registry.counter("allocs"),
            oom_failures: registry.counter("oom_failures"),
            registry,
        }
    }
}

/// [`DeviceRuntime`] backed by the deterministic platform simulator: kernels
/// execute for real on host threads, time comes from the `amped-sim` cost
/// model, memory is tracked in the owned [`Platform`] pools.
///
/// This backend reproduces the pre-extraction behavior of the engines and
/// baselines bit for bit (`tests/runtime_equivalence.rs`).
#[derive(Clone, Debug)]
pub struct SimRuntime {
    platform: Platform,
    meters: RtMeters,
    tune: TuneParams,
}

impl SimRuntime {
    /// A simulated runtime for a single node `spec`.
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            platform: Platform::new(spec),
            meters: RtMeters::default(),
            tune: TuneParams::default(),
        }
    }

    /// Attaches `registry`: from now on every op records counters
    /// (launches, per-tier bytes, allocs, collectives) into it. Timings and
    /// results are unaffected — metrics observe, they never steer.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.set_metrics(registry);
        self
    }

    /// In-place form of [`SimRuntime::with_metrics`].
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.meters = RtMeters::attach(registry);
    }

    /// The owned device set.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Records the modeled byte movement of `allgather_time`/
    /// `allgather_blocks` into the p2p tier: every block traverses every
    /// ring edge except the one "behind" its source, (m − 1) × total wire
    /// bytes. A cost-model total (what the timing formula charges), not a
    /// per-step event count.
    fn meter_allgather(&self, block_bytes: &[u64]) {
        self.meters.allgathers.inc();
        let total: u64 = block_bytes.iter().sum();
        let m = block_bytes.len() as u64;
        self.meters.bytes_p2p.add(m.saturating_sub(1) * total);
    }
}

impl DeviceRuntime for SimRuntime {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn tune(&self) -> TuneParams {
        self.tune
    }

    fn set_tune(&mut self, params: TuneParams) {
        self.tune = params;
    }

    fn spec(&self) -> &PlatformSpec {
        self.platform.spec()
    }

    fn mem(&self, device: Device) -> &MemPool {
        self.platform.mem(device)
    }

    fn makespan(&self, gpu: usize, costs: &[f64]) -> GridTiming {
        list_schedule_makespan(self.spec().gpus[gpu].sms, costs.iter().copied())
    }

    fn metrics(&self) -> MetricsRegistry {
        self.meters.registry.clone()
    }

    fn alloc(&mut self, device: Device, bytes: u64, purpose: &str) -> Result<(), SimError> {
        match self.platform.alloc(device, bytes, purpose) {
            Ok(()) => {
                self.meters.allocs.inc();
                // Cold path: a by-name lookup keeps the purpose label open-
                // ended without pre-registering every purpose string.
                self.meters
                    .registry
                    .add("alloc_bytes", &[("purpose", purpose)], bytes);
                Ok(())
            }
            Err(e) => {
                self.meters.oom_failures.inc();
                Err(e)
            }
        }
    }

    fn free(&mut self, device: Device, bytes: u64) {
        self.platform.free(device, bytes);
    }

    fn reset_mem(&mut self) {
        self.platform.reset_mem();
    }

    fn launch_grid(
        &mut self,
        gpu: usize,
        kernel: &(dyn Fn(usize) + Sync),
        costs: &[f64],
    ) -> GridTiming {
        self.meters.launches.inc();
        self.meters.launch_blocks.observe(costs.len() as f64);
        run_grid(
            self.spec().gpus[gpu].sms,
            self.tune.effective_workers(),
            kernel,
            costs,
        )
    }

    fn h2d_time(&mut self, _gpu: usize, active: usize, bytes: u64) -> f64 {
        self.meters.bytes_h2d.add(bytes);
        self.platform.h2d_link(active).transfer_time(bytes)
    }

    fn d2h_time(&mut self, _gpu: usize, active: usize, bytes: u64) -> f64 {
        self.meters.bytes_d2h.add(bytes);
        self.platform.h2d_link(active).transfer_time(bytes)
    }

    fn scatter_time(&mut self, active: usize, slice_bytes: &[u64]) -> f64 {
        self.meters.scatters.inc();
        self.meters.bytes_h2d.add(slice_bytes.iter().sum());
        host_staged_scatter_time(&self.platform.h2d_link(active), slice_bytes)
    }

    fn allgather_time(&mut self, algo: Collective, block_bytes: &[u64]) -> f64 {
        let Collective::Ring = algo;
        self.meter_allgather(block_bytes);
        ring_allgather_time(&self.spec().p2p, block_bytes)
    }

    fn allgather_blocks(&mut self, blocks: &[FactorBlock]) -> Vec<Vec<FactorBlock>> {
        let block_bytes: Vec<u64> = blocks.iter().map(|b| b.data.len() as u64 * 4).collect();
        self.meter_allgather(&block_bytes);
        ring_allgather(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};

    fn rt(m: usize) -> SimRuntime {
        SimRuntime::new(PlatformSpec::rtx6000_ada_node(m).scaled(1e-3))
    }

    #[test]
    fn launch_grid_executes_and_times() {
        let mut r = rt(1);
        let sms = r.spec().gpus[0].sms;
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let count = |b: usize| assert_eq!(hits[b].fetch_add(1, SeqCst), 0);
        let t = r.launch_grid(0, &count, &[0.5; 64]);
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
        assert_eq!(t.blocks, 64);
        // 64 equal blocks on `sms` SMs: ⌈64/sms⌉ rounds of 0.5.
        assert_eq!(t.makespan, 0.5 * 64usize.div_ceil(sms) as f64);
    }

    #[test]
    fn makespan_matches_launch_timing() {
        let mut r = rt(2);
        let costs: Vec<f64> = (0..100).map(|b| (b % 7) as f64 * 0.1).collect();
        let planned = r.makespan(1, &costs);
        let launched = r.launch_grid(1, &|_| {}, &costs);
        assert_eq!(planned, launched);
    }

    #[test]
    fn h2d_uses_the_effective_link() {
        let mut r = rt(8);
        // 1 active GPU: full PCIe; 8 active: host aggregate bound.
        let alone = r.h2d_time(0, 1, 1_000_000_000);
        let crowded = r.h2d_time(0, 8, 1_000_000_000);
        assert!(crowded > alone, "{crowded} vs {alone}");
        assert_eq!(alone, r.h2d_link(1).transfer_time(1_000_000_000));
        // More streams than GPUs contend like all eight GPUs, no worse.
        assert_eq!(r.h2d_time(0, 64, 1_000_000_000), crowded);
        // d2h is symmetric on this platform.
        assert_eq!(r.d2h_time(3, 4, 12345), r.h2d_time(3, 4, 12345));
    }

    #[test]
    fn scatter_costs_slowest_slice() {
        let mut r = rt(2);
        let t = r.scatter_time(2, &[1_000, 2_000]);
        assert_eq!(t, r.h2d_link(2).transfer_time(2_000));
        assert_eq!(r.scatter_time(2, &[0, 0]), 0.0);
    }

    #[test]
    fn allgather_blocks_delivers_everything() {
        let mut r = rt(4);
        let blocks: Vec<FactorBlock> = (0..4)
            .map(|g| FactorBlock {
                rows: vec![g as u32],
                data: vec![g as f32; 8].into(),
            })
            .collect();
        let gathered = r.allgather_blocks(&blocks);
        assert_eq!(gathered.len(), 4);
        for row in &gathered {
            assert_eq!(row, &blocks);
        }
    }

    #[test]
    fn attached_metrics_count_ops_per_tier() {
        let reg = MetricsRegistry::new();
        let mut r = SimRuntime::new(PlatformSpec::rtx6000_ada_node(2).scaled(1e-3))
            .with_metrics(reg.clone());
        r.launch_grid(0, &|_| {}, &[0.5; 4]);
        r.h2d_time(0, 2, 1000);
        r.d2h_time(1, 2, 500);
        r.allgather_time(Collective::Ring, &[100, 300]);
        r.alloc(Device::Gpu(0), 64, "factor matrices").unwrap();
        assert_eq!(reg.counter_value("launches", &[]), 1);
        assert_eq!(reg.counter_value("link_bytes", &[("tier", "h2d")]), 1000);
        assert_eq!(reg.counter_value("link_bytes", &[("tier", "d2h")]), 500);
        // Two-GPU ring: each block crosses the other's edge once —
        // (m−1) × total = 400 bytes.
        assert_eq!(reg.counter_value("link_bytes", &[("tier", "p2p")]), 400);
        assert_eq!(
            reg.counter_value("alloc_bytes", &[("purpose", "factor matrices")]),
            64
        );
        assert_eq!(reg.counter_value("allgathers", &[]), 1);
        // Metrics observe without steering: timings match an unmetered run.
        let mut plain = SimRuntime::new(PlatformSpec::rtx6000_ada_node(2).scaled(1e-3));
        assert_eq!(r.h2d_time(0, 2, 12345), plain.h2d_time(0, 2, 12345));
        // And the trait exposes the attached registry.
        assert!(DeviceRuntime::metrics(&r).is_attached());
    }

    #[test]
    fn memory_ops_route_to_the_platform_pools() {
        let mut r = rt(2);
        r.alloc(Device::Gpu(1), 100, "factor matrices").unwrap();
        assert_eq!(r.mem(Device::Gpu(1)).used(), 100);
        assert_eq!(r.platform().gpu_mem_peak(), 100);
        r.free(Device::Gpu(1), 100);
        r.reset_mem();
        assert_eq!(r.platform().gpu_mem_peak(), 0);
    }
}
