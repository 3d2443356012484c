//! A decorator runtime that records a span-scoped op-level timeline.
//!
//! [`TracingRuntime`] wraps any [`DeviceRuntime`] and logs every *op* —
//! kernel launches, transfers, collectives, allocations — with the device
//! it ran on, the bytes it moved, the threadblocks it launched, simulated
//! start/end stamps, and the hierarchical [`SpanPath`] open at issue time
//! (`iteration=i/mode=m/shard=s` once the ALS driver and engines have
//! opened their scopes via [`Timeline::span`]). It is the proof that the
//! runtime seam is real (the engines run unmodified on it) and the
//! substrate for `examples/timeline.rs`, the Chrome-trace exporter
//! ([`crate::export`]), and [`crate::spans::StragglerReport`].
//!
//! **Clock semantics.** The tracer keeps one simulated cursor per device
//! plus a host cursor: an op on device `d` starts at `d`'s cursor and
//! advances it by the op's simulated duration; platform-wide ops (scatter,
//! all-gather) start at the latest cursor and advance every device to their
//! end. This serializes ops *per device in issue order* — it deliberately
//! does **not** reconstruct the engines' double-buffered overlap (the
//! engines keep that arithmetic); the timeline answers "which ops ran,
//! where, how long, in what order", which is what a new backend needs
//! first.

use crate::device::Device;
use crate::params::TuneParams;
use crate::runtime::{Collective, DeviceRuntime, FactorBlock};
use crate::smexec::GridTiming;
use crate::spans::{SpanPath, SpanScope, SpanState};
use amped_sim::obs::MetricsRegistry;
use amped_sim::{MemPool, PlatformSpec, SimError};
use std::sync::{Arc, Mutex};

/// What kind of op a timeline record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A kernel-grid launch.
    LaunchGrid,
    /// A host→device transfer.
    H2d,
    /// A device→host transfer.
    D2h,
    /// A host-staged scatter across the active GPUs.
    Scatter,
    /// A collective all-gather (timed or functional).
    Allgather,
    /// A device memory allocation (zero duration).
    Alloc,
    /// A device memory release (zero duration).
    Free,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpKind::LaunchGrid => "launch",
            OpKind::H2d => "h2d",
            OpKind::D2h => "d2h",
            OpKind::Scatter => "scatter",
            OpKind::Allgather => "allgather",
            OpKind::Alloc => "alloc",
            OpKind::Free => "free",
        };
        f.write_str(s)
    }
}

/// One recorded op.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRecord {
    /// Op kind.
    pub kind: OpKind,
    /// Device the op ran on ([`Device::Host`] for platform-wide ops).
    pub device: Device,
    /// Bytes moved (transfers/collectives), allocated, or freed. Always
    /// bytes — grid launches record 0 here and report their block count in
    /// [`blocks`](Self::blocks).
    pub bytes: u64,
    /// Threadblocks launched (grid launches only; 0 otherwise).
    pub blocks: u64,
    /// Simulated start time under the tracer's per-device clock.
    pub start: f64,
    /// Simulated end time (`start` for zero-duration memory ops).
    pub end: f64,
    /// Free-form detail: allocation purpose, collective algorithm, …
    pub detail: String,
    /// The span path open when the op was issued (root when no spans).
    pub span: SpanPath,
}

/// A cloneable handle onto a tracer's recorded ops and span cursor. Keep
/// one before boxing the tracer into an engine; open spans and read
/// records through it during and after the run.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    records: Arc<Mutex<Vec<OpRecord>>>,
    spans: SpanState,
}

impl Timeline {
    /// A snapshot of all records so far, in issue order.
    pub fn snapshot(&self) -> Vec<OpRecord> {
        self.records.lock().expect("timeline lock").clone()
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.records.lock().expect("timeline lock").len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ops of `kind`.
    pub fn count(&self, kind: OpKind) -> usize {
        self.records
            .lock()
            .expect("timeline lock")
            .iter()
            .filter(|r| r.kind == kind)
            .count()
    }

    /// Sum of `bytes` over ops of `kind`.
    pub fn bytes(&self, kind: OpKind) -> u64 {
        self.records
            .lock()
            .expect("timeline lock")
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.bytes)
            .sum()
    }

    /// Sum of `blocks` over ops of `kind` (nonzero only for
    /// [`OpKind::LaunchGrid`]).
    pub fn blocks(&self, kind: OpKind) -> u64 {
        self.records
            .lock()
            .expect("timeline lock")
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.blocks)
            .sum()
    }

    /// Opens a `key=value` span: every op recorded until the returned
    /// guard drops carries the extended path. Scopes nest
    /// (`iteration` → `mode` → `shard`) and restore on drop.
    pub fn span(&self, key: &'static str, value: u64) -> SpanScope {
        self.spans.enter(key, value)
    }

    /// The span path ops issued right now would carry.
    pub fn current_span(&self) -> SpanPath {
        self.spans.current()
    }

    /// Renders the timeline as an aligned text table (one op per line).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{:<5} {:>9} {:<6} {:>12} {:>12} {:>12} {:>8}  {:<24} detail",
            "#", "kind", "device", "start(us)", "end(us)", "bytes", "blocks", "span"
        )
        .expect("string write");
        for (i, r) in self
            .records
            .lock()
            .expect("timeline lock")
            .iter()
            .enumerate()
        {
            writeln!(
                out,
                "{:<5} {:>9} {:<6} {:>12.3} {:>12.3} {:>12} {:>8}  {:<24} {}",
                i,
                r.kind.to_string(),
                r.device.to_string(),
                r.start * 1e6,
                r.end * 1e6,
                r.bytes,
                r.blocks,
                r.span.render(),
                r.detail
            )
            .expect("string write");
        }
        out
    }

    fn push(&self, rec: OpRecord) {
        self.records.lock().expect("timeline lock").push(rec);
    }
}

/// Decorator over any [`DeviceRuntime`] recording an op-level [`Timeline`].
#[derive(Debug)]
pub struct TracingRuntime<R> {
    inner: R,
    timeline: Timeline,
    gpu_clock: Vec<f64>,
    host_clock: f64,
}

impl<R: DeviceRuntime> TracingRuntime<R> {
    /// Wraps `inner`, starting all simulated clocks at zero.
    pub fn new(inner: R) -> Self {
        let gpus = inner.spec().num_gpus();
        Self {
            inner,
            timeline: Timeline::default(),
            gpu_clock: vec![0.0; gpus],
            host_clock: 0.0,
        }
    }

    /// A handle onto the recorded timeline (clone it before boxing the
    /// tracer into an engine).
    pub fn timeline(&self) -> Timeline {
        self.timeline.clone()
    }

    /// The wrapped runtime.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    fn clock(&mut self, device: Device) -> &mut f64 {
        match device {
            Device::Host => &mut self.host_clock,
            Device::Gpu(g) => &mut self.gpu_clock[g],
        }
    }

    /// Records a `duration`-long op on `device`, advancing its clock.
    fn record(
        &mut self,
        kind: OpKind,
        device: Device,
        bytes: u64,
        blocks: u64,
        duration: f64,
        detail: String,
    ) {
        let span = self.timeline.current_span();
        let clock = self.clock(device);
        let start = *clock;
        *clock = start + duration;
        self.timeline.push(OpRecord {
            kind,
            device,
            bytes,
            blocks,
            start,
            end: start + duration,
            detail,
            span,
        });
    }

    /// Records a platform-wide op: starts at the latest cursor, advances
    /// every cursor to its end.
    fn record_global(&mut self, kind: OpKind, bytes: u64, duration: f64, detail: String) {
        let start = self
            .gpu_clock
            .iter()
            .copied()
            .fold(self.host_clock, f64::max);
        let end = start + duration;
        self.host_clock = end;
        for c in &mut self.gpu_clock {
            *c = end;
        }
        self.timeline.push(OpRecord {
            kind,
            device: Device::Host,
            bytes,
            blocks: 0,
            start,
            end,
            detail,
            span: self.timeline.current_span(),
        });
    }
}

impl<R: DeviceRuntime> DeviceRuntime for TracingRuntime<R> {
    fn name(&self) -> &'static str {
        // The decorator changes observation, not execution: report the
        // backend that actually runs the kernels.
        self.inner.name()
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

    fn timeline(&self) -> Option<Timeline> {
        Some(self.timeline.clone())
    }

    fn metrics(&self) -> MetricsRegistry {
        self.inner.metrics()
    }

    fn makespan(&self, gpu: usize, costs: &[f64]) -> GridTiming {
        // Pure planning query: pass through unrecorded.
        self.inner.makespan(gpu, costs)
    }

    fn alloc(&mut self, device: Device, bytes: u64, purpose: &str) -> Result<(), SimError> {
        self.inner.alloc(device, bytes, purpose)?;
        self.record(OpKind::Alloc, device, bytes, 0, 0.0, purpose.to_string());
        Ok(())
    }

    fn free(&mut self, device: Device, bytes: u64) {
        self.inner.free(device, bytes);
        self.record(OpKind::Free, device, bytes, 0, 0.0, String::new());
    }

    fn reset_mem(&mut self) {
        // Fresh-run boundary, not an op of the run being traced (see the
        // trait docs) — pass through unrecorded, like makespan().
        self.inner.reset_mem();
    }

    fn launch_grid(
        &mut self,
        gpu: usize,
        kernel: &(dyn Fn(usize) + Sync),
        costs: &[f64],
    ) -> GridTiming {
        let timing = self.inner.launch_grid(gpu, kernel, costs);
        self.record(
            OpKind::LaunchGrid,
            Device::Gpu(gpu),
            0,
            costs.len() as u64,
            timing.makespan,
            String::new(),
        );
        timing
    }

    fn h2d_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64 {
        let t = self.inner.h2d_time(gpu, active, bytes);
        self.record(
            OpKind::H2d,
            Device::Gpu(gpu),
            bytes,
            0,
            t,
            format!("{active} active"),
        );
        t
    }

    fn d2h_time(&mut self, gpu: usize, active: usize, bytes: u64) -> f64 {
        let t = self.inner.d2h_time(gpu, active, bytes);
        self.record(
            OpKind::D2h,
            Device::Gpu(gpu),
            bytes,
            0,
            t,
            format!("{active} active"),
        );
        t
    }

    fn scatter_time(&mut self, active: usize, slice_bytes: &[u64]) -> f64 {
        let t = self.inner.scatter_time(active, slice_bytes);
        self.record_global(
            OpKind::Scatter,
            slice_bytes.iter().sum(),
            t,
            format!("{active} active"),
        );
        t
    }

    fn allgather_time(&mut self, algo: Collective, block_bytes: &[u64]) -> f64 {
        let t = self.inner.allgather_time(algo, block_bytes);
        self.record_global(
            OpKind::Allgather,
            block_bytes.iter().sum(),
            t,
            format!("{algo:?}"),
        );
        t
    }

    fn allgather_blocks(&mut self, blocks: &[FactorBlock]) -> Vec<Vec<FactorBlock>> {
        let gathered = self.inner.allgather_blocks(blocks);
        let bytes: u64 = blocks.iter().map(|b| b.data.len() as u64 * 4).sum();
        self.record_global(OpKind::Allgather, bytes, 0.0, "functional".to_string());
        gathered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_runtime::SimRuntime;

    fn traced(m: usize) -> (TracingRuntime<SimRuntime>, Timeline) {
        let rt = TracingRuntime::new(SimRuntime::new(
            PlatformSpec::rtx6000_ada_node(m).scaled(1e-3),
        ));
        let tl = rt.timeline();
        (rt, tl)
    }

    #[test]
    fn ops_are_recorded_with_advancing_clocks() {
        let (mut rt, tl) = traced(2);
        rt.alloc(Device::Gpu(0), 64, "factor matrices").unwrap();
        let t1 = rt.h2d_time(0, 1, 1_000_000);
        let t2 = rt.h2d_time(0, 1, 1_000_000);
        assert_eq!(t1, t2);
        rt.launch_grid(1, &|_| {}, &[0.25; 4]);
        let recs = tl.snapshot();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].kind, OpKind::Alloc);
        assert_eq!(recs[0].detail, "factor matrices");
        // Two sequential transfers on gpu0 tile the clock.
        assert_eq!(recs[1].start, 0.0);
        assert_eq!(recs[2].start, recs[1].end);
        // gpu1's launch starts on gpu1's own (fresh) clock.
        assert_eq!(recs[3].device, Device::Gpu(1));
        assert_eq!(recs[3].start, 0.0);
        assert_eq!(recs[3].end, 0.25);
        assert_eq!(tl.bytes(OpKind::H2d), 2_000_000);
    }

    #[test]
    fn launch_records_blocks_not_bytes() {
        let (mut rt, tl) = traced(1);
        rt.launch_grid(0, &|_| {}, &[0.5; 7]);
        let recs = tl.snapshot();
        assert_eq!(recs[0].kind, OpKind::LaunchGrid);
        assert_eq!(recs[0].blocks, 7, "block count lives in `blocks`");
        assert_eq!(recs[0].bytes, 0, "`bytes` stays bytes everywhere");
        assert_eq!(tl.blocks(OpKind::LaunchGrid), 7);
        assert_eq!(tl.bytes(OpKind::LaunchGrid), 0);
        // Transfers record bytes, not blocks.
        rt.h2d_time(0, 1, 4096);
        assert_eq!(tl.snapshot()[1].bytes, 4096);
        assert_eq!(tl.snapshot()[1].blocks, 0);
    }

    #[test]
    fn spans_annotate_records_and_restore_on_drop() {
        let (mut rt, tl) = traced(2);
        {
            let _it = tl.span("iteration", 0);
            {
                let _m = tl.span("mode", 1);
                rt.launch_grid(0, &|_| {}, &[0.5; 2]);
            }
            rt.h2d_time(0, 1, 100);
        }
        rt.h2d_time(1, 1, 100);
        let recs = tl.snapshot();
        assert_eq!(recs[0].span.render(), "iteration=0/mode=1");
        assert_eq!(recs[1].span.render(), "iteration=0");
        assert!(recs[2].span.is_root());
    }

    #[test]
    fn global_ops_synchronize_all_clocks() {
        let (mut rt, tl) = traced(2);
        rt.h2d_time(0, 1, 1_000_000); // gpu0 ahead of gpu1
        let t = rt.allgather_time(Collective::Ring, &[4096, 4096]);
        assert!(t > 0.0);
        let recs = tl.snapshot();
        let gather = &recs[1];
        assert_eq!(gather.kind, OpKind::Allgather);
        assert_eq!(gather.start, recs[0].end, "starts at the latest cursor");
        // Next op on gpu1 starts after the collective.
        rt.h2d_time(1, 1, 1);
        assert_eq!(tl.snapshot()[2].start, gather.end);
    }

    #[test]
    fn results_pass_through_unchanged() {
        let (mut rt, _tl) = traced(2);
        let mut plain = SimRuntime::new(PlatformSpec::rtx6000_ada_node(2).scaled(1e-3));
        assert_eq!(rt.h2d_time(0, 2, 12345), plain.h2d_time(0, 2, 12345));
        assert_eq!(
            rt.allgather_time(Collective::Ring, &[100, 200]),
            plain.allgather_time(Collective::Ring, &[100, 200])
        );
        assert_eq!(rt.makespan(0, &[1.0, 2.0]), plain.makespan(0, &[1.0, 2.0]));
        let blocks = vec![
            FactorBlock {
                rows: vec![0],
                data: vec![1.0; 4].into(),
            },
            FactorBlock {
                rows: vec![1],
                data: vec![2.0; 4].into(),
            },
        ];
        assert_eq!(
            rt.allgather_blocks(&blocks),
            plain.allgather_blocks(&blocks)
        );
    }

    #[test]
    fn render_lists_every_op() {
        let (mut rt, tl) = traced(1);
        rt.alloc(Device::Host, 10, "tensor copies").unwrap();
        rt.h2d_time(0, 1, 42);
        let s = tl.render();
        assert!(s.contains("alloc") && s.contains("h2d") && s.contains("tensor copies"));
        assert!(s.contains("blocks") && s.contains("span"), "{s}");
        assert_eq!(s.lines().count(), 1 + tl.len());
    }

    #[test]
    fn makespan_is_not_recorded() {
        let (rt, tl) = traced(1);
        rt.makespan(0, &[1.0]);
        assert!(tl.is_empty());
    }

    #[test]
    fn trait_timeline_returns_the_tracers_handle() {
        let (mut rt, tl) = traced(1);
        let via_trait = DeviceRuntime::timeline(&rt).expect("tracer exposes a timeline");
        rt.h2d_time(0, 1, 1);
        assert_eq!(via_trait.len(), 1);
        assert_eq!(tl.len(), 1);
        // A plain SimRuntime has none.
        let plain = SimRuntime::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
        assert!(DeviceRuntime::timeline(&plain).is_none());
    }
}
