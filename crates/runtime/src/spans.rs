//! Hierarchical spans for the tracing runtime.
//!
//! A *span* names a region of the run — `iteration=3 / mode=1 / shard=0` —
//! and every [`OpRecord`](crate::tracing::OpRecord) issued while the span is
//! open carries the full path. The ALS driver opens iteration and mode
//! spans, the engines open shard (or OOC chunk) spans, and the exporters
//! turn the paths into nested slices per device track.
//!
//! The API is RAII: [`SpanState::enter`] (reached through
//! `Timeline::span`) pushes a label and returns a [`SpanScope`] guard that
//! restores the previous path on drop, so span nesting is well-formed by
//! construction — a child can never outlive its parent's scope.
//!
//! [`StragglerReport`] is the consumer side: per-device busy statistics
//! (mean/p95/total over kernel launches, grouped from a traced timeline)
//! and the imbalance ratio between them.

use crate::tracing::{OpKind, Timeline};
use std::sync::{Arc, Mutex};

/// One level of a span path: a static key and a numeric value,
/// e.g. `iteration=3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanLabel {
    /// The level's name (`"iteration"`, `"mode"`, `"shard"`, …).
    pub key: &'static str,
    /// The level's value (iteration index, mode index, shard id, …).
    pub value: u64,
}

impl std::fmt::Display for SpanLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.key, self.value)
    }
}

/// An immutable span path — the stack of labels open when an op was issued.
/// Cheap to clone (a shared slice), comparable, and renderable as
/// `iteration=0/mode=1/shard=2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanPath {
    labels: Arc<[SpanLabel]>,
}

impl Default for SpanPath {
    fn default() -> Self {
        Self::root()
    }
}

impl SpanPath {
    /// The empty path (no spans open).
    pub fn root() -> Self {
        Self {
            labels: Arc::from([]),
        }
    }

    /// The labels, outermost first.
    pub fn labels(&self) -> &[SpanLabel] {
        &self.labels
    }

    /// Number of open levels.
    pub fn depth(&self) -> usize {
        self.labels.len()
    }

    /// True for the root path.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// This path extended by one label.
    pub fn child(&self, label: SpanLabel) -> Self {
        let mut v: Vec<SpanLabel> = self.labels.to_vec();
        v.push(label);
        Self {
            labels: Arc::from(v),
        }
    }

    /// The first `depth` levels of this path.
    pub fn prefix(&self, depth: usize) -> Self {
        Self {
            labels: Arc::from(&self.labels[..depth.min(self.labels.len())]),
        }
    }

    /// True when `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &SpanPath) -> bool {
        other.labels.len() >= self.labels.len()
            && other.labels[..self.labels.len()] == self.labels[..]
    }

    /// Renders as `key=value/key=value` (empty string for the root).
    pub fn render(&self) -> String {
        self.labels
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// The shared "currently open spans" cursor a [`Timeline`] threads through
/// its clones. Recording reads the current path; [`enter`](Self::enter)
/// pushes a level and returns the restoring guard.
#[derive(Clone, Debug, Default)]
pub struct SpanState {
    current: Arc<Mutex<SpanPath>>,
}

impl SpanState {
    /// The path ops issued right now would carry.
    pub fn current(&self) -> SpanPath {
        self.current.lock().expect("span lock").clone()
    }

    /// Opens a `key=value` span; the returned guard closes it on drop.
    pub fn enter(&self, key: &'static str, value: u64) -> SpanScope {
        let mut cur = self.current.lock().expect("span lock");
        let prev = cur.clone();
        *cur = cur.child(SpanLabel { key, value });
        SpanScope {
            state: self.clone(),
            prev: Some(prev),
        }
    }
}

/// RAII guard for an open span: restores the previous span path when
/// dropped. Obtain one via `Timeline::span`.
#[derive(Debug)]
pub struct SpanScope {
    state: SpanState,
    prev: Option<SpanPath>,
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            *self.state.current.lock().expect("span lock") = prev;
        }
    }
}

/// Per-device busy statistics over kernel launches, derived from a traced
/// timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceBusyStats {
    /// GPU index.
    pub device: usize,
    /// Number of launches recorded on the device.
    pub samples: usize,
    /// Sum of launch durations (seconds).
    pub total_busy: f64,
    /// Mean launch duration (0 when no samples).
    pub mean_busy: f64,
    /// 95th-percentile launch duration (0 when no samples).
    pub p95_busy: f64,
}

/// Straggler diagnosis from per-device span stats: who is busiest, by how
/// much, and how skewed the launch distribution is.
#[derive(Clone, Debug, PartialEq)]
pub struct StragglerReport {
    /// One entry per GPU, index-aligned.
    pub per_gpu: Vec<DeviceBusyStats>,
}

impl StragglerReport {
    /// Builds the report from every `LaunchGrid` op in `timeline`.
    pub fn from_timeline(timeline: &Timeline, num_gpus: usize) -> Self {
        let mut durs: Vec<Vec<f64>> = vec![Vec::new(); num_gpus];
        for r in timeline.snapshot() {
            if r.kind != OpKind::LaunchGrid {
                continue;
            }
            if let crate::device::Device::Gpu(g) = r.device {
                if g < num_gpus {
                    durs[g].push(r.end - r.start);
                }
            }
        }
        let per_gpu = durs
            .into_iter()
            .enumerate()
            .map(|(device, mut d)| {
                d.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
                let samples = d.len();
                let total_busy: f64 = d.iter().sum();
                let mean_busy = if samples == 0 {
                    0.0
                } else {
                    total_busy / samples as f64
                };
                let p95_busy = if samples == 0 {
                    0.0
                } else {
                    d[((samples as f64 * 0.95).ceil() as usize).clamp(1, samples) - 1]
                };
                DeviceBusyStats {
                    device,
                    samples,
                    total_busy,
                    mean_busy,
                    p95_busy,
                }
            })
            .collect();
        Self { per_gpu }
    }

    /// Per-GPU total busy time.
    pub fn total_busy(&self) -> Vec<f64> {
        self.per_gpu.iter().map(|s| s.total_busy).collect()
    }

    /// `max(total_busy) / mean(total_busy)`: 1.0 is perfectly balanced.
    pub fn imbalance_ratio(&self) -> f64 {
        let busy = self.total_busy();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        busy.iter().copied().fold(0.0, f64::max) / mean
    }

    /// Renders an aligned text table, one GPU per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{:<6} {:>8} {:>14} {:>14} {:>14}",
            "gpu", "launches", "total_busy(us)", "mean(us)", "p95(us)"
        )
        .expect("string write");
        for s in &self.per_gpu {
            writeln!(
                out,
                "{:<6} {:>8} {:>14.3} {:>14.3} {:>14.3}",
                s.device,
                s.samples,
                s.total_busy * 1e6,
                s.mean_busy * 1e6,
                s.p95_busy * 1e6
            )
            .expect("string write");
        }
        writeln!(
            out,
            "imbalance ratio (max/mean): {:.3}",
            self.imbalance_ratio()
        )
        .expect("string write");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_paths_nest_and_restore() {
        let st = SpanState::default();
        assert!(st.current().is_root());
        {
            let _i = st.enter("iteration", 0);
            assert_eq!(st.current().render(), "iteration=0");
            {
                let _m = st.enter("mode", 2);
                assert_eq!(st.current().render(), "iteration=0/mode=2");
            }
            assert_eq!(st.current().render(), "iteration=0");
        }
        assert!(st.current().is_root());
    }

    #[test]
    fn prefix_relations() {
        let st = SpanState::default();
        let _i = st.enter("iteration", 1);
        let parent = st.current();
        let _m = st.enter("mode", 0);
        let child = st.current();
        assert!(parent.is_prefix_of(&child));
        assert!(!child.is_prefix_of(&parent));
        assert!(SpanPath::root().is_prefix_of(&child));
        assert_eq!(child.prefix(1), parent);
        assert_eq!(child.prefix(0), SpanPath::root());
        assert_eq!(child.prefix(99), child);
    }

    #[test]
    fn straggler_report_percentiles() {
        // Hand-build stats through the public constructor path by checking
        // the math directly on a synthetic report.
        let r = StragglerReport {
            per_gpu: vec![
                DeviceBusyStats {
                    device: 0,
                    samples: 2,
                    total_busy: 3.0,
                    mean_busy: 1.5,
                    p95_busy: 2.0,
                },
                DeviceBusyStats {
                    device: 1,
                    samples: 2,
                    total_busy: 1.0,
                    mean_busy: 0.5,
                    p95_busy: 0.6,
                },
            ],
        };
        assert_eq!(r.total_busy(), vec![3.0, 1.0]);
        assert!((r.imbalance_ratio() - 1.5).abs() < 1e-12);
        let txt = r.render();
        assert!(txt.contains("imbalance ratio"));
    }
}
