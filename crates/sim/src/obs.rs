//! Lock-cheap metrics: counters, gauges, and log-scale histograms.
//!
//! The observability layer's registry. Components that produce telemetry —
//! runtime backends, engines, the chunk reader —
//! hold a [`MetricsRegistry`] handle and record through it; a detached
//! handle (the default everywhere) makes every recording call a single
//! branch, so the zero-observer path stays bit-identical and near-free.
//!
//! Design:
//!
//! * **Handles, not lookups, on the hot path.** [`MetricsRegistry::counter`]
//!   registers a metric once (under a mutex — the cold path) and returns a
//!   [`Counter`] whose `add` is one relaxed atomic. Call sites that fire per
//!   op hold handles; call sites that fire rarely (allocations, warnings)
//!   may register per call.
//! * **Fixed log-scale histogram buckets.** [`Histogram`] buckets are powers
//!   of four from 1 to 4^15 plus overflow — coarse, allocation-free, and
//!   identical for every histogram, so expositions are comparable.
//! * **Prometheus-style exposition.** [`MetricsRegistry::render_prometheus`]
//!   emits the text format (`# TYPE` headers, `_total` counters, cumulative
//!   `_bucket{le=...}` series) for scrape-style consumption or snapshots.
//! * **One-shot warnings.** [`warn_once`] is the workspace's minimal log
//!   layer: a process-global dedup set so configuration mistakes (e.g. an
//!   unparsable `AMPED_THREADS`) surface exactly once on stderr and remain
//!   queryable by tests via [`warnings`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of finite histogram buckets (upper bounds `4^0 .. 4^15`).
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Upper bound of bucket `i`: `4^i` (the last, overflow bucket is `+Inf`).
pub fn bucket_bound(i: usize) -> f64 {
    4f64.powi(i as i32)
}

/// One registered metric's label set, e.g. `[("purpose", "chunk staging")]`.
type Labels = Vec<(String, String)>;

#[derive(Debug)]
enum Metric {
    Counter(Arc<AtomicU64>),
    /// Gauges store `f64` bits.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct HistogramCore {
    /// `HISTOGRAM_BUCKETS` finite buckets plus one overflow bucket.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    /// Sum of observed values, as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, v: f64) {
        let idx = (0..HISTOGRAM_BUCKETS)
            .find(|&i| v <= bucket_bound(i))
            .unwrap_or(HISTOGRAM_BUCKETS);
        // relaxed: independent monotonic tallies — readers tolerate a
        // bucket/count/sum triple from slightly different instants, and no
        // non-atomic data is guarded by these cells.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            // relaxed: single-cell CAS on the sum bits; same argument.
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// `(name, labels) → metric`, in deterministic order for exposition.
    metrics: Mutex<BTreeMap<(String, Labels), Metric>>,
}

/// A counter handle: monotonically increasing `u64`. Detached handles (from
/// a detached registry) drop every `add` in one branch.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `v` to the counter.
    pub fn add(&self, v: u64) {
        if let Some(c) = &self.cell {
            // relaxed: monotonic event count; nothing is ordered around it.
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            // relaxed: observability snapshot; staleness is acceptable.
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A gauge handle: a settable `f64` (last write wins).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        if let Some(c) = &self.cell {
            // relaxed: last-write-wins gauge; no ordering contract.
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> f64 {
        self.cell
            .as_ref()
            // relaxed: observability snapshot; staleness is acceptable.
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

/// A histogram handle with the registry's fixed log-scale buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if let Some(c) = &self.core {
            c.observe(v);
        }
    }

    /// Number of observations (0 for a detached handle).
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            // relaxed: observability snapshot; staleness is acceptable.
            .map(|c| c.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of observed values (0 for a detached handle).
    pub fn sum(&self) -> f64 {
        self.core
            .as_ref()
            // relaxed: observability snapshot; staleness is acceptable.
            .map(|c| f64::from_bits(c.sum_bits.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

/// The metrics registry: a cheap-to-clone handle onto a shared metric store,
/// or a detached no-op (the default). See the module docs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// An attached registry: recordings are stored and exposable.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// A detached registry: every handle it returns is a no-op. This is the
    /// default state of every instrumented component — the zero-observer
    /// path costs one branch per recording call.
    pub fn detached() -> Self {
        Self { inner: None }
    }

    /// True when recordings are actually stored.
    pub fn is_attached(&self) -> bool {
        self.inner.is_some()
    }

    fn key(name: &str, labels: &[(&str, &str)]) -> (String, Labels) {
        (
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// Registers (or finds) the counter `name` and returns its handle.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Registers (or finds) the counter `name` with `labels`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let mut map = inner.metrics.lock().expect("metrics lock");
        let metric = map
            .entry(Self::key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match metric {
            Metric::Counter(c) => Counter {
                cell: Some(c.clone()),
            },
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers (or finds) the gauge `name` and returns its handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let mut map = inner.metrics.lock().expect("metrics lock");
        let metric = map
            .entry(Self::key(name, &[]))
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match metric {
            Metric::Gauge(c) => Gauge {
                cell: Some(c.clone()),
            },
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Registers (or finds) the histogram `name` and returns its handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        let mut map = inner.metrics.lock().expect("metrics lock");
        let metric = map
            .entry(Self::key(name, &[]))
            .or_insert_with(|| Metric::Histogram(Arc::new(HistogramCore::new())));
        match metric {
            Metric::Histogram(c) => Histogram {
                core: Some(c.clone()),
            },
            _ => panic!("metric `{name}` already registered with a different type"),
        }
    }

    /// Convenience for cold call sites: adds `v` to counter `name{labels}`
    /// without keeping a handle (one registry lock per call).
    pub fn add(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        if self.inner.is_some() {
            self.counter_with(name, labels).add(v);
        }
    }

    /// The value of counter `name{labels}` (0 if absent or detached) — the
    /// introspection tests and reports read through.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let map = inner.metrics.lock().expect("metrics lock");
        match map.get(&Self::key(name, labels)) {
            // relaxed: observability snapshot; staleness is acceptable.
            Some(Metric::Counter(c)) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Renders the whole registry in the Prometheus text exposition format:
    /// `# TYPE` headers, `_total`-suffixed counters, gauges, and cumulative
    /// histogram `_bucket{le="..."}` series with `_sum`/`_count`. Metric
    /// names are prefixed `amped_` and sanitized to `[a-zA-Z0-9_]`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let sanitize = |s: &str| -> String {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        };
        let render_labels = |labels: &Labels, extra: Option<(&str, String)>| -> String {
            let mut parts: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), v.replace('"', "'")))
                .collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        // All metric loads below are relaxed: the exposition is a racy
        // point-in-time snapshot by design — each cell is read once and no
        // cross-metric consistency is promised (Prometheus scrapes tolerate
        // this; see DESIGN.md §11).
        let map = inner.metrics.lock().expect("metrics lock");
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for ((name, labels), metric) in map.iter() {
            let base = format!("amped_{}", sanitize(name));
            match metric {
                Metric::Counter(c) => {
                    if typed.insert(base.clone()) {
                        writeln!(out, "# TYPE {base}_total counter").expect("string write");
                    }
                    writeln!(
                        out,
                        "{base}_total{} {}",
                        render_labels(labels, None),
                        // relaxed: snapshot read (header comment above).
                        c.load(Ordering::Relaxed)
                    )
                    .expect("string write");
                }
                Metric::Gauge(c) => {
                    if typed.insert(base.clone()) {
                        writeln!(out, "# TYPE {base} gauge").expect("string write");
                    }
                    writeln!(
                        out,
                        "{base}{} {}",
                        render_labels(labels, None),
                        // relaxed: snapshot read (header comment above).
                        f64::from_bits(c.load(Ordering::Relaxed))
                    )
                    .expect("string write");
                }
                Metric::Histogram(h) => {
                    if typed.insert(base.clone()) {
                        writeln!(out, "# TYPE {base} histogram").expect("string write");
                    }
                    let mut cum = 0u64;
                    for i in 0..HISTOGRAM_BUCKETS {
                        // relaxed: snapshot read (header comment above).
                        cum += h.buckets[i].load(Ordering::Relaxed);
                        writeln!(
                            out,
                            "{base}_bucket{} {cum}",
                            render_labels(labels, Some(("le", format!("{}", bucket_bound(i)))))
                        )
                        .expect("string write");
                    }
                    // relaxed: snapshot read (header comment above).
                    cum += h.buckets[HISTOGRAM_BUCKETS].load(Ordering::Relaxed);
                    writeln!(
                        out,
                        "{base}_bucket{} {cum}",
                        render_labels(labels, Some(("le", "+Inf".to_string())))
                    )
                    .expect("string write");
                    writeln!(
                        out,
                        "{base}_sum{} {}",
                        render_labels(labels, None),
                        // relaxed: snapshot read (header comment above).
                        f64::from_bits(h.sum_bits.load(Ordering::Relaxed))
                    )
                    .expect("string write");
                    writeln!(
                        out,
                        "{base}_count{} {}",
                        render_labels(labels, None),
                        // relaxed: snapshot read (header comment above).
                        h.count.load(Ordering::Relaxed)
                    )
                    .expect("string write");
                }
            }
        }
        out
    }
}

/// The process-global one-shot warning set (key → message).
fn warning_set() -> &'static Mutex<BTreeMap<String, String>> {
    static SET: OnceLock<Mutex<BTreeMap<String, String>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Emits `message` on stderr exactly once per `key` for the process
/// lifetime. Returns `true` on the first emission. This is the minimal log
/// layer configuration diagnostics go through — loud once, silent after.
pub fn warn_once(key: &str, message: &str) -> bool {
    let mut set = warning_set().lock().expect("warning lock");
    if set.contains_key(key) {
        return false;
    }
    eprintln!("amped: warning: {message}");
    set.insert(key.to_string(), message.to_string());
    true
}

/// Maximum number of host threads used to execute grids and other
/// host-parallel work (kernel blocks, multi-mode planning, the dense half of
/// an ALS mode update). Simulated time
/// is independent of this; it only bounds real CPU usage.
///
/// Defaults to `min(available_parallelism, 8)`. The `AMPED_THREADS`
/// environment variable overrides it (clamped to ≥ 1), so benchmark and CI
/// runs are reproducible on any core count: `AMPED_THREADS=4 cargo test`.
///
/// An unparsable or zero `AMPED_THREADS` falls back (to the default / to 1)
/// and says so **once** through [`warn_once`] — silently ignoring a typo'd
/// override would leave a bench run on the wrong worker count with nothing
/// in the log to show why.
///
/// Lives here — at the bottom of the crate graph, next to [`warn_once`] —
/// so both the runtime's grid executor and the partitioner's parallel
/// multi-mode planner resolve the same worker budget.
pub fn host_workers() -> usize {
    if let Ok(v) = std::env::var("AMPED_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(0) => {
                warn_once(
                    "amped-threads-zero",
                    "AMPED_THREADS=0 is not a valid worker count; clamping to 1",
                );
                return 1;
            }
            Ok(n) => return n,
            Err(_) => {
                warn_once(
                    "amped-threads-unparsable",
                    &format!(
                        "AMPED_THREADS={v:?} is not a number; \
                         using the default worker count"
                    ),
                );
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// All warnings emitted so far, `(key, message)` in key order — how tests
/// assert a diagnostic fired without scraping stderr.
pub fn warnings() -> Vec<(String, String)> {
    warning_set()
        .lock()
        .expect("warning lock")
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_registry_is_a_no_op() {
        let reg = MetricsRegistry::detached();
        assert!(!reg.is_attached());
        let c = reg.counter("launches");
        c.add(5);
        assert_eq!(c.get(), 0);
        reg.gauge("g").set(1.5);
        assert_eq!(reg.gauge("g").get(), 0.0);
        reg.histogram("h").observe(10.0);
        assert_eq!(reg.histogram("h").count(), 0);
        assert_eq!(reg.render_prometheus(), "");
        // Default is detached.
        assert!(!MetricsRegistry::default().is_attached());
    }

    #[test]
    fn counters_share_state_across_clones_and_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("launches");
        let b = reg.clone().counter("launches");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter("launches").get(), 3);
        assert_eq!(reg.counter_value("launches", &[]), 3);
        // Distinct labels are distinct series.
        reg.add("alloc_bytes", &[("purpose", "factors")], 100);
        reg.add("alloc_bytes", &[("purpose", "staging")], 10);
        assert_eq!(
            reg.counter_value("alloc_bytes", &[("purpose", "factors")]),
            100
        );
    }

    #[test]
    fn gauge_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("resident");
        g.set(10.0);
        g.set(4.5);
        assert_eq!(reg.gauge("resident").get(), 4.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("blocks");
        h.observe(1.0); // bucket le=1
        h.observe(3.0); // bucket le=4
        h.observe(5.0); // bucket le=16
        h.observe(1e12); // overflow
        assert_eq!(h.count(), 4);
        assert!((h.sum() - (9.0 + 1e12)).abs() < 1.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE amped_blocks histogram"), "{text}");
        assert!(text.contains("amped_blocks_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("amped_blocks_bucket{le=\"4\"} 2"), "{text}");
        assert!(text.contains("amped_blocks_bucket{le=\"16\"} 3"), "{text}");
        assert!(
            text.contains("amped_blocks_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("amped_blocks_count 4"), "{text}");
    }

    #[test]
    fn prometheus_exposition_renders_counters_with_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("launches").add(7);
        reg.add("alloc_bytes", &[("purpose", "factor-matrix copies")], 64);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# TYPE amped_launches_total counter"),
            "{text}"
        );
        assert!(text.contains("amped_launches_total 7"), "{text}");
        assert!(
            text.contains("amped_alloc_bytes_total{purpose=\"factor-matrix copies\"} 64"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn warn_once_fires_once_per_key() {
        assert!(warn_once("obs-test-key", "first"));
        assert!(!warn_once("obs-test-key", "second"));
        let ws = warnings();
        let hit: Vec<_> = ws.iter().filter(|(k, _)| k == "obs-test-key").collect();
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].1, "first");
    }
}
