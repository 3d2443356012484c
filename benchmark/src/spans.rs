//! Spans recorded from outside the crates: the delegating engine opens
//! `als_iteration` and `mttkrp` spans, the delegating runtime one span per
//! trait call, all into one in-memory log written out as Chrome-trace JSON
//! when the run ends.

use serde_json::{json, Value};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed (or still open) interval. Times are seconds since the log's
/// epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// ALS iteration the span belongs to (shared by every span of that
    /// iteration).
    pub iteration: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The span log plus the counts taken at the same boundaries.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
    /// Blocks launched, summed over `launch_grid` calls.
    pub blocks: u64,
    /// `makespan(gpu, costs)` of every launched grid, summed: what the
    /// platform model says the launches cost.
    pub modeled_launch_s: f64,
}

/// The log as the engine wrapper and the runtime wrapper share it. All
/// recording happens on the thread driving `cp_als`; the mutex is there
/// because a `DeviceRuntime` may be moved across threads, not because it is
/// contended.
pub type SharedLog = Arc<Mutex<SpanLog>>;

impl SpanLog {
    pub fn shared() -> SharedLog {
        Arc::new(Mutex::new(Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
            blocks: 0,
            modeled_launch_s: 0.0,
        }))
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Sets the iteration id stamped on spans opened from now on.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }
}

/// Locks the shared log. Poisoning means a recording thread panicked, which
/// already failed the run.
pub fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, SpanLog> {
    log.lock()
        .expect("span log poisoned by a panicked recorder")
}

/// Records `f` as a span named `name`.
pub fn record<T>(log: &SharedLog, name: &str, f: impl FnOnce() -> T) -> T {
    let id = lock(log).open(name);
    let out = f();
    lock(log).close(id);
    out
}

/// Self time of every span: its duration minus the durations of its direct
/// children. Children never overlap each other here (one thread records), so
/// the sum of children is the part of the interval they cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Per iteration, the sum of `value(index, span)` over the spans of that
/// iteration. Index = iteration id; iterations without a span read 0.
pub fn per_iteration(
    spans: &[Span],
    iterations: usize,
    value: impl Fn(usize, &Span) -> f64,
) -> Vec<f64> {
    let mut out = vec![0.0; iterations];
    for (i, s) in spans.iter().enumerate() {
        if let Some(slot) = out.get_mut(s.iteration as usize) {
            *slot += value(i, s);
        }
    }
    out
}

/// [`per_iteration`] of the durations of the spans named `name`.
pub fn per_iteration_of(spans: &[Span], iterations: usize, name: &str) -> Vec<f64> {
    per_iteration(spans, iterations, |_, s| {
        if s.name == name {
            s.duration()
        } else {
            0.0
        }
    })
}

/// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`): one
/// complete event per span on a single track, nesting by time; self time,
/// parent and iteration ride in `args`.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let own = self_times(spans);
    let events: Vec<Value> = spans
        .iter()
        .zip(&own)
        .map(|(s, &self_s)| {
            let parent = match s.parent {
                Some(p) => json!(p),
                None => Value::Null,
            };
            json!({
                "name": s.name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": s.start * 1e6,
                "dur": s.duration() * 1e6,
                "args": json!({
                    "iteration": s.iteration,
                    "parent": parent,
                    "self_us": self_s * 1e6
                })
            })
        })
        .collect();
    json!({ "displayTimeUnit": "ms", "traceEvents": events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>, iteration: u32) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            iteration,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("als_iteration", 0.0, 10.0, None, 0),
            span("mttkrp[0]", 1.0, 5.0, Some(0), 0),
            span("launch_grid", 2.0, 4.5, Some(1), 0),
            span("mttkrp[1]", 6.0, 9.0, Some(0), 0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 1.5, 2.5, 3.0]);
        // An iteration is accounted for by construction: its own self time
        // plus the full duration of its mttkrp children is its wall.
        assert_eq!(own[0] + spans[1].duration() + spans[3].duration(), 10.0);
    }

    #[test]
    fn per_iteration_sums_by_iteration_id() {
        let spans = [
            span("launch_grid", 0.0, 1.0, None, 0),
            span("launch_grid", 1.0, 3.0, None, 0),
            span("allgather_blocks", 3.0, 3.5, None, 0),
            span("launch_grid", 4.0, 8.0, None, 1),
        ];
        assert_eq!(per_iteration_of(&spans, 2, "launch_grid"), vec![3.0, 4.0]);
    }

    #[test]
    fn log_nests_under_the_innermost_open_span() {
        let log = SpanLog::shared();
        let outer = lock(&log).open("outer");
        lock(&log).set_iteration(3);
        record(&log, "inner", || ());
        lock(&log).close(outer);
        let l = lock(&log);
        assert_eq!(l.spans[1].parent, Some(0));
        assert_eq!((l.spans[0].iteration, l.spans[1].iteration), (0, 3));
        assert!(l.spans[0].end >= l.spans[1].end);
    }

    #[test]
    fn chrome_trace_carries_one_complete_event_per_span() {
        let spans = [
            span("a", 0.0, 2.0, None, 0),
            span("b", 0.0, 1.0, Some(0), 0),
        ];
        let text = serde_json::to_string(&chrome_trace(&spans)).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(text.matches("\"self_us\":1000000").count(), 2);
    }
}
