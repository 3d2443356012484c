//! Loom-lite bounded interleaving explorer.
//!
//! A deterministic, exhaustive-up-to-a-bound schedule explorer for small
//! concurrent protocols, in the spirit of `loom` but vendored offline and
//! deliberately minimal. A *model* is a closure that builds some shared
//! state out of this crate's instrumented primitives ([`AtomicUsize`],
//! [`AtomicBool`], [`OnceSlot`], [`Channel`]) and runs a handful of threads
//! over it through [`Trial::run`]. The [`Explorer`] executes the model once
//! per distinct schedule:
//!
//! * Execution is **serialized**: exactly one modeled thread runs at a time,
//!   and every instrumented operation is a *scheduling point* where the
//!   explorer may switch threads. This explores every interleaving of the
//!   instrumented operations under sequential consistency.
//! * Exploration is **depth-first with replay**: each run records the
//!   choice made at every scheduling point with more than one runnable
//!   thread; after the run, the deepest choice with an untried alternative
//!   is bumped and the model re-runs from scratch with that prefix. When no
//!   alternative remains the state space is exhausted ([`Report::complete`]).
//! * **Deadlocks are detected**, not hung on: if every unfinished thread is
//!   blocked on a [`Channel`], the run aborts and the explorer panics with
//!   the offending schedule. Model assertion failures propagate the same
//!   way, annotated with the schedule that produced them.
//!
//! What this does *not* model (see DESIGN.md §14): weak memory. Operations
//! are explored under sequential consistency, so `Ordering::Relaxed`
//! reorderings are invisible here — which is exactly why the workspace lint
//! demands a written happens-before justification at every `Relaxed` site
//! on top of these schedule proofs.
//!
//! Outside an exploration the primitives degrade to their plain `std`
//! behaviour (one thread-local check per operation), so model helper code
//! can be unit-tested directly.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Panic payload used internally to unwind modeled threads when a run is
/// aborted (deadlock, step bound, or another thread's panic). Never escapes
/// [`Trial::run`].
struct AbortToken;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Ready to be granted the execution token.
    Runnable,
    /// Parked on a [`Channel`] until a sender wakes it.
    Blocked,
    /// Returned from its closure (or unwound).
    Finished,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Abort {
    /// Every unfinished thread was blocked: no schedule can make progress.
    Deadlock,
    /// The run exceeded the step bound (a runaway model loop).
    StepBound,
    /// A modeled thread panicked (model assertion failure).
    ModelPanic,
}

/// One recorded scheduling decision: the runnable set at that point and the
/// index (into `enabled`) that was chosen. Only points with more than one
/// runnable thread are recorded — single-choice points are deterministic.
#[derive(Clone, Debug)]
struct ChoicePoint {
    enabled: Vec<usize>,
    chosen: usize,
}

struct State {
    status: Vec<Status>,
    /// Thread currently holding the execution token (`None` while aborting
    /// or when the run is over).
    current: Option<usize>,
    /// Choice-index prefix to replay this run (one entry per multi-choice
    /// scheduling point, in order).
    replay: Vec<usize>,
    /// Decisions actually taken this run.
    trace: Vec<ChoicePoint>,
    /// Next replay position.
    pos: usize,
    abort: Option<Abort>,
    /// First real panic payload from a modeled thread.
    panic_payload: Option<Box<dyn std::any::Any + Send + 'static>>,
    steps: usize,
    max_steps: usize,
}

/// The per-run cooperative scheduler: a single execution token handed from
/// thread to thread at instrumented operations.
struct Sched {
    state: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    /// The scheduler the current OS thread is modeled under, if any.
    static CURRENT: RefCell<Option<(Arc<Sched>, usize)>> = const { RefCell::new(None) };
}

/// Runs `f` with the calling thread's scheduler handle, or returns `None`
/// when the thread is not part of an exploration (passthrough mode).
fn with_sched<R>(f: impl FnOnce(&Arc<Sched>, usize) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(s, tid)| f(s, *tid)))
}

impl Sched {
    fn new(threads: usize, replay: Vec<usize>, max_steps: usize) -> Self {
        Self {
            state: Mutex::new(State {
                status: vec![Status::Runnable; threads],
                current: None,
                replay,
                trace: Vec::new(),
                pos: 0,
                abort: None,
                panic_payload: None,
                steps: 0,
                max_steps,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // A poisoned scheduler mutex means a panic is already unwinding
        // through an aborting run; propagating it here would mask the
        // original failure, so take the inner state anyway.
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Picks the next thread to run (with the state lock held) and records
    /// the decision when there was a real choice. Sets `current = None` on
    /// completion or deadlock.
    fn pick_locked(&self, st: &mut State) {
        if st.abort.is_some() {
            st.current = None;
            return;
        }
        let enabled: Vec<usize> = st
            .status
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            if st.status.iter().all(|s| *s == Status::Finished) {
                st.current = None; // run over
            } else {
                // Deadlock: unfinished threads exist but none can run.
                st.abort = Some(Abort::Deadlock);
                for s in st.status.iter_mut() {
                    if *s == Status::Blocked {
                        *s = Status::Runnable; // release them to unwind
                    }
                }
                st.current = None;
            }
            return;
        }
        let chosen = if enabled.len() == 1 {
            enabled[0]
        } else {
            let idx = if st.pos < st.replay.len() {
                st.replay[st.pos]
            } else {
                0
            };
            st.pos += 1;
            st.trace.push(ChoicePoint {
                enabled: enabled.clone(),
                chosen: idx,
            });
            enabled[idx]
        };
        st.current = Some(chosen);
    }

    /// Panics with the internal abort token (unwinds the modeled thread).
    fn abort_unwind(&self) -> ! {
        std::panic::panic_any(AbortToken);
    }

    /// Waits until thread `me` holds the execution token.
    fn wait_for_grant(&self, me: usize) {
        let mut st = self.lock();
        loop {
            if st.abort.is_some() {
                drop(st);
                self.abort_unwind();
            }
            if st.current == Some(me) {
                return;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// A scheduling point: offer the token to every runnable thread
    /// (including `me`) and wait until `me` is granted again.
    fn yield_point(&self, me: usize) {
        {
            let mut st = self.lock();
            if st.abort.is_some() {
                drop(st);
                self.abort_unwind();
            }
            st.steps += 1;
            if st.steps > st.max_steps {
                st.abort = Some(Abort::StepBound);
                st.current = None;
                drop(st);
                self.cv.notify_all();
                self.abort_unwind();
            }
            st.status[me] = Status::Runnable;
            self.pick_locked(&mut st);
        }
        self.cv.notify_all();
        self.wait_for_grant(me);
    }

    /// Parks thread `me` until another thread wakes it ([`Sched::wake`])
    /// and the scheduler grants it the token again.
    fn block_self(&self, me: usize) {
        {
            let mut st = self.lock();
            if st.abort.is_some() {
                drop(st);
                self.abort_unwind();
            }
            st.status[me] = Status::Blocked;
            self.pick_locked(&mut st);
        }
        self.cv.notify_all();
        self.wait_for_grant(me);
    }

    /// Marks `tids` runnable again (a channel send waking its waiters).
    /// Called by the thread holding the token; no reschedule happens here —
    /// the woken threads compete at the waker's next scheduling point.
    fn wake(&self, tids: &[usize]) {
        let mut st = self.lock();
        for &t in tids {
            if st.status[t] == Status::Blocked {
                st.status[t] = Status::Runnable;
            }
        }
    }

    /// Marks thread `me` finished and hands the token onward. `payload` is
    /// the thread's panic payload, if it panicked with a real error.
    fn thread_done(&self, me: usize, payload: Option<Box<dyn std::any::Any + Send + 'static>>) {
        {
            let mut st = self.lock();
            st.status[me] = Status::Finished;
            if let Some(p) = payload {
                if st.abort.is_none() {
                    st.abort = Some(Abort::ModelPanic);
                    st.panic_payload = Some(p);
                    for s in st.status.iter_mut() {
                        if *s == Status::Blocked {
                            *s = Status::Runnable; // release to unwind
                        }
                    }
                }
                st.current = None;
            } else {
                self.pick_locked(&mut st);
            }
        }
        self.cv.notify_all();
    }

    /// Controller-side: performs the first scheduling decision of the run.
    fn initial_pick(&self) {
        {
            let mut st = self.lock();
            self.pick_locked(&mut st);
        }
        self.cv.notify_all();
    }

    /// Controller-side: waits until every modeled thread has finished.
    fn wait_all_done(&self) {
        let mut st = self.lock();
        while !st.status.iter().all(|s| *s == Status::Finished) {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }
}

/// Outcome of one whole exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// True when the bounded state space was exhausted (every interleaving
    /// of the instrumented operations was run); false when the exploration
    /// stopped at [`Explorer::max_schedules`] first.
    pub complete: bool,
    /// Longest choice trace seen across all schedules (a depth measure).
    pub max_choice_points: usize,
    /// Deadlocked schedules seen (always 0 unless
    /// [`Explorer::fail_on_deadlock`] was turned off).
    pub deadlocks: usize,
}

/// One run of the model under a fixed schedule prefix. Handed to the model
/// closure; the model builds its shared state, then calls [`Trial::run`].
pub struct Trial {
    replay: Vec<usize>,
    max_steps: usize,
    fail_on_deadlock: bool,
    /// Trace of the just-finished run (for the explorer's backtracking).
    trace: RefCell<Vec<ChoicePoint>>,
    deadlocked: RefCell<bool>,
}

impl Trial {
    /// Runs `threads` to completion under the trial's schedule, one closure
    /// per modeled thread. Instrumented operations inside the closures are
    /// the scheduling points. Returns when every thread has finished.
    ///
    /// # Panics
    /// Propagates the first modeled-thread panic (model assertion failures),
    /// annotated with the schedule. Deadlocks and step-bound overruns are
    /// reported to the explorer, which panics with the schedule after the
    /// run unless configured otherwise.
    pub fn run<'env>(&self, threads: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let sched = Arc::new(Sched::new(
            threads.len(),
            self.replay.clone(),
            self.max_steps,
        ));
        std::thread::scope(|scope| {
            for (tid, f) in threads.into_iter().enumerate() {
                let sched = sched.clone();
                scope.spawn(move || {
                    CURRENT.with(|c| *c.borrow_mut() = Some((sched.clone(), tid)));
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        sched.wait_for_grant(tid);
                        f();
                    }));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    let payload = match result {
                        Ok(()) => None,
                        // The abort token is harness plumbing, not a model
                        // failure; anything else is the model's own panic.
                        Err(p) if p.is::<AbortToken>() => None,
                        Err(p) => Some(p),
                    };
                    sched.thread_done(tid, payload);
                });
            }
            sched.initial_pick();
            sched.wait_all_done();
        });
        let mut st = sched.lock();
        *self.trace.borrow_mut() = std::mem::take(&mut st.trace);
        match st.abort {
            Some(Abort::ModelPanic) => {
                let payload = st.panic_payload.take().expect("model panic stored");
                drop(st);
                eprintln!(
                    "interleave: model panicked under schedule {:?}",
                    self.schedule_digest()
                );
                resume_unwind(payload);
            }
            Some(Abort::Deadlock) => {
                *self.deadlocked.borrow_mut() = true;
                if self.fail_on_deadlock {
                    drop(st);
                    // Fail before the model's post-run assertions see the
                    // partial state a deadlocked run leaves behind.
                    panic!(
                        "interleave: deadlock under schedule {:?}",
                        self.schedule_digest()
                    );
                }
            }
            Some(Abort::StepBound) => {
                drop(st);
                panic!(
                    "interleave: step bound exceeded under schedule {:?} \
                     (runaway model loop?)",
                    self.schedule_digest()
                );
            }
            None => {}
        }
    }

    /// The choice indices taken this run (for failure messages).
    fn schedule_digest(&self) -> Vec<usize> {
        self.trace.borrow().iter().map(|c| c.chosen).collect()
    }

    /// Whether this trial's run deadlocked (only observable when the
    /// explorer was configured with `fail_on_deadlock = false`).
    pub fn deadlocked(&self) -> bool {
        *self.deadlocked.borrow()
    }
}

/// The bounded DFS explorer. Configure, then [`Explorer::explore`] a model.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Stop after this many schedules even if the space is not exhausted.
    pub max_schedules: usize,
    /// Per-run scheduling-point budget (guards against runaway loops).
    pub max_steps: usize,
    /// Panic on the first deadlocked schedule (default `true`). When
    /// `false`, deadlocks are only counted — for tests that *expect* them.
    pub fail_on_deadlock: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            max_schedules: 10_000,
            max_steps: 100_000,
            fail_on_deadlock: true,
        }
    }
}

impl Explorer {
    /// An explorer that stops after `max_schedules` distinct schedules.
    pub fn new(max_schedules: usize) -> Self {
        Self {
            max_schedules,
            ..Self::default()
        }
    }

    /// Runs `model` once per distinct schedule until the bounded state
    /// space is exhausted or [`Explorer::max_schedules`] is reached. The
    /// model must build fresh state each call and run its threads through
    /// the given [`Trial`].
    ///
    /// # Panics
    /// On the first deadlocked schedule (unless [`Explorer::fail_on_deadlock`]
    /// is false), on a step-bound overrun, or on any model panic.
    pub fn explore(&self, mut model: impl FnMut(&Trial)) -> Report {
        let mut replay: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        let mut max_choice_points = 0usize;
        let mut deadlocks = 0usize;
        loop {
            let trial = Trial {
                replay: replay.clone(),
                max_steps: self.max_steps,
                fail_on_deadlock: self.fail_on_deadlock,
                trace: RefCell::new(Vec::new()),
                deadlocked: RefCell::new(false),
            };
            model(&trial);
            schedules += 1;
            let trace = trial.trace.borrow();
            max_choice_points = max_choice_points.max(trace.len());
            if *trial.deadlocked.borrow() {
                deadlocks += 1;
            }
            // Backtrack: bump the deepest choice with an untried alternative.
            let next = trace
                .iter()
                .rposition(|c| c.chosen + 1 < c.enabled.len())
                .map(|i| {
                    let mut r: Vec<usize> = trace[..i].iter().map(|c| c.chosen).collect();
                    r.push(trace[i].chosen + 1);
                    r
                });
            drop(trace);
            match next {
                Some(r) if schedules < self.max_schedules => replay = r,
                Some(_) => {
                    return Report {
                        schedules,
                        complete: false,
                        max_choice_points,
                        deadlocks,
                    }
                }
                None => {
                    return Report {
                        schedules,
                        complete: true,
                        max_choice_points,
                        deadlocks,
                    };
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Instrumented primitives
// ---------------------------------------------------------------------------

/// An instrumented `usize` atomic: every operation is a scheduling point
/// when run under an [`Explorer`], a plain sequentially-consistent atomic
/// operation otherwise.
#[derive(Debug, Default)]
pub struct AtomicUsize {
    // The model executes under the scheduler's single-token serialization,
    // so SeqCst here is free and keeps the passthrough mode strongest.
    inner: std::sync::atomic::AtomicUsize,
}

impl AtomicUsize {
    /// A new atomic holding `v`.
    pub fn new(v: usize) -> Self {
        Self {
            inner: std::sync::atomic::AtomicUsize::new(v),
        }
    }

    /// Atomically adds `v`, returning the previous value. One scheduling
    /// point (the whole RMW is one indivisible step, as on hardware).
    pub fn fetch_add(&self, v: usize) -> usize {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.fetch_add(v, std::sync::atomic::Ordering::SeqCst)
    }

    /// Atomic load. One scheduling point.
    pub fn load(&self) -> usize {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Atomic store. One scheduling point.
    pub fn store(&self, v: usize) {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.store(v, std::sync::atomic::Ordering::SeqCst)
    }

    /// Atomic compare-exchange. One scheduling point for the whole RMW.
    pub fn compare_exchange(&self, current: usize, new: usize) -> Result<usize, usize> {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.compare_exchange(
            current,
            new,
            std::sync::atomic::Ordering::SeqCst,
            std::sync::atomic::Ordering::SeqCst,
        )
    }

    /// Non-instrumented read for post-run assertions (all threads joined).
    pub fn into_value(self) -> usize {
        self.inner.into_inner()
    }
}

/// An instrumented boolean flag (see [`AtomicUsize`]).
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// A new flag holding `v`.
    pub fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    /// Atomic load. One scheduling point.
    pub fn load(&self) -> bool {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Atomic store. One scheduling point.
    pub fn store(&self, v: bool) {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.store(v, std::sync::atomic::Ordering::SeqCst)
    }

    /// Atomically swaps in `v`, returning the previous value.
    pub fn swap(&self, v: bool) -> bool {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner.swap(v, std::sync::atomic::Ordering::SeqCst)
    }
}

/// An instrumented write-once slot — the model-side stand-in for
/// `std::sync::OnceLock` in the planning pool's protocol. `set` returns whether
/// this call installed the value (exactly one caller wins).
#[derive(Debug, Default)]
pub struct OnceSlot<T> {
    inner: Mutex<Option<T>>,
}

impl<T> OnceSlot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(None),
        }
    }

    /// Installs `v` if the slot is empty; returns `false` (dropping `v`)
    /// when a value is already present. One scheduling point.
    pub fn set(&self, v: T) -> bool {
        let _ = with_sched(|s, me| s.yield_point(me));
        let mut slot = self
            .inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if slot.is_some() {
            false
        } else {
            *slot = Some(v);
            true
        }
    }

    /// Whether a value has been installed. One scheduling point.
    pub fn is_set(&self) -> bool {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .is_some()
    }

    /// Non-instrumented extraction for post-run assertions.
    pub fn into_value(self) -> Option<T> {
        self.inner
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

/// Error returned by [`Channel::recv`] once the channel is closed and empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

struct ChannelInner<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Modeled threads parked in `recv`.
    waiters: Vec<usize>,
}

/// An instrumented MPSC-style channel — the model-side stand-in for
/// `std::sync::mpsc` in the prefetch-handshake protocol. `send` never
/// blocks; `recv` parks the modeled thread until a value or close arrives
/// (a real scheduling dependency the explorer's deadlock detector watches).
pub struct Channel<T> {
    inner: Mutex<ChannelInner<T>>,
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Channel<T> {
    /// A new open, empty channel.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(ChannelInner {
                queue: VecDeque::new(),
                closed: false,
                waiters: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChannelInner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Sends `v` (never blocks) and wakes parked receivers. One scheduling
    /// point.
    pub fn send(&self, v: T) {
        let _ = with_sched(|s, me| s.yield_point(me));
        let waiters = {
            let mut ch = self.lock();
            ch.queue.push_back(v);
            std::mem::take(&mut ch.waiters)
        };
        if !waiters.is_empty() {
            let _ = with_sched(|s, _| s.wake(&waiters));
        }
    }

    /// Closes the channel: pending values stay receivable, then `recv`
    /// returns [`RecvError`]. Wakes parked receivers. One scheduling point.
    pub fn close(&self) {
        let _ = with_sched(|s, me| s.yield_point(me));
        let waiters = {
            let mut ch = self.lock();
            ch.closed = true;
            std::mem::take(&mut ch.waiters)
        };
        if !waiters.is_empty() {
            let _ = with_sched(|s, _| s.wake(&waiters));
        }
    }

    /// Receives the next value, parking the modeled thread while the
    /// channel is open and empty. Outside an exploration this spins (the
    /// passthrough mode is only meant for already-sent values in unit
    /// tests).
    pub fn recv(&self) -> Result<T, RecvError> {
        loop {
            let parked = {
                let mut ch = self.lock();
                if let Some(v) = ch.queue.pop_front() {
                    return Ok(v);
                }
                if ch.closed {
                    return Err(RecvError);
                }
                with_sched(|_, me| ch.waiters.push(me)).is_some()
            };
            if parked {
                // Park until a sender wakes us; the loop re-checks the
                // queue after every grant.
                let _ = with_sched(|s, me| s.block_self(me));
            } else {
                // Passthrough mode: busy-wait (caller owns both ends).
                std::thread::yield_now();
            }
        }
    }

    /// Non-blocking receive: `Some(v)` when a value is queued. One
    /// scheduling point.
    pub fn try_recv(&self) -> Option<T> {
        let _ = with_sched(|s, me| s.yield_point(me));
        self.lock().queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_add_never_loses_updates() {
        let report = Explorer::new(5_000).explore(|t| {
            let counter = AtomicUsize::new(0);
            t.run(vec![
                Box::new(|| {
                    counter.fetch_add(1);
                }),
                Box::new(|| {
                    counter.fetch_add(1);
                }),
            ]);
            assert_eq!(counter.load(), 2);
        });
        assert!(report.complete, "two-op model must be exhaustible");
        assert!(report.schedules >= 2);
    }

    #[test]
    fn explorer_finds_the_lost_update_race() {
        // A deliberately racy read-modify-write: some schedule must lose an
        // update, proving the explorer actually interleaves at operation
        // granularity rather than running threads to completion.
        let mut lost = false;
        let report = Explorer::new(5_000).explore(|t| {
            let counter = AtomicUsize::new(0);
            let racy = || {
                let v = counter.load();
                counter.store(v + 1);
            };
            t.run(vec![Box::new(racy), Box::new(racy)]);
            if counter.load() == 1 {
                lost = true;
            }
        });
        assert!(report.complete);
        assert!(lost, "exploration must expose the lost-update schedule");
        assert!(report.schedules > 2);
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        // Two threads each waiting on a channel only the other could fill.
        let result = catch_unwind(AssertUnwindSafe(|| {
            Explorer::new(100).explore(|t| {
                let a: Channel<u8> = Channel::new();
                let b: Channel<u8> = Channel::new();
                t.run(vec![
                    Box::new(|| {
                        let _ = a.recv();
                        b.send(1);
                    }),
                    Box::new(|| {
                        let _ = b.recv();
                        a.send(1);
                    }),
                ]);
            });
        }));
        let payload = result.expect_err("circular wait must be reported");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
    }

    #[test]
    fn channel_delivers_in_order_across_schedules() {
        let report = Explorer::new(5_000).explore(|t| {
            let ch: Channel<usize> = Channel::new();
            let got = Mutex::new(Vec::new());
            t.run(vec![
                Box::new(|| {
                    ch.send(1);
                    ch.send(2);
                    ch.close();
                }),
                Box::new(|| {
                    while let Ok(v) = ch.recv() {
                        got.lock().unwrap().push(v);
                    }
                }),
            ]);
            assert_eq!(*got.lock().unwrap(), vec![1, 2], "FIFO per sender");
        });
        assert!(report.complete);
        assert!(report.schedules >= 2);
    }

    #[test]
    fn once_slot_has_exactly_one_winner() {
        let report = Explorer::new(5_000).explore(|t| {
            let slot: OnceSlot<usize> = OnceSlot::new();
            let wins = AtomicUsize::new(0);
            t.run(vec![
                Box::new(|| {
                    if slot.set(1) {
                        wins.fetch_add(1);
                    }
                }),
                Box::new(|| {
                    if slot.set(2) {
                        wins.fetch_add(1);
                    }
                }),
            ]);
            assert_eq!(wins.load(), 1, "exactly one set() may win");
            assert!(slot.is_set());
        });
        assert!(report.complete);
    }

    #[test]
    fn model_panic_carries_through_with_schedule() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Explorer::new(100).explore(|t| {
                let x = AtomicUsize::new(0);
                t.run(vec![
                    Box::new(|| {
                        x.store(1);
                    }),
                    Box::new(|| {
                        if x.load() == 1 {
                            panic!("observed the store");
                        }
                    }),
                ]);
            });
        }));
        assert!(result.is_err(), "some schedule observes the store");
    }

    #[test]
    fn passthrough_mode_works_without_an_explorer() {
        let a = AtomicUsize::new(5);
        assert_eq!(a.fetch_add(2), 5);
        assert_eq!(a.load(), 7);
        let ch = Channel::new();
        ch.send(9);
        assert_eq!(ch.recv(), Ok(9));
        ch.close();
        assert_eq!(ch.recv(), Err(RecvError));
        let slot = OnceSlot::new();
        assert!(slot.set(3));
        assert!(!slot.set(4));
        assert_eq!(slot.into_value(), Some(3));
    }

    #[test]
    fn max_schedules_bounds_the_search() {
        // Enough racy ops that the space exceeds the bound.
        let report = Explorer::new(10).explore(|t| {
            let c = AtomicUsize::new(0);
            let busy = || {
                for _ in 0..4 {
                    c.fetch_add(1);
                }
            };
            t.run(vec![Box::new(busy), Box::new(busy), Box::new(busy)]);
        });
        assert_eq!(report.schedules, 10);
        assert!(!report.complete);
    }
}
