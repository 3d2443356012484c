//! Offline stand-in for `crossbeam`, providing the scoped-thread API the
//! workspace uses (`crossbeam::thread::scope` + `Scope::spawn`) on top of
//! `std::thread::scope`.
//!
//! Semantics match crossbeam 0.8: `scope` returns `Err` (instead of
//! panicking) when a spawned thread panicked and its handle was not joined, so
//! call sites can `.unwrap()` / `.expect()` to surface worker panics; and
//! every thread whose handle was not joined by hand is **joined** before
//! `scope` returns — the operating-system thread has exited, not merely
//! finished its closure, which is all `std::thread::scope` waits for. The
//! difference is observable: an exiting thread still holds its malloc arena,
//! so a thread spawned right after an un-joined scope is handed a different
//! arena (or a new one), and a process that spawns a worker per kernel launch
//! ends up with its buffers retained in several arenas instead of one. With
//! the join, which arena a worker gets — and so the resident set — does not
//! depend on how the exits race.

#![warn(missing_docs)]

#[cfg(feature = "check")]
pub use interleave as check;

/// Scoped threads (stand-in for `crossbeam::thread`).
pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// Payload of a propagated panic.
    pub type PanicPayload = Box<dyn Any + Send + 'static>;

    /// Joins one spawned thread unless its handle already was.
    type Joiner<'scope> = Box<dyn FnOnce() -> Result<(), PanicPayload> + Send + 'scope>;

    /// The slot a thread's handle sits in until someone joins it: the caller
    /// through [`ScopedJoinHandle::join`], or [`scope`] on its way out.
    type Slot<'scope, T> = Arc<Mutex<Option<std::thread::ScopedJoinHandle<'scope, T>>>>;

    /// The values behind these locks stay valid whatever panicked while one
    /// was held (a `Vec` push, an `Option` take).
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A scope handle: spawn threads that may borrow from the enclosing
    /// stack frame.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        joiners: Arc<Mutex<Vec<Joiner<'scope>>>>,
    }

    /// Handle to a thread spawned inside a [`Scope`].
    pub struct ScopedJoinHandle<'scope, T> {
        slot: Slot<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish, returning its result or the panic
        /// payload if it panicked.
        pub fn join(self) -> Result<T, PanicPayload> {
            // `join` consumes the only handle and `scope` joins leftovers
            // only after its closure returned, so the slot is still full.
            let handle = lock(&self.slot).take().expect("a handle joins once");
            handle.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread inside the scope. As in crossbeam, the closure
        /// receives the scope itself (for nested spawns); most callers ignore
        /// it (`|_| ...`).
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let child = Scope {
                inner: self.inner,
                joiners: self.joiners.clone(),
            };
            let slot: Slot<'scope, T> =
                Arc::new(Mutex::new(Some(self.inner.spawn(move || f(&child)))));
            let leftover = slot.clone();
            lock(&self.joiners).push(Box::new(move || {
                // Bound first: the guard must not outlive `leftover`.
                let handle = lock(&leftover).take();
                handle.map_or(Ok(()), |h| h.join().map(drop))
            }));
            ScopedJoinHandle { slot }
        }
    }

    /// Runs `f` with a scope in which borrowed-stack threads can be spawned;
    /// joins all unjoined threads before returning. Returns `Err` with the
    /// panic payload if the closure or any unjoined spawned thread panicked.
    pub fn scope<'env, F, R>(f: F) -> Result<R, PanicPayload>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let joiners = Arc::new(Mutex::new(Vec::new()));
                let result = f(&Scope {
                    inner: s,
                    joiners: joiners.clone(),
                });
                // A joined thread may have spawned more: drain until empty.
                let mut panicked = None;
                loop {
                    let batch: Vec<Joiner<'_>> = std::mem::take(&mut *lock(&joiners));
                    if batch.is_empty() {
                        break;
                    }
                    for join in batch {
                        if let Err(payload) = join() {
                            panicked.get_or_insert(payload);
                        }
                    }
                }
                if let Some(payload) = panicked {
                    resume_unwind(payload);
                }
                result
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::thread;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawned_threads_see_borrowed_state() {
        let counter = AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scope_returns_closure_value() {
        let v = thread::scope(|s| {
            let h = s.spawn(|_| 21);
            h.join().unwrap() * 2
        })
        .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn panic_in_unjoined_thread_becomes_err() {
        let r = thread::scope(|s| {
            s.spawn(|_| panic!("worker died"));
        });
        let payload = r.expect_err("the worker's panic surfaces");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker died"));
    }

    #[test]
    fn nested_unjoined_threads_are_joined_too() {
        // The inner thread is spawned from a spawned thread, possibly after
        // the scope began joining: its panic must still surface, and with
        // its own payload.
        let ran = AtomicUsize::new(0);
        let r = thread::scope(|s| {
            s.spawn(|s| {
                ran.fetch_add(1, Ordering::SeqCst);
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    panic!("inner died");
                });
            });
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        let payload = r.expect_err("the nested panic surfaces");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inner died"));
    }
}
