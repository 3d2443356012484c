//! The grid executor: real execution, deterministic simulated makespan.
//!
//! Mirrors the CUDA execution model described in paper §4.1–4.2: a kernel is
//! a *grid* of threadblocks; each threadblock runs to completion on one SM,
//! and an idle SM picks up the next pending threadblock. Here:
//!
//! * **Real execution** — every block's closure runs on a host worker pool
//!   (blocks are claimed with an atomic counter, just like hardware block
//!   scheduling), producing real numeric output.
//! * **Simulated time** — per-block costs from the `amped-sim` cost model
//!   are list-scheduled in block order onto `sms` virtual SMs; the resulting
//!   makespan is the grid's simulated execution time. This is exactly the
//!   greedy assignment hardware performs, and it is deterministic because it
//!   depends only on the block cost sequence, never on host thread timing.
//!
//! Layers above this crate do not call [`run_grid`] directly; they launch
//! grids through [`crate::DeviceRuntime`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Timing summary of one simulated grid launch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridTiming {
    /// Simulated wall time of the grid (the slowest SM's finish time).
    pub makespan: f64,
    /// Sum of all block times (SM busy time).
    pub busy_sum: f64,
    /// Number of threadblocks executed.
    pub blocks: usize,
}

impl GridTiming {
    /// Mean SM utilization during the grid: `busy / (sms × makespan)`.
    pub fn utilization(&self, sms: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.busy_sum / (sms as f64 * self.makespan)
    }
}

/// f64 wrapper ordered by `total_cmp` so it can live in a heap.
#[derive(PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Deterministic makespan of list-scheduling `costs` (in order) onto `sms`
/// identical processors: each block goes to the earliest-free SM, matching
/// the GPU's "idle SM takes the next threadblock" policy (§4.2).
pub fn list_schedule_makespan(sms: usize, costs: impl IntoIterator<Item = f64>) -> GridTiming {
    assert!(sms > 0, "need at least one SM");
    let mut heap: BinaryHeap<Reverse<Time>> = BinaryHeap::with_capacity(sms);
    for _ in 0..sms {
        heap.push(Reverse(Time(0.0)));
    }
    let mut busy_sum = 0.0;
    let mut blocks = 0usize;
    let mut makespan = 0.0f64;
    for c in costs {
        debug_assert!(c >= 0.0, "block cost must be non-negative");
        let Reverse(Time(free_at)) = heap.pop().expect("heap holds sms entries");
        let end = free_at + c;
        busy_sum += c;
        blocks += 1;
        makespan = makespan.max(end);
        heap.push(Reverse(Time(end)));
    }
    GridTiming {
        makespan,
        busy_sum,
        blocks,
    }
}

// The default host worker budget (`AMPED_THREADS`-aware) lives in
// `amped-sim` so the partitioner's parallel planner shares it; re-exported
// here because the grid executor is its historical home.
pub use amped_sim::host_workers;

/// Pure functional execution: runs `kernel(block_index)` for every block in
/// `0..num_blocks` on up to `workers` host threads — the calling thread and
/// `workers − 1` crossbeam scoped threads, all in the same claim loop (blocks
/// are claimed with an atomic counter, like hardware block scheduling). The
/// caller is a worker because a launch is short: a thread that only spawns
/// and joins idles for the whole grid while a spawned one is still starting.
/// No timing is computed here — this is the execution half of [`run_grid`].
///
/// `kernel` must be safe to call concurrently for distinct block indices —
/// shared state must be `Sync`. A panic in any block reaches the caller with
/// its own payload, whichever thread ran the block, once every worker has
/// stopped.
pub fn execute_blocks<K>(workers: usize, num_blocks: usize, kernel: K)
where
    K: Fn(usize) + Sync,
{
    let workers = workers.clamp(1, num_blocks.max(1));
    if workers <= 1 {
        for b in 0..num_blocks {
            kernel(b);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let claim_blocks = || loop {
        // relaxed: the claim counter only partitions block indices —
        // each fetch_add yields a unique b by RMW atomicity alone.
        // Output visibility is ordered by the scope join, not here.
        // (Interleaving-verified: tests/interleave_claim.rs.)
        let b = next.fetch_add(1, Ordering::Relaxed);
        if b >= num_blocks {
            break;
        }
        kernel(b);
    };
    let joined = crossbeam::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|_| claim_blocks());
        }
        claim_blocks();
    });
    if let Err(payload) = joined {
        std::panic::resume_unwind(payload);
    }
}

/// Runs `f(bounds[k], &mut data[bounds[k]..bounds[k + 1]])` for every
/// non-empty part `k` on up to `workers` host threads, which claim the
/// parts as [`execute_blocks`] claims blocks (the calling thread among
/// them; one part, or one worker, spawns nothing). `f` is handed its part's
/// offset so it can find the matching range of whatever it reads or writes
/// beside `data`; which thread ran a part is not observable in the result
/// when `f` writes only through its part and the offset.
///
/// `bounds` must ascend from 0 to `data.len()`. A panic in any part
/// propagates to the caller once every worker has stopped.
pub fn for_each_part_mut<T, F>(data: &mut [T], bounds: &[usize], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert_eq!(bounds.first(), Some(&0), "bounds start at 0");
    assert_eq!(bounds.last(), Some(&data.len()), "bounds end at the length");
    let mut parts = Vec::with_capacity(bounds.len() - 1);
    let mut rest = data;
    for w in bounds.windows(2) {
        let (part, tail) = rest.split_at_mut(w[1] - w[0]);
        rest = tail;
        if !part.is_empty() {
            parts.push(Mutex::new(Some((w[0], part))));
        }
    }
    // Each part is claimed exactly once, so its lock is never contended;
    // it only hands the `&mut` part to whichever thread claimed it. No code
    // runs while it is held, so it cannot be poisoned.
    execute_blocks(workers, parts.len(), |k| {
        let claimed = parts[k]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((at, part)) = claimed {
            f(at, part);
        }
    });
}

/// Executes a grid: runs `kernel(block_index)` for every block of the grid
/// (one block per entry of `costs`) on up to `workers` host threads via
/// [`execute_blocks`], and returns the simulated [`GridTiming`] of
/// list-scheduling `costs` in order — a pure model of the block cost
/// sequence, independent of how host execution interleaved. Runtimes pass
/// their tuned worker count ([`crate::TuneParams::effective_workers`]);
/// the default resolves to [`host_workers`].
pub fn run_grid<K>(sms: usize, workers: usize, kernel: K, costs: &[f64]) -> GridTiming
where
    K: Fn(usize) + Sync,
{
    execute_blocks(workers, costs.len(), kernel);
    list_schedule_makespan(sms, costs.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering::SeqCst};

    #[test]
    fn makespan_single_sm_is_sum() {
        let t = list_schedule_makespan(1, [1.0, 2.0, 3.0]);
        assert_eq!(t.makespan, 6.0);
        assert_eq!(t.busy_sum, 6.0);
        assert_eq!(t.blocks, 3);
        assert!((t.utilization(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_balances_across_sms() {
        // 4 equal blocks on 2 SMs → 2 rounds.
        let t = list_schedule_makespan(2, [1.0; 4]);
        assert_eq!(t.makespan, 2.0);
    }

    #[test]
    fn makespan_bounded_by_longest_block() {
        let t = list_schedule_makespan(8, [10.0, 1.0, 1.0, 1.0]);
        assert_eq!(t.makespan, 10.0);
    }

    #[test]
    fn list_scheduling_respects_arrival_order() {
        // Blocks [4, 1, 1, 1, 1] on 2 SMs: greedy-in-order gives makespan 4
        // (SM0 takes the 4; SM1 takes the four 1s).
        let t = list_schedule_makespan(2, [4.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(t.makespan, 4.0);
    }

    #[test]
    fn empty_grid_is_free() {
        let t = list_schedule_makespan(4, []);
        assert_eq!(t.makespan, 0.0);
        assert_eq!(t.blocks, 0);
        assert_eq!(t.utilization(4), 0.0);
    }

    #[test]
    fn run_grid_executes_every_block_exactly_once() {
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let count = |b: usize| assert_eq!(hits[b].fetch_add(1, SeqCst), 0);
        let timing = run_grid(4, host_workers(), count, &[0.5; 64]);
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
        // 64 blocks × 0.5 on 4 SMs = 8.0 simulated seconds.
        assert_eq!(timing.makespan, 8.0);
        assert_eq!(timing.busy_sum, 32.0);
    }

    #[test]
    fn simulated_time_is_independent_of_host_threads() {
        // Same costs → same timing regardless of how execution interleaves
        // (and regardless of the worker count executing the blocks).
        let costs: Vec<f64> = (0..100).map(|b| (b % 7) as f64 * 0.1).collect();
        let a = run_grid(3, 2, |_| {}, &costs);
        let b = run_grid(3, 5, |_| {}, &costs);
        assert_eq!(a, b);
        assert_eq!(a, list_schedule_makespan(3, costs.iter().copied()));
    }

    #[test]
    fn execute_blocks_runs_each_block_once_at_any_worker_count() {
        for workers in [1usize, 3, 200] {
            let hits: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
            execute_blocks(workers, 37, |b| assert_eq!(hits[b].fetch_add(1, SeqCst), 0));
            assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
        }
    }

    #[test]
    fn for_each_part_mut_covers_every_part_once_with_its_offset() {
        // Uneven parts, empty parts at either end and in the middle.
        let bounds = [0usize, 0, 3, 3, 10, 37, 37];
        for workers in [1usize, 2, 3, 200] {
            let mut data = vec![0u32; 37];
            for_each_part_mut(&mut data, &bounds, workers, |at, part| {
                for (k, v) in part.iter_mut().enumerate() {
                    *v += (at + k) as u32 + 1;
                }
            });
            let want: Vec<u32> = (1..=37).collect();
            assert_eq!(data, want, "{workers} workers");
        }
        // One part, or one worker, runs on the caller; no part runs nothing.
        let caller = std::thread::current().id();
        let mut data = vec![0u32; 37];
        for_each_part_mut(&mut data, &[0, 37], 4, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
        for_each_part_mut(&mut data, &bounds, 1, |_, _| {
            assert_eq!(std::thread::current().id(), caller);
        });
        for_each_part_mut(&mut [0u8; 0], &[0, 0], 4, |_, _| panic!("no part to run"));
    }

    #[test]
    fn panic_in_a_part_propagates_to_the_caller() {
        let r = std::panic::catch_unwind(|| {
            let mut data = [0u8; 4];
            for_each_part_mut(&mut data, &[0, 2, 4], 2, |at, _| {
                if at == 0 {
                    panic!("part 0 exploded");
                }
            });
        });
        assert!(r.is_err(), "a spawned part's panic must propagate");
    }

    #[test]
    fn garbage_amped_threads_warns_once_and_falls_back() {
        // Env vars are process-global; this test owns AMPED_THREADS only
        // long enough to observe the fallback, and the worker count never
        // affects numeric results (simulated time ignores it), so a
        // concurrent test seeing the garbage value stays correct.
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        std::env::set_var("AMPED_THREADS", "eight");
        let w1 = host_workers();
        let w2 = host_workers();
        std::env::set_var("AMPED_THREADS", "0");
        let w0 = host_workers();
        std::env::remove_var("AMPED_THREADS");
        assert_eq!(w1, default, "garbage value falls back to the default");
        assert_eq!(w2, default);
        assert_eq!(w0, 1, "zero clamps to one worker");
        let warned: Vec<_> = amped_sim::obs::warnings()
            .into_iter()
            .filter(|(k, _)| k == "amped-threads-unparsable")
            .collect();
        assert_eq!(warned.len(), 1, "one-shot warning recorded exactly once");
        assert!(warned[0].1.contains("eight"), "{:?}", warned[0]);
        assert!(amped_sim::obs::warnings()
            .iter()
            .any(|(k, _)| k == "amped-threads-zero"));
        // Still parses real overrides.
        std::env::set_var("AMPED_THREADS", "3");
        assert_eq!(host_workers(), 3);
        std::env::remove_var("AMPED_THREADS");
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two blocks that each wait for the other: they need two threads,
        // and a 2-worker launch spawns only one.
        let caller = std::thread::current().id();
        let both = std::sync::Barrier::new(2);
        let ran_on = std::sync::Mutex::new(Vec::new());
        execute_blocks(2, 2, |_| {
            both.wait();
            ran_on.lock().unwrap().push(std::thread::current().id());
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 2);
        assert!(ran_on.contains(&caller), "the caller idled");
        assert!(ran_on.iter().any(|&id| id != caller), "nothing was spawned");
    }

    #[test]
    fn panic_in_a_block_propagates_to_the_caller() {
        // A poisoned kernel means the grid's output is garbage, and the
        // contract panics of the kernel layer are matched by message: the
        // payload must survive whichever thread ran the block. The barrier
        // puts one block on each thread; the panic picks its thread.
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let both = std::sync::Barrier::new(2);
            let payload = std::panic::catch_unwind(|| {
                execute_blocks(2, 2, |_| {
                    both.wait();
                    if (std::thread::current().id() == caller) == on_caller {
                        panic!("a block exploded");
                    }
                });
            })
            .expect_err("a block's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"a block exploded"),
                "on_caller = {on_caller}"
            );
        }
        // The sequential path propagates too.
        let r = std::panic::catch_unwind(|| {
            execute_blocks(1, 2, |b| {
                if b == 1 {
                    panic!("sequential block exploded");
                }
            });
        });
        assert!(r.is_err());
    }
}
