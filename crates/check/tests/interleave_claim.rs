//! Bounded interleaving exploration of the smexec claim-counter protocol.
//!
//! Mirrors `amped_runtime::smexec::execute_blocks` line for line with the
//! instrumented primitives from `crossbeam::check` (the `shims/interleave`
//! explorer): `workers` threads share one atomic counter and claim block
//! indices with `fetch_add` until the counter passes `num_blocks`. In
//! production one of those threads is the caller of `execute_blocks` and
//! `workers − 1` are spawned; all run the same loop, so the protocol — and
//! this mirror of it — is unchanged by who the threads are. The
//! explorer runs every interleaving of the claim operations up to the bound
//! and the asserts prove, for each schedule: no lost block, no
//! double-execution, and (via the explorer's deadlock detector) no schedule
//! where the protocol hangs.

use crossbeam::check::{AtomicUsize, Explorer};
use std::sync::Mutex;

/// Mirror of `execute_blocks`'s worker loop: claim, bounds-check, execute.
/// Each worker logs its claims into its own uncontended slot (the real
/// kernel writes to disjoint output rows; a shared instrumented structure
/// would add scheduling points the production protocol does not have).
fn run_claim_protocol(workers: usize, num_blocks: usize) -> usize {
    let explorer = Explorer::new(50_000);
    let report = explorer.explore(|trial| {
        let next = AtomicUsize::new(0);
        let logs: Vec<Mutex<Vec<usize>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
        let threads: Vec<Box<dyn FnOnce() + Send + '_>> = (0..workers)
            .map(|w| {
                let next = &next;
                let logs = &logs;
                Box::new(move || loop {
                    let b = next.fetch_add(1);
                    if b >= num_blocks {
                        break;
                    }
                    // "Execute" block b: record the claim. The lock is
                    // per-worker and never contended, so it introduces no
                    // blocking the scheduler cannot see.
                    logs[w].lock().expect("uncontended").push(b);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        trial.run(threads);

        // Per-schedule invariants: every block executed exactly once.
        let mut counts = vec![0usize; num_blocks];
        for log in &logs {
            for &b in log.lock().expect("joined").iter() {
                assert!(b < num_blocks, "claimed block {b} out of range");
                counts[b] += 1;
            }
        }
        assert_eq!(
            counts,
            vec![1; num_blocks],
            "every block must be executed exactly once in every schedule"
        );
        // The counter overshoots by exactly one failed claim per worker.
        assert_eq!(next.load(), num_blocks + workers);
    });
    assert!(
        report.complete,
        "claim-counter space must be exhausted within the bound \
         (ran {} schedules)",
        report.schedules
    );
    assert_eq!(report.deadlocks, 0);
    report.schedules
}

#[test]
fn claim_counter_never_loses_or_duplicates_blocks() {
    let schedules = run_claim_protocol(3, 4);
    assert!(
        schedules >= 100,
        "acceptance: >= 100 distinct schedules explored, got {schedules}"
    );
}

#[test]
fn claim_counter_holds_when_workers_outnumber_blocks() {
    // Degenerate shape: more workers than blocks — excess workers must claim
    // a past-the-end index and exit without executing anything.
    let schedules = run_claim_protocol(3, 2);
    assert!(schedules >= 100, "got {schedules}");
}

#[test]
fn a_racy_nonatomic_claim_is_caught_by_the_explorer() {
    // Negative control: replace the atomic fetch_add with a load/store pair
    // (the bug the Relaxed RMW specifically prevents). The explorer must
    // find at least one schedule where two workers claim the same block —
    // i.e. this harness genuinely explores the interleavings that make the
    // production protocol correct, rather than vacuously passing.
    let num_blocks = 3usize;
    let mut double_claim_seen = false;
    let report = Explorer::new(50_000).explore(|trial| {
        let next = AtomicUsize::new(0);
        let claims: Vec<Mutex<Vec<usize>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
        let threads: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
            .map(|w| {
                let next = &next;
                let claims = &claims;
                Box::new(move || loop {
                    let b = next.load(); // racy read...
                    next.store(b + 1); // ...modify-write, not atomic
                    if b >= num_blocks {
                        break;
                    }
                    claims[w].lock().expect("uncontended").push(b);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        trial.run(threads);
        let mut counts = vec![0usize; num_blocks];
        for c in &claims {
            for &b in c.lock().expect("joined").iter() {
                counts[b] += 1;
            }
        }
        if counts.iter().any(|&n| n > 1) {
            double_claim_seen = true;
        }
    });
    assert!(
        double_claim_seen,
        "the explorer must surface the double-claim race in {} schedules",
        report.schedules
    );
}
