//! All-mode partition plans and preprocessing measurement (Fig. 10).

use crate::ccp::chains_on_chains;
use crate::shard::{ModePlan, Shard, StatsScratch};
use amped_sim::host_workers;
use amped_tensor::{Idx, SparseTensor};
use serde::Serialize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// `run(state, j)` for every job `0..jobs` on up to `workers` threads — the
/// caller and `workers − 1` scoped threads — each holding one `init()` state
/// for all the jobs it claims. Results land in
/// job order whatever the completion order, so the parallel product is the
/// serial one. Serial, in job order, when the pool or the job count is 1.
/// The planning pool of both engines: (mode, shard) jobs here, (section,
/// chunk) jobs in `amped-stream`'s pass 2.
pub fn pool_map<S, T, E>(
    workers: usize,
    jobs: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    T: Send + Sync,
    E: Send + Sync,
{
    let workers = workers.min(jobs);
    if workers <= 1 {
        let mut state = init();
        return (0..jobs).map(|j| run(&mut state, j)).collect();
    }
    let slots: Vec<OnceLock<Result<T, E>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let claim_jobs = || {
        let mut state = init();
        loop {
            // relaxed: job indices are claimed by RMW atomicity alone; the
            // results are published through OnceLock::set's internal
            // Release/Acquire, then the scope join.
            // (Interleaving-verified: tests/interleave_plan_modes.rs.)
            let j = next.fetch_add(1, Ordering::Relaxed);
            if j >= jobs {
                break;
            }
            let _ = slots[j].set(run(&mut state, j));
        }
    };
    // The caller is one of the workers (as in `smexec::execute_blocks`).
    crossbeam::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|_| claim_jobs());
        }
        claim_jobs();
    })
    .unwrap_or_else(|p| std::panic::resume_unwind(p));
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job claimed"))
        .collect()
}

/// Where planning time went: busy-seconds per phase, summed over the pool
/// jobs that did the work (so their total is at most wall × workers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct PlanBusy {
    /// Histogram, device ranges and the counting-sort scatter.
    pub sort_s: f64,
    /// Chunk-slice statistics, out of core. The in-core build has no
    /// statistics phase, so it leaves this at 0.
    pub stats_s: f64,
    /// The caller's per-shard pricing (ISP statistics and block times).
    pub pricing_s: f64,
}

/// The complete AMPED preprocessing product: one [`ModePlan`] per output mode
/// (the paper keeps one tensor copy per mode in host memory, §3.1), plus the
/// measured preprocessing wall time.
#[derive(Clone, Debug)]
pub struct PartitionPlan {
    /// Per-mode plans, index = output mode.
    pub modes: Vec<ModePlan>,
    /// Real wall-clock seconds spent building the plan (histograms, CCP,
    /// counting sorts, pricing) — the quantity Fig. 10 reports.
    pub preprocess_wall: f64,
    /// The same time split by phase, in busy-seconds.
    pub busy: PlanBusy,
}

/// One unit of planning work on the pool: a mode's histogram, device
/// ranges, counting sort and shard cuts, or one shard's price.
enum Job {
    Sort(usize),
    Shard(usize, usize),
}

/// What a [`Job`] hands back, with the seconds it was busy.
enum Done<P> {
    Sorted(Box<ModePlan>, f64),
    Priced(usize, P, f64),
}

impl PartitionPlan {
    /// Builds plans for every output mode of `t` on `num_gpus` GPUs with the
    /// given shard size budget, on the host worker pool; the result is
    /// mode-ordered and bit-identical to the serial loop over
    /// [`ModePlan::build`].
    pub fn build(t: &SparseTensor, num_gpus: usize, shard_nnz_budget: usize) -> Self {
        assert!(num_gpus > 0, "need at least one GPU");
        let ccp = |_, hist: &[u64]| Ok(chains_on_chains(hist, num_gpus));
        let built = Self::build_priced(t, shard_nnz_budget, host_workers(), ccp, |_, _, _| ());
        built
            .unwrap_or_else(|e: std::convert::Infallible| match e {})
            .0
    }

    /// Builds the plan with the caller's device ranges (`ranges(d, hist)`)
    /// and the caller's price for every shard (`price(plan, shard,
    /// scratch)`, returned per mode in shard order), all of it on a pool of
    /// `workers` threads.
    ///
    /// Jobs are finer than a mode so that three modes fill two workers: a
    /// round sorts the next `workers` modes, and the (mode, shard) jobs of
    /// the modes sorted the round before queue behind the sorts — they, not
    /// idle time, take up the slack of a short round. Every job's result
    /// depends on its inputs alone, so the product is the same for any pool
    /// size.
    pub fn build_priced<P, E>(
        t: &SparseTensor,
        shard_nnz_budget: usize,
        workers: usize,
        ranges: impl Fn(usize, &[u64]) -> Result<Vec<Range<Idx>>, E> + Sync,
        price: impl Fn(&ModePlan, &Shard, &mut StatsScratch) -> P + Sync,
    ) -> Result<(Self, Vec<Vec<P>>), E>
    where
        P: Send + Sync,
        E: Send + Sync,
    {
        let start = Instant::now();
        let order = t.order();
        let mut modes: Vec<ModePlan> = Vec::with_capacity(order);
        let mut priced: Vec<Vec<P>> = Vec::with_capacity(order);
        let mut busy = PlanBusy::default();
        let mut sorted_last = 0..0;
        while sorted_last.end < order || !sorted_last.is_empty() {
            let sorting = sorted_last.end..(sorted_last.end + workers.max(1)).min(order);
            let mut jobs: Vec<Job> = sorting.clone().map(Job::Sort).collect();
            for d in sorted_last {
                jobs.extend((0..modes[d].shards.len()).map(|s| Job::Shard(d, s)));
            }
            let done = pool_map(workers, jobs.len(), StatsScratch::new, |scratch, j| {
                Ok(match jobs[j] {
                    Job::Sort(d) => {
                        let began = Instant::now();
                        let hist = t.mode_hist(d);
                        let cuts = ranges(d, &hist)?;
                        let mp =
                            ModePlan::build_with_ranges_hist(t, d, &hist, cuts, shard_nnz_budget);
                        Done::Sorted(Box::new(mp), began.elapsed().as_secs_f64())
                    }
                    Job::Shard(d, s) => {
                        let (p, secs) = shard_job(&modes[d], s, &price, scratch);
                        Done::Priced(d, p, secs)
                    }
                })
            })?;
            for job in done {
                match job {
                    Done::Sorted(mp, secs) => {
                        modes.push(*mp);
                        priced.push(Vec::new());
                        busy.sort_s += secs;
                    }
                    Done::Priced(d, p, secs) => {
                        priced[d].push(p);
                        busy.pricing_s += secs;
                    }
                }
            }
            sorted_last = sorting;
        }
        let preprocess_wall = start.elapsed().as_secs_f64();
        let plan = Self {
            modes,
            preprocess_wall,
            busy,
        };
        Ok((plan, priced))
    }

    /// Moves mode `d` to new device ranges in place: the sorted copy stays
    /// where it is, the shards are re-cut from its row pointers and
    /// re-priced on the pool. Adds the pricing to `busy`; the wall clock is
    /// the caller's to keep.
    ///
    /// # Panics
    /// Panics if the ranges do not tile the mode's index space.
    pub fn recut_priced<P: Send + Sync>(
        &mut self,
        d: usize,
        device_ranges: Vec<Range<Idx>>,
        shard_nnz_budget: usize,
        workers: usize,
        price: impl Fn(&ModePlan, &Shard, &mut StatsScratch) -> P + Sync,
    ) -> Vec<P> {
        let mp = &mut self.modes[d];
        mp.recut(device_ranges, shard_nnz_budget);
        let done = pool_map(workers, mp.shards.len(), StatsScratch::new, |scratch, s| {
            Ok(shard_job(mp, s, &price, scratch))
        });
        let done = done.unwrap_or_else(|e: std::convert::Infallible| match e {});
        let mut priced = Vec::with_capacity(done.len());
        for (p, secs) in done {
            priced.push(p);
            self.busy.pricing_s += secs;
        }
        priced
    }

    /// Host-memory bytes the simulator charges for all tensor copies: the
    /// paper's COO copies, stored in CPU external memory.
    pub fn host_bytes(&self) -> u64 {
        self.modes
            .iter()
            .map(|m| m.copy.nnz() as u64 * m.copy.elem_bytes())
            .sum()
    }

    /// Host-memory bytes the copies actually hold: input coordinates,
    /// values and row pointers.
    pub fn copy_bytes(&self) -> u64 {
        self.modes.iter().map(|m| m.copy.resident_bytes()).sum()
    }

    /// Number of GPUs the plan was built for.
    pub fn num_gpus(&self) -> usize {
        self.modes.first().map(|m| m.num_gpus).unwrap_or(0)
    }
}

/// The price of shard `s` of a sorted mode, and the seconds it took.
fn shard_job<P>(
    mp: &ModePlan,
    s: usize,
    price: &impl Fn(&ModePlan, &Shard, &mut StatsScratch) -> P,
    scratch: &mut StatsScratch,
) -> (P, f64) {
    let began = Instant::now();
    let p = price(mp, &mp.shards[s], scratch);
    (p, began.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn plan_covers_all_modes() {
        let t = GenSpec::uniform(vec![30, 40, 50], 2000, 11).generate();
        let p = PartitionPlan::build(&t, 4, 500);
        assert_eq!(p.modes.len(), 3);
        for (d, mp) in p.modes.iter().enumerate() {
            assert_eq!(mp.mode, d);
            assert_eq!(mp.copy.nnz(), t.nnz());
        }
        assert!(p.preprocess_wall >= 0.0);
        assert_eq!(p.host_bytes(), 3 * t.bytes());
        // 12 B per nonzero per copy at order 3, plus one pointer per row.
        let pointers: u64 = t.shape().iter().map(|&d| 8 * (d as u64 + 1)).sum();
        assert_eq!(p.copy_bytes(), 3 * 12 * t.nnz() as u64 + pointers);
        assert_eq!(p.num_gpus(), 4);
    }

    #[test]
    fn five_mode_tensor_gets_five_plans() {
        let t = GenSpec::uniform(vec![10, 10, 10, 10, 10], 500, 12).generate();
        let p = PartitionPlan::build(&t, 2, 100);
        assert_eq!(p.modes.len(), 5);
    }

    /// The pool-parallel all-modes build must be indistinguishable from
    /// calling [`ModePlan::build`] serially per mode — same ranges, same
    /// shards, same sorted tensor copies — on any worker count this host
    /// happens to run.
    #[test]
    fn parallel_build_matches_serial_mode_builds() {
        let t = GenSpec {
            shape: vec![48, 32, 20, 12],
            nnz: 5000,
            skew: vec![0.6, 0.0, 0.0, 0.0],
            seed: 21,
        }
        .generate();
        let p = PartitionPlan::build(&t, 3, 300);
        for d in 0..t.order() {
            let serial = ModePlan::build(&t, d, 3, 300);
            let mp = &p.modes[d];
            assert_eq!(mp.mode, d);
            assert_eq!(mp.device_ranges, serial.device_ranges);
            assert_eq!(mp.shards.len(), serial.shards.len());
            for (a, b) in mp.shards.iter().zip(&serial.shards) {
                assert_eq!(a.gpu, b.gpu);
                assert_eq!(a.index_range, b.index_range);
                assert_eq!(a.elem_range, b.elem_range);
            }
            assert_eq!(mp.copy, serial.copy);
        }
    }

    /// Any pool size gives the serial product, and every shard's price
    /// comes back under its own mode, in shard order.
    #[test]
    fn priced_build_is_the_same_on_any_pool_size() {
        let t = GenSpec {
            shape: vec![48, 32, 20, 12, 9],
            nnz: 5000,
            skew: vec![0.6, 0.0, 0.0, 0.0, 0.0],
            seed: 22,
        }
        .generate();
        let build = |workers: usize| {
            PartitionPlan::build_priced(
                &t,
                300,
                workers,
                |_, hist| Ok::<_, String>(chains_on_chains(hist, 3)),
                |mp, shard, _| (mp.mode, shard.elem_range.clone()),
            )
            .unwrap()
        };
        let (serial, serial_priced) = build(1);
        for (mp, priced) in serial.modes.iter().zip(&serial_priced) {
            let want: Vec<_> = mp
                .shards
                .iter()
                .map(|s| (mp.mode, s.elem_range.clone()))
                .collect();
            assert_eq!(priced, &want);
        }
        for workers in [2, 4, 7] {
            let (plan, priced) = build(workers);
            assert_eq!(priced, serial_priced, "{workers} workers");
            for (a, b) in plan.modes.iter().zip(&serial.modes) {
                assert_eq!(a.device_ranges, b.device_ranges);
                assert_eq!(a.copy, b.copy);
                assert_eq!(a.shards.len(), b.shards.len());
                for (x, y) in a.shards.iter().zip(&b.shards) {
                    assert_eq!((x.gpu, &x.index_range), (y.gpu, &y.index_range));
                    assert_eq!(x.elem_range, y.elem_range);
                }
            }
        }
        let err = PartitionPlan::build_priced(
            &t,
            300,
            2,
            |d, hist| {
                if d == 3 {
                    Err("boom".to_string())
                } else {
                    Ok(chains_on_chains(hist, 3))
                }
            },
            |_, _, _| (),
        );
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn plan_modes_orders_results_and_propagates_errors() {
        for workers in [1, 2, 4] {
            let got = pool_map(workers, 8, || (), |(), d| Ok::<_, String>(d * d));
            assert_eq!(got.unwrap(), vec![0, 1, 4, 9, 16, 25, 36, 49]);
            let err = pool_map(
                workers,
                8,
                || (),
                |(), d| match d {
                    5 => Err("boom".to_string()),
                    _ => Ok(d),
                },
            );
            assert_eq!(err.unwrap_err(), "boom");
        }
    }
}
