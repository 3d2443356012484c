//! The [`Partitioner`] trait and its built-in policies.

use std::ops::Range;

use amped_partition::{check_index_space, try_chains_on_chains};
use amped_tensor::Idx;

use crate::assignment::ModeAssignment;
use crate::cost::CostQuery;
use crate::error::PlanError;

/// Per-mode workload facts planners may consume alongside the histogram —
/// currently just the nonzero total.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanStats {
    /// Total nonzeros of the tensor.
    pub nnz: u64,
}

/// One planning policy: consumes a mode's output-index histogram, the
/// tensor-level stats, and a cost query, and produces the device
/// assignment. Object-safe so engines hold `&dyn Partitioner` /
/// `Box<dyn Partitioner>` and decorators can wrap any inner policy.
pub trait Partitioner: std::fmt::Debug + Sync {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Plans output mode `mode`. `hist` is the per-output-index nonzero
    /// histogram; `cost.num_devices()` is the device count to plan for.
    ///
    /// Fails with [`PlanError::IndexSpaceTooLarge`] when the index space
    /// exceeds the `u32` range bounds (the billion-scale operating
    /// condition CCP used to panic on).
    fn plan_mode(
        &self,
        mode: usize,
        hist: &[u64],
        stats: &PlanStats,
        cost: &dyn CostQuery,
    ) -> Result<ModeAssignment, PlanError>;
}

/// AMPED's default policy: chains-on-chains over the raw nonzero histogram
/// — contiguous output-index ranges with minimized maximum nonzero count.
/// Produces exactly the ranges of the pre-refactor `ModePlan::build` and
/// streaming pass 1 (`tests/planner_equivalence.rs` pins this).
#[derive(Clone, Copy, Debug, Default)]
pub struct NnzCcp;

impl Partitioner for NnzCcp {
    fn name(&self) -> &'static str {
        "nnz-ccp"
    }

    fn plan_mode(
        &self,
        mode: usize,
        hist: &[u64],
        _stats: &PlanStats,
        cost: &dyn CostQuery,
    ) -> Result<ModeAssignment, PlanError> {
        let ranges = try_chains_on_chains(hist, cost.num_devices())?;
        Ok(ModeAssignment { mode, ranges })
    }
}

/// Cost-guided CCP: contiguous output-index ranges minimizing the maximum
/// *modeled execution time* instead of the maximum nonzero count. Device
/// `g`'s capacity is weighted by `cost.device_throughput(g)`, so on a
/// heterogeneous platform fast devices receive proportionally larger index
/// ranges; on a homogeneous platform all throughputs are equal and the
/// result coincides with [`NnzCcp`] up to CCP tie-breaking.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostGuidedCcp;

impl Partitioner for CostGuidedCcp {
    fn name(&self) -> &'static str {
        "cost-guided-ccp"
    }

    fn plan_mode(
        &self,
        mode: usize,
        hist: &[u64],
        _stats: &PlanStats,
        cost: &dyn CostQuery,
    ) -> Result<ModeAssignment, PlanError> {
        let speeds: Vec<f64> = (0..cost.num_devices())
            .map(|g| cost.device_throughput(g))
            .collect();
        let ranges = try_hetero_chains(hist, &speeds)?;
        Ok(ModeAssignment { mode, ranges })
    }
}

/// Heterogeneity-aware chains-on-chains: splits `0..weights.len()` into
/// `speeds.len()` contiguous ranges (in device order) minimizing the
/// bottleneck *time* `max_g(load_g / speeds[g])`. With equal speeds this is
/// the classic CCP objective. Exactness is up to the tolerance of a fixed
/// binary search on the bottleneck time (the greedy feasibility probe is
/// exact for any probed bottleneck); the result is deterministic.
///
/// # Panics
/// Panics if `speeds` is empty, contains a non-positive or non-finite
/// entry, or the index space exceeds `u32` (use [`try_hetero_chains`] for
/// the typed-error form).
pub fn hetero_chains(weights: &[u64], speeds: &[f64]) -> Vec<Range<Idx>> {
    try_hetero_chains(weights, speeds).expect("index space exceeds u32")
}

/// Fallible [`hetero_chains`]: returns [`PlanError::IndexSpaceTooLarge`]
/// instead of panicking when the index space exceeds the `u32` range bounds
/// — the entry point every [`Partitioner`] uses.
///
/// # Panics
/// Panics if `speeds` is empty or contains a non-positive or non-finite
/// entry (a malformed cost model is a bug, not an operating condition).
pub fn try_hetero_chains(weights: &[u64], speeds: &[f64]) -> Result<Vec<Range<Idx>>, PlanError> {
    let m = speeds.len();
    assert!(m > 0, "need at least one device");
    assert!(
        speeds.iter().all(|&s| s.is_finite() && s > 0.0),
        "device speeds must be finite and positive: {speeds:?}"
    );
    let n = weights.len();
    check_index_space(n as u64)?;
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0u64);
    for &w in weights {
        prefix.push(prefix.last().unwrap() + w);
    }
    let total = *prefix.last().unwrap();
    if total == 0 {
        // Mirror `chains_on_chains`: first range takes every (weightless)
        // index, the rest stay empty.
        return Ok((0..m)
            .map(|g| {
                if g == 0 {
                    0..n as Idx
                } else {
                    n as Idx..n as Idx
                }
            })
            .collect());
    }
    let sum_speed: f64 = speeds.iter().sum();
    let max_speed = speeds.iter().cloned().fold(f64::MIN, f64::max);
    let min_speed = speeds.iter().cloned().fold(f64::MAX, f64::min);
    let max_w = weights.iter().copied().max().unwrap_or(0) as f64;

    // Bottleneck time T ∈ [max(total/Σspeed, max_w/max_speed), total/min_speed].
    let mut lo = (total as f64 / sum_speed).max(max_w / max_speed);
    let mut hi = total as f64 / min_speed;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if hetero_feasible(&prefix, speeds, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // `hi` is feasible throughout (T = total/min_speed lets device 0 take
    // everything); carve at it. Nudge up one ulp-scale step so that float
    // error in the last bisection cannot leave `hi` infeasible.
    let bound = hi * (1.0 + 1e-12);
    Ok(hetero_carve(&prefix, speeds, bound))
}

/// Can ranges in device order each stay within `t × speed` weight? Unlike
/// classic CCP on identical processors, a device may take *zero* indices —
/// when a slow device precedes a hot index, the optimum skips it. Taking
/// the maximal fitting prefix per device (possibly empty) is optimal for a
/// fixed device order by the usual exchange argument.
fn hetero_feasible(prefix: &[u64], speeds: &[f64], t: f64) -> bool {
    let n = prefix.len() - 1;
    let mut start = 0usize;
    for &s in speeds {
        if start == n {
            return true;
        }
        // Monotone predicate: prefix is ascending, so compare against the
        // absolute limit rather than the per-device difference.
        let limit = prefix[start] as f64 + t * s;
        start = prefix.partition_point(|&p| p as f64 <= limit) - 1;
    }
    start == n
}

/// Materializes the ranges for a feasible bottleneck time.
fn hetero_carve(prefix: &[u64], speeds: &[f64], t: f64) -> Vec<Range<Idx>> {
    let n = prefix.len() - 1;
    let m = speeds.len();
    let mut ranges = Vec::with_capacity(m);
    let mut start = 0usize;
    for (part, &s) in speeds.iter().enumerate() {
        let end = if start == n {
            start
        } else if part == m - 1 {
            n
        } else {
            let limit = prefix[start] as f64 + t * s;
            prefix.partition_point(|&p| p as f64 <= limit) - 1
        };
        ranges.push(start as Idx..end as Idx);
        start = end;
    }
    // A feasible bound always drains every index; keep the invariant loud.
    debug_assert_eq!(start, n, "feasible carve must cover the index space");
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UniformCost;
    use amped_partition::ccp::max_load;
    use amped_partition::chains_on_chains;
    use proptest::prelude::*;

    fn check_cover(ranges: &[Range<Idx>], n: Idx) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
    }

    #[test]
    fn nnz_ccp_reproduces_chains_on_chains() {
        let hist = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let a = NnzCcp
            .plan_mode(2, &hist, &PlanStats { nnz: 31 }, &UniformCost::new(3))
            .unwrap();
        assert_eq!(a.mode, 2);
        assert_eq!(a.ranges, chains_on_chains(&hist, 3));
    }

    #[test]
    fn uniform_speeds_match_classic_ccp_load() {
        // Same optimal bottleneck as integer CCP on uniform speeds (ranges
        // may differ by tie-breaking; the achieved max load must match).
        let w: Vec<u64> = (0..200u64).map(|i| (i * 37) % 23).collect();
        for m in [1usize, 2, 3, 5, 8] {
            let classic = chains_on_chains(&w, m);
            let hetero = hetero_chains(&w, &vec![1.0; m]);
            check_cover(&hetero, w.len() as Idx);
            assert_eq!(
                max_load(&w, &hetero),
                max_load(&w, &classic),
                "m={m}: hetero CCP lost optimality on uniform speeds"
            );
        }
    }

    #[test]
    fn fast_device_receives_more_weight() {
        let w = vec![1u64; 300];
        let r = hetero_chains(&w, &[2.0, 1.0]);
        check_cover(&r, 300);
        let fast = (r[0].end - r[0].start) as f64;
        let slow = (r[1].end - r[1].start) as f64;
        assert!(
            (fast / slow - 2.0).abs() < 0.1,
            "2× device should take ~2× the work: {fast} vs {slow}"
        );
    }

    #[test]
    fn hetero_chains_handles_degenerate_inputs() {
        // All-zero weights: everything lands on device 0.
        let r = hetero_chains(&[0, 0, 0], &[1.0, 1.0]);
        assert_eq!(r, vec![0..3, 3..3]);
        // Empty weights.
        let r = hetero_chains(&[], &[1.0, 2.0, 3.0]);
        assert!(r.iter().all(|x| x.is_empty()));
        assert_eq!(r.len(), 3);
        // More devices than indices.
        let r = hetero_chains(&[5, 7], &[1.0; 4]);
        check_cover(&r, 2);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn hetero_chains_rejects_zero_speed() {
        hetero_chains(&[1, 2, 3], &[1.0, 0.0]);
    }

    #[test]
    fn slow_device_before_hot_index_is_skipped() {
        // One hot index: the optimum gives it to the fast device (time
        // 100/4 = 25) and leaves the leading slow device empty; forcing
        // every device to take an index would cost 100/0.25 = 400.
        let r = hetero_chains(&[100], &[0.25, 4.0]);
        check_cover(&r, 1);
        assert!(r[0].is_empty(), "slow device should be skipped: {r:?}");
        assert_eq!(r[1], 0..1);
    }

    #[test]
    fn cost_guided_on_uniform_cost_equals_nnz_ccp_load() {
        let hist: Vec<u64> = (0..500u64).map(|i| (i * 2654435761) % 97).collect();
        let stats = PlanStats {
            nnz: hist.iter().sum(),
        };
        let q = UniformCost::new(4);
        let a = CostGuidedCcp.plan_mode(0, &hist, &stats, &q).unwrap();
        let b = NnzCcp.plan_mode(0, &hist, &stats, &q).unwrap();
        assert_eq!(max_load(&hist, &a.ranges), max_load(&hist, &b.ranges));
    }

    proptest! {
        #[test]
        fn prop_hetero_chains_time_is_near_optimal_contiguous(
            w in proptest::collection::vec(0u64..50, 1..120),
            speeds in proptest::collection::vec(0.25f64..4.0, 1..5),
        ) {
            let r = hetero_chains(&w, &speeds);
            prop_assert_eq!(r.len(), speeds.len());
            check_cover(&r, w.len() as Idx);
            let time = |ranges: &[Range<Idx>]| -> f64 {
                ranges
                    .iter()
                    .zip(&speeds)
                    .map(|(r, &s)| {
                        w[r.start as usize..r.end as usize].iter().sum::<u64>() as f64 / s
                    })
                    .fold(0.0f64, f64::max)
            };
            let achieved = time(&r);
            // Lower bound: all work on the aggregate of all devices.
            let total: u64 = w.iter().sum();
            let sum_speed: f64 = speeds.iter().sum();
            let lower = total as f64 / sum_speed;
            prop_assert!(achieved >= lower - 1e-9);
            // Sanity upper bound: never worse than one max-weight index on
            // the slowest device plus the aggregate-rate bound.
            let max_w = w.iter().copied().max().unwrap_or(0) as f64;
            let min_speed = speeds.iter().cloned().fold(f64::MAX, f64::min);
            prop_assert!(achieved <= lower + max_w / min_speed + 1e-9);
        }
    }
}
