//! ALS-time rebalancing: turn observed per-GPU compute times into new
//! assignments.
//!
//! Static planning — even cost-guided — can only be as good as its model.
//! Between ALS iterations the engine has something better: the *measured*
//! (simulated) per-GPU compute time of every mode's grid executions. The
//! [`RebalancingPlanner`] decorator watches those times; when a mode's
//! imbalance overhead `(max − min)/max` exceeds its threshold, it estimates
//! each device's achieved throughput (`nnz / compute seconds`) and re-runs
//! heterogeneity-aware CCP with those observed speeds. The engines' `replan`
//! path swaps the fresh assignment in without rebuilding the engine — the
//! adaptivity the out-of-memory MTTKRP line of work argues for.

use std::collections::BTreeMap;

use amped_partition::balance::overhead_fraction;
use amped_sim::obs::{Counter, MetricsRegistry};

use crate::assignment::ModeAssignment;
use crate::cost::CostQuery;
use crate::error::PlanError;
use crate::partitioner::{try_hetero_chains, Partitioner, PlanStats};

/// Decorator over an inner [`Partitioner`]: plans like the inner policy
/// until [`RebalancingPlanner::observe`] records an imbalanced execution,
/// then plans with observed per-device throughput instead.
#[derive(Debug)]
pub struct RebalancingPlanner {
    inner: Box<dyn Partitioner>,
    threshold: f64,
    /// Per-mode observed device speeds (nnz per simulated second).
    observed: BTreeMap<usize, Vec<f64>>,
    triggers: usize,
    trigger_counter: Counter,
    observation_counter: Counter,
}

impl RebalancingPlanner {
    /// Wraps `inner`, replanning a mode when its observed per-GPU compute
    /// imbalance overhead exceeds `threshold` (e.g. `0.15` = replan once
    /// the slowest GPU is 15% ahead of the fastest).
    pub fn new(inner: Box<dyn Partitioner>, threshold: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&threshold),
            "threshold must be a fraction in [0, 1), got {threshold}"
        );
        Self {
            inner,
            threshold,
            observed: BTreeMap::new(),
            triggers: 0,
            trigger_counter: Counter::default(),
            observation_counter: Counter::default(),
        }
    }

    /// Attaches `registry`: every [`RebalancingPlanner::observe`] call
    /// bumps `rebalance_observations`, and each threshold crossing bumps
    /// `rebalance_triggers` — so a metrics scrape shows replanning activity
    /// next to the runtime counters it reacts to.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.trigger_counter = registry.counter("rebalance_triggers");
        self.observation_counter = registry.counter("rebalance_observations");
        self
    }

    /// The configured imbalance threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// How many observations crossed the threshold (replans advised).
    pub fn triggers(&self) -> usize {
        self.triggers
    }

    /// The observed device speeds for `mode`, if any observation triggered.
    pub fn observed_speeds(&self, mode: usize) -> Option<&[f64]> {
        self.observed.get(&mode).map(Vec::as_slice)
    }

    /// Records one mode execution: `per_gpu_compute` are the simulated
    /// compute seconds (e.g. `TimeBreakdown::compute` per GPU from the
    /// mode's timing) and `per_gpu_nnz` the nonzeros each GPU owned.
    /// Returns `true` when the imbalance overhead among *loaded* devices
    /// exceeds the threshold — the caller should then ask this planner for
    /// a fresh assignment and hand it to the engine's `replan`.
    pub fn observe(&mut self, mode: usize, per_gpu_compute: &[f64], per_gpu_nnz: &[u64]) -> bool {
        assert_eq!(per_gpu_compute.len(), per_gpu_nnz.len());
        self.observation_counter.inc();
        let loaded: Vec<f64> = per_gpu_compute
            .iter()
            .zip(per_gpu_nnz)
            .filter(|&(_, &nnz)| nnz > 0)
            .map(|(&t, _)| t)
            .collect();
        if loaded.len() < 2 || overhead_fraction(&loaded) <= self.threshold {
            return false;
        }
        // Achieved throughput per device; devices that held no work (or
        // recorded no time) inherit the best observed rate so they remain
        // attractive targets for the rebalanced plan.
        let best = per_gpu_compute
            .iter()
            .zip(per_gpu_nnz)
            .filter(|&(&t, &nnz)| nnz > 0 && t > 0.0)
            .map(|(&t, &nnz)| nnz as f64 / t)
            .fold(0.0f64, f64::max);
        if best <= 0.0 {
            return false; // nothing measurable yet
        }
        let speeds: Vec<f64> = per_gpu_compute
            .iter()
            .zip(per_gpu_nnz)
            .map(|(&t, &nnz)| {
                if nnz > 0 && t > 0.0 {
                    nnz as f64 / t
                } else {
                    best
                }
            })
            .collect();
        self.observed.insert(mode, speeds);
        self.triggers += 1;
        self.trigger_counter.inc();
        true
    }
}

impl Partitioner for RebalancingPlanner {
    fn name(&self) -> &'static str {
        "rebalancing"
    }

    fn plan_mode(
        &self,
        mode: usize,
        hist: &[u64],
        stats: &PlanStats,
        cost: &dyn CostQuery,
    ) -> Result<ModeAssignment, PlanError> {
        match self.observed.get(&mode) {
            Some(speeds) => {
                let ranges = try_hetero_chains(hist, speeds)?;
                Ok(ModeAssignment { mode, ranges })
            }
            None => self.inner.plan_mode(mode, hist, stats, cost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::UniformCost;
    use crate::partitioner::NnzCcp;

    #[test]
    fn balanced_runs_never_trigger() {
        let mut rb = RebalancingPlanner::new(Box::new(NnzCcp), 0.2);
        assert!(!rb.observe(0, &[1.0, 1.05, 0.98], &[100, 100, 100]));
        assert_eq!(rb.triggers(), 0);
        assert!(rb.observed_speeds(0).is_none());
    }

    #[test]
    fn imbalance_triggers_and_records_speeds() {
        let mut rb = RebalancingPlanner::new(Box::new(NnzCcp), 0.2);
        // GPU 1 took 2.5× longer for the same nnz: overhead 0.6 > 0.2.
        assert!(rb.observe(0, &[1.0, 2.5], &[100, 100]));
        assert_eq!(rb.triggers(), 1);
        let speeds = rb.observed_speeds(0).unwrap();
        assert!((speeds[0] - 100.0).abs() < 1e-9);
        assert!((speeds[1] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn unloaded_devices_do_not_fake_imbalance() {
        let mut rb = RebalancingPlanner::new(Box::new(NnzCcp), 0.2);
        // GPU 2 had no work — its zero compute must not read as imbalance.
        assert!(!rb.observe(1, &[1.0, 1.0, 0.0], &[50, 50, 0]));
    }

    #[test]
    fn plan_uses_observed_speeds_after_trigger() {
        let mut rb = RebalancingPlanner::new(Box::new(NnzCcp), 0.1);
        let hist = vec![1u64; 300];
        let stats = PlanStats { nnz: 300 };
        let q = UniformCost::new(2);
        let before = rb.plan_mode(0, &hist, &stats, &q).unwrap();
        // nnz-CCP splits evenly.
        assert_eq!(before.loads(&hist), vec![150, 150]);
        // Observe GPU 1 running at half speed.
        assert!(rb.observe(0, &[1.0, 2.0], &[150, 150]));
        let after = rb.plan_mode(0, &hist, &stats, &q).unwrap();
        let loads = after.loads(&hist);
        assert!(
            loads[0] > loads[1],
            "fast device should take more work after rebalance: {loads:?}"
        );
        // Other modes keep the inner policy.
        let other = rb.plan_mode(1, &hist, &stats, &q).unwrap();
        assert_eq!(other.loads(&hist), vec![150, 150]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_out_of_range_threshold() {
        RebalancingPlanner::new(Box::new(NnzCcp), 1.5);
    }

    #[test]
    fn metrics_count_observations_and_triggers() {
        let reg = MetricsRegistry::new();
        let mut rb = RebalancingPlanner::new(Box::new(NnzCcp), 0.2).with_metrics(reg.clone());
        assert!(!rb.observe(0, &[1.0, 1.0], &[100, 100]));
        assert!(rb.observe(0, &[1.0, 2.5], &[100, 100]));
        assert_eq!(reg.counter_value("rebalance_observations", &[]), 2);
        assert_eq!(reg.counter_value("rebalance_triggers", &[]), 1);
        assert_eq!(rb.triggers(), 1);
    }
}
