//! The [`Partitioner`] trait and AMPED's one policy, [`NnzCcp`].

use amped_partition::try_chains_on_chains;

use crate::assignment::ModeAssignment;
use crate::error::PlanError;

/// Per-mode workload facts planners may consume alongside the histogram —
/// currently just the nonzero total.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanStats {
    /// Total nonzeros of the tensor.
    pub nnz: u64,
}

/// The devices a mode is planned for: `devices` identical GPUs.
#[derive(Clone, Copy, Debug)]
pub struct UniformCost {
    devices: usize,
}

impl UniformCost {
    /// `devices` identical devices.
    pub fn new(devices: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        Self { devices }
    }

    /// Number of devices work can be assigned to.
    pub fn num_devices(&self) -> usize {
        self.devices
    }
}

/// One planning policy: consumes a mode's output-index histogram, the
/// tensor-level stats and the device count, and produces the device
/// assignment.
pub trait Partitioner {
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
        cost: &UniformCost,
    ) -> Result<ModeAssignment, PlanError>;
}

/// AMPED's policy: chains-on-chains over the raw nonzero histogram —
/// contiguous output-index ranges with minimized maximum nonzero count.
/// Produces exactly the ranges of the pre-refactor `ModePlan::build` and
/// streaming pass 1 (`tests/planner_equivalence.rs` pins this).
#[derive(Clone, Copy, Debug, Default)]
pub struct NnzCcp;

impl Partitioner for NnzCcp {
    fn plan_mode(
        &self,
        mode: usize,
        hist: &[u64],
        _stats: &PlanStats,
        cost: &UniformCost,
    ) -> Result<ModeAssignment, PlanError> {
        let ranges = try_chains_on_chains(hist, cost.num_devices())?;
        Ok(ModeAssignment { mode, ranges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_partition::chains_on_chains;

    #[test]
    fn nnz_ccp_reproduces_chains_on_chains() {
        let hist = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let a = NnzCcp
            .plan_mode(2, &hist, &PlanStats { nnz: 31 }, &UniformCost::new(3))
            .unwrap();
        assert_eq!(a.mode, 2);
        assert_eq!(a.ranges, chains_on_chains(&hist, 3));
    }
}
