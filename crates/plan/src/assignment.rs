//! The shared assignment type every planner produces.

use amped_tensor::Idx;
use serde::Serialize;
use std::ops::Range;

/// One output mode's device assignment: `m` contiguous, ascending ranges of
/// output indices (one per device, possibly empty) tiling `0..I_d`. An
/// output index never spans devices, so no two GPUs write the same row.
/// This is the common product of every [`crate::Partitioner`], materialized
/// into executable plans by `PartitionPlan::build_priced` (in core) or the
/// streaming plan's pass 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ModeAssignment {
    /// Output mode this assignment targets.
    pub mode: usize,
    /// One contiguous output-index range per device, in device order.
    pub ranges: Vec<Range<Idx>>,
}

impl ModeAssignment {
    /// Number of devices the assignment targets.
    pub fn num_devices(&self) -> usize {
        self.ranges.len()
    }

    /// Per-device nonzero loads: the histogram mass inside each range.
    pub fn loads(&self, hist: &[u64]) -> Vec<u64> {
        self.ranges
            .iter()
            .map(|r| hist[r.start as usize..r.end as usize].iter().sum())
            .collect()
    }

    /// Checks the structural invariants: at least one device, ranges tile
    /// `0..domain` contiguously in order.
    pub fn validate(&self, domain: Idx) -> Result<(), String> {
        let (Some(first), Some(last)) = (self.ranges.first(), self.ranges.last()) else {
            return Err("assignment has no devices".into());
        };
        if first.start != 0 {
            return Err(format!(
                "mode {}: first range starts at {}, not 0",
                self.mode, first.start
            ));
        }
        if last.end != domain {
            return Err(format!(
                "mode {}: ranges end at {}, domain is {domain}",
                self.mode, last.end
            ));
        }
        for w in self.ranges.windows(2) {
            if w[0].end != w[1].start {
                return Err(format!(
                    "mode {}: ranges {:?} and {:?} are not contiguous",
                    self.mode, w[0], w[1]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // range vectors ARE the data here
mod tests {
    use super::*;

    fn a(ranges: Vec<Range<Idx>>) -> ModeAssignment {
        ModeAssignment { mode: 0, ranges }
    }

    #[test]
    fn validate_accepts_tiling_rejects_gaps() {
        assert!(a(vec![0..3, 3..7]).validate(7).is_ok());
        assert!(a(vec![0..3, 4..7]).validate(7).is_err());
        assert!(a(vec![1..7]).validate(7).is_err());
        assert!(a(vec![0..6]).validate(7).is_err());
        assert!(a(vec![]).validate(0).is_err());
    }

    #[test]
    fn loads_sum_histogram_per_range() {
        let hist = [5u64, 0, 3, 2, 7];
        let asg = a(vec![0..2, 2..5]);
        assert_eq!(asg.loads(&hist), vec![5, 12]);
    }
}
