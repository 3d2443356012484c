//! The shared assignment type every planner produces.

use amped_tensor::Idx;
use serde::Serialize;
use std::ops::Range;

/// Which space an assignment's contiguous ranges partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum AssignmentSpace {
    /// Ranges over the output-mode index space `0..I_d` — AMPED's scheme:
    /// an output index never spans GPUs, so no inter-GPU write conflicts.
    OutputIndex,
    /// Ranges over the element space `0..nnz` in original element order —
    /// the equal-nnz strawman: no preprocessing, but several GPUs produce
    /// partial sums for the same output rows.
    Element,
}

/// One output mode's device assignment: `m` contiguous, ascending ranges
/// (one per device, possibly empty) tiling the whole space. This is the
/// common product of every [`crate::Partitioner`], materialized into
/// executable plans by `PartitionPlan::build_priced` (in-core),
/// `EqualPlan::build_from_ranges` (baseline), or the streaming pass 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ModeAssignment {
    /// Output mode this assignment targets.
    pub mode: usize,
    /// The space `ranges` partitions.
    pub space: AssignmentSpace,
    /// One contiguous range per device, in device order.
    pub ranges: Vec<Range<u64>>,
}

impl ModeAssignment {
    /// Builds an output-index-space assignment from `u32` index ranges.
    pub fn from_index_ranges(mode: usize, ranges: Vec<Range<Idx>>) -> Self {
        Self {
            mode,
            space: AssignmentSpace::OutputIndex,
            ranges: ranges
                .into_iter()
                .map(|r| r.start as u64..r.end as u64)
                .collect(),
        }
    }

    /// Number of devices the assignment targets.
    pub fn num_devices(&self) -> usize {
        self.ranges.len()
    }

    /// The ranges as `u32` output-index ranges.
    ///
    /// # Panics
    /// Panics if the assignment is not in [`AssignmentSpace::OutputIndex`]
    /// or a bound exceeds `u32`.
    pub fn index_ranges(&self) -> Vec<Range<Idx>> {
        assert_eq!(
            self.space,
            AssignmentSpace::OutputIndex,
            "assignment partitions elements, not output indices"
        );
        self.ranges
            .iter()
            .map(|r| {
                Idx::try_from(r.start).expect("index fits u32")
                    ..Idx::try_from(r.end).expect("index fits u32")
            })
            .collect()
    }

    /// The ranges as element ranges.
    ///
    /// # Panics
    /// Panics if the assignment is not in [`AssignmentSpace::Element`].
    pub fn element_ranges(&self) -> Vec<Range<usize>> {
        assert_eq!(
            self.space,
            AssignmentSpace::Element,
            "assignment partitions output indices, not elements"
        );
        self.ranges
            .iter()
            .map(|r| r.start as usize..r.end as usize)
            .collect()
    }

    /// Per-device nonzero loads: for output-index assignments, the histogram
    /// mass inside each range; for element assignments, the range lengths
    /// (`hist` is ignored).
    pub fn loads(&self, hist: &[u64]) -> Vec<u64> {
        match self.space {
            AssignmentSpace::OutputIndex => self
                .ranges
                .iter()
                .map(|r| hist[r.start as usize..r.end as usize].iter().sum())
                .collect(),
            AssignmentSpace::Element => self.ranges.iter().map(|r| r.end - r.start).collect(),
        }
    }

    /// Checks the structural invariants: at least one device, ranges tile
    /// `0..domain` contiguously in order.
    pub fn validate(&self, domain: u64) -> Result<(), String> {
        if self.ranges.is_empty() {
            return Err("assignment has no devices".into());
        }
        if self.ranges[0].start != 0 {
            return Err(format!(
                "mode {}: first range starts at {}, not 0",
                self.mode, self.ranges[0].start
            ));
        }
        if self.ranges.last().unwrap().end != domain {
            return Err(format!(
                "mode {}: ranges end at {}, domain is {domain}",
                self.mode,
                self.ranges.last().unwrap().end
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

    fn a(ranges: Vec<Range<u64>>) -> ModeAssignment {
        ModeAssignment {
            mode: 0,
            space: AssignmentSpace::OutputIndex,
            ranges,
        }
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

    #[test]
    fn element_loads_are_range_lengths() {
        let asg = ModeAssignment {
            mode: 1,
            space: AssignmentSpace::Element,
            ranges: vec![0..10, 10..14],
        };
        assert_eq!(asg.loads(&[]), vec![10, 4]);
        assert_eq!(asg.element_ranges(), vec![0..10, 10..14]);
    }

    #[test]
    #[should_panic(expected = "output indices")]
    fn element_ranges_reject_index_space() {
        a(vec![0..3]).element_ranges();
    }
}
