//! The typed error surface of the planner layer.

use amped_partition::CcpError;

/// Why a [`crate::Partitioner`] could not produce an assignment.
///
/// Planning failures must be *recoverable*: at the billion-scale element
/// spaces this repository targets, an index space overflowing the `u32`
/// range type is an expected operating condition, not a programming bug —
/// so it surfaces here instead of panicking inside CCP.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The mode's output-index space exceeds the `u32` range bounds every
    /// contiguous-range product uses (forwarded from
    /// [`amped_partition::CcpError`]).
    IndexSpaceTooLarge {
        /// Number of output indices in the mode.
        indices: u64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::IndexSpaceTooLarge { indices } => write!(
                f,
                "planner: index space of {indices} indices exceeds the u32 range limit ({})",
                CcpError::INDEX_LIMIT
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<CcpError> for PlanError {
    fn from(e: CcpError) -> Self {
        match e {
            CcpError::IndexSpaceTooLarge { indices } => PlanError::IndexSpaceTooLarge { indices },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccp_error_forwards_into_plan_error() {
        let e: PlanError = CcpError::IndexSpaceTooLarge {
            indices: 5_000_000_000,
        }
        .into();
        assert_eq!(
            e,
            PlanError::IndexSpaceTooLarge {
                indices: 5_000_000_000
            }
        );
        assert!(e.to_string().contains("5000000000"));
    }
}
