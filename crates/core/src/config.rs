//! Engine configuration (the paper's §5.1.5 default configuration).

use amped_plan::WorkloadProfile;
use serde::Serialize;

/// How tensor shards are assigned to GPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SchedulePolicy {
    /// Static contiguous device ranges balanced by nonzero count
    /// (chains-on-chains over the output-index histogram). This is AMPED's
    /// scheme: ownership is decided at preprocessing time, so no scheduling
    /// work happens during execution (§2.2 contrasts this with HPSPTM).
    StaticCcp,
    /// Shards are pulled from a global queue by whichever GPU goes idle
    /// first (earliest-finish greedy). Evaluated as the `abl-sched`
    /// ablation; costs irregular all-gather blocks.
    DynamicQueue,
}

/// Which all-gather algorithm redistributes output-factor rows (§4.9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum GatherAlgo {
    /// Ring over GPUDirect P2P (the paper's choice, Algorithm 3).
    Ring,
    /// Staged through host memory over PCIe (the `abl-gather` ablation).
    HostStaged,
}

/// AMPED engine configuration.
#[derive(Clone, Debug, Serialize)]
pub struct AmpedConfig {
    /// Factor-matrix rank `R` (paper default 32).
    pub rank: usize,
    /// Threadblock width `P` = nonzeros loaded per block iteration
    /// (paper's θ = 32). Affects the block-launch overhead amortization.
    pub block_p: usize,
    /// Elements per inter-shard partition (threadblock work unit).
    pub isp_nnz: usize,
    /// Maximum nonzeros per tensor shard (host→GPU streaming granularity).
    pub shard_nnz_budget: usize,
    /// Shard→GPU assignment policy.
    pub schedule: SchedulePolicy,
    /// All-gather algorithm.
    pub gather: GatherAlgo,
}

impl Default for AmpedConfig {
    fn default() -> Self {
        Self {
            rank: 32,
            block_p: 32,
            isp_nnz: 8192,
            shard_nnz_budget: 1 << 20, // 1 Mi elements ≈ 16 MB COO per shard
            schedule: SchedulePolicy::StaticCcp,
            gather: GatherAlgo::Ring,
        }
    }
}

impl AmpedConfig {
    /// Validates invariants; call before building an engine.
    pub fn validate(&self) -> Result<(), String> {
        if self.rank == 0 {
            return Err("rank must be positive".into());
        }
        if self.block_p == 0 {
            return Err("block width P must be positive".into());
        }
        if self.isp_nnz == 0 {
            return Err("ISP size must be positive".into());
        }
        if self.shard_nnz_budget < self.isp_nnz {
            return Err("shard budget must be at least one ISP".into());
        }
        Ok(())
    }

    /// The workload the cost model prices: an order-`order` tensor of
    /// `elem_bytes`-byte elements decomposed at this rank and ISP size.
    pub(crate) fn workload(&self, order: usize, elem_bytes: u64) -> WorkloadProfile {
        WorkloadProfile {
            order,
            rank: self.rank,
            elem_bytes,
            isp_nnz: self.isp_nnz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = AmpedConfig::default();
        assert_eq!(c.rank, 32);
        assert_eq!(c.block_p, 32);
        assert_eq!(c.schedule, SchedulePolicy::StaticCcp);
        assert_eq!(c.gather, GatherAlgo::Ring);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(AmpedConfig {
            rank: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AmpedConfig {
            block_p: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AmpedConfig {
            isp_nnz: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AmpedConfig {
            shard_nnz_budget: 10,
            isp_nnz: 100,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
