//! Engine configuration: the paper's default configuration (rank 32,
//! threadblock work units of `isp_nnz` nonzeros, shards sized to the GPU's
//! staging buffers).

use serde::Serialize;

/// AMPED engine configuration. Shards are owned by the GPU whose contiguous,
/// nnz-balanced output-row range holds them, decided at preprocessing time
/// (§3), and the updated rows are redistributed with the ring all-gather
/// (Algorithm 3); neither is a setting.
#[derive(Clone, Debug, Serialize)]
pub struct AmpedConfig {
    /// Factor-matrix rank `R` (paper default 32).
    pub rank: usize,
    /// Elements per inter-shard partition (threadblock work unit).
    pub isp_nnz: usize,
    /// Maximum nonzeros per tensor shard (host→GPU streaming granularity).
    pub shard_nnz_budget: usize,
}

impl Default for AmpedConfig {
    fn default() -> Self {
        Self {
            rank: 32,
            isp_nnz: 8192,
            shard_nnz_budget: 1 << 20, // 1 Mi elements ≈ 16 MB COO per shard
        }
    }
}

impl AmpedConfig {
    /// Validates invariants; call before building an engine.
    pub fn validate(&self) -> Result<(), String> {
        if self.rank == 0 {
            return Err("rank must be positive".into());
        }
        if self.isp_nnz == 0 {
            return Err("ISP size must be positive".into());
        }
        if self.shard_nnz_budget < self.isp_nnz {
            return Err("shard budget must be at least one ISP".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = AmpedConfig::default();
        assert_eq!(c.rank, 32);
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
