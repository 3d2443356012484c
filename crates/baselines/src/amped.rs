//! AMPED itself, adapted to the common baseline interface.

use crate::system::{Capabilities, MttkrpSystem, SystemRun};
use amped_core::{AmpedConfig, AmpedEngine, MttkrpEngine};
use amped_linalg::Mat;
use amped_sim::{PlatformSpec, SimError};
use amped_tensor::SparseTensor;

/// AMPED (this paper) on `m` simulated GPUs.
pub struct AmpedSystem {
    spec: PlatformSpec,
    cfg: AmpedConfig,
}

impl AmpedSystem {
    /// Creates the system for a platform with the given configuration.
    pub fn new(spec: PlatformSpec, cfg: AmpedConfig) -> Self {
        Self { spec, cfg }
    }

    /// Creates the system with the paper's default configuration at `rank`.
    pub fn with_rank(spec: PlatformSpec, rank: usize) -> Self {
        Self::new(
            spec,
            AmpedConfig {
                rank,
                ..AmpedConfig::default()
            },
        )
    }
}

impl MttkrpSystem for AmpedSystem {
    fn name(&self) -> &'static str {
        "AMPED"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "AMPED",
            tensor_copies: "No. of modes",
            multi_gpu: true,
            load_balancing: true,
            billion_scale: true,
            task_independent: true,
            max_order: usize::MAX,
        }
    }

    fn execute(&mut self, tensor: &SparseTensor, factors: &[Mat]) -> Result<SystemRun, SimError> {
        let cfg = AmpedConfig {
            rank: factors[0].cols(),
            ..self.cfg.clone()
        };
        let mut engine = AmpedEngine::new(tensor, self.spec.clone(), cfg)?;
        let report = engine.mttkrp_all_modes(&mut factors.to_vec())?;
        Ok(SystemRun {
            report,
            priced_nnz: (0..tensor.order())
                .map(|d| engine.mode_loads(d).iter().sum())
                .collect(),
            gpu_mem_peak: engine.gpu_mem_peak(),
        })
    }
}
