//! Shared experiment harness: dataset loading, system construction, and
//! report emission (Markdown + CSV + JSON under `results/`).
//!
//! The `figures` binary uses this library to regenerate every table and
//! figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod reportio;

use amped_baselines::{
    AmpedSystem, BlcoSystem, EqualNnzSystem, FlycooSystem, MmCsfSystem, MttkrpSystem, PartiSystem,
};
use amped_core::AmpedConfig;
use amped_linalg::Mat;
use amped_sim::PlatformSpec;
use amped_tensor::datasets::Dataset;
use amped_tensor::SparseTensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Experiment-wide parameters (paper defaults: 4 GPUs, R = 32, scale 1/1000).
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Dataset scale relative to the paper's full-size tensors.
    pub scale: f64,
    /// GPUs in the simulated node.
    pub gpus: usize,
    /// Factor-matrix rank `R`.
    pub rank: usize,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: std::path::PathBuf,
    cache: HashMap<Dataset, SparseTensor>,
}

impl Default for ExpContext {
    fn default() -> Self {
        Self {
            scale: 1e-3,
            gpus: 4,
            rank: 32,
            out_dir: "results".into(),
            cache: HashMap::new(),
        }
    }
}

impl ExpContext {
    /// Loads (and caches) a scaled dataset.
    pub fn dataset(&mut self, d: Dataset) -> &SparseTensor {
        let scale = self.scale;
        self.cache.entry(d).or_insert_with(|| d.generate(scale))
    }

    /// The simulated platform with `gpus` GPUs, capacities scaled to match
    /// the dataset scale.
    pub fn platform(&self, gpus: usize) -> PlatformSpec {
        PlatformSpec::rtx6000_ada_node(gpus).scaled(self.scale)
    }

    /// Deterministic random factor matrices for `t` at the context rank.
    pub fn factors(&self, t: &SparseTensor, seed: u64) -> Vec<Mat> {
        let mut rng = SmallRng::seed_from_u64(seed);
        t.shape()
            .iter()
            .map(|&d| Mat::random(d as usize, self.rank, &mut rng))
            .collect()
    }

    /// The AMPED system at the paper's default configuration.
    pub fn amped(&self) -> AmpedSystem {
        AmpedSystem::new(
            self.platform(self.gpus),
            AmpedConfig {
                rank: self.rank,
                ..AmpedConfig::default()
            },
        )
    }

    /// The Figure 5 baseline roster, in the paper's order.
    pub fn baselines(&self) -> Vec<Box<dyn MttkrpSystem>> {
        vec![
            Box::new(BlcoSystem::new(self.platform(1))),
            Box::new(MmCsfSystem::new(self.platform(1))),
            Box::new(PartiSystem::new(self.platform(1))),
            Box::new(FlycooSystem::new(self.platform(1))),
        ]
    }

    /// The equal-nnz strawman on the full GPU count (Fig. 6).
    pub fn equal_nnz(&self) -> EqualNnzSystem {
        EqualNnzSystem::new(self.platform(self.gpus))
    }
}

/// Outcome of running one system on one dataset.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Total simulated execution time in seconds.
    Time(f64),
    /// The system failed (out of memory / unsupported), with the message.
    Error(String),
}

impl Outcome {
    /// Time if successful.
    pub fn time(&self) -> Option<f64> {
        match self {
            Outcome::Time(t) => Some(*t),
            Outcome::Error(_) => None,
        }
    }

    /// Render for tables: seconds in milliseconds, or the error class.
    pub fn render(&self) -> String {
        match self {
            Outcome::Time(t) => format!("{:.3} ms", t * 1e3),
            Outcome::Error(e) => {
                if e.contains("out of memory") {
                    "runtime error (OOM)".into()
                } else {
                    format!("n/a ({e})")
                }
            }
        }
    }
}

/// Runs a system on a dataset and classifies the outcome.
pub fn run_system(sys: &mut dyn MttkrpSystem, t: &SparseTensor, factors: &[Mat]) -> Outcome {
    match sys.execute(t, factors) {
        Ok(run) => Outcome::Time(run.report.total_time),
        Err(e) => Outcome::Error(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_caches_datasets() {
        let mut ctx = ExpContext {
            scale: 1e-5,
            ..Default::default()
        };
        let a = ctx.dataset(Dataset::Twitch).nnz();
        let b = ctx.dataset(Dataset::Twitch).nnz();
        assert_eq!(a, b);
        assert_eq!(ctx.cache.len(), 1);
    }

    #[test]
    fn outcome_rendering() {
        assert_eq!(Outcome::Time(0.0123).render(), "12.300 ms");
        assert!(Outcome::Error("out of memory on gpu0: ...".into())
            .render()
            .contains("OOM"));
        assert!(Outcome::Time(1.0).time().is_some());
        assert!(Outcome::Error("x".into()).time().is_none());
    }
}
