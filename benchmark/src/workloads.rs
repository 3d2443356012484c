//! The workloads: what each one generates, which engine runs it, and why it
//! is in the set. Sizes are fixed; only the seed varies between runs.

use crate::surface::{AmpedConfig, Dataset, GenSpec, PlatformSpec};

/// Factor rank of every run (the paper's default).
pub const RANK: usize = 32;
/// Modeled GPUs of every run.
pub const GPUS: usize = 4;
/// Nominal `--seconds`: the steady-phase iteration counts below are what a
/// run of this length measures; another `--seconds` scales them.
pub const RUN_SECONDS: u64 = 20;
/// No workload's steady phase is shortened below this many iterations.
const MIN_STEADY_ITERS: usize = 20;
/// Smoke mode divides every scale by this and runs three iterations.
const SMOKE_DIVISOR: f64 = 50.0;
const SMOKE_ITERS: usize = 3;
/// Elements per `.tnsb` chunk of the out-of-core workload.
const OOC_CHUNK_ELEMS: usize = 64 * 1024;
/// The out-of-core tensor is this many times its staging budget.
const OOC_BUDGET_DIVISOR: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    InCore,
    OutOfCore,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub engine: EngineKind,
    dataset: Dataset,
    scale: f64,
    /// Replaces the dataset's scaled nonzero count (to set nnz per row).
    nnz: Option<usize>,
    /// Steady-phase iterations of a nominal run.
    steady_iters: usize,
    /// Cold repeats: engine constructions and first iterations.
    pub cold_repeats: usize,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "amazon_incore",
        why: "10.2 M nnz, 200 nnz/row, DRAM-resident: the runtime kernels are over 90 % of an iteration",
        engine: EngineKind::InCore,
        dataset: Dataset::Amazon,
        scale: 6e-3,
        nnz: None,
        steady_iters: 20,
        cold_repeats: 3,
    },
    Workload {
        name: "amazon_ooc",
        why: "2.1 M nnz streamed from disk in 32 chunks through a budget 1/8 of the tensor: stage, decode, prefetch and per-chunk tile/merge dominate",
        engine: EngineKind::OutOfCore,
        dataset: Dataset::Amazon,
        scale: 3e-3,
        nnz: Some(32 * OOC_CHUNK_ELEMS),
        steady_iters: 20,
        cold_repeats: 5,
    },
    Workload {
        name: "twitch_tall",
        why: "5 modes, 5 nnz/row: dense solve, gram, all-gather and output allocation are about 45 % of an iteration; largest load imbalance",
        engine: EngineKind::InCore,
        dataset: Dataset::Twitch,
        scale: 1e-2,
        nnz: Some(1_250_000),
        steady_iters: 20,
        cold_repeats: 5,
    },
    Workload {
        name: "amazon_small",
        why: "255 k nnz, cache-resident: per-launch and per-iteration overhead dominates; bandwidth or layout changes should not move it",
        engine: EngineKind::InCore,
        dataset: Dataset::Amazon,
        scale: 1.5e-4,
        nnz: None,
        steady_iters: 400,
        cold_repeats: 25,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The generator spec for `seed`. The seed is mixed into the dataset's
    /// own so that seed 0 is the dataset as every figure sees it and every
    /// other seed is a different draw from the same distribution.
    pub fn spec(&self, seed: u64, smoke: bool) -> GenSpec {
        let div = if smoke { SMOKE_DIVISOR } else { 1.0 };
        let mut spec = self.dataset.spec(self.scale / div);
        if let Some(nnz) = self.nnz {
            spec.nnz = (nnz as f64 / div) as usize;
        }
        spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        spec
    }

    /// Steady-phase iterations for a run of `seconds`.
    pub fn steady_iters(&self, seconds: u64, smoke: bool) -> usize {
        if smoke {
            return SMOKE_ITERS;
        }
        let scaled = (self.steady_iters as u64 * seconds).div_ceil(RUN_SECONDS) as usize;
        scaled.max(MIN_STEADY_ITERS)
    }

    /// Elements per chunk when the input is written as `.tnsb`.
    pub fn chunk_elems(&self, smoke: bool) -> usize {
        if smoke {
            (OOC_CHUNK_ELEMS as f64 / SMOKE_DIVISOR) as usize
        } else {
            OOC_CHUNK_ELEMS
        }
    }

    /// Host staging budget of the out-of-core engine for a payload of
    /// `payload_bytes`.
    pub fn stage_budget(&self, payload_bytes: u64) -> u64 {
        payload_bytes / OOC_BUDGET_DIVISOR
    }
}

/// The platform every engine is built on: the paper's node, unscaled.
pub fn platform() -> PlatformSpec {
    PlatformSpec::rtx6000_ada_node(GPUS)
}

/// The configuration a user gets by default, at the paper's rank. No other
/// field is set, so a change of defaults shows in the numbers.
pub fn config() -> AmpedConfig {
    AmpedConfig {
        rank: RANK,
        ..AmpedConfig::default()
    }
}
