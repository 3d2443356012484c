//! Modeled-vs-measured calibration: the same plan, two backends.
//!
//! The simulator's value rests on its cost model tracking reality. The
//! honest seam the workspace keeps for that claim is
//! [`CpuParallelRuntime`]: kernel grids
//! really execute on host cores and report wall time, while transfers and
//! collectives keep the simulated model. [`calibrate`] runs the *same*
//! tensor, plan, and factors through a traced [`SimRuntime`] and a traced
//! `CpuParallelRuntime`, aggregates both timelines per op kind, and reports
//! the modeled/measured ratio for every kind — a ratio near 1 for
//! `LaunchGrid` means the grid cost model is calibrated to this host; the
//! transfer/collective rows come out exactly 1 by construction (both
//! backends price them with the same model), which doubles as a self-check
//! that the two runs issued identical op streams.

use amped_core::{AmpedConfig, AmpedEngine, MttkrpEngine};
use amped_linalg::Mat;
use amped_runtime::{
    CpuParallelRuntime, DeviceRuntime, OpKind, SimRuntime, StragglerReport, TracingRuntime,
};
use amped_sim::{PlatformSpec, SimError};
use amped_tensor::SparseTensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;

/// One op kind's aggregate across the two backends.
#[derive(Clone, Debug)]
pub struct CalibrationRow {
    /// Op kind (rendered name of [`OpKind`]).
    pub op: String,
    /// Ops of this kind in the modeled (simulated) run.
    pub count: usize,
    /// Total simulated seconds across those ops.
    pub modeled_s: f64,
    /// Total seconds in the measured (`CpuParallelRuntime`) run.
    pub measured_s: f64,
}

impl CalibrationRow {
    /// The band of `modeled / measured` ratios considered calibrated:
    /// within 2× either way. Outside it the model is lying about this op
    /// kind on this host — a run at PR 8 measured a `launch` ratio of
    /// `0.0122` (model ~80× optimistic), which this flag now surfaces
    /// instead of letting the number scroll past.
    pub const CALIBRATED_BAND: (f64, f64) = (0.5, 2.0);

    /// `modeled / measured`, or `None` when the measured total is zero
    /// (zero-duration memory ops).
    pub fn ratio(&self) -> Option<f64> {
        (self.measured_s > 0.0).then(|| self.modeled_s / self.measured_s)
    }

    /// Whether this row's ratio falls outside [`Self::CALIBRATED_BAND`].
    /// Rows with no measurable ratio are not flagged. A flagged row says
    /// the modeled clock misprices that op kind on the measured backend.
    pub fn flagged(&self) -> bool {
        let (lo, hi) = Self::CALIBRATED_BAND;
        self.ratio().is_some_and(|x| x < lo || x > hi)
    }
}

/// Per-op-kind modeled-vs-measured aggregates for one plan, plus the
/// straggler statistics of the measured run.
#[derive(Clone, Debug)]
pub struct CalibrationReport {
    /// One row per op kind observed in either run.
    pub rows: Vec<CalibrationRow>,
    /// Modeled makespan (max simulated device clock) of the traced run.
    pub modeled_wall: f64,
    /// Measured makespan of the `CpuParallelRuntime` run.
    pub measured_wall: f64,
    /// Per-device busy statistics of the measured run.
    pub straggler: StragglerReport,
}

impl CalibrationReport {
    /// The whole-run modeled/measured wall ratio, when measurable.
    pub fn wall_ratio(&self) -> Option<f64> {
        (self.measured_wall > 0.0).then(|| self.modeled_wall / self.measured_wall)
    }

    /// Rows whose ratio falls outside the calibrated band (see
    /// [`CalibrationRow::flagged`]) — the ops whose cost model needs a
    /// recalibration pass on this host.
    pub fn flagged_rows(&self) -> Vec<&CalibrationRow> {
        self.rows.iter().filter(|r| r.flagged()).collect()
    }
}

impl fmt::Display for CalibrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| op | count | modeled | measured | modeled/measured |")?;
        writeln!(f, "|---|---|---|---|---|")?;
        for r in &self.rows {
            let ratio = match r.ratio() {
                Some(x) if r.flagged() => format!("{x:.3} ⚠ out of band"),
                Some(x) => format!("{x:.3}"),
                None => "—".to_string(),
            };
            writeln!(
                f,
                "| {} | {} | {:.3} ms | {:.3} ms | {ratio} |",
                r.op,
                r.count,
                r.modeled_s * 1e3,
                r.measured_s * 1e3
            )?;
        }
        let wall = match self.wall_ratio() {
            Some(x) => format!("{x:.3}"),
            None => "—".to_string(),
        };
        writeln!(
            f,
            "| wall | — | {:.3} ms | {:.3} ms | {wall} |",
            self.modeled_wall * 1e3,
            self.measured_wall * 1e3
        )
    }
}

/// Sums op durations per kind from a traced run.
fn per_kind(records: &[amped_runtime::OpRecord]) -> BTreeMap<String, (usize, f64)> {
    let mut agg: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for r in records {
        // Memory ops are zero-duration bookkeeping on both backends; they
        // would only add noise rows.
        if matches!(r.kind, OpKind::Alloc | OpKind::Free) {
            continue;
        }
        let e = agg.entry(r.kind.to_string()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += r.end - r.start;
    }
    agg
}

/// Runs `modes` MTTKRP modes of the same plan on a traced [`SimRuntime`]
/// (modeled) and a traced [`CpuParallelRuntime`] (measured), and aggregates
/// both op streams per kind. Both engines are built from the same tensor,
/// spec, config, and factor seed, so the plans — and therefore the op
/// sequences — are identical; only the launch durations differ.
pub fn calibrate(
    t: &SparseTensor,
    spec: PlatformSpec,
    cfg: AmpedConfig,
    seed: u64,
) -> Result<CalibrationReport, SimError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, cfg.rank, &mut rng))
        .collect();

    let run = |rt: Box<dyn DeviceRuntime>| -> Result<_, SimError> {
        let mut e = AmpedEngine::with_runtime(t, rt, cfg.clone())?;
        for d in 0..t.order() {
            e.mttkrp_mode(d, &factors)?;
        }
        let tl = e.runtime().timeline().expect("tracing runtime");
        let records = tl.snapshot();
        let wall = records.iter().map(|r| r.end).fold(0.0f64, f64::max);
        Ok((records, wall, tl))
    };

    let (modeled_records, modeled_wall, _) =
        run(Box::new(TracingRuntime::new(SimRuntime::new(spec.clone()))))?;
    let (measured_records, measured_wall, measured_tl) = run(Box::new(TracingRuntime::new(
        CpuParallelRuntime::new(spec.clone()),
    )))?;

    let modeled = per_kind(&modeled_records);
    let measured = per_kind(&measured_records);
    let mut ops: Vec<String> = modeled.keys().chain(measured.keys()).cloned().collect();
    ops.sort();
    ops.dedup();
    let rows = ops
        .into_iter()
        .map(|op| {
            let (count, modeled_s) = modeled.get(&op).copied().unwrap_or((0, 0.0));
            let (_, measured_s) = measured.get(&op).copied().unwrap_or((0, 0.0));
            CalibrationRow {
                op,
                count,
                modeled_s,
                measured_s,
            }
        })
        .collect();
    let straggler = StragglerReport::from_timeline(&measured_tl, spec.num_gpus());
    Ok(CalibrationReport {
        rows,
        modeled_wall,
        measured_wall,
        straggler,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn calibration_reports_launch_ratio_and_identical_transfers() {
        let t = GenSpec::uniform(vec![60, 50, 40], 4000, 21).generate();
        let cfg = AmpedConfig {
            rank: 8,
            isp_nnz: 256,
            shard_nnz_budget: 2048,
        };
        let spec = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
        let rep = calibrate(&t, spec, cfg, 22).unwrap();
        let launch = rep
            .rows
            .iter()
            .find(|r| r.op == "launch")
            .expect("launch row");
        assert!(launch.count > 0);
        assert!(launch.modeled_s > 0.0);
        assert!(
            launch.ratio().expect("measured launches take time") > 0.0,
            "{rep}"
        );
        // Transfer ops keep the simulated model on both backends: the
        // totals must agree exactly, proving the op streams match.
        for r in rep.rows.iter().filter(|r| r.op != "launch") {
            assert!(
                (r.modeled_s - r.measured_s).abs() <= 1e-12 * r.modeled_s.max(1.0),
                "{}: modeled {} vs measured {}",
                r.op,
                r.modeled_s,
                r.measured_s
            );
        }
        assert!(rep.modeled_wall > 0.0 && rep.measured_wall > 0.0);
        // The measured run produced per-device busy stats.
        assert_eq!(rep.straggler.per_gpu.len(), 2);
        assert!(rep.straggler.imbalance_ratio() >= 1.0);
    }

    fn row(ratio: f64) -> CalibrationRow {
        CalibrationRow {
            op: "launch".into(),
            count: 1,
            modeled_s: ratio,
            measured_s: 1.0,
        }
    }

    #[test]
    fn ratios_outside_the_band_are_flagged() {
        // The pr8 observation: launch ratio 0.0122 must be flagged loudly.
        assert!(row(0.0122).flagged());
        assert!(row(0.49).flagged());
        assert!(row(2.01).flagged());
        assert!(row(80.0).flagged());
        // Inside (and at) the band edges is calibrated.
        assert!(!row(0.5).flagged());
        assert!(!row(1.0).flagged());
        assert!(!row(2.0).flagged());
        // Unmeasurable rows are never flagged.
        let zero = CalibrationRow {
            op: "alloc".into(),
            count: 0,
            modeled_s: 0.0,
            measured_s: 0.0,
        };
        assert!(!zero.flagged());

        let rep = CalibrationReport {
            rows: vec![row(0.0122), row(1.0)],
            modeled_wall: 1.0,
            measured_wall: 1.0,
            straggler: StragglerReport { per_gpu: vec![] },
        };
        assert_eq!(rep.flagged_rows().len(), 1);
        // The rendered table marks the out-of-band row.
        assert!(format!("{rep}").contains("out of band"));
    }
}
