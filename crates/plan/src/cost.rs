//! The planning-time cost facade over [`amped_sim::costmodel`].
//!
//! Planners never price work themselves: they ask a [`CostQuery`] how fast
//! each device chews through nonzeros. The production implementation,
//! [`PlatformCostQuery`], derives per-device sustained MTTKRP throughput
//! from the same [`CostModel`] the
//! simulator executes with, so "modeled per-slice execution time" at
//! planning time and simulated time at run time come from one formula.

use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::PlatformSpec;

use crate::assignment::ModeAssignment;

/// What planners may ask about device speed. Object-safe so engines can
/// thread `&dyn CostQuery` through the planner trait.
pub trait CostQuery: std::fmt::Debug + Sync {
    /// Number of devices work can be assigned to.
    fn num_devices(&self) -> usize;

    /// Modeled sustained MTTKRP throughput of device `gpu`, in nonzeros per
    /// second. Only ratios between devices matter to partitioning; the
    /// absolute scale cancels out of every CCP decision.
    fn device_throughput(&self, gpu: usize) -> f64;

    /// Modeled seconds for device `gpu` to process `nnz` nonzeros.
    fn work_time(&self, gpu: usize, nnz: u64) -> f64 {
        if nnz == 0 {
            0.0
        } else {
            nnz as f64 / self.device_throughput(gpu)
        }
    }
}

/// The trivial cost query: `devices` identical devices of unit throughput.
/// Under it, cost-guided planning coincides with nnz-weighted planning —
/// the homogeneous default path.
#[derive(Clone, Copy, Debug)]
pub struct UniformCost {
    devices: usize,
}

impl UniformCost {
    /// A uniform query over `devices` devices.
    pub fn new(devices: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        Self { devices }
    }
}

impl CostQuery for UniformCost {
    fn num_devices(&self) -> usize {
        self.devices
    }

    fn device_throughput(&self, _gpu: usize) -> f64 {
        1.0
    }
}

/// The workload shape a [`PlatformCostQuery`] prices its representative
/// block with: the facts the cost model needs that are properties of the
/// decomposition rather than of any one slice.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadProfile {
    /// Tensor order `N`.
    pub order: usize,
    /// Factor-matrix rank `R`.
    pub rank: usize,
    /// Bytes of one stored tensor element.
    pub elem_bytes: u64,
    /// Elements per inter-shard partition (threadblock work unit).
    pub isp_nnz: usize,
}

/// [`CostQuery`] over a [`PlatformSpec`] and a [`CostModel`]: device
/// throughput is the modeled rate of a *representative* ISP block — one
/// block of `isp_nnz` sorted elements with moderate output-row density and
/// cold factor reads, priced by [`CostModel::block_time`] with every SM
/// busy. The representative block is a planning proxy, not a per-slice
/// measurement: what partitioning needs is the *ratio* of device speeds,
/// and that ratio is exactly what differs between a full-rate and a
/// down-clocked [`GpuSpec`](amped_sim::GpuSpec).
#[derive(Clone, Debug)]
pub struct PlatformCostQuery {
    spec: PlatformSpec,
    model: CostModel,
    profile: WorkloadProfile,
}

impl PlatformCostQuery {
    /// A cost query for `spec` with the default calibrated [`CostModel`].
    pub fn new(spec: &PlatformSpec, profile: WorkloadProfile) -> Self {
        Self::with_model(spec, CostModel::default(), profile)
    }

    /// A cost query with an explicit cost model (calibration experiments).
    pub fn with_model(spec: &PlatformSpec, model: CostModel, profile: WorkloadProfile) -> Self {
        assert!(profile.order > 0 && profile.rank > 0 && profile.isp_nnz > 0);
        Self {
            spec: spec.clone(),
            model,
            profile,
        }
    }

    /// The representative block priced for every device.
    fn representative_block(&self) -> BlockStats {
        let nnz = self.profile.isp_nnz as u64;
        BlockStats {
            nnz,
            // A moderately dense slice: four elements per output row.
            distinct_out: (nnz / 4).max(1),
            max_out_run: 4,
            // Cold factor rows across the input modes: half the accesses
            // distinct, all reaching DRAM — the conservative regime.
            distinct_in_total: ((self.profile.order as u64 - 1) * nnz / 2).max(1),
            dram_factor_reads: ((self.profile.order as u64 - 1) * nnz / 2).max(1),
            sorted_by_output: true,
            order: self.profile.order,
            rank: self.profile.rank,
            elem_bytes: self.profile.elem_bytes,
        }
    }
}

impl CostQuery for PlatformCostQuery {
    fn num_devices(&self) -> usize {
        self.spec.num_gpus()
    }

    fn device_throughput(&self, gpu: usize) -> f64 {
        let g = &self.spec.gpus[gpu];
        let block = self.representative_block();
        // One block per SM, all SMs busy: full-GPU rate = block nnz × SMs
        // over the block's modeled time.
        let t = self.model.block_time(g, &block, 1.0, g.sms);
        block.nnz as f64 * g.sms as f64 / t
    }
}

/// Modeled makespan of `assignment` under `cost`: the slowest device's
/// [`CostQuery::work_time`] over its assigned nonzeros (`hist` is the
/// output-index histogram of the assignment's mode). This is the objective cost-guided CCP
/// minimizes and the quantity the heterogeneous-scenario tests compare.
pub fn modeled_makespan(assignment: &ModeAssignment, hist: &[u64], cost: &dyn CostQuery) -> f64 {
    assignment
        .loads(hist)
        .iter()
        .enumerate()
        .map(|(g, &load)| cost.work_time(g, load))
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            order: 3,
            rank: 32,
            elem_bytes: 16,
            isp_nnz: 8192,
        }
    }

    #[test]
    fn homogeneous_devices_model_equal_throughput() {
        let q = PlatformCostQuery::new(&PlatformSpec::rtx6000_ada_node(4), profile());
        let t0 = q.device_throughput(0);
        assert!(t0.is_finite() && t0 > 0.0);
        for g in 1..4 {
            assert_eq!(q.device_throughput(g), t0);
        }
        // Plausible full-GPU COO MTTKRP range (see costmodel tests).
        assert!((0.5e9..10e9).contains(&t0), "implausible rate {t0:.3e}");
    }

    #[test]
    fn slow_devices_model_lower_throughput() {
        let spec = PlatformSpec::hetero_2fast_2slow();
        let q = PlatformCostQuery::new(&spec, profile());
        let fast = q.device_throughput(0);
        let slow = q.device_throughput(2);
        assert!(
            slow < 0.6 * fast,
            "0.4× device should model well under 60% of full rate: {slow:.3e} vs {fast:.3e}"
        );
        // work_time is the reciprocal view.
        assert!(q.work_time(2, 1_000_000) > q.work_time(0, 1_000_000));
        assert_eq!(q.work_time(0, 0), 0.0);
    }

    #[test]
    fn makespan_is_slowest_device() {
        let a = ModeAssignment {
            mode: 0,
            ranges: vec![0..2, 2..4],
        };
        let hist = [10u64, 10, 5, 5];
        let q = UniformCost::new(2);
        assert_eq!(modeled_makespan(&a, &hist, &q), 20.0);
    }
}
