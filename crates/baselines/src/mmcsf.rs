//! MM-CSF (Nisa et al., SC'19): GPU-resident mixed-mode CSF on one GPU.
//!
//! MM-CSF keeps the tensor resident in GPU memory as compressed sparse
//! fibers, constructed on the device (the COO input is staged on the GPU
//! during format building — the allocation that makes Patents and Reddit
//! exceed the 48 GB card in the paper's Fig. 5). Kernels with the output
//! mode at the fiber root are atomic-free. Supports 3- and 4-mode tensors
//! only, which is why the paper reports no Twitch number for it.

use crate::system::{cache_rows, factor_bytes, Capabilities, MttkrpSystem, SystemRun};
use amped_formats::CsfTensor;
use amped_linalg::Mat;
use amped_partition::{ShardStats, StatsScratch};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// Mild per-element overhead of fiber-pointer chasing.
const DECODE_FACTOR: f64 = 1.1;

/// MM-CSF on one simulated GPU.
#[derive(Debug)]
pub struct MmCsfSystem {
    runtime: SimRuntime,
    /// Target elements per threadblock work unit (root fibers are grouped
    /// until this many leaves accumulate).
    pub isp_nnz: usize,
}

impl MmCsfSystem {
    /// Creates the system (only GPU 0 of the platform is used).
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            runtime: SimRuntime::new(spec),
            isp_nnz: 8192,
        }
    }
}

impl MttkrpSystem for MmCsfSystem {
    fn name(&self) -> &'static str {
        "MM-CSF"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "MM-CSF",
            tensor_copies: "No. of modes",
            multi_gpu: false,
            load_balancing: true,
            billion_scale: false,
            task_independent: false,
            max_order: 4,
        }
    }

    fn execute(&mut self, tensor: &SparseTensor, factors: &[Mat]) -> Result<SystemRun, SimError> {
        let order = tensor.order();
        if order > 4 {
            return Err(SimError::Unsupported(format!(
                "MM-CSF supports 3- and 4-mode tensors, got {order} modes"
            )));
        }
        let runtime = &mut self.runtime;
        runtime.reset_mem();
        let gpu = runtime.spec().gpus[0].clone();
        let rank = factors[0].cols();
        let cost = CostModel::default();

        // --- Memory, build phase: GPU-side construction stages the COO
        // input plus a sort scratch array. Charged before the trees are
        // built, so a tensor that cannot be staged fails without building
        // them.
        let (coo_staging, sort_scratch) = (tensor.bytes(), tensor.nnz() as u64 * 8);
        runtime.alloc(Device::Gpu(0), coo_staging, "COO build staging")?;
        runtime.alloc(Device::Gpu(0), sort_scratch, "sort scratch")?;

        // --- Preprocess: per-output-mode CSF trees (the real system derives
        // all-mode kernels from one mixed tree; per-mode trees have the same
        // fiber structure — memory is charged per the published footprint
        // below).
        let csfs: Vec<CsfTensor> = (0..order)
            .map(|d| CsfTensor::build(tensor, &CsfTensor::order_for_output(tensor, d)))
            .collect();
        let preprocess_wall: f64 = csfs.iter().map(|c| c.preprocess_wall).sum();

        // --- Memory, resident phase: the staging is released before the
        // (largest) CSF representation and the factor matrices are
        // installed (peak = max of the two phases, matching the published
        // system's observed footprint on the paper's datasets).
        runtime.free(Device::Gpu(0), coo_staging + sort_scratch);
        let csf_resident = csfs.iter().map(|c| c.bytes()).max().unwrap_or(0);
        runtime.alloc(Device::Gpu(0), csf_resident, "CSF resident tensor")?;
        runtime.alloc(
            Device::Gpu(0),
            factor_bytes(tensor, rank),
            "factor-matrix copies",
        )?;

        let cache_rows = cache_rows(&gpu, rank);
        let mut scratch = StatsScratch::new();
        let mut priced_nnz = vec![0u64; order];
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        for (d, csf) in csfs.iter().enumerate() {
            // Group root fibers into threadblock work units of ~isp_nnz
            // leaves, as element ranges of the tensor in the tree's
            // lexicographic order. Each unit owns its output rows — no
            // atomics.
            let sorted = tensor.sorted_lex(csf.mode_order());
            let mut units: Vec<std::ops::Range<usize>> = Vec::new();
            let (mut start, mut end) = (0usize, 0usize);
            let counts = csf.root_leaf_counts();
            for (f, &c) in counts.iter().enumerate() {
                end += c;
                if end - start >= self.isp_nnz || f + 1 == counts.len() {
                    units.push(start..end);
                    start = end;
                }
            }
            let costs: Vec<f64> = units
                .iter()
                .map(|u| {
                    let unit = &sorted.indices_flat()[u.start * order..u.end * order];
                    let st =
                        ShardStats::compute_from_coords(unit, order, d, cache_rows, &mut scratch);
                    priced_nnz[d] += st.nnz;
                    let bs = BlockStats {
                        max_out_run: 1, // atomic-free at the root
                        // Fiber roots own their rows; CSF streams ~8 B per
                        // leaf (fid + value), internal levels amortize
                        // across leaves.
                        ..st.block(order, rank, 8, true)
                    };
                    cost.block_time(&gpu, &bs, DECODE_FACTOR, units.len())
                })
                .collect();
            let makespan = runtime.makespan(0, &costs).makespan;
            report.per_gpu[0].compute += makespan;
            report.per_mode.push(makespan);
            report.total_time += makespan;
        }

        Ok(SystemRun {
            report,
            priced_nnz,
            gpu_mem_peak: runtime.mem(Device::Gpu(0)).peak(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_tensor::gen::GenSpec;

    #[test]
    fn mmcsf_rejects_five_modes() {
        let t = GenSpec::uniform(vec![8, 8, 8, 8, 8], 200, 223).generate();
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::zeros(d as usize, 4))
            .collect();
        let mut sys = MmCsfSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
        let err = sys.execute(&t, &factors).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)));
    }

    #[test]
    fn mmcsf_ooms_when_coo_staging_exceeds_gpu() {
        let t = GenSpec::uniform(vec![500, 500, 500], 100_000, 224).generate();
        let spec = PlatformSpec::rtx6000_ada_node(1).scaled(2e-5);
        assert!(t.bytes() > spec.gpus[0].mem_bytes);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::zeros(d as usize, 4))
            .collect();
        let mut sys = MmCsfSystem::new(spec);
        let err = sys.execute(&t, &factors).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
    }
}
