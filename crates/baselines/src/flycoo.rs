//! FLYCOO-GPU (Wijeratne et al., CF'24): single GPU, GPU-resident tensor
//! with dynamic remapping.
//!
//! FLYCOO keeps **two** copies of the tensor in GPU global memory and
//! reorders ("remaps") it on the fly between modes so each mode's kernel
//! sees an output-major layout. No host traffic during execution, no
//! inter-GPU communication — unbeatable when the tensor fits twice in one
//! GPU (the paper's Twitch result, 3.9× over AMPED) and impossible when it
//! does not (Amazon/Patents/Reddit in Fig. 5).

use crate::system::{cache_rows, factor_bytes, Capabilities, MttkrpSystem, SystemRun};
use amped_linalg::Mat;
use amped_partition::{isp_ranges, PartitionPlan, StatsScratch};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::CostModel;
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// FLYCOO-GPU on one simulated GPU.
#[derive(Debug)]
pub struct FlycooSystem {
    runtime: SimRuntime,
    /// Elements per threadblock work unit.
    pub isp_nnz: usize,
}

impl FlycooSystem {
    /// Creates the system (only GPU 0 of the platform is used).
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            runtime: SimRuntime::new(spec),
            isp_nnz: 8192,
        }
    }
}

impl MttkrpSystem for FlycooSystem {
    fn name(&self) -> &'static str {
        "FLYCOO-GPU"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "FLYCOO-GPU",
            tensor_copies: "2",
            multi_gpu: false,
            load_balancing: true,
            billion_scale: false,
            task_independent: false,
            max_order: usize::MAX,
        }
    }

    fn execute(&mut self, tensor: &SparseTensor, factors: &[Mat]) -> Result<SystemRun, SimError> {
        let runtime = &mut self.runtime;
        runtime.reset_mem();
        let gpu = runtime.spec().gpus[0].clone();
        let rank = factors[0].cols();
        let order = tensor.order();
        let cost = CostModel::default();

        // --- Memory: 2 tensor copies + factors, all resident on one GPU.
        runtime.alloc(
            Device::Gpu(0),
            2 * tensor.bytes(),
            "two resident tensor copies",
        )?;
        runtime.alloc(
            Device::Gpu(0),
            factor_bytes(tensor, rank),
            "factor-matrix copies",
        )?;

        // --- Preprocess: initial shard layout (single device). The per-mode
        // reorderings happen *during execution* via dynamic remapping, so
        // only mode 0's layout counts as preprocessing.
        let plan = PartitionPlan::build(tensor, 1, usize::MAX >> 1);
        let preprocess_wall = plan.preprocess_wall / order as f64;

        // In-GPU remap cost per mode: read + write both tensor copies'
        // worth of data at DRAM bandwidth, overlapped with compute (the
        // FLYCOO design hides remapping behind the current mode's kernel).
        // Remapping is a sequential permute copy — unlike the gather-heavy
        // MTTKRP kernel it runs near peak DRAM bandwidth.
        let remap_time = 2.0 * tensor.bytes() as f64 / (gpu.dram_gbps * 1e9 * 0.85);

        let cache_rows = cache_rows(&gpu, rank);
        let mut scratch = StatsScratch::new();
        let mut priced_nnz = vec![0u64; order];
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        for (d, mp) in plan.modes.iter().enumerate() {
            let isps = isp_ranges(0..mp.copy.nnz(), self.isp_nnz);
            let costs: Vec<f64> = isps
                .iter()
                .map(|r| {
                    let st = mp.range_stats(r.clone(), cache_rows, &mut scratch);
                    priced_nnz[d] += st.nnz;
                    // Remapped per mode: output indices arrive clustered.
                    let bs = st.block(order, rank, mp.copy.elem_bytes(), true);
                    cost.block_time(&gpu, &bs, 1.0, isps.len())
                })
                .collect();
            let mode_wall = runtime.makespan(0, &costs).makespan.max(remap_time);
            report.per_gpu[0].compute += mode_wall;
            report.per_mode.push(mode_wall);
            report.total_time += mode_wall;
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
    fn flycoo_ooms_when_two_copies_do_not_fit() {
        let t = GenSpec::uniform(vec![1000, 1000, 1000], 60_000, 243).generate();
        let spec = PlatformSpec::rtx6000_ada_node(1).scaled(3e-5);
        // One copy fits, two do not — precisely FLYCOO's limitation.
        assert!(t.bytes() < spec.gpus[0].mem_bytes);
        assert!(2 * t.bytes() > spec.gpus[0].mem_bytes);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::zeros(d as usize, 4))
            .collect();
        let mut sys = FlycooSystem::new(spec);
        let err = sys.execute(&t, &factors).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
    }
}
