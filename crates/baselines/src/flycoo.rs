//! FLYCOO-GPU (Wijeratne et al., CF'24): single GPU, GPU-resident tensor
//! with dynamic remapping.
//!
//! FLYCOO keeps **two** copies of the tensor in GPU global memory and
//! reorders ("remaps") it on the fly between modes so each mode's kernel
//! sees an output-major layout. No host traffic during execution, no
//! inter-GPU communication — unbeatable when the tensor fits twice in one
//! GPU (the paper's Twitch result, 3.9× over AMPED) and impossible when it
//! does not (Amazon/Patents/Reddit in Fig. 5).

use crate::system::{Capabilities, MttkrpSystem, SystemRun};
use amped_linalg::Mat;
use amped_partition::{isp_ranges, PartitionPlan, StatsScratch};
use amped_runtime::kernels::{launch_mttkrp, FactorsView, MttkrpOut, SortedCoo};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// FLYCOO-GPU on one simulated GPU.
#[derive(Debug)]
pub struct FlycooSystem {
    runtime: Box<dyn DeviceRuntime>,
    /// Elements per threadblock work unit.
    pub isp_nnz: usize,
}

impl FlycooSystem {
    /// Creates the system on the default simulated runtime (only GPU 0 of
    /// the platform is used).
    pub fn new(spec: PlatformSpec) -> Self {
        Self::with_runtime(Box::new(SimRuntime::new(spec)))
    }

    /// Creates the system executing through an explicit device runtime.
    pub fn with_runtime(runtime: Box<dyn DeviceRuntime>) -> Self {
        Self {
            runtime,
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
        self.runtime.reset_mem();
        let spec = self.runtime.spec().clone();
        let runtime = self.runtime.as_mut();
        let rank = factors[0].cols();
        let order = tensor.order();
        let gpu = &spec.gpus[0];
        let cost = CostModel::default();

        // --- Memory: 2 tensor copies + factors, all resident on one GPU.
        let factor_bytes: u64 = tensor
            .shape()
            .iter()
            .map(|&d| d as u64 * rank as u64 * 4)
            .sum();
        runtime.alloc(
            Device::Gpu(0),
            2 * tensor.bytes(),
            "two resident tensor copies",
        )?;
        runtime.alloc(Device::Gpu(0), factor_bytes, "factor-matrix copies")?;

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

        let isp_nnz = self.isp_nnz;
        let mut fs = factors.to_vec();
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        let cache_rows = (gpu.l2_bytes / (rank as u64 * 4)).max(1) as usize;
        let mut scratch = StatsScratch::new();
        for d in 0..order {
            let mp = &plan.modes[d];
            let copy = &mp.copy;
            let isps = isp_ranges(0..copy.nnz(), isp_nnz);
            let costs: Vec<f64> = isps
                .iter()
                .map(|r| {
                    let st = mp.range_stats(r.clone(), cache_rows, &mut scratch);
                    let bs = BlockStats {
                        nnz: st.nnz,
                        distinct_out: st.distinct_out,
                        max_out_run: st.max_out_run,
                        distinct_in_total: st.distinct_in_total,
                        dram_factor_reads: st.dram_factor_reads,
                        sorted_by_output: true, // remapped per mode
                        order,
                        rank,
                        elem_bytes: copy.elem_bytes(),
                    };
                    cost.block_time(gpu, &bs, 1.0, isps.len())
                })
                .collect();
            let makespan = runtime.makespan(0, &costs).makespan;
            let mode_wall = makespan.max(remap_time);

            // Real execution over the mode-sorted resident copy, through the
            // kernel layer's view of it.
            let out = MttkrpOut::zeros(tensor.dim(d) as usize, rank);
            let src = SortedCoo::new(copy.inputs(), copy.values(), copy.row_ptr(), None, order, d);
            let fviews = FactorsView::new(fs.iter().map(|f| f.as_slice()).collect(), rank);
            launch_mttkrp(runtime, 0, &src, &fviews, &isps, &costs, &out);
            fs[d] = Mat::from_vec(tensor.dim(d) as usize, rank, out.to_vec());
            fs[d].normalize_cols(); // keep chained values in f32 range (ALS λ-normalization)

            report.per_gpu[0].compute += mode_wall;
            report.per_mode.push(mode_wall);
            report.total_time += mode_wall;
        }

        Ok(SystemRun {
            report,
            factors: fs,
            gpu_mem_peak: runtime.mem(Device::Gpu(0)).peak(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amped_core::reference::mttkrp_ref;
    use amped_tensor::gen::GenSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn flycoo_matches_reference_chain() {
        let t = GenSpec::uniform(vec![30, 20, 25, 15], 1200, 241).generate();
        let mut rng = SmallRng::seed_from_u64(242);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, 8, &mut rng))
            .collect();
        let mut sys = FlycooSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
        sys.isp_nnz = 128;
        let run = sys.execute(&t, &factors).unwrap();
        let mut want = factors.clone();
        for d in 0..4 {
            want[d] = mttkrp_ref(&t, &want, d);
            want[d].normalize_cols();
        }
        for (d, w) in want.iter().enumerate() {
            assert!(
                run.factors[d].approx_eq(w, 2e-3, 1e-3),
                "mode {d}: max diff {}",
                run.factors[d].max_abs_diff(w)
            );
        }
        // Fully resident: no host or P2P traffic during execution.
        assert_eq!(run.report.per_gpu[0].h2d, 0.0);
        assert_eq!(run.report.per_gpu[0].p2p, 0.0);
    }

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
