//! ParTI / HiCOO-GPU (Li et al.): GPU-resident HiCOO on one GPU.
//!
//! The tensor is converted to HiCOO on the host and resides on a single GPU
//! together with a per-element segmented-scan workspace. The ParTI GPU
//! MTTKRP supports 3-mode tensors only (the paper notes it cannot run the
//! 5-mode Twitch tensor), and its resident footprint — elements, block
//! headers, workspace — is what makes Reddit exceed the card in Fig. 5 while
//! Patents still fits.

use crate::system::{stats_from_coords, Capabilities, MttkrpSystem, SystemRun};
use amped_formats::HicooTensor;
use amped_linalg::Mat;
use amped_runtime::kernels::{launch_mttkrp, CompiledShard, FactorsView, MttkrpOut};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// Per-element overhead of block-coordinate reconstruction.
const DECODE_FACTOR: f64 = 1.3;

/// Effective-bandwidth penalty of the ParTI HiCOO kernels: uncoalesced
/// factor-row accesses and 64-bit index arithmetic reach roughly a third of
/// the bandwidth a tuned COO kernel sustains (consistent with the large
/// ParTI-vs-MM-CSF gaps reported across the GPU MTTKRP literature).
const KERNEL_INEFFICIENCY: f64 = 3.0;

/// ParTI's HiCOO MTTKRP on one simulated GPU.
#[derive(Debug)]
pub struct PartiSystem {
    runtime: Box<dyn DeviceRuntime>,
    /// Elements per threadblock work unit (HiCOO blocks are grouped into
    /// superblock units until this many elements accumulate).
    pub isp_nnz: usize,
    /// Average elements per nonempty block targeted by block-size selection.
    pub min_avg_per_block: f64,
}

impl PartiSystem {
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
            min_avg_per_block: 8.0,
        }
    }
}

impl MttkrpSystem for PartiSystem {
    fn name(&self) -> &'static str {
        "ParTI-GPU"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "ParTI-GPU",
            tensor_copies: "1",
            multi_gpu: false,
            load_balancing: true,
            billion_scale: false,
            task_independent: false,
            max_order: 3,
        }
    }

    fn execute(&mut self, tensor: &SparseTensor, factors: &[Mat]) -> Result<SystemRun, SimError> {
        let order = tensor.order();
        if order != 3 {
            return Err(SimError::Unsupported(format!(
                "ParTI-GPU HiCOO MTTKRP supports 3-mode tensors, got {order} modes"
            )));
        }
        self.runtime.reset_mem();
        let spec = self.runtime.spec().clone();
        let rank = factors[0].cols();
        let gpu = &spec.gpus[0];
        let cost = CostModel::default();

        // --- Preprocess on the host: block-size selection + conversion.
        let pre_start = std::time::Instant::now();
        let bits = HicooTensor::auto_block_bits(tensor, self.min_avg_per_block);
        let h = HicooTensor::build(tensor, bits);
        let preprocess_wall = pre_start.elapsed().as_secs_f64();

        // --- Memory: HiCOO resident + factors + segmented-scan workspace.
        let factor_bytes: u64 = tensor
            .shape()
            .iter()
            .map(|&d| d as u64 * rank as u64 * 4)
            .sum();
        let workspace = tensor.nnz() as u64 * 4;
        let runtime = self.runtime.as_mut();
        runtime.alloc(Device::Gpu(0), h.bytes(), "HiCOO resident tensor")?;
        runtime.alloc(Device::Gpu(0), factor_bytes, "factor-matrix copies")?;
        runtime.alloc(Device::Gpu(0), workspace, "segmented-scan workspace")?;

        // --- Superblock work units: consecutive HiCOO blocks totalling
        // ~isp_nnz elements.
        let isp_nnz = self.isp_nnz;
        let mut units: Vec<std::ops::Range<usize>> = Vec::new();
        {
            let mut start = 0usize;
            let mut elems = 0usize;
            for b in 0..h.num_blocks() {
                elems += h.block_nnz(b);
                if elems >= isp_nnz || b + 1 == h.num_blocks() {
                    units.push(start..b + 1);
                    start = b + 1;
                    elems = 0;
                }
            }
        }

        // The HiCOO blocks' elements flattened (block order) into coordinate
        // and value arrays, plus each superblock unit's element range — the
        // kernel layer addresses elements, not blocks.
        let mut coords = Vec::with_capacity(tensor.nnz() * order);
        let mut vals = Vec::with_capacity(tensor.nnz());
        for (c, v) in (0..h.num_blocks()).flat_map(|b| h.block_iter(b)) {
            coords.extend_from_slice(&c);
            vals.push(v);
        }
        let mut block_starts = Vec::with_capacity(h.num_blocks() + 1);
        block_starts.push(0usize);
        for b in 0..h.num_blocks() {
            block_starts.push(block_starts[b] + h.block_nnz(b));
        }
        let eranges: Vec<std::ops::Range<usize>> = units
            .iter()
            .map(|u| block_starts[u.start]..block_starts[u.end])
            .collect();

        let elem_bytes = (order as u64) + 4; // HiCOO element payload
        let cache_rows = (gpu.l2_bytes / (rank as u64 * 4)).max(1) as usize;
        let mut fs = factors.to_vec();
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        for d in 0..order {
            let costs: Vec<f64> = units
                .iter()
                .map(|u| {
                    let st = stats_from_coords(
                        d,
                        order,
                        u.clone()
                            .flat_map(|b| h.block_iter(b).map(|(c, _)| c).collect::<Vec<_>>()),
                        cache_rows,
                    );
                    let bs = BlockStats {
                        nnz: st.nnz,
                        distinct_out: st.distinct_out,
                        max_out_run: st.max_out_run,
                        distinct_in_total: st.distinct_in,
                        dram_factor_reads: st.dram_factor_reads,
                        sorted_by_output: false, // per-element atomics
                        order,
                        rank,
                        elem_bytes,
                    };
                    cost.block_time(gpu, &bs, DECODE_FACTOR, units.len()) * KERNEL_INEFFICIENCY
                })
                .collect();
            let makespan = runtime.makespan(0, &costs).makespan;

            // Real execution: grid over superblock units through the kernel
            // layer, over the flattened elements sorted by mode `d`.
            let out = MttkrpOut::zeros(tensor.dim(d) as usize, rank);
            let copy = CompiledShard::compile(&coords, &vals, order, d);
            let fviews = FactorsView::new(fs.iter().map(|f| f.as_slice()).collect(), rank);
            launch_mttkrp(
                runtime,
                0,
                &copy.sorted_coo(),
                &fviews,
                &eranges,
                &costs,
                &out,
            );
            fs[d] = Mat::from_vec(tensor.dim(d) as usize, rank, out.to_vec());
            fs[d].normalize_cols(); // keep chained values in f32 range (ALS λ-normalization)

            report.per_gpu[0].compute += makespan;
            report.per_mode.push(makespan);
            report.total_time += makespan;
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
    fn parti_matches_reference_chain() {
        let t = GenSpec::uniform(vec![40, 25, 30], 1500, 231).generate();
        let mut rng = SmallRng::seed_from_u64(232);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, 8, &mut rng))
            .collect();
        let mut sys = PartiSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
        sys.isp_nnz = 128;
        let run = sys.execute(&t, &factors).unwrap();
        let mut want = factors.clone();
        for d in 0..3 {
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
    }

    #[test]
    fn parti_rejects_non_three_mode() {
        for shape in [vec![8u32, 8], vec![8, 8, 8, 8]] {
            let t = GenSpec::uniform(shape, 100, 233).generate();
            let factors: Vec<Mat> = t
                .shape()
                .iter()
                .map(|&d| Mat::zeros(d as usize, 4))
                .collect();
            let mut sys = PartiSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
            assert!(matches!(
                sys.execute(&t, &factors),
                Err(SimError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn parti_ooms_when_resident_footprint_exceeds_gpu() {
        let t = GenSpec::uniform(vec![3000, 3000, 3000], 80_000, 234).generate();
        let spec = PlatformSpec::rtx6000_ada_node(1).scaled(1e-5);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::zeros(d as usize, 4))
            .collect();
        let mut sys = PartiSystem::new(spec);
        let err = sys.execute(&t, &factors).unwrap_err();
        assert!(err.is_oom(), "expected OOM, got {err}");
    }
}
