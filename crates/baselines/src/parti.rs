//! ParTI / HiCOO-GPU (Li et al.): GPU-resident HiCOO on one GPU.
//!
//! The tensor is converted to HiCOO on the host and resides on a single GPU
//! together with a per-element segmented-scan workspace. The ParTI GPU
//! MTTKRP supports 3-mode tensors only (the paper notes it cannot run the
//! 5-mode Twitch tensor), and its resident footprint — elements, block
//! headers, workspace — is what makes Reddit exceed the card in Fig. 5 while
//! Patents still fits.

use crate::system::{cache_rows, factor_bytes, Capabilities, MttkrpSystem, SystemRun};
use amped_formats::HicooTensor;
use amped_linalg::Mat;
use amped_partition::{ShardStats, StatsScratch};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::CostModel;
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
    runtime: SimRuntime,
    /// Elements per threadblock work unit (HiCOO blocks are grouped into
    /// superblock units until this many elements accumulate).
    pub isp_nnz: usize,
    /// Average elements per nonempty block targeted by block-size selection.
    pub min_avg_per_block: f64,
}

impl PartiSystem {
    /// Creates the system (only GPU 0 of the platform is used).
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            runtime: SimRuntime::new(spec),
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
        let runtime = &mut self.runtime;
        runtime.reset_mem();
        let gpu = runtime.spec().gpus[0].clone();
        let rank = factors[0].cols();
        let cost = CostModel::default();

        // --- Preprocess on the host: block-size selection + conversion. The
        // selection counts the blocks, which is all the footprint needs, so
        // the GPU memory — HiCOO resident + factors + segmented-scan
        // workspace — is charged between the two: a tensor the GPU cannot
        // hold fails without the conversion.
        let pre_start = std::time::Instant::now();
        let (bits, blocks) = HicooTensor::auto_block_bits(tensor, self.min_avg_per_block);
        let resident = HicooTensor::footprint(order, tensor.nnz(), blocks);
        runtime.alloc(Device::Gpu(0), resident, "HiCOO resident tensor")?;
        runtime.alloc(
            Device::Gpu(0),
            factor_bytes(tensor, rank),
            "factor-matrix copies",
        )?;
        let workspace = tensor.nnz() as u64 * 4;
        runtime.alloc(Device::Gpu(0), workspace, "segmented-scan workspace")?;
        let h = HicooTensor::build(tensor, bits);
        let preprocess_wall = pre_start.elapsed().as_secs_f64();
        debug_assert_eq!(h.bytes(), resident);

        // --- Superblock work units: consecutive HiCOO blocks totalling
        // ~isp_nnz elements, as element ranges of the blocks' coordinates
        // flattened in block order.
        let mut coords = Vec::with_capacity(tensor.nnz() * order);
        let mut eranges: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        for b in 0..h.num_blocks() {
            coords.extend(h.block_iter(b).flat_map(|(c, _)| c));
            let end = coords.len() / order;
            if end - start >= self.isp_nnz || b + 1 == h.num_blocks() {
                eranges.push(start..end);
                start = end;
            }
        }

        let elem_bytes = (order as u64) + 4; // HiCOO element payload
        let cache_rows = cache_rows(&gpu, rank);
        let mut scratch = StatsScratch::new();
        let mut priced_nnz = vec![0u64; order];
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        for (d, priced) in priced_nnz.iter_mut().enumerate() {
            let costs: Vec<f64> = eranges
                .iter()
                .map(|r| {
                    let unit = &coords[r.start * order..r.end * order];
                    let st =
                        ShardStats::compute_from_coords(unit, order, d, cache_rows, &mut scratch);
                    *priced += st.nnz;
                    // Per-element atomics: output indices arrive unclustered.
                    let bs = st.block(order, rank, elem_bytes, false);
                    cost.block_time(&gpu, &bs, DECODE_FACTOR, eranges.len()) * KERNEL_INEFFICIENCY
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
