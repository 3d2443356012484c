//! BLCO (Nguyen et al., ICS'22): out-of-memory MTTKRP on a single GPU.
//!
//! The tensor lives in host memory as blocked linearized coordinates and
//! streams to one GPU block by block during each mode's computation (§2.2 of
//! the AMPED paper). This makes BLCO the only baseline that, like AMPED,
//! never runs out of GPU memory — but it is limited to a single GPU's PCIe
//! bandwidth and compute, which is the gap Figure 5 quantifies.

use crate::system::{
    cache_rows, chunk_ranges, factor_bytes, Capabilities, MttkrpSystem, SystemRun,
};
use amped_formats::LinTensor;
use amped_linalg::Mat;
use amped_partition::{ShardStats, StatsScratch};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::CostModel;
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// Extra per-element instruction cost of BLCO's bit-field decode.
const DECODE_FACTOR: f64 = 2.0;

/// BLCO on one simulated GPU with host-resident tensor.
#[derive(Debug)]
pub struct BlcoSystem {
    runtime: SimRuntime,
    /// Elements per streamed block.
    pub block_nnz: usize,
    /// Elements per threadblock work unit.
    pub isp_nnz: usize,
}

impl BlcoSystem {
    /// Creates the system (only GPU 0 of the platform is used).
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            runtime: SimRuntime::new(spec),
            block_nnz: 1 << 20,
            isp_nnz: 8192,
        }
    }
}

impl MttkrpSystem for BlcoSystem {
    fn name(&self) -> &'static str {
        "BLCO"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "BLCO",
            tensor_copies: "1",
            multi_gpu: false,
            load_balancing: false,
            billion_scale: true,
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

        // --- Memory: tensor stays on the host; the GPU holds the factor
        // matrices and two streaming block buffers. Like the real system,
        // the streamed block size adapts to the memory left after factors.
        runtime.alloc(
            Device::Gpu(0),
            factor_bytes(tensor, rank),
            "factor-matrix copies",
        )?;
        let mem_budget =
            (runtime.mem(Device::Gpu(0)).available() / (4 * LinTensor::ELEM_BYTES)) as usize;
        let block_nnz = self.block_nnz.min(mem_budget.max(1024));

        // --- Preprocess: linearize + sort + block (host side, measured).
        let lt = LinTensor::build(tensor, block_nnz);
        runtime.alloc(Device::Host, lt.bytes(), "linearized tensor copy")?;
        let max_block = (0..lt.blocks().len())
            .map(|b| lt.block_bytes(b))
            .max()
            .unwrap_or(0);
        runtime.alloc(Device::Gpu(0), 2 * max_block, "streamed block buffers")?;

        let nblocks = lt.blocks().len();
        let mut coords = Vec::new();
        let mut scratch = StatsScratch::new();
        let cache_rows = cache_rows(&gpu, rank);
        let mut priced_nnz = vec![0u64; order];
        let mut report = RunReport {
            preprocess_wall: lt.preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        for (d, priced) in priced_nnz.iter_mut().enumerate() {
            let mut transfers = Vec::with_capacity(nblocks);
            let mut computes = Vec::with_capacity(nblocks);
            for b in 0..nblocks {
                transfers.push(runtime.h2d_time(0, 1, lt.block_bytes(b)));
                // The block decoded into flat coordinates.
                coords.resize(lt.blocks()[b].elems.len() * order, 0);
                lt.decode_block_into(b, &mut coords);
                // Per-threadblock chunking of the streamed block.
                let chunks = chunk_ranges(coords.len() / order, self.isp_nnz);
                let costs: Vec<f64> = chunks
                    .iter()
                    .map(|&(lo, hi)| {
                        let chunk = &coords[lo * order..hi * order];
                        let st = ShardStats::compute_from_coords(
                            chunk,
                            order,
                            d,
                            cache_rows,
                            &mut scratch,
                        );
                        *priced += st.nnz;
                        // The single linearized order is mode-0 major: only
                        // mode 0's output indices arrive clustered.
                        let bs = st.block(order, rank, LinTensor::ELEM_BYTES, d == 0);
                        cost.block_time(&gpu, &bs, DECODE_FACTOR, chunks.len())
                    })
                    .collect();
                computes.push(runtime.makespan(0, &costs).makespan);
            }
            // Out-of-memory BLCO synchronizes per streamed block: the
            // conflict-resolution sweep between blocks prevents the deep
            // transfer/compute overlap AMPED's independent shards allow.
            let busy: f64 = computes.iter().sum();
            let end = busy + transfers.iter().sum::<f64>();
            report.per_gpu[0].compute += busy;
            report.per_gpu[0].h2d += (end - busy).max(0.0);
            report.per_mode.push(end);
            report.total_time += end;
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn blco_never_ooms_on_big_tensors() {
        // Tensor larger than the scaled GPU memory still runs (streaming).
        let t = GenSpec::uniform(vec![2000, 2000, 2000], 100_000, 213).generate();
        let spec = PlatformSpec::rtx6000_ada_node(1).scaled(2e-5);
        assert!(
            t.bytes() > spec.gpus[0].mem_bytes,
            "test needs an oversized tensor"
        );
        let mut rng = SmallRng::seed_from_u64(214);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, 4, &mut rng))
            .collect();
        let mut sys = BlcoSystem::new(spec);
        sys.block_nnz = 4096;
        let run = sys.execute(&t, &factors).unwrap();
        assert!(run.report.total_time > 0.0);
    }
}
