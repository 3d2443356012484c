//! BLCO (Nguyen et al., ICS'22): out-of-memory MTTKRP on a single GPU.
//!
//! The tensor lives in host memory as blocked linearized coordinates and
//! streams to one GPU block by block during each mode's computation (§2.2 of
//! the AMPED paper). This makes BLCO the only baseline that, like AMPED,
//! never runs out of GPU memory — but it is limited to a single GPU's PCIe
//! bandwidth and compute, which is the gap Figure 5 quantifies.

use crate::system::{chunk_ranges, stats_from_coords, Capabilities, MttkrpSystem, SystemRun};
use amped_formats::LinTensor;
use amped_linalg::Mat;
use amped_runtime::kernels::{launch_mttkrp, CompiledShard, FactorsView, MttkrpOut};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// Extra per-element instruction cost of BLCO's bit-field decode.
const DECODE_FACTOR: f64 = 2.0;

/// BLCO on one simulated GPU with host-resident tensor.
#[derive(Debug)]
pub struct BlcoSystem {
    runtime: Box<dyn DeviceRuntime>,
    /// Elements per streamed block.
    pub block_nnz: usize,
    /// Elements per threadblock work unit.
    pub isp_nnz: usize,
}

impl BlcoSystem {
    /// Creates the system on the default simulated runtime (only GPU 0 of
    /// the platform is used).
    pub fn new(spec: PlatformSpec) -> Self {
        Self::with_runtime(Box::new(SimRuntime::new(spec)))
    }

    /// Creates the system executing through an explicit device runtime.
    pub fn with_runtime(runtime: Box<dyn DeviceRuntime>) -> Self {
        Self {
            runtime,
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
        self.runtime.reset_mem();
        let spec = self.runtime.spec().clone();
        let runtime = self.runtime.as_mut();
        let rank = factors[0].cols();
        let order = tensor.order();
        let gpu = &spec.gpus[0];
        let cost = CostModel::default();

        // --- Memory: tensor stays on the host; the GPU holds the factor
        // matrices and two streaming block buffers. Like the real system,
        // the streamed block size adapts to the memory left after factors.
        let factor_bytes: u64 = tensor
            .shape()
            .iter()
            .map(|&d| d as u64 * rank as u64 * 4)
            .sum();
        runtime.alloc(Device::Gpu(0), factor_bytes, "factor-matrix copies")?;
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

        let cache_rows = (gpu.l2_bytes / (rank as u64 * 4)).max(1) as usize;
        let mut fs = factors.to_vec();
        let mut report = RunReport {
            preprocess_wall: lt.preprocess_wall,
            per_gpu: vec![TimeBreakdown::default()],
            ..Default::default()
        };

        for d in 0..order {
            let out = MttkrpOut::zeros(tensor.dim(d) as usize, rank);
            let fviews = FactorsView::new(fs.iter().map(|f| f.as_slice()).collect(), rank);
            let mut transfers = Vec::with_capacity(lt.blocks().len());
            let mut computes = Vec::with_capacity(lt.blocks().len());
            for b in 0..lt.blocks().len() {
                transfers.push(runtime.h2d_time(0, 1, lt.block_bytes(b)));
                // Per-threadblock chunking of the streamed block.
                let n = lt.blocks()[b].elems.len();
                let chunks = chunk_ranges(n, self.isp_nnz);
                // The block decoded once into flat coordinate and value
                // arrays.
                let mut coords = Vec::with_capacity(n * order);
                let mut vals = Vec::with_capacity(n);
                for (c, v) in lt.block_iter(b) {
                    coords.extend_from_slice(&c);
                    vals.push(v);
                }
                let costs: Vec<f64> = chunks
                    .iter()
                    .map(|&(lo, hi)| {
                        let st = stats_from_coords(
                            d,
                            order,
                            coords[lo * order..hi * order]
                                .chunks_exact(order)
                                .map(<[u32]>::to_vec),
                            cache_rows,
                        );
                        let bs = BlockStats {
                            nnz: st.nnz,
                            distinct_out: st.distinct_out,
                            max_out_run: st.max_out_run,
                            distinct_in_total: st.distinct_in,
                            dram_factor_reads: st.dram_factor_reads,
                            // The single linearized order is mode-0 major:
                            // only mode 0's output indices arrive clustered.
                            sorted_by_output: d == 0,
                            order,
                            rank,
                            elem_bytes: LinTensor::ELEM_BYTES,
                        };
                        cost.block_time(gpu, &bs, DECODE_FACTOR, chunks.len())
                    })
                    .collect();
                computes.push(runtime.makespan(0, &costs).makespan);

                // Real execution of this block's grid through the kernel
                // layer, over the block sorted by mode `d` (all chunks of a
                // streamed block share `out`).
                let isps: Vec<std::ops::Range<usize>> =
                    chunks.iter().map(|&(lo, hi)| lo..hi).collect();
                let copy = CompiledShard::compile(&coords, &vals, order, d);
                launch_mttkrp(runtime, 0, &copy.sorted_coo(), &fviews, &isps, &costs, &out);
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
            fs[d] = Mat::from_vec(tensor.dim(d) as usize, rank, out.to_vec());
            fs[d].normalize_cols(); // keep chained values in f32 range (ALS λ-normalization)
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
    fn blco_matches_reference_chain() {
        let t = GenSpec::uniform(vec![40, 30, 20], 2000, 211).generate();
        let mut rng = SmallRng::seed_from_u64(212);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, 8, &mut rng))
            .collect();
        let mut sys = BlcoSystem::new(PlatformSpec::rtx6000_ada_node(1).scaled(1e-3));
        sys.block_nnz = 256;
        sys.isp_nnz = 64;
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
        // BLCO streams: host↔GPU time must be visible.
        assert!(run.report.per_gpu[0].h2d > 0.0);
        assert_eq!(run.report.per_gpu[0].p2p, 0.0);
    }

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
