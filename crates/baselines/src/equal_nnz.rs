//! The equal-nnz multi-GPU strawman (paper §5.3, Fig. 6).
//!
//! Nonzeros are split into equal contiguous chunks regardless of output
//! index boundaries. Several GPUs then produce partial sums for the same
//! output rows, so after every mode each GPU uploads its partial rows to the
//! host, the CPU merges them (at CPU speed — "significantly lower than
//! GPUs", §1), and the merged factor is broadcast back to every GPU. The
//! 5.3–10.3× gap to AMPED's partitioning in Fig. 6 is the price of that
//! round trip.

use crate::system::{
    cache_rows, factor_bytes, pipeline_time, Capabilities, MttkrpSystem, SystemRun,
};
use amped_linalg::Mat;
use amped_partition::{isp_ranges, EqualPlan, ShardStats, StatsScratch};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// Equal-nnz distribution across all GPUs of the platform.
#[derive(Debug)]
pub struct EqualNnzSystem {
    runtime: SimRuntime,
    /// Elements per threadblock work unit.
    pub isp_nnz: usize,
    /// Streaming granularity per GPU (elements).
    pub stream_nnz: usize,
}

impl EqualNnzSystem {
    /// Creates the system using every GPU of `spec`.
    pub fn new(spec: PlatformSpec) -> Self {
        Self {
            runtime: SimRuntime::new(spec),
            isp_nnz: 8192,
            stream_nnz: 1 << 20,
        }
    }
}

impl MttkrpSystem for EqualNnzSystem {
    fn name(&self) -> &'static str {
        "Equal-nnz"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "Equal-nnz",
            tensor_copies: "1",
            multi_gpu: true,
            load_balancing: false,
            billion_scale: true,
            task_independent: false,
            max_order: usize::MAX,
        }
    }

    fn execute(&mut self, tensor: &SparseTensor, factors: &[Mat]) -> Result<SystemRun, SimError> {
        let runtime = &mut self.runtime;
        runtime.reset_mem();
        let spec = runtime.spec().clone();
        let rank = factors[0].cols();
        let order = tensor.order();
        let m = spec.num_gpus();
        let gpu = &spec.gpus[0];
        let cost = CostModel::default();
        let row_bytes = rank as u64 * 4;

        // --- Preprocess: none beyond chunk bookkeeping (that is the
        // scheme's one advantage — no sorted copies needed).
        let pre_start = std::time::Instant::now();
        let plans: Vec<EqualPlan> = (0..order).map(|d| EqualPlan::build(tensor, d, m)).collect();
        let preprocess_wall = pre_start.elapsed().as_secs_f64();

        // --- Memory: one host copy; per GPU factors + stream buffers (sized
        // to the memory left after factors, as in the AMPED engine).
        runtime.alloc(Device::Host, tensor.bytes(), "tensor copy")?;
        let isp_nnz = self.isp_nnz;
        let mut stream_nnz = self.stream_nnz;
        for g in 0..m {
            runtime.alloc(
                Device::Gpu(g),
                factor_bytes(tensor, rank),
                "factor-matrix copies",
            )?;
            let mem_budget =
                (runtime.mem(Device::Gpu(g)).available() / (4 * tensor.elem_bytes())) as usize;
            stream_nnz = stream_nnz.min(mem_budget.max(isp_nnz));
            runtime.alloc(
                Device::Gpu(g),
                2 * stream_nnz as u64 * tensor.elem_bytes(),
                "stream buffers",
            )?;
        }

        let cache_rows = cache_rows(gpu, rank);
        let mut scratch = StatsScratch::new();
        let mut priced_nnz = vec![0u64; order];
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default(); m],
            ..Default::default()
        };

        for (d, plan) in plans.iter().enumerate() {
            let mut ends = vec![0.0f64; m];
            for chunk in &plan.chunks {
                let g = chunk.gpu;
                // Stream the chunk in pieces, pipelined with compute.
                let pieces = isp_ranges(chunk.elem_range.clone(), stream_nnz);
                let mut transfers = Vec::with_capacity(pieces.len());
                let mut computes = Vec::with_capacity(pieces.len());
                for piece in &pieces {
                    transfers.push(runtime.h2d_time(
                        g,
                        m,
                        piece.len() as u64 * tensor.elem_bytes(),
                    ));
                    let isps = isp_ranges(piece.clone(), isp_nnz);
                    let costs: Vec<f64> = isps
                        .iter()
                        .map(|r| {
                            let st = ShardStats::compute_scratch(
                                tensor,
                                d,
                                r.clone(),
                                cache_rows,
                                &mut scratch,
                            );
                            priced_nnz[d] += st.nnz;
                            let bs = BlockStats {
                                nnz: st.nnz,
                                distinct_out: st.distinct_out,
                                max_out_run: st.max_out_run,
                                distinct_in_total: st.distinct_in_total,
                                dram_factor_reads: st.dram_factor_reads,
                                sorted_by_output: false, // original order
                                order,
                                rank,
                                elem_bytes: tensor.elem_bytes(),
                            };
                            cost.block_time(gpu, &bs, 1.0, isps.len())
                        })
                        .collect();
                    computes.push(runtime.makespan(g, &costs).makespan);
                }
                let (end, busy) = pipeline_time(&transfers, &computes);
                ends[g] = end;
                report.per_gpu[g].compute += busy;
                report.per_gpu[g].h2d += (end - busy).max(0.0);
            }
            let barrier = ends.iter().cloned().fold(0.0f64, f64::max);
            for (g, b) in report.per_gpu.iter_mut().enumerate() {
                b.idle += barrier - ends[g];
            }

            // --- Host merge round trip (the scheme's penalty).
            // 1. Each GPU uploads its partial rows (concurrent d2h).
            let d2h = plan
                .chunks
                .iter()
                .map(|c| runtime.d2h_time(c.gpu, m, c.stats.distinct_out * row_bytes))
                .fold(0.0f64, f64::max);
            // 2. Host adds all partial rows into the merged factor.
            let merge = cost.host_merge_time(
                spec.host.merge_elems_per_sec,
                plan.total_touched_rows * rank as u64,
            );
            // 3. The merged factor broadcasts back to every GPU (concurrent
            // identical transfers — issue one per GPU so traces see all m).
            let bcast = (0..m)
                .map(|g| runtime.h2d_time(g, m, tensor.dim(d) as u64 * row_bytes))
                .fold(0.0f64, f64::max);
            for b in report.per_gpu.iter_mut() {
                b.d2h += d2h;
                b.host += merge;
                b.h2d += bcast;
            }

            let wall = barrier + d2h + merge + bcast;
            report.per_mode.push(wall);
            report.total_time += wall;
        }

        Ok(SystemRun {
            report,
            priced_nnz,
            gpu_mem_peak: runtime.gpu_mem_peak(),
        })
    }
}
