//! The equal-nnz multi-GPU strawman (paper §5.3, Fig. 6).
//!
//! Nonzeros are split into equal contiguous chunks regardless of output
//! index boundaries. Several GPUs then produce partial sums for the same
//! output rows, so after every mode each GPU uploads its partial rows to the
//! host, the CPU merges them (at CPU speed — "significantly lower than
//! GPUs", §1), and the merged factor is broadcast back to every GPU. The
//! 5.3–10.3× gap to AMPED's partitioning in Fig. 6 is the price of that
//! round trip.

use crate::system::{pipeline_time, Capabilities, MttkrpSystem, SystemRun};
use amped_linalg::Mat;
use amped_partition::{isp_ranges, EqualPlan, ShardStats, StatsScratch};
use amped_plan::{EqualSplit, Partitioner, PlanStats, UniformCost};
use amped_runtime::kernels::{launch_mttkrp, CompiledShard, FactorsView, MttkrpOut};
use amped_runtime::{Device, DeviceRuntime, SimRuntime};
use amped_sim::costmodel::{BlockStats, CostModel};
use amped_sim::metrics::RunReport;
use amped_sim::{PlatformSpec, SimError, TimeBreakdown};
use amped_tensor::SparseTensor;

/// Equal-nnz distribution across all GPUs of the platform.
#[derive(Debug)]
pub struct EqualNnzSystem {
    runtime: Box<dyn DeviceRuntime>,
    /// Elements per threadblock work unit.
    pub isp_nnz: usize,
    /// Streaming granularity per GPU (elements).
    pub stream_nnz: usize,
}

impl EqualNnzSystem {
    /// Creates the system using every GPU of `spec` on the default
    /// simulated runtime.
    pub fn new(spec: PlatformSpec) -> Self {
        Self::with_runtime(Box::new(SimRuntime::new(spec)))
    }

    /// Creates the system executing through an explicit device runtime.
    pub fn with_runtime(runtime: Box<dyn DeviceRuntime>) -> Self {
        Self {
            runtime,
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
        self.runtime.reset_mem();
        let spec = self.runtime.spec().clone();
        let runtime = self.runtime.as_mut();
        let rank = factors[0].cols();
        let order = tensor.order();
        let m = spec.num_gpus();
        let gpu = &spec.gpus[0];
        let cost = CostModel::default();
        let row_bytes = rank as u64 * 4;

        // --- Preprocess: none beyond chunk bookkeeping (that is the
        // scheme's one advantage — no sorted copies needed). The split goes
        // through the planner layer's [`EqualSplit`] policy, which consumes
        // only the nonzero total (the empty histogram keeps the
        // no-preprocessing property honest).
        let pre_start = std::time::Instant::now();
        let planner = EqualSplit;
        let plan_stats = PlanStats {
            nnz: tensor.nnz() as u64,
        };
        let split_cost = UniformCost::new(m);
        let mut plans: Vec<EqualPlan> = Vec::with_capacity(order);
        for d in 0..order {
            let a = planner
                .plan_mode(d, &[], &plan_stats, &split_cost)
                .map_err(|e| SimError::Unsupported(format!("equal-nnz split: {e}")))?;
            plans.push(EqualPlan::build_from_ranges(tensor, d, &a.element_ranges()));
        }
        let preprocess_wall = pre_start.elapsed().as_secs_f64();

        // --- Memory: one host copy; per GPU factors + stream buffers (sized
        // to the memory left after factors, as in the AMPED engine).
        runtime.alloc(Device::Host, tensor.bytes(), "tensor copy")?;
        let factor_bytes: u64 = tensor
            .shape()
            .iter()
            .map(|&d| d as u64 * rank as u64 * 4)
            .sum();
        let isp_nnz = self.isp_nnz;
        let mut stream_nnz = self.stream_nnz;
        for g in 0..m {
            runtime.alloc(Device::Gpu(g), factor_bytes, "factor-matrix copies")?;
            let mem_budget =
                (runtime.mem(Device::Gpu(g)).available() / (4 * tensor.elem_bytes())) as usize;
            stream_nnz = stream_nnz.min(mem_budget.max(isp_nnz));
            runtime.alloc(
                Device::Gpu(g),
                2 * stream_nnz as u64 * tensor.elem_bytes(),
                "stream buffers",
            )?;
        }

        let cache_rows = (gpu.l2_bytes / (rank as u64 * 4)).max(1) as usize;
        let mut scratch = StatsScratch::new();
        let mut fs = factors.to_vec();
        let mut report = RunReport {
            preprocess_wall,
            per_gpu: vec![TimeBreakdown::default(); m],
            ..Default::default()
        };

        for d in 0..order {
            let plan = &plans[d];
            let out = MttkrpOut::zeros(tensor.dim(d) as usize, rank);
            let fviews = FactorsView::new(fs.iter().map(|f| f.as_slice()).collect(), rank);
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

                    // Real execution through the kernel layer into the
                    // shared output (the host merge is priced below;
                    // numerically the merge of partial sums equals direct
                    // accumulation): the piece as a copy sorted by mode
                    // `d`, the same ISP ranges rebased to its start.
                    let copy = CompiledShard::compile(
                        &tensor.indices_flat()[piece.start * order..piece.end * order],
                        &tensor.values()[piece.clone()],
                        order,
                        d,
                    );
                    let blocks = isp_ranges(0..piece.len(), isp_nnz);
                    launch_mttkrp(
                        runtime,
                        g,
                        &copy.sorted_coo(),
                        &fviews,
                        &blocks,
                        &costs,
                        &out,
                    );
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
            fs[d] = Mat::from_vec(tensor.dim(d) as usize, rank, out.to_vec());
            fs[d].normalize_cols(); // keep chained values in f32 range (ALS λ-normalization)
        }

        Ok(SystemRun {
            report,
            factors: fs,
            gpu_mem_peak: runtime.gpu_mem_peak(),
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
    fn equal_nnz_matches_reference_chain() {
        let t = GenSpec::uniform(vec![30, 30, 30], 1500, 251).generate();
        let mut rng = SmallRng::seed_from_u64(252);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, 8, &mut rng))
            .collect();
        let mut sys = EqualNnzSystem::new(PlatformSpec::rtx6000_ada_node(4).scaled(1e-3));
        sys.isp_nnz = 128;
        sys.stream_nnz = 256;
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
        // The merge round trip must be visible in the breakdown.
        assert!(run.report.per_gpu[0].d2h > 0.0);
        assert!(run.report.per_gpu[0].host > 0.0);
    }
}
