//! Benchmark snapshot: quick wall-clock baselines for the six Criterion
//! bench areas (elementwise kernel, partitioning, formats, atomics, ring
//! all-gather, out-of-core streaming), emitted through [`amped_bench::reportio`] so successive PRs
//! have a comparable perf trajectory.
//!
//! Usage: `cargo run --release -p amped-bench --bin bench_snapshot [out.json]`
//!
//! Writes the snapshot to the given output path (default `BENCH_seed.json`
//! in the working directory) plus the sibling `.csv`, and prints the
//! Markdown table. Passing a path lets a PR commit its own snapshot (e.g.
//! `BENCH_pr2.json`) without overwriting the committed baseline — see the
//! trajectory convention in README.md. Each entry is the median of five
//! timed repetitions after one warm-up, so a snapshot finishes in seconds —
//! it is a trend line, not a statistics engine; use
//! `cargo bench -p amped-bench` for careful measurements.

use amped_bench::reportio::{emit, Table};
use amped_bench::ScratchDir;
use amped_core::reference::{mttkrp_privatized, mttkrp_ref};
use amped_core::{AmpedConfig, AmpedEngine, OocEngine};
use amped_formats::{CsfTensor, HicooTensor, LinTensor};
use amped_linalg::Mat;
use amped_partition::{chains_on_chains, ModePlan, PartitionPlan};
use amped_plan::HierarchicalCcp;
use amped_plan::{
    modeled_makespan, CostGuidedCcp, NnzCcp, Partitioner, PlanStats, PlatformCostQuery,
    WorkloadProfile,
};
use amped_runtime::{Collective, DeviceRuntime, FactorBlock, SimRuntime};
use amped_sim::{atomic_add_f32, AtomicMat, ClusterSpec, PlatformSpec};
use amped_stream::write_tnsb;
use amped_tensor::gen::GenSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::AtomicU32;
use std::time::Instant;

/// Median wall time of `reps` runs (after one warm-up), in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

fn throughput_cell(elems: Option<u64>, secs: f64) -> String {
    match elems {
        Some(n) => format!("{:.2} Melem/s", n as f64 / secs / 1e6),
        None => "—".to_string(),
    }
}

fn main() {
    // Output path: `<dir>/<name>.json` (the `.csv` sibling lands next to it).
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_seed.json".to_string());
    let out = Path::new(&out);
    assert!(
        out.extension().is_some_and(|e| e == "json"),
        "output path must end in .json, got {}",
        out.display()
    );
    let name = out
        .file_stem()
        .expect("output path has a file name")
        .to_string_lossy()
        .into_owned();
    let out_dir = out
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    const REPS: usize = 5;
    let mut table = Table::new(&["benchmark", "median", "throughput"]);
    fn push(table: &mut Table, name: &str, secs: f64, elems: Option<u64>) {
        table.push(vec![
            name.to_string(),
            format!("{:.3} ms", secs * 1e3),
            throughput_cell(elems, secs),
        ]);
    }

    // 1. Elementwise kernel (ec_kernel bench): sequential vs parallel host
    //    MTTKRP oracles at the paper's default rank.
    {
        let t = GenSpec::uniform(vec![10_000, 5_000, 5_000], 200_000, 1).generate();
        let rank = 32;
        let mut rng = SmallRng::seed_from_u64(2);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        let nnz = t.nnz() as u64;
        push(
            &mut table,
            "ec_kernel/sequential/r32",
            median_secs(REPS, || {
                mttkrp_ref(&t, &factors, 0);
            }),
            Some(nnz),
        );
        // The `ec_kernel/parallel_atomic/r32` compatibility alias (a
        // byte-identical duplicate of this row kept across the kernel
        // rename) was dropped once the trajectory had two snapshots of the
        // successor to diff against.
        push(
            &mut table,
            "ec_kernel/parallel_privatized/r32",
            median_secs(REPS, || {
                mttkrp_privatized(&t, &factors, 0);
            }),
            Some(nnz),
        );
    }

    // 2. Partitioning (partition bench): full preprocessing and CCP alone.
    {
        let t = GenSpec {
            shape: vec![20_000, 4_000, 4_000],
            nnz: 200_000,
            skew: vec![0.8, 0.5, 0.5],
            seed: 3,
        }
        .generate();
        let nnz = t.nnz() as u64;
        push(
            &mut table,
            "partition/all_modes/200k",
            median_secs(REPS, || {
                PartitionPlan::build(&t, 4, 1 << 20);
            }),
            Some(nnz),
        );
        push(
            &mut table,
            "partition/single_mode/200k",
            median_secs(REPS, || {
                ModePlan::build(&t, 0, 4, 1 << 20);
            }),
            Some(nnz),
        );
        // All three modes built serially: the within-snapshot comparator
        // for the parallel all-modes row (same work, no worker pool), so CI
        // can assert the fan-out never costs more than the serial loop on
        // the machine that produced the snapshot.
        push(
            &mut table,
            "partition/single_mode_x3/200k",
            median_secs(REPS, || {
                for d in 0..3 {
                    ModePlan::build(&t, d, 4, 1 << 20);
                }
            }),
            Some(nnz),
        );
        let weights: Vec<u64> = (0..1_000_000u64)
            .map(|i| (i * 2_654_435_761) % 1000)
            .collect();
        push(
            &mut table,
            "partition/ccp_1M_indices",
            median_secs(REPS, || {
                chains_on_chains(&weights, 4);
            }),
            Some(1_000_000),
        );
    }

    // 3. Baseline formats (formats bench): construction + one MTTKRP each.
    {
        let t = GenSpec {
            shape: vec![8_000, 2_000, 2_000],
            nnz: 150_000,
            skew: vec![0.7, 0.5, 0.5],
            seed: 4,
        }
        .generate();
        let rank = 32;
        let mut rng = SmallRng::seed_from_u64(5);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        let nnz = t.nnz() as u64;
        push(
            &mut table,
            "formats/build_blco",
            median_secs(REPS, || {
                LinTensor::build(&t, 1 << 17);
            }),
            Some(nnz),
        );
        push(
            &mut table,
            "formats/build_csf",
            median_secs(REPS, || {
                CsfTensor::build(&t, &CsfTensor::order_for_output(&t, 0));
            }),
            Some(nnz),
        );
        push(
            &mut table,
            "formats/build_hicoo",
            median_secs(REPS, || {
                HicooTensor::build(&t, 5);
            }),
            Some(nnz),
        );
        let lt = LinTensor::build(&t, 1 << 17);
        let csf = CsfTensor::build(&t, &CsfTensor::order_for_output(&t, 0));
        let h = HicooTensor::build(&t, 5);
        push(
            &mut table,
            "formats/mttkrp_blco",
            median_secs(REPS, || {
                let mut out = Mat::zeros(t.dim(0) as usize, rank);
                lt.mttkrp(0, &factors, &mut out);
            }),
            Some(nnz),
        );
        push(
            &mut table,
            "formats/mttkrp_csf_root",
            median_secs(REPS, || {
                let mut out = Mat::zeros(t.dim(0) as usize, rank);
                csf.mttkrp_root(&factors, &mut out);
            }),
            Some(nnz),
        );
        push(
            &mut table,
            "formats/mttkrp_hicoo",
            median_secs(REPS, || {
                let mut out = Mat::zeros(t.dim(0) as usize, rank);
                h.mttkrp(0, &factors, &mut out);
            }),
            Some(nnz),
        );
    }

    // 4. Atomic accumulation (atomics bench): the CAS-loop `atomicAdd`
    //    analogue, uncontended and scattered.
    {
        const N: usize = 100_000;
        let cell = AtomicU32::new(0f32.to_bits());
        push(
            &mut table,
            "atomics/single_cell_serial",
            median_secs(REPS, || {
                for i in 0..N {
                    atomic_add_f32(&cell, i as f32 * 1e-9);
                }
            }),
            Some(N as u64),
        );
        let m = AtomicMat::zeros(1024, 32);
        push(
            &mut table,
            "atomics/scattered_matrix_serial",
            median_secs(REPS, || {
                for i in 0..N {
                    m.add((i * 2_654_435_761) % 1024, i % 32, 1.0);
                }
            }),
            Some(N as u64),
        );
    }

    // 5. Ring all-gather (allgather bench): functional movement at M = 4 and
    //    the pure timing model, both through the device runtime.
    {
        let m = 4usize;
        let rows = 4096;
        let rank = 32;
        let mut rt = SimRuntime::new(PlatformSpec::rtx6000_ada_node(m));
        let blocks: Vec<FactorBlock> = (0..m)
            .map(|g| FactorBlock {
                rows: ((g * rows / m) as u32..((g + 1) * rows / m) as u32).collect(),
                data: vec![g as f32; rows * rank / m].into(),
            })
            .collect();
        push(
            &mut table,
            "allgather/functional/4gpu",
            median_secs(REPS, || {
                rt.allgather_blocks(&blocks);
            }),
            None,
        );
        let bytes = vec![1_000_000u64; 4];
        push(
            &mut table,
            "allgather/timing_model",
            median_secs(REPS, || {
                rt.allgather_time(Collective::Ring, &bytes);
            }),
            None,
        );
    }

    // 6. Out-of-core streaming (stream bench): chunked `.tnsb` write and one
    //    out-of-core MTTKRP through a bounded staging budget, next to the
    //    in-core engine on the same tensor and platform.
    {
        let t = GenSpec {
            shape: vec![8_000, 2_000, 2_000],
            nnz: 150_000,
            skew: vec![0.7, 0.4, 0.0],
            seed: 13,
        }
        .generate();
        let nnz = t.nnz() as u64;
        let rank = 32;
        let mut rng = SmallRng::seed_from_u64(14);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        let platform = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
        let cfg = AmpedConfig {
            rank,
            isp_nnz: 4096,
            shard_nnz_budget: 1 << 16,
            ..AmpedConfig::default()
        };
        let dir = ScratchDir::new("bench_snapshot");
        let path = dir.join("snapshot.tnsb");
        push(
            &mut table,
            "stream/write_tnsb/150k",
            median_secs(REPS, || {
                write_tnsb(&t, &path, 16 * 1024).unwrap();
            }),
            Some(nnz),
        );
        let mut in_core = AmpedEngine::new(&t, platform.clone(), cfg.clone()).unwrap();
        push(
            &mut table,
            "stream/in_core_mttkrp/150k",
            median_secs(REPS, || {
                in_core.mttkrp_mode(0, &factors).unwrap();
            }),
            Some(nnz),
        );
        let mut ooc = OocEngine::open(&path, platform, cfg, 1 << 20).unwrap();
        push(
            &mut table,
            "stream/ooc_mttkrp/150k",
            median_secs(REPS, || {
                ooc.mttkrp_mode(0, &factors).unwrap();
            }),
            Some(nnz),
        );
    }

    // 7. Planner layer (amped-plan): nnz CCP vs cost-guided CCP through the
    //    trait on the heterogeneous 2-fast-2-slow preset, over a skewed
    //    mode-0 histogram. Cost-guided planning pays a modeled-throughput
    //    lookup per device plus an f64 bisection; the makespan win it buys
    //    on the hetero preset is printed in the throughput column.
    {
        let t = GenSpec {
            shape: vec![20_000, 4_000, 4_000],
            nnz: 200_000,
            skew: vec![0.8, 0.5, 0.5],
            seed: 3,
        }
        .generate();
        let hist = t.mode_hist(0);
        let stats = PlanStats {
            nnz: t.nnz() as u64,
        };
        let q = PlatformCostQuery::new(
            &PlatformSpec::hetero_2fast_2slow(),
            WorkloadProfile {
                order: t.order(),
                rank: 32,
                elem_bytes: t.elem_bytes(),
                isp_nnz: 8192,
            },
        );
        push(
            &mut table,
            "plan/nnz_ccp/hetero_200k",
            median_secs(REPS, || {
                NnzCcp.plan_mode(0, &hist, &stats, &q).unwrap();
            }),
            Some(hist.len() as u64),
        );
        push(
            &mut table,
            "plan/cost_guided_ccp/hetero_200k",
            median_secs(REPS, || {
                CostGuidedCcp.plan_mode(0, &hist, &stats, &q).unwrap();
            }),
            Some(hist.len() as u64),
        );
        let mk_nnz = modeled_makespan(&NnzCcp.plan_mode(0, &hist, &stats, &q).unwrap(), &hist, &q);
        let mk_cost = modeled_makespan(
            &CostGuidedCcp.plan_mode(0, &hist, &stats, &q).unwrap(),
            &hist,
            &q,
        );
        table.push(vec![
            "plan/hetero_makespan_win".to_string(),
            "—".to_string(),
            format!("{:.1}% vs nnz-ccp", (1.0 - mk_cost / mk_nnz) * 100.0),
        ]);
    }

    // 8. Cluster (multi-node): flat vs hierarchical all-gather timing on a
    //    scaled 2×4 cluster, and the in-core engine under two-level
    //    planning at 1×4 vs 2×4 — the scaling trajectory `bench_diff`
    //    tracks across PRs.
    {
        let cluster = ClusterSpec::rtx6000_ada_cluster(2, 4).scaled(1e-3);
        let mut rt = SimRuntime::cluster(cluster.clone());
        let blocks = vec![4096u64 * 32 * 4; 8]; // 512 KiB per GPU at rank 32
        push(
            &mut table,
            "cluster/allgather_flat/2x4",
            median_secs(REPS, || {
                rt.allgather_time(Collective::Ring, &blocks);
            }),
            None,
        );
        push(
            &mut table,
            "cluster/allgather_hier/2x4",
            median_secs(REPS, || {
                rt.allgather_time(Collective::HierarchicalRing, &blocks);
            }),
            None,
        );
        let flat = rt.allgather_time(Collective::Ring, &blocks);
        let hier = rt.allgather_time(Collective::HierarchicalRing, &blocks);
        table.push(vec![
            "cluster/hier_gather_win".to_string(),
            "—".to_string(),
            format!("{:.1}% vs flat ring", (1.0 - hier / flat) * 100.0),
        ]);

        let t = GenSpec {
            shape: vec![1500, 500, 500],
            nnz: 600_000,
            skew: vec![0.7, 0.4, 0.0],
            seed: 15,
        }
        .generate();
        let nnz = t.nnz() as u64;
        let rank = 32;
        let mut rng = SmallRng::seed_from_u64(16);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        let cfg = AmpedConfig {
            rank,
            isp_nnz: 2048,
            shard_nnz_budget: 16_384,
            gather: amped_core::GatherAlgo::Hierarchical,
            ..AmpedConfig::default()
        };
        let mut sim_walls = Vec::new();
        for nodes in [1usize, 2] {
            let c = ClusterSpec::rtx6000_ada_cluster(nodes, 4).scaled(1e-3);
            let planner = HierarchicalCcp::from_cluster(&c);
            let mut e = AmpedEngine::with_planner(
                &t,
                Box::new(SimRuntime::cluster(c)),
                cfg.clone(),
                &planner,
            )
            .unwrap();
            push(
                &mut table,
                &format!("cluster/engine_mttkrp/{nodes}x4"),
                median_secs(REPS, || {
                    e.mttkrp_mode(0, &factors).unwrap();
                }),
                Some(nnz),
            );
            let (_, timing) = e.mttkrp_mode(0, &factors).unwrap();
            sim_walls.push(timing.wall);
        }
        table.push(vec![
            "cluster/sim_speedup_2x4_vs_1x4".to_string(),
            "—".to_string(),
            format!("{:.2}x modeled", sim_walls[0] / sim_walls[1]),
        ]);
    }

    // 9. Observability (amped-obs): the same in-core MTTKRP with and
    //    without metrics + tracing attached. The pair feeds the overhead
    //    contract CI gates with `bench_diff --assert-within` — the
    //    instrumented run must stay within 5% of the uninstrumented one —
    //    plus informational modeled-vs-measured calibration ratios.
    {
        use amped_bench::calibration::calibrate;
        use amped_runtime::TracingRuntime;
        use amped_sim::obs::MetricsRegistry;

        let t = GenSpec {
            shape: vec![4_000, 1_500, 1_500],
            nnz: 200_000,
            skew: vec![0.6, 0.3, 0.3],
            seed: 17,
        }
        .generate();
        let nnz = t.nnz() as u64;
        let rank = 32;
        let mut rng = SmallRng::seed_from_u64(18);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        let cfg = AmpedConfig {
            rank,
            isp_nnz: 2048,
            shard_nnz_budget: 16_384,
            ..AmpedConfig::default()
        };
        let spec = PlatformSpec::rtx6000_ada_node(4).scaled(1e-3);

        let mut plain =
            AmpedEngine::with_runtime(&t, Box::new(SimRuntime::new(spec.clone())), cfg.clone())
                .unwrap();
        let plain_s = median_secs(REPS, || {
            plain.mttkrp_mode(0, &factors).unwrap();
        });
        push(&mut table, "obs/mttkrp_uninstrumented", plain_s, Some(nnz));

        let registry = MetricsRegistry::new();
        let rt = TracingRuntime::new(SimRuntime::new(spec.clone()).with_metrics(registry.clone()));
        let mut traced = AmpedEngine::with_runtime(&t, Box::new(rt), cfg.clone()).unwrap();
        let traced_s = median_secs(REPS, || {
            traced.mttkrp_mode(0, &factors).unwrap();
        });
        push(&mut table, "obs/mttkrp_instrumented", traced_s, Some(nnz));
        table.push(vec![
            "obs/tracing_overhead".to_string(),
            "—".to_string(),
            format!(
                "{:+.1}% instrumented vs plain",
                (traced_s / plain_s - 1.0) * 100.0
            ),
        ]);

        let rep = calibrate(&t, spec, cfg, 19).unwrap();
        if let Some(launch) = rep.rows.iter().find(|r| r.op == "launch") {
            table.push(vec![
                "obs/calibration_launch_ratio".to_string(),
                "—".to_string(),
                match launch.ratio() {
                    Some(x) => format!("{x:.4} modeled/measured"),
                    None => "—".to_string(),
                },
            ]);
        }
        table.push(vec![
            "obs/calibration_wall_ratio".to_string(),
            "—".to_string(),
            match rep.wall_ratio() {
                Some(x) => format!("{x:.4} modeled/measured"),
                None => "—".to_string(),
            },
        ]);
        table.push(vec![
            "obs/straggler_imbalance".to_string(),
            "—".to_string(),
            format!("{:.3} max/mean busy", rep.straggler.imbalance_ratio()),
        ]);
    }

    emit(
        out_dir,
        &name,
        &format!("Benchmark snapshot `{name}` (median of {REPS} reps)"),
        &table,
        serde_json::json!({
            "label": name,
            "reps": REPS,
            "method": "median wall time after one warm-up",
            "host_workers": amped_sim::host_workers() as u64,
        }),
    );
}
