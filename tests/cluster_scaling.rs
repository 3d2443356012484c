//! Multi-node cluster scenario: the acceptance suite for hierarchical
//! collectives and two-level planning.
//!
//! * On a scaled 2×4 cluster the hierarchical all-gather must cut ≥20% off
//!   the flat ring crossing the slow inter-node link.
//! * Engine walls must improve monotonically from 1×4 to 2×4 to 4×4 on a
//!   tensor large enough to keep compute on the critical path.
//! * Every cluster-run factor must match the sequential COO oracle — the
//!   hierarchy changes the schedule, never the data.

mod common;

use amped::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SmallRng::seed_from_u64(seed);
    t.shape()
        .iter()
        .map(|&d| Mat::random(d as usize, rank, &mut rng))
        .collect()
}

#[test]
fn hierarchical_gather_cuts_scaled_2x4_time_by_20_percent() {
    let cluster = ClusterSpec::rtx6000_ada_cluster(2, 4).scaled(1e-3);
    let mut rt = SimRuntime::cluster(cluster);
    // Each GPU contributes 4096 output rows at rank 32 (512 KiB blocks) —
    // the bulk regime where bandwidth, not latency, decides.
    let blocks = vec![4096u64 * 32 * 4; 8];
    let flat = rt.allgather_time(Collective::Ring, &blocks);
    let hier = rt.allgather_time(Collective::HierarchicalRing, &blocks);
    assert!(
        hier <= 0.8 * flat,
        "hierarchical all-gather ({hier:.3e}s) must cut ≥20% off the flat ring \
         ({flat:.3e}s) on the 2×4 cluster"
    );
    // And the flat ring really is inter-node-bound: slower than the same
    // blocks on a single 8-GPU node's P2P ring.
    let mut single = SimRuntime::new(PlatformSpec::rtx6000_ada_node(8).scaled(1e-3));
    let intra = single.allgather_time(Collective::Ring, &blocks);
    assert!(flat > intra, "flat {flat:.3e} vs intra-node {intra:.3e}");
}

/// Builds the cluster engine for a shape: `HierarchicalCcp` planning plus
/// the hierarchical gather, through the unchanged `AmpedEngine`.
fn cluster_engine(t: &SparseTensor, nodes: usize, gpus_per_node: usize) -> AmpedEngine {
    let cluster = ClusterSpec::rtx6000_ada_cluster(nodes, gpus_per_node).scaled(1e-3);
    let planner = HierarchicalCcp::from_cluster(&cluster);
    let cfg = AmpedConfig {
        rank: 32,
        isp_nnz: 2048,
        shard_nnz_budget: 16_384,
        gather: GatherAlgo::Hierarchical,
        ..Default::default()
    };
    AmpedEngine::with_planner(t, Box::new(SimRuntime::cluster(cluster)), cfg, &planner)
        .expect("cluster engine must construct")
}

#[test]
fn cluster_walls_scale_from_1x4_to_2x4_to_4x4() {
    // Compute-heavy, gather-light: 600k nonzeros against a 1500-row output
    // mode keep the elementwise computation on the critical path, which is
    // the regime where adding nodes pays (a gather-bound mode cannot scale
    // past the inter-node link, hierarchical or not).
    let t = GenSpec {
        shape: vec![1500, 500, 500],
        nnz: 600_000,
        skew: vec![0.7, 0.4, 0.0],
        seed: 901,
    }
    .generate();
    let factors = factors_for(&t, 32, 902);
    let mut walls = Vec::new();
    for nodes in [1usize, 2, 4] {
        let mut e = cluster_engine(&t, nodes, 4);
        let (_, timing) = e.mttkrp_mode(0, &factors).unwrap();
        walls.push(timing.wall);
    }
    assert!(walls[1] < walls[0], "2×4 must beat 1×4: {walls:?}");
    assert!(walls[2] < walls[1], "4×4 must beat 2×4: {walls:?}");
}

#[test]
fn hierarchical_gather_beats_flat_ring_inside_the_engine() {
    // Same cluster, same plan, only the collective differs: the mode wall
    // under the hierarchical gather must undercut the flat ring once blocks
    // cross the inter-node link.
    let t = GenSpec {
        shape: vec![20_000, 400, 400],
        nnz: 150_000,
        skew: vec![0.6, 0.3, 0.0],
        seed: 903,
    }
    .generate();
    let factors = factors_for(&t, 32, 904);
    let cluster = ClusterSpec::rtx6000_ada_cluster(2, 4).scaled(1e-3);
    let planner = HierarchicalCcp::from_cluster(&cluster);
    let cfg = AmpedConfig {
        rank: 32,
        isp_nnz: 2048,
        shard_nnz_budget: 16_384,
        ..Default::default()
    };
    let mut flat = AmpedEngine::with_planner(
        &t,
        Box::new(SimRuntime::cluster(cluster.clone())),
        AmpedConfig {
            gather: GatherAlgo::Ring,
            ..cfg.clone()
        },
        &planner,
    )
    .unwrap();
    let mut hier = AmpedEngine::with_planner(
        &t,
        Box::new(SimRuntime::cluster(cluster)),
        AmpedConfig {
            gather: GatherAlgo::Hierarchical,
            ..cfg
        },
        &planner,
    )
    .unwrap();
    let (_, t_flat) = flat.mttkrp_mode(0, &factors).unwrap();
    let (_, t_hier) = hier.mttkrp_mode(0, &factors).unwrap();
    assert!(
        t_hier.wall < t_flat.wall,
        "hierarchical gather wall {:.3e} must beat flat ring wall {:.3e}",
        t_hier.wall,
        t_flat.wall
    );
    // Identical plans and kernels: compute buckets agree exactly.
    for (a, b) in t_hier.per_gpu.iter().zip(&t_flat.per_gpu) {
        assert_eq!(a.compute, b.compute);
    }
}

#[test]
fn cluster_factors_match_the_sequential_coo_oracle() {
    // Single-block grids (isp_nnz ≥ shard budget) keep the f32 accumulation
    // order deterministic per shard; the cluster run must then agree with
    // the sequential COO oracle to 1e-6.
    let t = GenSpec {
        shape: vec![600, 220, 180],
        nnz: 4000,
        skew: vec![0.5, 0.2, 0.0],
        seed: 905,
    }
    .generate();
    let factors = factors_for(&t, 16, 906);
    let cluster = ClusterSpec::rtx6000_ada_cluster(2, 2).scaled(1e-3);
    let planner = HierarchicalCcp::from_cluster(&cluster);
    let cfg = AmpedConfig {
        rank: 16,
        isp_nnz: 1024,
        shard_nnz_budget: 1024,
        gather: GatherAlgo::Hierarchical,
        ..Default::default()
    };
    let mut e =
        AmpedEngine::with_planner(&t, Box::new(SimRuntime::cluster(cluster)), cfg, &planner)
            .unwrap();
    for d in 0..t.order() {
        let (out, timing) = e.mttkrp_mode(d, &factors).unwrap();
        let want = mttkrp_ref(&t, &factors, d);
        assert!(
            out.approx_eq(&want, 1e-6, 1e-6),
            "mode {d}: cluster factors must match the COO oracle to 1e-6, max diff {}",
            out.max_abs_diff(&want)
        );
        assert_eq!(timing.per_gpu.len(), 4);
    }
}

#[test]
fn ooc_engine_runs_on_a_cluster_runtime() {
    // The out-of-core engine also executes a cluster plan unchanged: chunks
    // scatter to per-node hosts, factors still match the oracle.
    let t = GenSpec {
        shape: vec![400, 150, 150],
        nnz: 20_000,
        skew: vec![0.6, 0.2, 0.0],
        seed: 907,
    }
    .generate();
    let dir = common::ScratchDir::new("cluster_scaling");
    let path = dir.join("cluster.tnsb");
    write_tnsb(&t, &path, 2048).unwrap();
    let cluster = ClusterSpec::rtx6000_ada_cluster(2, 2).scaled(1e-3);
    let planner = HierarchicalCcp::from_cluster(&cluster);
    let cfg = AmpedConfig {
        rank: 16,
        isp_nnz: 1024,
        shard_nnz_budget: 2048,
        gather: GatherAlgo::Hierarchical,
        ..Default::default()
    };
    let budget = 2048 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let factors = factors_for(&t, 16, 908);
    let mut e = OocEngine::with_planner(
        &path,
        Box::new(SimRuntime::cluster(cluster)),
        cfg,
        budget,
        &planner,
    )
    .unwrap();
    let (out, timing) = OocEngine::mttkrp_mode(&mut e, 0, &factors).unwrap();
    assert!(out.approx_eq(&mttkrp_ref(&t, &factors, 0), 1e-3, 1e-4));
    assert!(timing.wall > 0.0);
}

#[test]
fn hierarchical_plan_keeps_node_slices_contiguous() {
    // The property the cheap inter-node exchange rests on: every node's
    // GPUs own one contiguous run of the output-index space.
    let t = GenSpec::uniform(vec![3000, 200, 200], 50_000, 909).generate();
    let cluster = ClusterSpec::rtx6000_ada_cluster(2, 4);
    let planner = HierarchicalCcp::from_cluster(&cluster);
    let q = PlatformCostQuery::new(
        &cluster.flatten(),
        WorkloadProfile {
            order: 3,
            rank: 32,
            elem_bytes: t.elem_bytes(),
            isp_nnz: 2048,
        },
    );
    let stats = PlanStats {
        nnz: t.nnz() as u64,
    };
    for d in 0..t.order() {
        let hist = t.mode_hist(d);
        let a = planner.plan_mode(d, &hist, &stats, &q).unwrap();
        a.validate(t.dim(d) as u64).unwrap();
        // Node slices: GPUs 0–3 then 4–7, each contiguous by construction;
        // both nodes carry real work on a uniform histogram.
        let loads = a.loads(&hist);
        let node0: u64 = loads[..4].iter().sum();
        let node1: u64 = loads[4..].iter().sum();
        assert!(node0 > 0 && node1 > 0, "mode {d}: {loads:?}");
    }
}
