//! Heterogeneous-platform scenario: on a node mixing fast and slow GPUs
//! (`PlatformSpec::hetero_2fast_2slow`), cost-guided CCP must beat
//! nnz-equal CCP on simulated makespan, and the engine must execute the
//! cost-guided plan correctly.

mod common;

use amped::prelude::*;
use rand::SeedableRng;

/// The seeded Zipf tensor of the acceptance scenario.
fn zipf_tensor() -> SparseTensor {
    GenSpec {
        shape: vec![3000, 400, 400],
        nnz: 400_000,
        skew: vec![1.1, 0.4, 0.0],
        seed: 4242,
    }
    .generate()
}

fn hetero_cost(t: &SparseTensor, rank: usize, isp_nnz: usize) -> PlatformCostQuery {
    PlatformCostQuery::new(
        &PlatformSpec::hetero_2fast_2slow(),
        WorkloadProfile {
            order: t.order(),
            rank,
            elem_bytes: t.elem_bytes(),
            isp_nnz,
        },
    )
}

#[test]
fn cost_guided_ccp_cuts_modeled_makespan_by_15_percent() {
    let t = zipf_tensor();
    let q = hetero_cost(&t, 32, 8192);
    let stats = PlanStats {
        nnz: t.nnz() as u64,
    };
    for d in 0..t.order() {
        let hist = t.mode_hist(d);
        let by_nnz = NnzCcp.plan_mode(d, &hist, &stats, &q).unwrap();
        let by_cost = CostGuidedCcp.plan_mode(d, &hist, &stats, &q).unwrap();
        let mk_nnz = modeled_makespan(&by_nnz, &hist, &q);
        let mk_cost = modeled_makespan(&by_cost, &hist, &q);
        assert!(
            mk_cost <= 0.85 * mk_nnz,
            "mode {d}: cost-guided makespan {mk_cost:.6} must be ≥15% under \
             nnz-equal {mk_nnz:.6} on the 2-fast-2-slow platform"
        );
        // Fast devices (0, 1) must own more nonzeros than slow ones (2, 3).
        let loads = by_cost.loads(&hist);
        assert!(
            loads[0] > loads[2] && loads[1] > loads[3],
            "mode {d}: fast devices should carry more work: {loads:?}"
        );
    }
}

#[test]
fn homogeneous_platform_makes_cost_guided_equal_nnz_ccp() {
    // With identical devices the two policies optimize the same objective:
    // same per-device loads (ranges may differ only by tie-breaking).
    let t = zipf_tensor();
    let q = PlatformCostQuery::new(
        &PlatformSpec::rtx6000_ada_node(4),
        WorkloadProfile {
            order: t.order(),
            rank: 32,
            elem_bytes: t.elem_bytes(),
            isp_nnz: 8192,
        },
    );
    let stats = PlanStats {
        nnz: t.nnz() as u64,
    };
    for d in 0..t.order() {
        let hist = t.mode_hist(d);
        let by_nnz = NnzCcp.plan_mode(d, &hist, &stats, &q).unwrap();
        let by_cost = CostGuidedCcp.plan_mode(d, &hist, &stats, &q).unwrap();
        let max_nnz = by_nnz.loads(&hist).into_iter().max().unwrap();
        let max_cost = by_cost.loads(&hist).into_iter().max().unwrap();
        assert_eq!(
            max_nnz, max_cost,
            "mode {d}: homogeneous cost-guided CCP must match nnz CCP's bottleneck"
        );
    }
}

#[test]
fn engine_runs_cost_guided_plan_faster_and_correct_on_hetero_node() {
    let t = zipf_tensor();
    let cfg = AmpedConfig {
        rank: 32,
        isp_nnz: 2048,
        shard_nnz_budget: 16_384,
    };
    let spec = PlatformSpec::hetero_2fast_2slow().scaled(1e-3);
    let mut by_nnz = AmpedEngine::with_planner(
        &t,
        Box::new(SimRuntime::new(spec.clone())),
        cfg.clone(),
        &NnzCcp,
    )
    .unwrap();
    let mut by_cost = AmpedEngine::with_planner(
        &t,
        Box::new(SimRuntime::new(spec)),
        cfg.clone(),
        &CostGuidedCcp,
    )
    .unwrap();

    let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, cfg.rank, &mut rng))
        .collect();
    let want = mttkrp_ref(&t, &factors, 0);

    let (out_nnz, t_nnz) = by_nnz.mttkrp_mode(0, &factors).unwrap();
    let (out_cost, t_cost) = by_cost.mttkrp_mode(0, &factors).unwrap();
    // Both plans compute the same MTTKRP.
    assert!(out_nnz.approx_eq(&want, 1e-3, 1e-4));
    assert!(out_cost.approx_eq(&want, 1e-3, 1e-4));
    // And the cost-guided plan finishes the mode measurably sooner.
    assert!(
        t_cost.wall < 0.9 * t_nnz.wall,
        "cost-guided wall {:.6} should undercut nnz-equal wall {:.6} by ≥10%",
        t_cost.wall,
        t_nnz.wall
    );
}

#[test]
fn ooc_engine_accepts_cost_guided_planner_on_hetero_node() {
    let t = GenSpec {
        shape: vec![600, 200, 200],
        nnz: 30_000,
        skew: vec![1.0, 0.3, 0.0],
        seed: 555,
    }
    .generate();
    let dir = common::ScratchDir::new("planner_hetero");
    let path = dir.join("hetero.tnsb");
    write_tnsb(&t, &path, 2048).unwrap();
    let cfg = AmpedConfig {
        rank: 16,
        isp_nnz: 1024,
        shard_nnz_budget: 2048,
    };
    let spec = PlatformSpec::hetero_2fast_2slow().scaled(1e-3);
    let budget = 2048 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let mut e = OocEngine::with_planner(
        &path,
        Box::new(SimRuntime::new(spec)),
        cfg.clone(),
        budget,
        &CostGuidedCcp,
    )
    .unwrap();
    // Fast devices own more rows than slow ones under the cost-guided plan.
    for d in 0..t.order() {
        let loads = e.plan().modes[d].gpu_loads();
        assert!(
            loads[0] > loads[2],
            "mode {d}: fast device should own more nonzeros: {loads:?}"
        );
    }
    let mut rng = rand::rngs::SmallRng::seed_from_u64(78);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, cfg.rank, &mut rng))
        .collect();
    let (out, _) = e.mttkrp_mode(0, &factors).unwrap();
    assert!(out.approx_eq(&mttkrp_ref(&t, &factors, 0), 1e-3, 1e-4));
}
