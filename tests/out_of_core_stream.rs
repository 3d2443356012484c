//! Out-of-core acceptance: the `amped-stream` pipeline decomposes tensors
//! whose nonzero footprint exceeds the simulated host memory, where the
//! in-core engine correctly reports out-of-memory — and on tensors both
//! paths can hold, the two engines agree.

mod common;

use amped::prelude::*;

/// The headline scenario: a tensor whose per-mode host copies do not fit in
/// the (scaled) host memory. The in-core engine must fail with the same
/// out-of-memory arithmetic the paper's Figure 5 baselines hit, while the
/// out-of-core engine — holding only a bounded staging budget — completes a
/// full ALS iteration.
#[test]
fn ooc_succeeds_where_in_core_hits_host_oom() {
    // Scaled platform: host = 1.5 TB × 2e-5 = 30 MB, GPU = 48 GB × 2e-5 ≈ 1 MB.
    let scale = 2e-5;
    let platform = PlatformSpec::rtx6000_ada_node(2).scaled(scale);
    let t = GenSpec {
        shape: vec![2000, 1500, 1200],
        nnz: 700_000,
        skew: vec![0.7, 0.4, 0.0],
        seed: 42,
    }
    .generate();
    // COO payload ≈ 11.2 MB; the in-core plan stores one copy per mode
    // (≈ 33.6 MB) and must exceed the 30 MB host pool.
    let host_bytes = platform.host.mem_bytes;
    assert!(
        3 * t.bytes() > host_bytes,
        "scenario broken: {} B of copies fit in {host_bytes} B of host memory",
        3 * t.bytes()
    );

    let cfg = AmpedConfig {
        rank: 8,
        isp_nnz: 1024,
        shard_nnz_budget: 8192,
    };

    // In-core: out-of-memory on the host pool.
    let err = AmpedEngine::new(&t, platform.clone(), cfg.clone()).unwrap_err();
    assert!(err.is_oom(), "in-core engine should OOM, got {err}");

    // Out-of-core: 16 Ki-element chunks (256 KB payload) rotating through a
    // 1 MB staging budget — 3% of the tensor's own footprint.
    let dir = common::ScratchDir::new("ooc_integration");
    let path = dir.join("oversize.tnsb");
    let chunk_capacity = 16 * 1024;
    write_tnsb(&t, &path, chunk_capacity).unwrap();
    let stage_budget = 1 << 20;
    assert!(
        stage_budget < t.bytes(),
        "budget must be far below the tensor"
    );
    let mut ooc = OocEngine::open(&path, platform, cfg, stage_budget).unwrap();
    let opts = AlsOptions {
        max_iters: 1,
        tol: 0.0,
        seed: 9,
        ..Default::default()
    };
    let res = cp_als(&mut ooc, &opts).unwrap();
    assert_eq!(res.iterations, 1);
    assert_eq!(res.factors.len(), 3);
    assert!(res.fits[0].is_finite());
    assert!(res.report.total_time > 0.0);
    // The staging high-water mark stayed within the configured budget.
    assert!(ooc.stage_peak() <= stage_budget);
}

/// On a small tensor both engines can hold, one ALS iteration from the same
/// seed must produce the same factors to 1e-6 — the out-of-core data path is
/// a different execution order over the same arithmetic.
#[test]
fn ooc_matches_in_core_factors_on_small_tensor() {
    let platform = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
    let t = GenSpec::uniform(vec![24, 18, 15], 800, 7).generate();
    let cfg = AmpedConfig {
        rank: 4,
        isp_nnz: 128,
        shard_nnz_budget: 512,
    };
    let opts = AlsOptions {
        max_iters: 1,
        tol: 0.0,
        seed: 3,
        ..Default::default()
    };

    let mut in_core = AmpedEngine::new(&t, platform.clone(), cfg.clone()).unwrap();
    let reference = cp_als(&mut in_core, &opts).unwrap();

    let dir = common::ScratchDir::new("ooc_integration");
    let path = dir.join("small.tnsb");
    write_tnsb(&t, &path, 100).unwrap();
    let mut ooc = OocEngine::open(&path, platform, cfg, 1 << 20).unwrap();
    let streamed = cp_als(&mut ooc, &opts).unwrap();

    assert_eq!(streamed.iterations, reference.iterations);
    for (d, (a, b)) in streamed.factors.iter().zip(&reference.factors).enumerate() {
        assert!(
            a.approx_eq(b, 1e-6, 1e-6),
            "mode {d} factors diverge: max diff {}",
            a.max_abs_diff(b)
        );
    }
    for (ls, lr) in streamed.lambda.iter().zip(&reference.lambda) {
        assert!(
            (ls - lr).abs() <= 1e-5 * lr.abs().max(1.0),
            "λ diverged: {ls} vs {lr}"
        );
    }
    assert!((streamed.fits[0] - reference.fits[0]).abs() < 1e-6);
}

/// `.tns` text converts to `.tnsb` without materializing, and the converted
/// file decomposes to the same result as the original tensor.
#[test]
fn tns_conversion_feeds_the_ooc_engine() {
    let t = GenSpec::uniform(vec![40, 30, 20], 1500, 11).generate();
    let dir = common::ScratchDir::new("ooc_integration");
    let tns = dir.join("conv.tns");
    let tnsb = dir.join("conv.tnsb");
    io::write_tns_file(&t, &tns).unwrap();
    let meta = convert_tns_to_tnsb(&tns, &tnsb, 256).unwrap();
    assert_eq!(meta.nnz, t.nnz() as u64);

    let cfg = AmpedConfig {
        rank: 4,
        isp_nnz: 128,
        shard_nnz_budget: 512,
    };
    let mut e = OocEngine::open(
        &tnsb,
        PlatformSpec::rtx6000_ada_node(2).scaled(1e-3),
        cfg,
        1 << 20,
    )
    .unwrap();
    let res = cp_als(
        &mut e,
        &AlsOptions {
            max_iters: 2,
            tol: 0.0,
            seed: 1,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(res.iterations, 2);
    assert!(res.fits.iter().all(|f| f.is_finite()));
}
