//! Property test: for random tensors, shapes, GPU counts, shard/ISP
//! granularities and chunk capacities, the engine over either source agrees
//! with the sequential reference, and every GPU's time buckets add up to
//! the mode's wall.

mod common;

use amped::prelude::*;
use amped::stream::read_tnsb_meta;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
    #[test]
    fn engine_matches_reference_for_random_configs(
        dim0 in 8u32..120,
        dim1 in 8u32..60,
        dim2 in 8u32..60,
        nnz in 50usize..1500,
        gpus in 1usize..9,
        shard_budget in 64usize..2048,
        isp in 16usize..512,
        skew in 0.0f64..1.2,
        seed in 0u64..10_000,
        chunk in 16usize..1024,
        budget_chunks in 2u64..5,
    ) {
        prop_assume!(shard_budget >= isp);
        let t = GenSpec {
            shape: vec![dim0, dim1, dim2],
            nnz,
            skew: vec![skew, 0.0, skew / 2.0],
            seed,
        }
        .generate();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
        let factors: Vec<Mat> =
            t.shape().iter().map(|&d| Mat::random(d as usize, 8, &mut rng)).collect();
        let cfg = AmpedConfig {
            rank: 8,
            isp_nnz: isp,
            shard_nnz_budget: shard_budget,
        };
        let platform = PlatformSpec::rtx6000_ada_node(gpus).scaled(1e-3);
        let mut engine = AmpedEngine::new(&t, platform.clone(), cfg.clone()).unwrap();
        // The streamed source over the same tensor, through a staging budget
        // of at least two of its largest section chunks.
        let dir = common::ScratchDir::new("prop_engine");
        let path = dir.join("t.tnsb");
        write_tnsb(&t, &path, chunk).unwrap();
        let meta = &read_tnsb_meta(&path).unwrap();
        let largest = (0..3)
            .flat_map(|d| (0..meta.num_chunks()).map(move |c| meta.section_chunk_bytes(d, c)))
            .max()
            .unwrap();
        let mut ooc = OocEngine::open(&path, platform, cfg, budget_chunks * largest).unwrap();
        let mode = (seed % 3) as usize;
        let want = mttkrp_ref(&t, &factors, mode);
        let runs = [
            ("in core", engine.mttkrp_mode(mode, &factors).unwrap()),
            ("streamed", ooc.mttkrp_mode(mode, &factors).unwrap()),
        ];
        for (source, (out, timing)) in runs {
            prop_assert!(
                out.approx_eq(&want, 2e-3, 1e-3),
                "{source}: max diff {} (gpus={gpus}, budget={shard_budget}, isp={isp}, \
                 chunk={chunk})",
                out.max_abs_diff(&want)
            );
            prop_assert!(timing.wall > 0.0);
            // Every component non-negative, and together they are the wall.
            for (g, b) in timing.per_gpu.iter().enumerate() {
                prop_assert!(b.compute >= 0.0 && b.h2d >= 0.0 && b.p2p >= 0.0 && b.idle >= 0.0);
                let total = b.compute + b.h2d + b.idle + b.p2p;
                prop_assert!(
                    (total - timing.wall).abs() <= 1e-9 * timing.wall.max(1e-30),
                    "{source}: GPU {g} buckets {total:e} against wall {:e}",
                    timing.wall
                );
            }
        }
    }
}
