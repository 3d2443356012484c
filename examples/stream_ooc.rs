//! Out-of-core decomposition: a tensor whose host-memory footprint exceeds
//! the (scaled) host pool is decomposed from disk through `amped-stream`,
//! while the in-core engine hits the out-of-memory wall.
//!
//! ```text
//! cargo run --release --example stream_ooc
//! ```

use amped::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // Scaled platform: host 1.5 TB → 30 MB, GPU 48 GB → ≈1 MB.
    let scale = 2e-5;
    let platform = PlatformSpec::rtx6000_ada_node(2).scaled(scale);
    let tensor = GenSpec {
        shape: vec![2000, 1500, 1200],
        nnz: 700_000,
        skew: vec![0.7, 0.4, 0.0],
        seed: 42,
    }
    .generate();
    println!(
        "tensor: {:?}, {} nnz, COO payload {:.1} MiB",
        tensor.shape(),
        tensor.nnz(),
        tensor.bytes() as f64 / (1 << 20) as f64
    );
    println!(
        "host memory: {:.1} MiB — the in-core plan needs {:.1} MiB (one copy per mode)",
        platform.host.mem_bytes as f64 / (1 << 20) as f64,
        3.0 * tensor.bytes() as f64 / (1 << 20) as f64
    );

    let cfg = AmpedConfig {
        rank: 8,
        isp_nnz: 1024,
        shard_nnz_budget: 8192,
    };

    // --- In-core: the host pool cannot hold the per-mode copies.
    match AmpedEngine::new(&tensor, platform.clone(), cfg.clone()) {
        Ok(_) => println!("in-core engine: unexpectedly fit"),
        Err(e) => println!("\nin-core engine: runtime error — {e}"),
    }

    // --- Out-of-core: chunk the tensor to disk, stream through a 1 MB
    // staging budget (3% of the tensor's own footprint).
    // A directory of this process alone: two concurrent runs must not share
    // (or delete) each other's file.
    let nanos = std::time::UNIX_EPOCH
        .elapsed()
        .map_or(0, |d| d.subsec_nanos());
    let dir = std::env::temp_dir().join(format!(
        "amped_stream_ooc_example_{}_{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("oversize.tnsb");
    let meta = write_tnsb(&tensor, &path, 16 * 1024).unwrap();
    println!(
        "\nwrote {}: {} chunks of ≤{} elements ({:.0} KiB each), in file order and \
         once per mode\nin that mode's sorted order — {:.1} MiB on disk",
        path.display(),
        meta.num_chunks(),
        meta.chunk_capacity,
        (meta.chunk_capacity * meta.elem_bytes()) as f64 / 1024.0,
        std::fs::metadata(&path).unwrap().len() as f64 / (1 << 20) as f64
    );

    let stage_budget = 1 << 20;
    let mut engine = OocEngine::open(&path, platform, cfg, stage_budget).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let factors: Vec<Mat> = tensor
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, 8, &mut rng))
        .collect();
    for d in 0..tensor.order() {
        let (out, _) = engine.mttkrp_mode(d, &factors).unwrap();
        assert!(
            out.approx_eq(&mttkrp_ref(&tensor, &factors, d), 1e-3, 1e-4),
            "streamed mode {d} must match the sequential reference"
        );
    }
    println!("every mode, streamed from its sorted section, matches the sequential reference ✓");
    let opts = AlsOptions {
        max_iters: 2,
        tol: 0.0,
        seed: 9,
        ..Default::default()
    };
    let res = cp_als(&mut engine, &opts).unwrap();
    println!(
        "out-of-core CP-ALS: {} iterations, fit trace {:?}",
        res.iterations,
        res.fits
            .iter()
            .map(|f| (f * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "simulated MTTKRP time {:.3} ms, streaming preprocessing {:.3} s",
        res.report.total_time * 1e3,
        res.report.preprocess_wall
    );
    println!(
        "staging peak {:.0} KiB of a {:.0} KiB budget; GPU peak {:.0} KiB",
        engine.stage_peak() as f64 / 1024.0,
        stage_budget as f64 / 1024.0,
        engine.gpu_mem_peak() as f64 / 1024.0
    );
    println!(
        "\nThe tensor never fit in host memory — chunks rotated from disk \
         through the staging budget,\neach GPU pulling only the slices whose \
         output rows it owns."
    );
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
    println!("removed {} ✓", dir.display());
}
