//! In-core vs out-of-core MTTKRP throughput.
//!
//! The out-of-core engine pays for streaming twice — real chunk I/O from
//! disk and the atomic-serialization cost of unsorted chunk payloads — so
//! this bench tracks how much of the in-core throughput survives at several
//! host staging budgets (each budget fixes its chunk capacity at 40% of the
//! budget: payload + coordinate scratch must fit).

use amped_bench::ScratchDir;
use amped_core::{AmpedConfig, AmpedEngine, OocEngine};
use amped_linalg::Mat;
use amped_sim::PlatformSpec;
use amped_stream::write_tnsb;
use amped_tensor::gen::GenSpec;
use amped_tensor::SparseTensor;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tensor() -> SparseTensor {
    GenSpec {
        shape: vec![8_000, 2_000, 2_000],
        nnz: 150_000,
        skew: vec![0.7, 0.4, 0.0],
        seed: 13,
    }
    .generate()
}

fn cfg() -> AmpedConfig {
    AmpedConfig {
        rank: 32,
        isp_nnz: 4096,
        shard_nnz_budget: 1 << 16,
        ..AmpedConfig::default()
    }
}

fn bench_stream(c: &mut Criterion) {
    let t = tensor();
    let dir = ScratchDir::new("stream_bench");
    let platform = PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);
    let mut rng = SmallRng::seed_from_u64(14);
    let factors: Vec<Mat> = t
        .shape()
        .iter()
        .map(|&d| Mat::random(d as usize, 32, &mut rng))
        .collect();

    let mut group = c.benchmark_group("stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(t.nnz() as u64));

    // Baseline: the in-core engine on the same tensor and platform.
    let mut in_core = AmpedEngine::new(&t, platform.clone(), cfg()).unwrap();
    group.bench_function("in_core_mttkrp", |b| {
        b.iter(|| in_core.mttkrp_mode(0, &factors).unwrap());
    });

    // Out-of-core at shrinking staging budgets. Chunk capacity tracks the
    // budget (payload 4N+4 B/elem + scratch 4N B/elem must fit), so a
    // smaller budget means finer chunks and more streaming overhead.
    for budget_kib in [2048u64, 512, 128] {
        let budget = budget_kib * 1024;
        let elem_cost = t.elem_bytes() + t.order() as u64 * 4;
        let chunk_capacity = (budget * 2 / 5 / elem_cost) as usize;
        let path = dir.join(&format!("bench_{budget_kib}k.tnsb"));
        write_tnsb(&t, &path, chunk_capacity).unwrap();
        let mut ooc = OocEngine::open(&path, platform.clone(), cfg(), budget).unwrap();
        group.bench_function(format!("ooc_mttkrp/budget_{budget_kib}KiB"), |b| {
            b.iter(|| ooc.mttkrp_mode(0, &factors).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stream);
criterion_main!(benches);
