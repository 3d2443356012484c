//! Elementwise-computation kernel throughput (real wall time) vs rank.
//!
//! This is the per-nonzero cost of the paper's §3.0.1 elementwise
//! computation on the host reference kernels — real measured throughput, not
//! simulated time.

use amped_core::reference::{mttkrp_privatized, mttkrp_ref};
use amped_linalg::Mat;
use amped_tensor::gen::GenSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_ec(c: &mut Criterion) {
    let t = GenSpec::uniform(vec![10_000, 5_000, 5_000], 200_000, 1).generate();
    let mut group = c.benchmark_group("ec_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(t.nnz() as u64));
    for &rank in &[8usize, 16, 32, 64] {
        let mut rng = SmallRng::seed_from_u64(2);
        let factors: Vec<Mat> = t
            .shape()
            .iter()
            .map(|&d| Mat::random(d as usize, rank, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("sequential", rank), &rank, |b, _| {
            b.iter(|| mttkrp_ref(&t, &factors, 0));
        });
        group.bench_with_input(
            BenchmarkId::new("parallel_privatized", rank),
            &rank,
            |b, _| {
                b.iter(|| mttkrp_privatized(&t, &factors, 0));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ec);
criterion_main!(benches);
