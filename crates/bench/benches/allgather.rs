//! Ring all-gather through the device runtime: functional data movement
//! cost vs GPU count and block size (Algorithm 3's host-side analogue).

use amped_runtime::{Collective, DeviceRuntime, FactorBlock, SimRuntime};
use amped_sim::PlatformSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_allgather(c: &mut Criterion) {
    let mut group = c.benchmark_group("allgather");
    for &m in &[2usize, 4, 8] {
        let rows = 4096;
        let rank = 32;
        let mut rt = SimRuntime::new(PlatformSpec::rtx6000_ada_node(m));
        let blocks: Vec<FactorBlock> = (0..m)
            .map(|g| FactorBlock {
                rows: ((g * rows / m) as u32..((g + 1) * rows / m) as u32).collect(),
                data: vec![g as f32; rows * rank / m].into(),
            })
            .collect();
        group.throughput(Throughput::Bytes((rows * rank * 4) as u64));
        group.bench_with_input(BenchmarkId::new("functional", m), &m, |b, _| {
            b.iter(|| rt.allgather_blocks(&blocks));
        });
    }
    // The timing model itself (pure arithmetic — verifies it is cheap enough
    // to call per mode per run).
    let mut rt = SimRuntime::new(PlatformSpec::rtx6000_ada_node(4));
    let bytes = vec![1_000_000u64; 4];
    group.bench_function("timing_model", |b| {
        b.iter(|| rt.allgather_time(Collective::Ring, &bytes));
    });
    group.finish();
}

criterion_group!(benches, bench_allgather);
criterion_main!(benches);
