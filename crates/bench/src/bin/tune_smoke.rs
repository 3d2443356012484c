//! Autotune smoke test for CI: a cold engine construction searches the
//! candidate grid exactly once and persists the winner; a second
//! construction over the same cache file performs **no** search (one cache
//! hit) and resolves identical parameters. Both claims are asserted through
//! the `tune_searches` / `tune_cache_hits` counters, so the check fails
//! loudly if the cache key drifts or the persisted file stops round-tripping.
//!
//! Usage: `cargo run --release -p amped-bench --bin tune_smoke`
//!
//! Exits non-zero (via panic) on any violated assertion; prints the resolved
//! parameters on success.

use amped_bench::ScratchDir;
use amped_core::{AmpedConfig, AmpedEngine};
use amped_runtime::SimRuntime;
use amped_sim::obs::MetricsRegistry;
use amped_sim::PlatformSpec;
use amped_tensor::gen::GenSpec;
use amped_tune::Autotuner;

fn main() {
    let t = GenSpec {
        shape: vec![120, 90, 70],
        nnz: 20_000,
        skew: vec![0.6, 0.3, 0.0],
        seed: 88,
    }
    .generate();
    let cfg = || AmpedConfig {
        rank: 16,
        isp_nnz: 512,
        shard_nnz_budget: 4096,
        ..AmpedConfig::default()
    };
    let spec = || PlatformSpec::rtx6000_ada_node(2).scaled(1e-3);

    let dir = ScratchDir::new("tune_smoke");
    let cache = dir.join("cache.json");

    // Cold: no cache file yet, so the tuner must run one grid search and
    // persist the winner.
    let reg = MetricsRegistry::new();
    let rt = SimRuntime::new(spec()).with_metrics(reg.clone());
    let mut tuner = Autotuner::with_cache(&cache);
    let cold = AmpedEngine::with_tuner(&t, Box::new(rt), cfg(), &mut tuner)
        .expect("cold tuned engine construction failed");
    assert_eq!(
        reg.counter_value("tune_searches", &[]),
        1,
        "cold run must search exactly once"
    );
    assert_eq!(
        reg.counter_value("tune_cache_hits", &[]),
        0,
        "cold run must not hit the cache"
    );
    println!("cold search: {:?}", cold.tune());

    // Warm: a fresh tuner over the persisted file must resolve the same
    // parameters without searching.
    let reg = MetricsRegistry::new();
    let rt = SimRuntime::new(spec()).with_metrics(reg.clone());
    let mut tuner = Autotuner::with_cache(&cache);
    let warm = AmpedEngine::with_tuner(&t, Box::new(rt), cfg(), &mut tuner)
        .expect("warm tuned engine construction failed");
    assert_eq!(
        reg.counter_value("tune_searches", &[]),
        0,
        "warm run must not search"
    );
    assert_eq!(
        reg.counter_value("tune_cache_hits", &[]),
        1,
        "warm run must hit the cache exactly once"
    );
    assert_eq!(
        cold.tune(),
        warm.tune(),
        "warm cache resolved different parameters than the cold search"
    );
    println!("warm cache hit: {:?}", warm.tune());

    println!("tune_smoke: OK (cold search + warm cache hit)");
}
