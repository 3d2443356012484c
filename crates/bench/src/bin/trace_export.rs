//! Trace export harness: run a small CP-ALS on the engine over each of its
//! two sources with tracing and metrics attached, write the Chrome
//! trace-event JSON (Perfetto / `chrome://tracing` loadable) and the
//! Prometheus text exposition, and print the modeled-vs-measured
//! calibration report.
//!
//! Usage: `cargo run -p amped-bench --bin trace_export [out_dir]`
//! (default `target/trace_export`). Artifacts:
//!
//! * `trace_incore.json` — in-core [`AmpedEngine`] ALS run, one track per
//!   device, `iteration=i/mode=d/shard=s` spans nested over the ops.
//! * `trace_ooc.json` — out-of-core [`OocEngine`] run over a `.tnsb` file.
//! * `metrics.prom` — the merged registry exposition of both runs.
//!
//! The binary *self-validates*: every trace must round-trip through the
//! JSON parser, carry per-GPU tracks, and nest iteration/mode spans; the
//! exposition must carry the runtime counters. A non-zero exit means the
//! observability layer broke — CI runs this as a stage.

use amped_bench::calibration::calibrate;
use amped_core::als::{cp_als, AlsOptions};
use amped_core::{AmpedConfig, AmpedEngine, OocEngine};
use amped_runtime::{chrome_trace_string, SimRuntime, TracingRuntime};
use amped_sim::obs::MetricsRegistry;
use amped_sim::PlatformSpec;
use amped_stream::write_tnsb;
use amped_tensor::gen::GenSpec;
use serde_json::Value;
use std::path::Path;

fn cfg() -> AmpedConfig {
    AmpedConfig {
        rank: 8,
        isp_nnz: 256,
        shard_nnz_budget: 2048,
    }
}

fn als_opts() -> AlsOptions {
    AlsOptions {
        max_iters: 2,
        tol: 0.0,
        seed: 11,
        ..Default::default()
    }
}

/// Asserts `text` is a well-formed Chrome trace: parseable, with at least
/// `min_tracks` thread-name metadata events and nested iteration/mode/shard
/// span slices. Returns the number of `X` events.
fn validate_trace(label: &str, text: &str, min_tracks: usize) -> usize {
    let root: Value = serde_json::from_str(text)
        .unwrap_or_else(|e| panic!("{label}: trace is not valid JSON: {e}"));
    let events = match &root {
        Value::Obj(fields) => match fields.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, Value::Arr(items))) => items,
            _ => panic!("{label}: no traceEvents array"),
        },
        _ => panic!("{label}: root is not an object"),
    };
    let get = |ev: &Value, key: &str| -> Option<String> {
        match ev {
            Value::Obj(fields) => {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| match v {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
            }
            _ => None,
        }
    };
    let tracks = events
        .iter()
        .filter(|e| get(e, "name").as_deref() == Some("thread_name"))
        .count();
    assert!(
        tracks >= min_tracks,
        "{label}: {tracks} device tracks, expected ≥ {min_tracks}"
    );
    let span_names: Vec<String> = events
        .iter()
        .filter(|e| get(e, "cat").as_deref() == Some("span"))
        .filter_map(|e| get(e, "name"))
        .collect();
    for prefix in ["iteration=", "mode=", "shard="] {
        assert!(
            span_names.iter().any(|n| n.starts_with(prefix)),
            "{label}: no `{prefix}…` span among {span_names:?}"
        );
    }
    events
        .iter()
        .filter(|e| get(e, "ph").as_deref() == Some("X"))
        .count()
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_export".to_string());
    let out_dir = Path::new(&out_dir);
    std::fs::create_dir_all(out_dir).expect("create output directory");

    let gpus = 2;
    let spec = PlatformSpec::rtx6000_ada_node(gpus).scaled(1e-3);
    let t = GenSpec::uniform(vec![60, 50, 40], 4000, 31).generate();
    let registry = MetricsRegistry::new();

    // --- In-core engine: traced + metered ALS.
    let rt = TracingRuntime::new(SimRuntime::new(spec.clone()).with_metrics(registry.clone()));
    let tl = rt.timeline();
    let mut engine = AmpedEngine::with_runtime(&t, Box::new(rt), cfg()).expect("in-core engine");
    let res = cp_als(&mut engine, &als_opts()).expect("in-core ALS");
    let trace = chrome_trace_string(&tl);
    let x = validate_trace("in-core", &trace, gpus);
    let path = out_dir.join("trace_incore.json");
    std::fs::write(&path, &trace).expect("write in-core trace");
    println!(
        "in-core: {} iterations, fit {:.4}; {x} slices → {}",
        res.iterations,
        res.fits.last().copied().unwrap_or(0.0),
        path.display()
    );

    // --- Out-of-core engine over a temporary .tnsb file.
    let tnsb = out_dir.join("trace_export.tnsb");
    write_tnsb(&t, &tnsb, 512).expect("write .tnsb");
    let budget = 512 * (t.elem_bytes() + t.order() as u64 * 4) * 2;
    let rt = TracingRuntime::new(SimRuntime::new(spec.clone()).with_metrics(registry.clone()));
    let tl = rt.timeline();
    let mut engine =
        OocEngine::with_runtime(&tnsb, Box::new(rt), cfg(), budget).expect("out-of-core engine");
    let res = cp_als(&mut engine, &als_opts()).expect("out-of-core ALS");
    let trace = chrome_trace_string(&tl);
    let x = validate_trace("out-of-core", &trace, 1);
    let path = out_dir.join("trace_ooc.json");
    std::fs::write(&path, &trace).expect("write out-of-core trace");
    println!(
        "out-of-core: {} iterations, fit {:.4}; {x} slices → {}",
        res.iterations,
        res.fits.last().copied().unwrap_or(0.0),
        path.display()
    );
    std::fs::remove_file(&tnsb).ok();

    // --- Prometheus exposition of everything both runs recorded.
    let prom = registry.render_prometheus();
    for needle in [
        "# TYPE amped_launches_total counter",
        "amped_nnz_processed_total",
        "amped_als_iterations_total",
        "amped_link_bytes_total{tier=\"h2d\"}",
        "amped_ooc_chunk_reads_total",
        "# TYPE amped_launch_blocks histogram",
    ] {
        assert!(
            prom.contains(needle),
            "exposition lacks `{needle}`:\n{prom}"
        );
    }
    let path = out_dir.join("metrics.prom");
    std::fs::write(&path, &prom).expect("write exposition");
    println!(
        "exposition: {} lines → {}",
        prom.lines().count(),
        path.display()
    );

    // --- Modeled vs measured calibration on the same plan.
    let rep = calibrate(&t, spec, cfg(), 32).expect("calibration");
    println!("\n## calibration (modeled SimRuntime vs measured CpuParallelRuntime)\n");
    print!("{rep}");
    println!("\n{}", rep.straggler.render());
}
