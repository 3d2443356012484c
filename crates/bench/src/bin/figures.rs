//! Regenerates every table and figure of the AMPED paper on the simulated
//! platform. See DESIGN.md §4 for the experiment index.
//!
//! ```text
//! cargo run -p amped-bench --release --bin figures -- all
//! cargo run -p amped-bench --release --bin figures -- fig5 --scale 1e-3 --gpus 4
//! ```

use amped_baselines::MttkrpSystem;
use amped_bench::reportio::{emit, Table};
use amped_bench::{run_system, ExpContext, Outcome};
use amped_core::{AmpedConfig, AmpedEngine, MttkrpEngine};
use amped_formats::LinTensor;
use amped_sim::metrics::geomean;
use amped_tensor::datasets::{self, Dataset};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExpContext::default();
    let mut cmds: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => ctx.scale = flag_value(&mut it, "--scale", parse_scale),
            "--gpus" => ctx.gpus = flag_value(&mut it, "--gpus", parse_positive),
            "--rank" => ctx.rank = flag_value(&mut it, "--rank", parse_positive),
            "--out" => {
                ctx.out_dir = it
                    .next()
                    .unwrap_or_else(|| usage("--out needs a path"))
                    .into()
            }
            "--help" | "-h" => usage("usage"),
            other => cmds.push(other.to_string()),
        }
    }
    if cmds.is_empty() {
        usage("no command given");
    }
    let all = [
        "table1",
        "table3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "abl-block",
    ];
    let selected: Vec<&str> = if cmds.iter().any(|c| c == "all") {
        all.to_vec()
    } else {
        cmds.iter().map(|s| s.as_str()).collect()
    };
    println!(
        "# AMPED experiment harness — scale {:.1e}, {} GPUs, R = {}",
        ctx.scale, ctx.gpus, ctx.rank
    );
    for cmd in selected {
        match cmd {
            "table1" => table1(&mut ctx),
            "table3" => table3(&mut ctx),
            "fig5" => fig5(&mut ctx),
            "fig6" => fig6(&mut ctx),
            "fig7" => fig7(&mut ctx),
            "fig8" => fig8(&mut ctx),
            "fig9" => fig9(&mut ctx),
            "fig10" => fig10(&mut ctx),
            "abl-block" => abl_block(&mut ctx),
            other => usage(&format!("unknown command '{other}'")),
        }
    }
}

/// The value after `flag`, read by `parse`; a missing or invalid one is a
/// usage error.
fn flag_value<T>(
    it: &mut std::iter::Peekable<std::slice::Iter<String>>,
    flag: &str,
    parse: fn(&str) -> Result<T, &'static str>,
) -> T {
    let v = it
        .next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
    parse(v).unwrap_or_else(|why| usage(&format!("{flag} {v}: {why}")))
}

/// A GPU count or a rank: a positive integer.
fn parse_positive(v: &str) -> Result<usize, &'static str> {
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("needs a positive integer"),
    }
}

/// A dataset scale: a finite number in (0, 1].
fn parse_scale(v: &str) -> Result<f64, &'static str> {
    match v.parse() {
        Ok(s) if s > 0.0 && s <= 1.0 => Ok(s),
        _ => Err("needs a number in (0, 1]"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: figures [--scale S] [--gpus M] [--rank R] [--out DIR] \
         <table1|table3|fig5|fig6|fig7|fig8|fig9|fig10|abl-block|all>..."
    );
    std::process::exit(2);
}

/// Table 1: qualitative system characteristics.
fn table1(ctx: &mut ExpContext) {
    let mut t = Table::new(&[
        "Work",
        "Tensor copies",
        "Multi-GPU",
        "Load balancing",
        "Billion-scale",
        "Task-independent partitioning",
    ]);
    let tick = |b: bool| if b { "✓" } else { "✗" }.to_string();
    let mut systems: Vec<Box<dyn MttkrpSystem>> = vec![Box::new(ctx.amped())];
    systems.extend(ctx.baselines());
    for s in &systems {
        let c = s.capabilities();
        t.push(vec![
            c.name.into(),
            c.tensor_copies.into(),
            tick(c.multi_gpu),
            tick(c.load_balancing),
            tick(c.billion_scale),
            tick(c.task_independent),
        ]);
    }
    emit(
        &ctx.out_dir,
        "table1",
        "Table 1 — system characteristics",
        &t,
        (),
    );
}

/// Table 3: scaled dataset characteristics.
fn table3(ctx: &mut ExpContext) {
    let mut t = Table::new(&[
        "Tensor",
        "Shape (scaled)",
        "nnz (scaled)",
        "COO bytes",
        "Paper nnz",
    ]);
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let ch = datasets::characteristics(d, &tensor);
        let shape = ch
            .shape
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(" × ");
        t.push(vec![
            ch.name.into(),
            shape,
            format_count(ch.nnz as u64),
            format_bytes(ch.bytes),
            format_count(d.paper_nnz()),
        ]);
    }
    emit(
        &ctx.out_dir,
        "table3",
        "Table 3 — dataset characteristics (scaled)",
        &t,
        (),
    );
}

/// Fig. 5: total execution time vs all baselines (paper: 5.1× geomean over
/// baselines; FLYCOO wins on Twitch; OOM pattern per system).
fn fig5(ctx: &mut ExpContext) {
    let mut t = Table::new(&[
        "Tensor",
        "AMPED(4 GPU)",
        "BLCO",
        "MM-CSF",
        "ParTI-GPU",
        "FLYCOO-GPU",
    ]);
    let mut speedups: Vec<f64> = Vec::new();
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let factors = ctx.factors(&tensor, 0xF15_0000 + d.seed());
        let amped_out = run_system(&mut ctx.amped(), &tensor, &factors);
        let amped_time = amped_out.time().expect("AMPED must run on every dataset");
        let mut row = vec![d.name().to_string(), amped_out.render()];
        for mut b in ctx.baselines() {
            let out = run_system(b.as_mut(), &tensor, &factors);
            let cell = match &out {
                Outcome::Time(bt) => {
                    speedups.push(bt / amped_time);
                    format!("{} ({:.2}×)", out.render(), bt / amped_time)
                }
                Outcome::Error(_) => out.render(),
            };
            row.push(cell);
        }
        t.push(row);
    }
    let gm = geomean(speedups.iter().copied());
    println!("\nGeomean AMPED speedup over runnable baselines: {gm:.2}× (paper: 5.1×)");
    emit(
        &ctx.out_dir,
        "fig5",
        "Fig. 5 — total execution time (speedup of AMPED in parentheses)",
        &t,
        serde_json::json!({ "geomean_speedup": gm, "paper_geomean": 5.1 }),
    );
}

/// Fig. 6: AMPED partitioning vs equal-nnz distribution (paper: 5.3–10.3×).
fn fig6(ctx: &mut ExpContext) {
    let mut t = Table::new(&["Tensor", "AMPED partitioning", "Equal-nnz", "Speedup"]);
    let mut speedups = Vec::new();
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let factors = ctx.factors(&tensor, 0xF16_0000 + d.seed());
        let a = run_system(&mut ctx.amped(), &tensor, &factors);
        let e = run_system(&mut ctx.equal_nnz(), &tensor, &factors);
        let s = match (a.time(), e.time()) {
            (Some(at), Some(et)) => {
                speedups.push(et / at);
                format!("{:.2}×", et / at)
            }
            _ => "n/a".into(),
        };
        t.push(vec![d.name().into(), a.render(), e.render(), s]);
    }
    let gm = geomean(speedups.iter().copied());
    println!("\nGeomean partitioning speedup: {gm:.2}× (paper: 8.2×, range 5.3–10.3×)");
    emit(
        &ctx.out_dir,
        "fig6",
        "Fig. 6 — impact of the partitioning scheme",
        &t,
        serde_json::json!({ "geomean_speedup": gm, "paper_geomean": 8.2 }),
    );
}

/// Fig. 7: execution-time breakdown (paper: Reddit ≈ 32% communication).
fn fig7(ctx: &mut ExpContext) {
    let mut t = Table::new(&["Tensor", "Computation", "Host↔GPU", "GPU↔GPU", "Comm total"]);
    let mut extras = Vec::new();
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let factors = ctx.factors(&tensor, 0xF17_0000 + d.seed());
        let run = ctx
            .amped()
            .execute(&tensor, &factors)
            .expect("AMPED runs everywhere");
        let (c, h, p) = run.report.fig7_fractions();
        t.push(vec![
            d.name().into(),
            format!("{:.1}%", c * 100.0),
            format!("{:.1}%", h * 100.0),
            format!("{:.1}%", p * 100.0),
            format!("{:.1}%", (h + p) * 100.0),
        ]);
        extras.push(serde_json::json!({
            "dataset": d.name(), "compute": c, "h2d": h, "p2p": p
        }));
    }
    emit(
        &ctx.out_dir,
        "fig7",
        "Fig. 7 — execution time breakdown (AMPED, 4 GPUs)",
        &t,
        extras,
    );
}

/// Fig. 8: compute-time overhead among GPUs (paper: <1%, Twitch worst).
fn fig8(ctx: &mut ExpContext) {
    let mut t = Table::new(&["Tensor", "Per-GPU compute times", "Overhead (max−min)/max"]);
    let mut overheads = Vec::new();
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let factors = ctx.factors(&tensor, 0xF18_0000 + d.seed());
        let run = ctx
            .amped()
            .execute(&tensor, &factors)
            .expect("AMPED runs everywhere");
        let times: Vec<String> = run
            .report
            .per_gpu
            .iter()
            .map(|g| format!("{:.3} ms", g.compute * 1e3))
            .collect();
        let ov = run.report.compute_overhead_fraction();
        overheads.push((d.name(), ov));
        t.push(vec![
            d.name().into(),
            times.join(", "),
            format!("{:.2}%", ov * 100.0),
        ]);
    }
    emit(
        &ctx.out_dir,
        "fig8",
        "Fig. 8 — computation-time overhead among GPUs",
        &t,
        serde_json::json!(overheads
            .iter()
            .map(|(n, o)| serde_json::json!({"dataset": n, "overhead": o}))
            .collect::<Vec<_>>()),
    );
}

/// Fig. 9: scalability 1→4 GPUs (paper geomeans: 1.9×, 2.3×, 3.3×).
fn fig9(ctx: &mut ExpContext) {
    let max_gpus = ctx.gpus.max(2);
    let mut header = vec!["Tensor".to_string()];
    for m in 1..=max_gpus {
        header.push(format!("{m} GPU"));
    }
    let mut t = Table {
        header,
        rows: Vec::new(),
    };
    let mut per_m: Vec<Vec<f64>> = vec![Vec::new(); max_gpus + 1];
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let factors = ctx.factors(&tensor, 0xF19_0000 + d.seed());
        let mut row = vec![d.name().to_string()];
        let mut base = None;
        for (m, per) in per_m.iter_mut().enumerate().skip(1) {
            let mut sys = amped_baselines::AmpedSystem::new(
                ctx.platform(m),
                AmpedConfig {
                    rank: ctx.rank,
                    ..AmpedConfig::default()
                },
            );
            let out = run_system(&mut sys, &tensor, &factors);
            let time = out.time().expect("AMPED runs at every GPU count");
            let cell = match base {
                None => {
                    base = Some(time);
                    format!("{:.3} ms (1.00×)", time * 1e3)
                }
                Some(b) => {
                    per.push(b / time);
                    format!("{:.3} ms ({:.2}×)", time * 1e3, b / time)
                }
            };
            row.push(cell);
        }
        t.push(row);
    }
    print!("\nGeomean speedups:");
    let mut gms = Vec::new();
    for (m, per) in per_m.iter().enumerate().skip(2) {
        let gm = geomean(per.iter().copied());
        gms.push((m, gm));
        print!(" {m} GPUs = {gm:.2}×;");
    }
    println!(" (paper: 2 GPUs 1.9×, 3 GPUs 2.3×, 4 GPUs 3.3×)");
    emit(
        &ctx.out_dir,
        "fig9",
        "Fig. 9 — scalability with GPU count",
        &t,
        serde_json::json!(gms
            .iter()
            .map(|(m, g)| serde_json::json!({"gpus": m, "geomean_speedup": g}))
            .collect::<Vec<_>>()),
    );
}

/// Fig. 10: preprocessing time, AMPED partitioning vs BLCO linearization
/// (real wall-clock of both preprocessors on this host), with AMPED's wall
/// split into the busy-seconds its pool jobs spent per phase.
fn fig10(ctx: &mut ExpContext) {
    let mut t = Table::new(&[
        "Tensor",
        "AMPED preprocessing",
        "sort / pricing (busy)",
        "BLCO preprocessing",
        "Ratio",
    ]);
    for d in datasets::ALL {
        let tensor = ctx.dataset(d).clone();
        let cfg = AmpedConfig {
            rank: ctx.rank,
            ..AmpedConfig::default()
        };
        let engine = AmpedEngine::new(&tensor, ctx.platform(ctx.gpus), cfg).expect("AMPED plans");
        let lt = LinTensor::build(&tensor, 1 << 20);
        let (a, busy) = (engine.preprocess_wall(), engine.plan().busy);
        let b = lt.preprocess_wall;
        t.push(vec![
            d.name().into(),
            format!("{:.3} s", a),
            format!("{:.3} / {:.3} s", busy.sort_s, busy.pricing_s),
            format!("{:.3} s", b),
            format!("{:.2}×", a / b.max(1e-12)),
        ]);
    }
    emit(
        &ctx.out_dir,
        "fig10",
        "Fig. 10 — preprocessing time (real wall clock, this host)",
        &t,
        (),
    );
}

/// Ablation: threadblock work granularity (the θ/P knob of §5.1.5 mapped to
/// ISP size in this implementation).
fn abl_block(ctx: &mut ExpContext) {
    let d = Dataset::Amazon;
    let tensor = ctx.dataset(d).clone();
    let factors = ctx.factors(&tensor, 0xAB3_0000 + d.seed());
    let mut t = Table::new(&["ISP elements", "Total time", "vs best"]);
    let sizes = [1024usize, 2048, 4096, 8192, 16384, 32768, 65536];
    let mut times = Vec::new();
    for &isp in &sizes {
        let cfg = AmpedConfig {
            rank: ctx.rank,
            isp_nnz: isp,
            ..AmpedConfig::default()
        };
        let mut sys = amped_baselines::AmpedSystem::new(ctx.platform(ctx.gpus), cfg);
        times.push(
            run_system(&mut sys, &tensor, &factors)
                .time()
                .expect("runs"),
        );
    }
    let best = times.iter().cloned().fold(f64::MAX, f64::min);
    for (i, &isp) in sizes.iter().enumerate() {
        t.push(vec![
            isp.to_string(),
            format!("{:.3} ms", times[i] * 1e3),
            format!("{:.2}×", times[i] / best),
        ]);
    }
    emit(
        &ctx.out_dir,
        "abl-block",
        "Ablation — threadblock granularity sweep (Amazon-like)",
        &t,
        (),
    );
}

fn format_count(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.1}B", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

fn format_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else {
        format!("{:.1} KiB", b as f64 / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_positive_integers() {
        assert_eq!(parse_positive("4"), Ok(4));
        for bad in ["0", "-1", "2.5", "nan", "", "four"] {
            assert!(parse_positive(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn scales_are_finite_and_in_the_unit_interval() {
        assert_eq!(parse_scale("1e-3"), Ok(1e-3));
        assert_eq!(parse_scale("1"), Ok(1.0));
        for bad in ["0", "-1", "nan", "inf", "1.5", "", "big"] {
            assert!(parse_scale(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
