//! `amped-benchmark`: CP-ALS end to end on both engines, with a per-layer
//! pass timed from outside. See `benchmark/README.md`; run it through
//! `benchmark/run.sh`, which builds `--release` first.
//!
//! ```text
//! amped-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                     [--out DIR] [--smoke]
//! amped-benchmark compare A.json[,A2.json…] B.json[,B2.json…] [--bounds BENCHMARK.json]
//! ```
//!
//! `run` is a closed loop of one client: one decomposition at a time. Each
//! workload's input is generated by a `prepare` child and measured by a
//! `measure` child of its own, so peak memory is per workload and the
//! measured process never holds the generator's tables.

mod compare;
mod env;
mod jsonx;
mod layers;
mod measure;
mod scratch;
mod spans;
mod stats;
mod surface;
mod workloads;

use jsonx::{at, entries, field, num, text};
use measure::Ops;
use scratch::ScratchDir;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Workload;

/// Exit status for a refused setup (debug build, too many workers, bad
/// arguments); failed operations exit 1.
const EXIT_REFUSED: u8 = 2;

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    const FLAGS: [&'static str; 1] = ["--smoke"];

    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut args = Self {
            pairs: Vec::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if Self::FLAGS.contains(&a.as_str()) {
                args.flags.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or(format!("{a} needs a value"))?;
                args.pairs.push((a.clone(), v.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} takes a whole number, got {v:?}")),
        }
    }

    fn smoke(&self) -> bool {
        self.flags.iter().any(|f| f == "--smoke")
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("--workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("usage: amped-benchmark run|compare … (see benchmark/README.md)");
        return ExitCode::from(EXIT_REFUSED);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => run(&args),
        "prepare" => prepare(&args).map(|()| ExitCode::SUCCESS),
        "measure" => measure_child(&args).map(|()| ExitCode::SUCCESS),
        "compare" => compare_command(&args),
        other => Err(format!("unknown command {other:?}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("amped-benchmark: {e}");
        ExitCode::from(EXIT_REFUSED)
    })
}

fn compare_command(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result sets: A.json B.json".into());
    };
    let bounds = PathBuf::from(args.get("--bounds").unwrap_or("BENCHMARK.json"));
    Ok(if compare::run(a, b, &bounds)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Child: generates the workload's tensor from the seed and writes it as
/// `.tnsb`, with what that cost, into `--dir`.
fn prepare(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let dir = PathBuf::from(args.get("--dir").ok_or("--dir is required")?);
    let seed = args.number("--seed", 0)?;
    let spec = w.spec(seed, args.smoke());
    let t = Instant::now();
    let tensor = spec.generate();
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let meta = surface::write_tnsb(&tensor, dir.join("input.tnsb"), w.chunk_elems(args.smoke()))
        .map_err(|e| e.to_string())?;
    let write_s = t.elapsed().as_secs_f64();
    // What one ALS iteration touches: each mode streams its own copy of the
    // tensor and reads or writes every factor row.
    let rows_total: u64 = meta.shape.iter().map(|&d| u64::from(d)).sum();
    let working_set_bytes =
        meta.order() as u64 * meta.payload_bytes() + rows_total * workloads::RANK as u64 * 4;
    write_json(
        &dir.join("input.json"),
        &json!({
            "gen_s": gen_s,
            "write_s": write_s,
            "shape": meta.shape,
            "nnz": meta.nnz,
            "chunks": meta.num_chunks(),
            "payload_bytes": meta.payload_bytes(),
            "working_set_bytes": working_set_bytes
        }),
    )
}

/// Child: one pass (`--trace 0` end to end, `--trace 1` per layer) of one
/// workload over the prepared input in `--dir`.
fn measure_child(args: &Args) -> Result<(), String> {
    let w = args.workload()?;
    let dir = PathBuf::from(args.get("--dir").ok_or("--dir is required")?);
    let seed = args.number("--seed", 0)?;
    let seconds = args.number("--seconds", workloads::RUN_SECONDS)?;
    let traced = args.number("--trace", 0)? == 1;
    let smoke = args.smoke();
    let tnsb = dir.join("input.tnsb");
    let mut ops = Ops::default();
    let pass = measure::Pass {
        workload: &w,
        tnsb: &tnsb,
        seed,
        steady_iters: w.steady_iters(seconds, smoke),
        smoke,
    };
    let (mut result, out) = if traced {
        let input = jsonx::read(&dir.join("input.json"))?;
        let fact = |k| field(&input, k).and_then(num).unwrap_or(0.0);
        let facts = layers::InputFacts {
            gen_s: fact("gen_s"),
            write_s: fact("write_s"),
            working_set_bytes: fact("working_set_bytes"),
        };
        let trace_path = dir.join("trace.json");
        (
            layers::per_layer(&pass, &facts, &trace_path, &mut ops)?,
            "per_layer.json",
        )
    } else {
        (measure::end_to_end(&pass, &mut ops)?, "end_to_end.json")
    };
    if let Value::Obj(fields) = &mut result {
        fields.push(("ops_attempted".into(), json!(ops.attempted)));
        fields.push(("ops_failed".into(), json!(ops.failed)));
        fields.push(("failures".into(), json!(ops.failures)));
    }
    write_json(&dir.join(out), &result)
}

/// Runs this executable as a child and waits for it; its progress goes to
/// our standard error.
fn child(
    command: &str,
    w: &Workload,
    dir: &Path,
    args: &Args,
    extra: &[(&str, u64)],
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(command)
        .args(["--workload", w.name])
        .arg("--dir")
        .arg(dir)
        .stdout(std::process::Stdio::null());
    for (k, v) in extra {
        cmd.arg(k).arg(v.to_string());
    }
    if args.smoke() {
        cmd.arg("--smoke");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {command} child: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{command} child of {} ended with {status}", w.name))
    }
}

fn print_pass(title: &str, pass: &Value, measured: Option<&Value>) {
    println!("  {title}");
    let metrics = field(pass, "metrics").map_or(&[][..], entries);
    for (name, m) in metrics {
        let value = field(m, "value").and_then(num).unwrap_or(f64::NAN);
        let unit = field(m, "unit").and_then(text).unwrap_or("");
        let on_path =
            measured.is_none_or(|names| jsonx::items(names).iter().any(|n| text(n) == Some(name)));
        let dispersion = at(pass, &["summaries", name, "text"])
            .and_then(text)
            .unwrap_or("");
        if on_path {
            let digits = if value.fract() == 0.0 { 0 } else { 6 };
            println!("    {name:<30} {value:>16.digits$} {unit:<7} {dispersion}");
        } else {
            println!("    {name:<30} {:>16} {unit:<7}", "n/a");
        }
    }
}

/// The orchestrator: guards, children, the report, `results.json`.
fn run(args: &Args) -> Result<ExitCode, String> {
    env::guard()?;
    let seed = args.number("--seed", 0)?;
    let seconds = args.number("--seconds", workloads::RUN_SECONDS)?;
    let passes: Vec<u64> = match args.get("--trace") {
        None => vec![0, 1],
        Some("0") => vec![0],
        Some("1") => vec![1],
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let selected: Vec<Workload> = match args.get("--workload") {
        Some(_) => vec![args.workload()?],
        None => workloads::ALL.to_vec(),
    };
    let out_dir = PathBuf::from(args.get("--out").unwrap_or("benchmark/out"));
    let scratch =
        ScratchDir::create_in(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut report = Vec::new();
    let mut total = Ops::default();
    let mut contract_metrics = Value::Obj(Vec::new());
    for w in &selected {
        let dir = scratch.path().join(w.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        eprintln!("[{}] preparing input (seed {seed})", w.name);
        child("prepare", w, &dir, args, &[("--seed", seed)])?;
        let input = jsonx::read(&dir.join("input.json"))?;
        let mut entry = vec![
            ("why".to_string(), json!(w.why)),
            ("input".to_string(), input),
            (
                "steady_iters".to_string(),
                json!(w.steady_iters(seconds, args.smoke())),
            ),
            ("cold_repeats".to_string(), json!(w.cold_repeats)),
        ];
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut failures = Vec::new();
        println!("== {} ==", w.name);
        for &pass in &passes {
            eprintln!("[{}] measuring (--trace {pass})", w.name);
            child(
                "measure",
                w,
                &dir,
                args,
                &[("--seed", seed), ("--seconds", seconds), ("--trace", pass)],
            )?;
            let (key, file) = if pass == 1 {
                ("per_layer", "per_layer.json")
            } else {
                ("end_to_end", "end_to_end.json")
            };
            let result = jsonx::read(&dir.join(file))?;
            let count = |k| field(&result, k).and_then(num).unwrap_or(0.0) as u64;
            attempted += count("ops_attempted");
            failed += count("ops_failed");
            failures.extend(
                field(&result, "failures")
                    .map_or(&[][..], jsonx::items)
                    .to_vec(),
            );
            print_pass(key, &result, field(&result, "measured"));
            if let Some(m) = field(&result, "metrics") {
                contract_metrics = m.clone();
            }
            if pass == 1 {
                let trace = out_dir.join(format!("trace-{}.json", w.name));
                std::fs::rename(dir.join("trace.json"), &trace)
                    .map_err(|e| format!("{}: {e}", trace.display()))?;
                println!(
                    "  trace: {} (open in Perfetto or chrome://tracing)",
                    trace.display()
                );
            }
            entry.push((key.to_string(), result));
        }
        println!("  ops_attempted {attempted}  ops_failed {failed}");
        for f in &failures {
            println!("  FAILED: {}", text(f).unwrap_or("?"));
        }
        total.attempted += attempted;
        total.failed += failed;
        entry.push(("ops_attempted".to_string(), json!(attempted)));
        entry.push(("ops_failed".to_string(), json!(failed)));
        entry.push(("failures".to_string(), Value::Arr(failures)));
        report.push((w.name.to_string(), Value::Obj(entry)));
    }

    let results = json!({
        "env": env::capture(),
        "seed": seed,
        "seconds": seconds,
        "smoke": args.smoke(),
        "modeled_numbers": "modeled on the 4-GPU platform model; unvalidated against real GPUs",
        "workloads": Value::Obj(report)
    });
    // Written in the scratch directory and renamed, so a concurrent run with
    // the same --out never reads half a file.
    let staged = scratch.path().join("results.json");
    write_json(&staged, &results)?;
    let results_path = out_dir.join("results.json");
    std::fs::rename(&staged, &results_path)
        .map_err(|e| format!("{}: {e}", results_path.display()))?;
    println!("results: {}", results_path.display());

    // Last line: the driver's contract. With one workload and one pass the
    // metrics are that pass's; otherwise the line carries the counts only.
    let single = selected.len() == 1 && passes.len() == 1;
    let line = json!({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": if single { contract_metrics } else { Value::Obj(Vec::new()) }
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(if total.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx::items;

    fn names_and(doc: &Value, list: &str, second: &str) -> Vec<(String, String)> {
        items(field(doc, list).expect("list present"))
            .iter()
            .map(|e| {
                let get = |k| {
                    field(e, k)
                        .and_then(text)
                        .expect("string field")
                        .to_string()
                };
                (get("name"), get(second))
            })
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; this holds it to what the
    /// harness reports.
    #[test]
    fn benchmark_json_names_what_the_harness_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = jsonx::read(&path).unwrap();
        let pairs = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter().map(|&(a, b)| (a.into(), b.into())).collect()
        };
        assert_eq!(
            names_and(&doc, "per_layer", "unit"),
            pairs(&layers::METRICS)
        );
        assert_eq!(
            names_and(&doc, "end_to_end", "unit"),
            pairs(&measure::END_TO_END)
        );
        let workloads: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(names_and(&doc, "workloads", "why"), pairs(&workloads));
        assert_eq!(
            field(&doc, "run_seconds").and_then(num),
            Some(workloads::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn arguments_split_into_pairs_flags_and_positionals() {
        let raw: Vec<String> = ["a.json", "--seed", "7", "--smoke", "b.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.number("--seed", 0), Ok(7));
        assert_eq!(args.number("--seconds", 20), Ok(20));
        assert!(args.smoke());
        assert_eq!(args.positional, ["a.json", "b.json"]);
        assert!(Args::parse(&raw[..2]).is_err(), "--seed without a value");
    }
}
