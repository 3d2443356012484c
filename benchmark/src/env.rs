//! What the numbers were measured on, and the guards that refuse to measure
//! on a setup that would make them meaningless.

use crate::surface::host_workers;
use serde_json::{json, Value};
use std::process::Command;

/// Cores the operating system lets this process use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses a debug build and a worker count above the core count: both
/// produce timings that say nothing about the code. The message goes to the
/// caller, which exits with status 2.
pub fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; run benchmark/run.sh, which builds --release".into());
    }
    let (workers, cores) = (host_workers(), nproc());
    if workers > cores {
        return Err(format!(
            "host_workers() = {workers} exceeds the {cores} available cores \
             (AMPED_THREADS={}); oversubscribed timings are not comparable",
            std::env::var("AMPED_THREADS").unwrap_or_default()
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn read_trimmed(path: &str) -> Option<String> {
    Some(std::fs::read_to_string(path).ok()?.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// `(level, bytes)` of every data or unified cache of cpu0, as sysfs reports
/// them (`index*/level`, `index*/type`, `index*/size` like `2048K`).
fn cpu0_caches() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        let (digits, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1u64 << 20),
            _ => (size.as_str(), 1),
        };
        if let (Ok(level), Ok(n)) = (level.parse::<u32>(), digits.parse::<u64>()) {
            out.push((level, n * mult));
        }
    }
    out
}

/// Bytes of cpu0's cache at `level`, 0 when sysfs does not say.
pub fn cache_bytes(level: u32) -> u64 {
    cpu0_caches()
        .into_iter()
        .find(|&(l, _)| l == level)
        .map_or(0, |(_, b)| b)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The environment block of `results.json`.
pub fn capture() -> Value {
    let unknown = || "unknown".to_string();
    let load_1min = read_trimmed("/proc/loadavg")
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok());
    json!({
        "git_commit": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "rustc": command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        "nproc": nproc(),
        "host_workers": host_workers(),
        "amped_threads": std::env::var("AMPED_THREADS").ok(),
        "cpu_model": cpu_model().unwrap_or_else(unknown),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "load_1min": load_1min
    })
}
