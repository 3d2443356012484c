//! `compare A.json B.json`: the end-to-end metrics of two result sets held
//! against the bounds in `BENCHMARK.json`. A is the base of every ratio.

use crate::jsonx::{at, entries, field, items, num, read, text};
use crate::stats::median;
use serde_json::Value;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    /// A's own spread is wider than the bound, so a difference within the
    /// bound cannot be told from noise.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        b / a - 1.0
    } else {
        a / b - 1.0
    }
}

pub fn verdict(worse_by: f64, spread_a: f64, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Regress
    } else if spread_a > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

/// One side of the comparison: one or more `results.json` files of the same
/// commit (comma-separated on the command line).
struct Side {
    runs: Vec<Value>,
}

impl Side {
    fn load(arg: &str) -> Result<Self, String> {
        let runs = arg
            .split(',')
            .map(|p| read(Path::new(p)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { runs })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        let path = [
            "workloads",
            workload,
            "end_to_end",
            "metrics",
            metric,
            "value",
        ];
        self.runs
            .iter()
            .filter_map(|r| at(r, &path).and_then(num))
            .collect()
    }

    /// Spread as a share of the value: across runs when there are several
    /// (their full range over their median), else inside the one run — twice
    /// the MAD of its samples over √n, over their median. Metrics that are
    /// single readings (memory, modeled time) have none.
    fn spread(&self, workload: &str, metric: &str) -> f64 {
        let values = self.values(workload, metric);
        if values.len() > 1 {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            return (hi - lo) / median(&values);
        }
        let summary = ["workloads", workload, "end_to_end", "summaries", metric];
        let Some(s) = self.runs.first().and_then(|r| at(r, &summary)) else {
            return 0.0;
        };
        let get = |k| field(s, k).and_then(num);
        match (get("mad"), get("p50"), get("n")) {
            (Some(mad), Some(p50), Some(n)) if p50 > 0.0 && n > 0.0 => 2.0 * mad / n.sqrt() / p50,
            _ => 0.0,
        }
    }

    /// `ops_failed / ops_attempted` over every workload of every run.
    fn failure_rate(&self) -> f64 {
        let (mut failed, mut attempted) = (0.0, 0.0);
        for run in &self.runs {
            for (_, w) in field(run, "workloads").map_or(&[][..], entries) {
                failed += field(w, "ops_failed").and_then(num).unwrap_or(0.0);
                attempted += field(w, "ops_attempted").and_then(num).unwrap_or(0.0);
            }
        }
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        }
    }
}

/// Runs the comparison, prints the table, and returns whether B is
/// acceptable (no regress, no higher failure rate).
pub fn run(a_arg: &str, b_arg: &str, bounds: &Path) -> Result<bool, String> {
    let (a, b) = (Side::load(a_arg)?, Side::load(b_arg)?);
    let contract = read(bounds)?;
    let metrics = field(&contract, "end_to_end").map_or(&[][..], items);
    let workloads = field(&contract, "workloads").map_or(&[][..], items);
    println!(
        "{:<14} {:<15} {:>12} {:>12} {:>16} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "spreadA", "bound"
    );
    let mut ok = true;
    for w in workloads
        .iter()
        .filter_map(|w| field(w, "name").and_then(text))
    {
        for m in metrics {
            let (Some(name), Some(bound)) = (
                field(m, "name").and_then(text),
                field(m, "bound").and_then(num),
            ) else {
                return Err(format!("{}: malformed end_to_end entry", bounds.display()));
            };
            let lower = field(m, "better").and_then(text) != Some("higher");
            let (va, vb) = (a.values(w, name), b.values(w, name));
            if va.is_empty() || vb.is_empty() {
                println!("{w:<14} {name:<15} missing on one side");
                continue;
            }
            let (pa, pb) = (median(&va), median(&vb));
            let spread = a.spread(w, name);
            let v = verdict(worsening(pa, pb, lower), spread, bound);
            ok &= v != Verdict::Regress;
            println!(
                "{w:<14} {name:<15} {pa:>12.6} {pb:>12.6} {:>16.4} {:>7.2}% {:>7.2}%  {}",
                pb / pa,
                100.0 * spread,
                100.0 * bound,
                match v {
                    Verdict::Pass => "pass",
                    Verdict::Regress => "REGRESS",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let (fa, fb) = (a.failure_rate(), b.failure_rate());
    println!("ops_failed / ops_attempted: A {fa:.6}, B {fb:.6}");
    if fb > fa {
        println!("B fails more operations than A");
        ok = false;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_than_the_bound_is_a_regress_whatever_the_spread() {
        assert_eq!(verdict(0.08, 0.0, 0.07), Verdict::Regress);
        assert_eq!(verdict(0.08, 0.5, 0.07), Verdict::Regress);
    }

    #[test]
    fn within_the_bound_passes_only_when_the_base_is_steady() {
        assert_eq!(verdict(0.02, 0.01, 0.07), Verdict::Pass);
        assert_eq!(verdict(-0.30, 0.01, 0.07), Verdict::Pass);
        assert_eq!(verdict(0.02, 0.09, 0.07), Verdict::Unresolved);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(1.0, 1.1, true) - 0.1).abs() < 1e-12);
        assert!((worsening(1.1, 1.0, false) - 0.1).abs() < 1e-12);
        assert!(worsening(1.0, 0.9, true) < 0.0);
    }
}
