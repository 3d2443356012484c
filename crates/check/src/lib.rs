//! `amped-check`: the workspace's architectural lint engine.
//!
//! Scans every library source file in the workspace (`crates/*/src`, plus
//! the root facade's `src/`) — and, as tooling, the root `examples/` — with
//! a comment/string-stripping lexer, runs the rule set of [`rules`], and
//! diffs the violation counts against the committed `check-baseline.toml`
//! ratchet. New violations fail; frozen debt does not. See DESIGN.md §14 for
//! the policy and `src/rules.rs` for the invariants themselves.
//!
//! Run as `cargo run -p amped-check -- lint` (add `--write-baseline` after
//! burning down debt to tighten the ratchet).

pub mod baseline;
pub mod lexer;
pub mod rules;

use baseline::Baseline;
use rules::{FileKind, Violation};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crates whose `src/` is harness tooling, exempt from the library rules.
const TOOL_CRATES: &[&str] = &["bench"];

/// The repository root, resolved from this crate's manifest directory
/// (`crates/check` → two levels up).
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => manifest,
    }
}

/// Every file the lint scans, as (workspace-relative path, kind), sorted
/// for deterministic reports.
pub fn collect_files(root: &Path) -> Result<Vec<(String, FileKind)>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let dir = entry.path().join("src");
        if dir.is_dir() {
            walk_rs(&dir, root, TOOL_CRATES.contains(&name.as_str()), &mut out)?;
        }
    }
    for (sub, tool) in [("src", false), ("examples", true)] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_rs(&dir, root, tool, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(
    dir: &Path,
    root: &Path,
    tool_crate: bool,
    out: &mut Vec<(String, FileKind)>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, root, tool_crate, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .to_string_lossy()
                .replace('\\', "/");
            // Binaries under src/bin are tooling regardless of crate.
            let kind = if tool_crate || rel.contains("/bin/") {
                FileKind::Tool
            } else {
                FileKind::Lib
            };
            out.push((rel, kind));
        }
    }
    Ok(())
}

/// Run the full rule set over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut scanned = Vec::new();
    for (rel, kind) in collect_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        scanned.push((rel, kind, lexer::scan(&text)));
    }
    let mut violations = Vec::new();
    for (rel, kind, sf) in &scanned {
        violations.extend(rules::check_file(rel, *kind, sf));
    }
    violations.extend(rules::check_warn_once_keys(&scanned));
    violations.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(violations)
}

/// Violation counts per (rule, file) — the shape the baseline freezes.
pub fn count_by_rule_file(violations: &[Violation]) -> Baseline {
    let mut counts = Baseline::new();
    for v in violations {
        *counts
            .entry(v.rule.to_string())
            .or_default()
            .entry(v.file.clone())
            .or_insert(0) += 1;
    }
    counts
}

/// Outcome of a baseline diff, ready for reporting.
pub struct LintReport {
    /// Every violation found (frozen debt included).
    pub violations: Vec<Violation>,
    /// Violations in excess of the baseline — these fail the run.
    pub new_violations: Vec<Violation>,
    /// (rule, file, baseline, current) where current < baseline: the ratchet
    /// can be tightened.
    pub slack: Vec<(String, String, usize, usize)>,
}

impl LintReport {
    /// True when no (rule, file) count exceeds the baseline.
    pub fn passed(&self) -> bool {
        self.new_violations.is_empty()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let counts = count_by_rule_file(&self.violations);
        let total: usize = counts.values().flat_map(|m| m.values()).sum();
        let _ = writeln!(
            s,
            "amped-check: {} violation(s) across {} rule(s) ({} frozen by baseline, {} new)",
            total,
            counts.len(),
            total - self.new_violations.len(),
            self.new_violations.len()
        );
        for v in &self.new_violations {
            let _ = writeln!(s, "  NEW [{}] {}:{}: {}", v.rule, v.file, v.line, v.excerpt);
        }
        for (rule, file, base, cur) in &self.slack {
            let _ = writeln!(
                s,
                "  ratchet slack [{rule}] {file}: baseline {base}, now {cur} — \
                 tighten with --write-baseline"
            );
        }
        if !self.passed() {
            let _ = writeln!(
                s,
                "FAIL: new violations above. Fix them, or (for deliberate debt)\n\
                 regenerate the baseline with `cargo run -p amped-check -- lint \
                 --write-baseline` and justify the growth in the PR."
            );
        }
        s
    }
}

/// Diff current violations against the baseline ratchet.
pub fn diff_against_baseline(violations: Vec<Violation>, base: &Baseline) -> LintReport {
    let counts = count_by_rule_file(&violations);
    let empty = BTreeMap::new();
    let mut new_violations = Vec::new();
    let mut slack = Vec::new();
    for (rule, files) in &counts {
        let base_files = base.get(rule).unwrap_or(&empty);
        for (file, &cur) in files {
            let allowed = base_files.get(file).copied().unwrap_or(0);
            if cur > allowed {
                // Report the *last* `cur - allowed` sites in the file: with
                // count-keyed baselines the specific new lines are unknowable,
                // but the excess sites give the reader concrete anchors.
                let mut sites: Vec<&Violation> = violations
                    .iter()
                    .filter(|v| v.rule == rule && &v.file == file)
                    .collect();
                sites.drain(..allowed.min(sites.len()));
                new_violations.extend(sites.into_iter().cloned());
            } else if cur < allowed {
                slack.push((rule.clone(), file.clone(), allowed, cur));
            }
        }
    }
    // Baseline entries for files that now have zero violations are slack too.
    for (rule, files) in base {
        for (file, &allowed) in files {
            if allowed > 0 && counts.get(rule).and_then(|m| m.get(file)).is_none() {
                slack.push((rule.clone(), file.clone(), allowed, 0));
            }
        }
    }
    slack.sort();
    new_violations.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    LintReport {
        violations,
        new_violations,
        slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, file: &str, line: usize) -> Violation {
        Violation {
            rule,
            file: file.into(),
            line,
            excerpt: String::new(),
        }
    }

    #[test]
    fn growth_past_baseline_fails_with_the_excess_sites() {
        let mut base = Baseline::new();
        base.entry("no-unwrap".into())
            .or_default()
            .insert("a.rs".into(), 1);
        let report = diff_against_baseline(
            vec![v("no-unwrap", "a.rs", 3), v("no-unwrap", "a.rs", 9)],
            &base,
        );
        assert!(!report.passed());
        assert_eq!(report.new_violations.len(), 1);
        assert_eq!(report.new_violations[0].line, 9);
    }

    #[test]
    fn frozen_debt_passes_and_shrink_reports_slack() {
        let mut base = Baseline::new();
        base.entry("no-unwrap".into())
            .or_default()
            .insert("a.rs".into(), 2);
        base.entry("no-unwrap".into())
            .or_default()
            .insert("gone.rs".into(), 4);
        let report = diff_against_baseline(vec![v("no-unwrap", "a.rs", 3)], &base);
        assert!(report.passed());
        assert_eq!(
            report.slack,
            vec![
                ("no-unwrap".into(), "a.rs".into(), 2, 1),
                ("no-unwrap".into(), "gone.rs".into(), 4, 0),
            ]
        );
    }

    #[test]
    fn unknown_rule_file_pairs_fail_from_zero() {
        let report = diff_against_baseline(vec![v("raw-atomic", "b.rs", 7)], &Baseline::new());
        assert!(!report.passed());
        assert_eq!(report.new_violations.len(), 1);
    }
}
