//! The workspace itself must lint clean against the committed baseline.
//!
//! This is the same pass `ci.sh` runs via the CLI, executed in-process so
//! `cargo test` alone catches a regression: any NEW violation (beyond the
//! frozen debt in `check-baseline.toml`) fails this test with the full
//! report. It also pins the ratchet invariants the baseline file must keep:
//! no unknown rule names, and zero frozen debt for the rules the codebase
//! currently satisfies outright.

use amped_check::baseline;
use amped_check::rules::RULE_NAMES;
use amped_check::{diff_against_baseline, lint_workspace, repo_root};

fn committed_baseline() -> baseline::Baseline {
    let path = repo_root().join("check-baseline.toml");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    baseline::parse(&text).expect("committed baseline must parse")
}

#[test]
fn workspace_has_no_new_violations() {
    let violations = lint_workspace(&repo_root()).expect("workspace scan");
    let report = diff_against_baseline(violations, &committed_baseline());
    assert!(
        report.passed(),
        "workspace lint failed:\n{}",
        report.render()
    );
}

#[test]
fn baseline_freezes_only_known_rules() {
    for rule in committed_baseline().keys() {
        assert!(
            RULE_NAMES.contains(&rule.as_str()),
            "baseline names unknown rule [{rule}]"
        );
    }
}

#[test]
fn structural_rules_carry_no_frozen_debt() {
    // The ratchet freezes legacy unwrap debt only. The structural rules —
    // layer containment, ordering justifications, accumulation discipline,
    // key uniqueness, per-process scratch paths — hold outright, and the
    // baseline must not quietly grow debt for them.
    let base = committed_baseline();
    for rule in [
        "raw-atomic",
        "thread-spawn",
        "relaxed-comment",
        "f32-accum",
        "warn-once-key",
        "fixed-temp-dir",
    ] {
        assert!(
            !base.contains_key(rule),
            "rule [{rule}] must stay debt-free in check-baseline.toml"
        );
    }
}
