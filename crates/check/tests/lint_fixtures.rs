//! End-to-end lint-engine tests over known-bad (and known-clean) fixture
//! snippets in `tests/fixtures/`.
//!
//! Each fixture is scanned with the production lexer and run through the
//! production rule set under a path that does NOT sit on the concurrency or
//! kernel allowlists, so every planted defect must surface — and nothing
//! else. The clean fixture is the negative control: decoy tokens inside
//! comments, strings, raw strings, and `#[cfg(test)]` regions must all be
//! invisible to the rules.

use amped_check::lexer::scan;
use amped_check::rules::{check_file, check_warn_once_keys, FileKind, Violation};

/// Scan a fixture and lint it as a plain library file.
fn lint(src: &str) -> Vec<Violation> {
    let sf = scan(src);
    check_file("crates/stream/src/fixture.rs", FileKind::Lib, &sf)
}

fn rules_hit(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort();
    rules.dedup();
    rules
}

#[test]
fn stray_atomics_and_spawns_outside_the_concurrency_layer_are_caught() {
    let v = lint(include_str!("fixtures/stray_concurrency.rs"));
    assert_eq!(rules_hit(&v), vec!["raw-atomic", "thread-spawn"]);
    // The `use` line and the constructor line both mention AtomicUsize.
    assert!(v.iter().filter(|v| v.rule == "raw-atomic").count() >= 2);
}

#[test]
fn the_concurrency_layer_allowlist_exempts_the_same_snippet() {
    let sf = scan(include_str!("fixtures/stray_concurrency.rs"));
    let v = check_file("crates/runtime/src/smexec.rs", FileKind::Lib, &sf);
    assert!(
        !v.iter()
            .any(|v| v.rule == "raw-atomic" || v.rule == "thread-spawn"),
        "allowlisted file must keep its atomics: {v:?}"
    );
}

#[test]
fn unwrap_expect_and_panic_are_caught_in_lib_code_but_not_tests() {
    let v = lint(include_str!("fixtures/naked_unwrap.rs"));
    assert_eq!(rules_hit(&v), vec!["no-unwrap"]);
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines.len(), 3, "unwrap + panic! + expect: {v:?}");
    // The unwrap inside `#[cfg(test)] mod tests` (line 15) is exempt.
    assert!(
        lines.iter().all(|&l| l < 11),
        "test-mod unwrap leaked: {v:?}"
    );
}

#[test]
fn tool_files_are_exempt_from_every_rule() {
    let sf = scan(include_str!("fixtures/naked_unwrap.rs"));
    let v = check_file("crates/bench/src/main.rs", FileKind::Tool, &sf);
    assert!(v.is_empty(), "tool kind must suppress all rules: {v:?}");
}

#[test]
fn an_unjustified_relaxed_is_caught_and_a_commented_one_is_not() {
    // Linted as a concurrency-layer file: atomics are sanctioned there,
    // but every Relaxed ordering still needs its justification comment.
    let sf = scan(include_str!("fixtures/unjustified_relaxed.rs"));
    let v = check_file("crates/sim/src/obs.rs", FileKind::Lib, &sf);
    assert_eq!(rules_hit(&v), vec!["relaxed-comment"]);
    assert_eq!(v.len(), 1, "only the uncommented site: {v:?}");
    assert!(v[0].excerpt.contains("MISSES"), "wrong site flagged: {v:?}");
}

#[test]
fn f32_accumulation_outside_the_kernel_layer_is_caught() {
    let v = lint(include_str!("fixtures/f32_accum.rs"));
    assert_eq!(rules_hit(&v), vec!["f32-accum"]);

    // The identical snippet inside the kernel layer is the sanctioned home
    // for f32 accumulation.
    let sf = scan(include_str!("fixtures/f32_accum.rs"));
    let kernel = check_file("crates/runtime/src/kernels.rs", FileKind::Lib, &sf);
    assert!(kernel.is_empty(), "kernel layer owns f32 +=: {kernel:?}");
}

#[test]
fn duplicate_warn_once_keys_are_caught_across_call_sites() {
    let files = vec![(
        "crates/core/src/fixture.rs".to_string(),
        FileKind::Lib,
        scan(include_str!("fixtures/dup_warn_once.rs")),
    )];
    let v = check_warn_once_keys(&files);
    assert_eq!(v.len(), 1, "second use of the shared key only: {v:?}");
    assert_eq!(v[0].rule, "warn-once-key");
    assert!(
        v[0].excerpt.contains("pipeline-depth"),
        "the duplicated key is pipeline-depth: {v:?}"
    );
}

#[test]
fn fixed_names_under_temp_dir_are_caught_even_in_tooling() {
    let sf = scan(include_str!("fixtures/fixed_temp_dir.rs"));
    for kind in [FileKind::Lib, FileKind::Tool] {
        let v = check_file("examples/fixture.rs", kind, &sf);
        assert_eq!(rules_hit(&v), vec!["fixed-temp-dir"]);
        let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
        // The one-line join and the chained one; the pid-qualified name and
        // the `#[cfg(test)]` use are fine.
        assert_eq!(lines, vec![5, 11], "{v:?}");
    }
}

#[test]
fn clean_code_with_decoy_tokens_raises_nothing() {
    let v = lint(include_str!("fixtures/clean.rs"));
    assert!(v.is_empty(), "negative control must be clean: {v:?}");
}
