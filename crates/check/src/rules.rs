//! The architectural rule set.
//!
//! Every rule is a substring scan over the comment/string-stripped code
//! lines produced by [`crate::lexer`], restricted to lines outside
//! `#[cfg(test)]` modules and — all but `fixed-temp-dir`, which also covers
//! tooling and examples — to *library* files. The rules encode the
//! workspace's concurrency, numerics and file-hygiene contracts:
//!
//! | rule             | invariant                                                        |
//! |------------------|------------------------------------------------------------------|
//! | `raw-atomic`     | raw `std::sync::atomic` types only in the concurrency layer      |
//! | `thread-spawn`   | `thread::spawn` / `thread::scope` / crossbeam only in that layer |
//! | `no-unwrap`      | no `unwrap`/`expect`/`panic!` family in non-test library code    |
//! | `relaxed-comment`| every `Ordering::Relaxed` carries a `relaxed:` justification     |
//! | `f32-accum`      | no bare `f32` `+=` accumulation outside the kernel layer         |
//! | `warn-once-key`  | `warn_once` keys are globally unique                             |
//! | `fixed-temp-dir` | no `temp_dir().join("literal")`: scratch paths are per-process   |

use crate::lexer::SourceFile;

/// How a scanned file participates in the rule set.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FileKind {
    /// Library code: all rules apply (outside `#[cfg(test)]` regions).
    Lib,
    /// Harness / binary tooling and examples: exempt from every rule but
    /// `fixed-temp-dir`.
    Tool,
}

/// One rule hit at a specific source line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule identifier (a `check-baseline.toml` section name).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending raw line, trimmed, for the report.
    pub excerpt: String,
}

/// All rule identifiers, in report order.
pub const RULE_NAMES: &[&str] = &[
    "raw-atomic",
    "thread-spawn",
    "no-unwrap",
    "relaxed-comment",
    "f32-accum",
    "warn-once-key",
    "fixed-temp-dir",
];

/// The concurrency layer: the only library files allowed to hold raw
/// atomics or spawn/scope threads. Everything else must go through these.
pub const CONCURRENCY_LAYER: &[&str] = &[
    "crates/runtime/src/kernels.rs",
    "crates/runtime/src/smexec.rs",
    "crates/sim/src/obs.rs",
    "crates/partition/src/plan.rs",
    "crates/core/src/ooc.rs",
];

/// The kernel layer: the only library files allowed to accumulate into
/// `f32` with `+=` (they own the f64-accumulate/round-once contract).
pub const KERNEL_LAYER: &[&str] = &["crates/runtime/src/kernels.rs"];

/// Raw-atomic tokens. `Ordering::` alone is not a signal (it collides with
/// `std::cmp::Ordering`), so we key on the atomic type names and the module
/// path instead.
const ATOMIC_TOKENS: &[&str] = &[
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU64",
    "AtomicU32",
    "AtomicU16",
    "AtomicU8",
    "AtomicI64",
    "AtomicI32",
    "AtomicI16",
    "AtomicI8",
    "AtomicBool",
    "AtomicPtr",
    "sync::atomic",
];

/// Thread-spawn tokens: direct `std::thread` entry points and any use of
/// the crossbeam shim.
const SPAWN_TOKENS: &[&str] = &["thread::spawn", "thread::scope", "crossbeam::"];

/// Unwrap-family tokens banned in non-test library code.
const UNWRAP_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// How many raw lines above an `Ordering::Relaxed` site may carry its
/// `relaxed:` justification comment. Wide enough that one comment above a
/// multi-line `compare_exchange` call covers both ordering arguments.
const RELAXED_COMMENT_WINDOW: usize = 5;

fn allowlisted(list: &[&str], file: &str) -> bool {
    list.contains(&file)
}

fn violation(rule: &'static str, file: &str, idx: usize, sf: &SourceFile) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line: idx + 1,
        excerpt: sf.raw[idx].trim().to_string(),
    }
}

/// Run every per-file rule over one scanned file.
pub fn check_file(file: &str, kind: FileKind, sf: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for (idx, code) in sf.code.iter().enumerate() {
        if sf.in_test[idx] {
            continue;
        }
        if joins_a_literal_to_temp_dir(sf, idx) {
            out.push(violation("fixed-temp-dir", file, idx, sf));
        }
        if kind != FileKind::Lib {
            continue;
        }
        if !allowlisted(CONCURRENCY_LAYER, file) && ATOMIC_TOKENS.iter().any(|t| code.contains(t)) {
            out.push(violation("raw-atomic", file, idx, sf));
        }
        if !allowlisted(CONCURRENCY_LAYER, file) && SPAWN_TOKENS.iter().any(|t| code.contains(t)) {
            out.push(violation("thread-spawn", file, idx, sf));
        }
        if UNWRAP_TOKENS.iter().any(|t| code.contains(t)) {
            out.push(violation("no-unwrap", file, idx, sf));
        }
        if code.contains("Ordering::Relaxed") && !has_relaxed_justification(sf, idx) {
            out.push(violation("relaxed-comment", file, idx, sf));
        }
        if !allowlisted(KERNEL_LAYER, file) && code.contains("+=") && code.contains("f32") {
            out.push(violation("f32-accum", file, idx, sf));
        }
    }
    out
}

/// `temp_dir()` on code line `idx` followed — on that line or, for a chained
/// call broken after it, at the start of the next — by `.join("`: a path
/// every process on the host shares, so two concurrent runs (or two tests)
/// read and delete each other's files. `join(format!(…))` with the pid in it,
/// or a `ScratchDir`, is the sanctioned shape.
fn joins_a_literal_to_temp_dir(sf: &SourceFile, idx: usize) -> bool {
    let Some((_, after)) = sf.code[idx].split_once("temp_dir()") else {
        return false;
    };
    let next = match after.trim() {
        "" => sf.code.get(idx + 1).map_or("", |l| l.trim()),
        rest => rest,
    };
    next.starts_with(".join(\"")
}

/// A `relaxed:` comment on the same raw line or within the preceding window
/// justifies a `Ordering::Relaxed` use.
fn has_relaxed_justification(sf: &SourceFile, idx: usize) -> bool {
    let lo = idx.saturating_sub(RELAXED_COMMENT_WINDOW);
    sf.raw[lo..=idx].iter().any(|l| l.contains("relaxed:"))
}

/// Cross-file rule: `warn_once` keys must be globally unique across library
/// code. Call sites with a non-literal key are skipped (they cannot be
/// checked lexically); the definition site (`fn warn_once`) is ignored.
pub fn check_warn_once_keys(files: &[(String, FileKind, SourceFile)]) -> Vec<Violation> {
    let mut sites: Vec<(String, String, usize, String)> = Vec::new(); // key, file, idx, excerpt
    for (file, kind, sf) in files {
        if *kind != FileKind::Lib {
            continue;
        }
        for (idx, code) in sf.code.iter().enumerate() {
            if sf.in_test[idx] {
                continue;
            }
            let mut from = 0;
            while let Some(rel) = code[from..].find("warn_once(") {
                let pos = from + rel;
                from = pos + "warn_once(".len();
                if code[..pos].trim_end().ends_with("fn") {
                    continue; // the definition, not a call
                }
                if let Some(key) = literal_key_after(sf, idx, pos + "warn_once(".len()) {
                    sites.push((key, file.clone(), idx, sf.raw[idx].trim().to_string()));
                }
            }
        }
    }
    sites.sort_by(|a, b| (&a.0, &a.1, a.2).cmp(&(&b.0, &b.1, b.2)));
    let mut out = Vec::new();
    for w in sites.windows(2) {
        if w[0].0 == w[1].0 {
            out.push(Violation {
                rule: "warn-once-key",
                file: w[1].1.clone(),
                line: w[1].2 + 1,
                excerpt: format!(
                    "duplicate warn_once key {:?} (first used at {}:{})",
                    w[1].0,
                    w[0].1,
                    w[0].2 + 1
                ),
            });
        }
    }
    out
}

/// Extract the first argument of a call when it is a string literal,
/// searching the *raw* text (string contents intact) from `col` on line
/// `idx`, spilling onto following lines for multi-line call layouts.
fn literal_key_after(sf: &SourceFile, idx: usize, col: usize) -> Option<String> {
    let mut text = String::new();
    if let Some(raw) = sf.raw.get(idx) {
        // `col` indexes the code line; on the raw line the call head is
        // identical up to the opening paren, so find it there instead.
        let _ = col;
        if let Some(p) = raw.find("warn_once(") {
            text.push_str(&raw[p + "warn_once(".len()..]);
        }
    }
    for follow in sf.raw.iter().skip(idx + 1).take(2) {
        text.push('\n');
        text.push_str(follow);
    }
    let trimmed = text.trim_start();
    let rest = trimmed.strip_prefix('"')?;
    let mut key = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                key.push(chars.next()?);
            }
            '"' => return Some(key),
            _ => key.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn lib(src: &str) -> Vec<Violation> {
        check_file("crates/x/src/lib.rs", FileKind::Lib, &scan(src))
    }

    #[test]
    fn stray_atomic_is_flagged_outside_the_layer() {
        let v = lib("use std::sync::atomic::AtomicUsize;\n");
        assert!(v.iter().any(|v| v.rule == "raw-atomic"), "{v:?}");
        let v = check_file(
            "crates/sim/src/obs.rs",
            FileKind::Lib,
            &scan("use std::sync::atomic::AtomicUsize;\n"),
        );
        assert!(v.iter().all(|v| v.rule != "raw-atomic"));
    }

    #[test]
    fn unwrap_in_strings_comments_and_tests_is_fine() {
        assert!(lib("// .unwrap() in prose\nlet s = \".expect(\";\n").is_empty());
        let v = lib("#[cfg(test)]\nmod t {\n fn f() { x.unwrap(); }\n}\n");
        assert!(v.is_empty(), "{v:?}");
        let v = lib("fn f() { x.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(lib("let x = o.unwrap_or(3).max(o2.unwrap_or_default());\n").is_empty());
    }

    #[test]
    fn relaxed_needs_a_justification_comment() {
        let bad = "fn f(a: &A) { a.n.load(Ordering::Relaxed); }\n";
        let v = lib(bad);
        assert!(v.iter().any(|v| v.rule == "relaxed-comment"));
        let good = "// relaxed: monotonic counter, no data guarded\n\
                    fn f(a: &A) { a.n.load(Ordering::Relaxed); }\n";
        assert!(lib(good).iter().all(|v| v.rule != "relaxed-comment"));
        let same_line = "a.n.load(Ordering::Relaxed); // relaxed: counter only\n";
        assert!(lib(same_line).iter().all(|v| v.rule != "relaxed-comment"));
    }

    #[test]
    fn f32_accumulation_outside_kernels_is_flagged() {
        let v = lib("fn f(out: &mut [f32], v: f32) { out[0] += v; }\n");
        assert!(v.iter().any(|v| v.rule == "f32-accum"), "{v:?}");
        let v = check_file(
            "crates/runtime/src/kernels.rs",
            FileKind::Lib,
            &scan("fn f(out: &mut [f32], v: f32) { out[0] += v; }\n"),
        );
        assert!(v.iter().all(|v| v.rule != "f32-accum"));
    }

    #[test]
    fn duplicate_warn_once_keys_are_caught_across_files() {
        let a = scan("fn f() { warn_once(\"k1\", \"m\"); }\n");
        let b = scan("fn g() {\n    warn_once(\n        \"k1\",\n        \"m\",\n    );\n}\n");
        let files = vec![
            ("crates/a/src/lib.rs".to_string(), FileKind::Lib, a),
            ("crates/b/src/lib.rs".to_string(), FileKind::Lib, b),
        ];
        let v = check_warn_once_keys(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "warn-once-key");
        assert!(v[0].excerpt.contains("k1"));
    }

    #[test]
    fn warn_once_definition_and_dynamic_keys_are_skipped() {
        let src = "pub fn warn_once(key: &str, m: &str) -> bool { true }\n\
                   fn h(k: &str) { warn_once(k, \"m\"); }\n";
        let files = vec![("crates/a/src/lib.rs".to_string(), FileKind::Lib, scan(src))];
        assert!(check_warn_once_keys(&files).is_empty());
    }

    #[test]
    fn literal_temp_dir_joins_are_flagged_in_tools_too() {
        let one_line = "let d = std::env::temp_dir().join(\"amped_x\");\n";
        let chained = "let d = std::env::temp_dir()\n    .join(\"amped_x\")\n    .join(\"f\");\n";
        for src in [one_line, chained] {
            for kind in [FileKind::Lib, FileKind::Tool] {
                let v = check_file("examples/x.rs", kind, &scan(src));
                assert_eq!(v.len(), 1, "{src:?}: {v:?}");
                assert_eq!((v[0].rule, v[0].line), ("fixed-temp-dir", 1));
            }
        }
        let unique = "let d = std::env::temp_dir().join(format!(\"amped_{}\", id()));\n";
        assert!(lib(unique).is_empty());
        let in_test = format!("#[cfg(test)]\nmod t {{\n fn f() {{ {one_line} }}\n}}\n");
        assert!(lib(&in_test).is_empty());
    }

    #[test]
    fn tool_files_are_exempt() {
        let v = check_file(
            "crates/bench/src/bin/x.rs",
            FileKind::Tool,
            &scan("fn f() { x.unwrap(); std::thread::spawn(|| {}); }\n"),
        );
        assert!(v.is_empty());
    }
}
