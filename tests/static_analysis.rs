//! Fixture-driven tests for the `semimatch-analyze` static-analysis engine,
//! plus the self-clean gate: the real workspace with its committed baseline
//! must come back green, which is exactly what CI runs as a blocking step.
//!
//! Each fixture under `tests/analyze_fixtures/` is a miniature analysis root
//! (the scanner only needs `src/` / `crates/` / `vendor/` subtrees), seeded
//! with violations next to a justified twin, so both the positive and the
//! negative case are pinned to exact `file:line` coordinates.

use std::path::{Path, PathBuf};
use std::process::Command;

use semimatch::analyze::{analyze, BaselineChoice, Finding, Options, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/analyze_fixtures").join(name)
}

/// Analyze a fixture root with no baseline applied.
fn run(name: &str) -> Report {
    let opts = Options { root: fixture(name), baseline: BaselineChoice::None };
    analyze(&opts).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn coords(findings: &[Finding]) -> Vec<(&str, &str, usize)> {
    findings.iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect()
}

// -------------------------------------------------------------------
// Both rules, with exact file:line expectations
// -------------------------------------------------------------------

#[test]
fn ordering_fixture_flags_unjustified_and_relaxed_rmw() {
    let rep = run("ordering_bad");
    // Line 9: a relaxed fetch_add with no comment trips both rules; line 13
    // is an unjustified Acquire load; line 18 is justified and stays quiet.
    assert_eq!(
        coords(&rep.findings),
        vec![
            ("atomic-ordering-justified", "vendor/rayon/src/pool.rs", 9),
            ("relaxed-rmw", "vendor/rayon/src/pool.rs", 9),
            ("atomic-ordering-justified", "vendor/rayon/src/pool.rs", 13),
        ]
    );
}

// -------------------------------------------------------------------
// Baseline semantics: counted suppression, stale entries, parse errors
// -------------------------------------------------------------------

#[test]
fn stale_baseline_entry_fails_even_with_zero_findings() {
    let root = fixture("stale_baseline");
    let rep = analyze(&Options { root: root.clone(), baseline: BaselineChoice::Default }).unwrap();
    // The single relaxed RMW is suppressed, but the entry claims two sites:
    // the run must fail so the baseline shrinks alongside the code.
    assert!(rep.findings.is_empty());
    assert_eq!(rep.baselined, 1);
    assert_eq!(rep.stale_baseline.len(), 1);
    assert!(rep.stale_baseline[0].contains("expects 2 site(s), found 1"));
    assert!(!rep.ok());

    // Without the baseline the raw finding comes back.
    let raw = analyze(&Options { root, baseline: BaselineChoice::None }).unwrap();
    assert_eq!(coords(&raw.findings), vec![("relaxed-rmw", "vendor/rayon/src/pool.rs", 4)]);
}

#[test]
fn malformed_baseline_is_a_configuration_error() {
    let root = fixture("stale_baseline");
    let bad = root.join("bad.baseline");
    let err = analyze(&Options { root, baseline: BaselineChoice::File(bad) }).unwrap_err();
    assert!(err.contains("expected 5 tab-separated fields"), "{err}");
}

// -------------------------------------------------------------------
// Self-clean: the real workspace, with its committed baseline, gates green
// -------------------------------------------------------------------

#[test]
fn real_workspace_is_clean_under_committed_baseline() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let rep = analyze(&Options::for_root(&root)).unwrap();
    let rendered: Vec<String> = rep.findings.iter().map(Finding::render_text).collect();
    assert!(
        rep.ok(),
        "workspace not clean:\n{}\nstale: {:?}",
        rendered.join("\n"),
        rep.stale_baseline
    );
    assert!(rep.baselined > 0, "the committed baseline should be exercised");
    assert!(rep.files_scanned > 50, "scan looks truncated: {} files", rep.files_scanned);
    // Both rules ran.
    assert_eq!(rep.rules, ["atomic-ordering-justified", "relaxed-rmw"]);
}

// -------------------------------------------------------------------
// CLI surface: exit codes and the JSON contract via `semimatch analyze`
// -------------------------------------------------------------------

fn semimatch_analyze(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_semimatch"))
        .arg("analyze")
        .args(args)
        .output()
        .expect("spawn semimatch binary")
}

#[test]
fn cli_exit_codes_follow_the_contract() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    // 0: the real workspace under its committed baseline.
    let ok = semimatch_analyze(&["--root", root.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stdout));
    // 1: a seeded-bad fixture.
    let bad = fixture("ordering_bad");
    let fail = semimatch_analyze(&["--root", bad.to_str().unwrap()]);
    assert_eq!(fail.status.code(), Some(1));
    let text = String::from_utf8_lossy(&fail.stdout);
    assert!(text.contains("vendor/rayon/src/pool.rs:9: [relaxed-rmw]"), "{text}");
    // 2: configuration errors (bad flag, missing root, malformed baseline).
    assert_eq!(semimatch_analyze(&["--frobnicate"]).status.code(), Some(2));
    assert_eq!(
        semimatch_analyze(&["--root", "/nonexistent-semimatch-root"]).status.code(),
        Some(2)
    );
    let stale_root = fixture("stale_baseline");
    let malformed = semimatch_analyze(&[
        "--root",
        stale_root.to_str().unwrap(),
        "--baseline",
        stale_root.join("bad.baseline").to_str().unwrap(),
    ]);
    assert_eq!(malformed.status.code(), Some(2));
    // 1 again: the stale default baseline fails the gate with zero findings.
    let stale = semimatch_analyze(&["--root", stale_root.to_str().unwrap()]);
    assert_eq!(stale.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&stale.stdout).contains("stale baseline entry"));
}

#[test]
fn json_report_is_last_on_stdout_and_well_formed() {
    let bad = fixture("ordering_bad");
    let out = semimatch_analyze(&["--root", bad.to_str().unwrap(), "--format=json"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    // The `--metrics=json` convention: the object starts at the first line
    // beginning with `{` and runs to the end of stdout.
    let start = text.find("\n{").map(|i| i + 1).or_else(|| text.starts_with('{').then_some(0));
    let doc = &text[start.expect("no JSON object on stdout")..];
    assert_valid_json(doc);
    for key in
        ["\"tool\": \"semimatch-analyze\"", "\"rules\": [", "\"findings\": [", "\"ok\": false"]
    {
        assert!(doc.contains(key), "missing {key} in:\n{doc}");
    }
    assert!(doc.contains("\"rule\": \"relaxed-rmw\""));
    assert!(doc.contains("\"file\": \"vendor/rayon/src/pool.rs\""));
}

/// A minimal JSON validity walker (no serde in the tree): consumes one value
/// and checks only whitespace trails it.
fn assert_valid_json(doc: &str) {
    fn value(s: &[u8], mut i: usize) -> Result<usize, String> {
        fn skip_ws(s: &[u8], mut i: usize) -> usize {
            while i < s.len() && s[i].is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        i = skip_ws(s, i);
        match s.get(i) {
            Some(b'{') | Some(b'[') => {
                let (close, body) = if s[i] == b'{' { (b'}', true) } else { (b']', false) };
                i = skip_ws(s, i + 1);
                if s.get(i) == Some(&close) {
                    return Ok(i + 1);
                }
                loop {
                    i = value(s, i)?;
                    if body {
                        i = skip_ws(s, i);
                        if s.get(i) != Some(&b':') {
                            return Err(format!("expected ':' at {i}"));
                        }
                        i = value(s, i + 1)?;
                    }
                    i = skip_ws(s, i);
                    match s.get(i) {
                        Some(b',') => i += 1,
                        Some(c) if *c == close => return Ok(i + 1),
                        other => {
                            return Err(format!("expected ',' or close at {i}, got {other:?}"))
                        }
                    }
                }
            }
            Some(b'"') => {
                i += 1;
                while i < s.len() {
                    match s[i] {
                        b'\\' => i += 2,
                        b'"' => return Ok(i + 1),
                        _ => i += 1,
                    }
                }
                Err("unterminated string".into())
            }
            Some(b't') if s[i..].starts_with(b"true") => Ok(i + 4),
            Some(b'f') if s[i..].starts_with(b"false") => Ok(i + 5),
            Some(b'n') if s[i..].starts_with(b"null") => Ok(i + 4),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                i += 1;
                while i < s.len()
                    && (s[i].is_ascii_digit() || matches!(s[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    i += 1;
                }
                Ok(i)
            }
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }
    let bytes = doc.as_bytes();
    let end = value(bytes, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
    assert!(
        bytes[end..].iter().all(u8::is_ascii_whitespace),
        "trailing garbage after JSON value at byte {end}"
    );
}
