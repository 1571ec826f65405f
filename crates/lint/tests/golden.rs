//! Golden-fixture tests: every rule detects its seeded violation and stays
//! silent on the matching clean fixture — plus the workspace self-check,
//! which keeps the real tree lint-clean (CI runs this suite).

use std::path::{Path, PathBuf};

use svr_lint::{scan_root, Finding};

fn fixture(rule: &str, variant: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(variant)
}

/// Scan a fixture tree and return its findings.
fn scan(rule: &str, variant: &str) -> Vec<Finding> {
    scan_root(&fixture(rule, variant)).expect("fixture scan must succeed")
}

/// The bad fixture yields exactly the expected `(file, line)` sites, every
/// one attributed to the rule under test; the clean fixture yields nothing.
fn check_rule(rule: &str, expected: &[(&str, usize)]) {
    let bad = scan(rule, "bad");
    assert!(
        bad.iter().all(|f| f.rule == rule),
        "{rule}/bad must only trigger `{rule}`, got: {bad:?}"
    );
    let got: Vec<(&str, usize)> = bad.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(got, expected, "{rule}/bad findings mismatch: {bad:?}");

    let clean = scan(rule, "clean");
    assert!(
        clean.is_empty(),
        "{rule}/clean must be silent, got: {clean:?}"
    );
}

#[test]
fn lock_order_golden() {
    check_rule("lock-order", &[("src/lib.rs", 5)]);
}

#[test]
fn undo_bracket_golden() {
    check_rule("undo-bracket", &[("src/lib.rs", 4)]);
}

#[test]
fn no_unwrap_golden() {
    check_rule("no-unwrap", &[("src/lib.rs", 4)]);
}

#[test]
fn unsafe_audit_golden() {
    check_rule(
        "unsafe-audit",
        &[("crates/server/src/poll.rs", 4), ("src/lib.rs", 4)],
    );
}

#[test]
fn codec_version_golden() {
    check_rule("codec-version", &[("src/lib.rs", 7)]);
}

/// The workspace itself is lint-clean: every real violation is either fixed
/// or carries a reviewed `svr-lint: allow` justification. This is the gate
/// CI relies on — a new unjustified violation fails this test.
#[test]
fn workspace_self_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint");
    let findings = scan_root(root).expect("workspace scan must succeed");
    assert!(
        findings.is_empty(),
        "workspace must be svr-lint clean, got {} finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// JSON output round-trips the same sites as the text form.
#[test]
fn json_output_matches_findings() {
    let bad = scan("no-unwrap", "bad");
    let json = svr_lint::to_json(&bad);
    assert!(json.starts_with('[') && json.ends_with(']'));
    for f in &bad {
        assert!(json.contains(&format!(r#""file":"{}""#, f.file)));
        assert!(json.contains(&format!(r#""line":{}"#, f.line)));
        assert!(json.contains(r#""rule":"no-unwrap""#));
    }
}
