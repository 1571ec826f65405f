//! Golden-fixture test for `lock-order` — it detects the seeded violation
//! and stays silent on the matching clean fixture — plus the workspace
//! self-check, which keeps the real tree lock-order clean (`cargo test`
//! runs this suite).

use std::path::Path;

use svr_lint::{scan_root, Finding};

fn scan(root: &Path) -> Vec<Finding> {
    scan_root(root).expect("scan must succeed")
}

/// The bad fixture yields exactly the seeded site; the clean fixture
/// yields nothing.
#[test]
fn lock_order_golden() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lock-order");
    let bad = scan(&fixtures.join("bad"));
    let got: Vec<(&str, usize)> = bad.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(got, [("src/lib.rs", 5)], "lock-order/bad findings mismatch");
    let clean = scan(&fixtures.join("clean"));
    assert!(
        clean.is_empty(),
        "lock-order/clean must be silent, got: {clean:?}"
    );
}

/// The workspace itself is lock-order clean: no function takes a table
/// lock while a shard guard is live. A new violation fails this test.
#[test]
fn workspace_self_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint");
    let findings = scan(root);
    assert!(
        findings.is_empty(),
        "workspace must be lock-order clean, got {} finding(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
