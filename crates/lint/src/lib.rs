//! # svr-lint
//!
//! A workspace-specific static check for the one invariant neither the
//! compiler nor clippy can see: **lock order**. Algorithm 1 score updates
//! run under per-shard refresh locks, and a shard lock must never be held
//! while a tier-1 table lock is taken (the `table → shard` rank order the
//! debug-build validator enforces at run time). The rule keys off the
//! workspace's guard naming convention (`_table_guard` / `_shard_guard`
//! bindings and `with_table_lock(s)` calls), so a hand-rolled line scanner
//! — no external parser — is exactly enough.
//!
//! Every other invariant is enforced by the toolchain; see
//! `docs/locking-and-lint.md` for the table. The scan runs as
//! `tests/golden.rs::workspace_self_check` under `cargo test`.
//!
//! The scanner blanks comments and string literals before matching,
//! tracks brace depth for scopes, and skips `#[cfg(test)]` regions.

use std::fmt;
use std::path::{Path, PathBuf};

/// One finding: a table lock taken while a shard guard is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the scanned root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} lock-order acquires a tier-1 table lock while a shard refresh guard is live \
             (lock order is table → shard; release the shard guard first)",
            self.file, self.line
        )
    }
}

/// One analysed source line.
struct Line {
    /// Source text with comments and string/char literal *contents*
    /// blanked (delimiters preserved), so token matching cannot fire
    /// inside either.
    code: String,
    /// Brace depth before the line.
    depth_before: usize,
    /// Brace depth after the line.
    depth_after: usize,
    /// Inside a `#[cfg(test)]` item.
    in_test: bool,
}

/// A scanned file ready for the rule pass.
struct SourceFile {
    rel: String,
    lines: Vec<Line>,
}

/// Lexer state carried across characters while splitting code from
/// comments and strings.
#[derive(PartialEq)]
enum LexState {
    Code,
    Str,
    RawStr(usize),
    Char,
    BlockComment(usize),
}

impl SourceFile {
    fn parse(rel: String, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut state = LexState::Code;
        let mut depth = 0usize;
        for raw in text.lines() {
            let depth_before = depth;
            let (code, next_state) = strip_line(raw, state);
            state = next_state;
            for ch in code.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            lines.push(Line {
                code,
                depth_before,
                depth_after: depth,
                in_test: false,
            });
        }
        let mut file = SourceFile { rel, lines };
        file.mark_test_regions();
        file
    }

    /// Mark every line belonging to a `#[cfg(test)]` item (module or fn).
    fn mark_test_regions(&mut self) {
        let mut i = 0;
        while i < self.lines.len() {
            if self.lines[i].code.trim_start().starts_with("#[cfg(test)]") {
                let (end, _) = self.item_end(i);
                for line in &mut self.lines[i..=end] {
                    line.in_test = true;
                }
                i = end + 1;
            } else {
                i += 1;
            }
        }
    }

    /// The last line of the item that starts at line `start`, and whether
    /// the item has a braced body. A braceless item (`use ...;`, a trait
    /// method declaration) ends at its first `;`, an unterminated one at
    /// the end of the file.
    fn item_end(&self, start: usize) -> (usize, bool) {
        let base = self.lines[start].depth_before;
        let mut opened = false;
        for (j, line) in self.lines.iter().enumerate().skip(start) {
            opened |= line.depth_after > base;
            if opened && line.depth_after <= base {
                return (j, true);
            }
            if !opened && line.code.contains(';') {
                return (j, false);
            }
        }
        (self.lines.len() - 1, false)
    }

    /// Spans of non-test function bodies: `(header_line, body_end_line)`,
    /// both inclusive, 0-based.
    fn function_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut i = 0;
        while i < self.lines.len() {
            let line = &self.lines[i];
            if !line.in_test && has_token(&line.code, "fn") && line.code.contains('(') {
                if let (end, true) = self.item_end(i) {
                    spans.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
            i += 1;
        }
        spans
    }
}

/// Blank one line's comments and literal contents, given the lexer state
/// left by the previous line.
fn strip_line(raw: &str, mut state: LexState) -> (String, LexState) {
    let mut code = String::with_capacity(raw.len());
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            LexState::Code => match c {
                '/' if next == Some('/') => break,
                '/' if next == Some('*') => {
                    state = LexState::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    state = LexState::Str;
                    i += 1;
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Raw string start: count hashes.
                    let mut hashes = 0;
                    let mut k = i + 1;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    if chars.get(k) == Some(&'"') {
                        code.push('"');
                        state = LexState::RawStr(hashes);
                        i = k + 1;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote within a few chars; a lifetime never does.
                    let is_char = next == Some('\\')
                        || (chars.get(i + 2) == Some(&'\''))
                        || (next.is_some_and(|n| !n.is_alphanumeric() && n != '_'));
                    code.push('\'');
                    if is_char {
                        state = LexState::Char;
                    }
                    i += 1;
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            },
            LexState::Str => match c {
                '\\' => i += 2,
                '"' => {
                    code.push('"');
                    state = LexState::Code;
                    i += 1;
                }
                _ => i += 1,
            },
            LexState::RawStr(hashes) => {
                if c == '"' && (1..=hashes).all(|h| chars.get(i + h) == Some(&'#')) {
                    code.push('"');
                    state = LexState::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            LexState::Char => match c {
                '\\' => i += 2,
                '\'' => {
                    code.push('\'');
                    state = LexState::Code;
                    i += 1;
                }
                _ => i += 1,
            },
            LexState::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        LexState::Code
                    } else {
                        LexState::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = LexState::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
    }
    (code, state)
}

/// Token-boundary containment: `tok` appears in `code` not embedded in a
/// longer identifier.
fn has_token(code: &str, tok: &str) -> bool {
    find_token(code, tok, 0).is_some()
}

/// Position of the next token-boundary occurrence of `tok` at or after
/// `from`.
fn find_token(code: &str, tok: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(pos) = code[start..].find(tok) {
        let pos = start + pos;
        let before_ok = pos == 0 || {
            let b = bytes[pos - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = pos + tok.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

/// `name(` as a *call* (or macro/path use), not the `fn name(` definition.
fn has_call(code: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = find_token(code, name, from) {
        let after = &code[pos + name.len()..];
        let is_call = after.trim_start().starts_with('(');
        let before = code[..pos].trim_end();
        let is_def = before.ends_with("fn");
        if is_call && !is_def {
            return true;
        }
        from = pos + 1;
    }
    false
}

/// Walk `root`'s workspace sources: `src/` and every `crates/*/src/`,
/// recursively, `.rs` files only, sorted for deterministic output.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            dirs.push(entry.path().join("src"));
        }
    }
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Scan the workspace rooted at `root` and return the `lock-order`
/// findings, ordered by file then line.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in workspace_sources(root) {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        check_lock_order(&SourceFile::parse(rel, &text), &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// `lock-order`: inside any function, while a `*shard_guard*` binding is
/// live, no `with_table_lock(s)` call and no `*table_guard*` binding may
/// appear — the static mirror of the runtime rank validator's
/// table-before-shard rule.
fn check_lock_order(file: &SourceFile, findings: &mut Vec<Finding>) {
    for &(start, end) in &file.function_spans() {
        // Depths at which a shard guard binding was introduced; a guard
        // dies when its block closes.
        let mut shard_scopes: Vec<usize> = Vec::new();
        for i in start..=end {
            let line = &file.lines[i];
            shard_scopes.retain(|&d| line.depth_before >= d);
            let code = &line.code;
            if !shard_scopes.is_empty()
                && (has_call(code, "with_table_lock")
                    || has_call(code, "with_table_locks")
                    || binds_guard(code, "table_guard"))
            {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: i + 1,
                });
            }
            if binds_guard(code, "shard_guard") {
                // The binding lives until its enclosing block closes.
                shard_scopes.push(line.depth_before);
            }
        }
    }
}

/// Does this line bind a lock guard whose name contains `name` (the
/// workspace convention: `let [_]table_guard =`, `let table_guards:`,
/// `if let Some(_shard_guard) = ...`)?
fn binds_guard(code: &str, name: &str) -> bool {
    let Some(pos) = code.find(name) else {
        return false;
    };
    // A guard *binding* introduces the name left of an `=` (plain let) or
    // inside a `Some(...)` pattern; a use (e.g. `drop(table_guard)`) does
    // not.
    let before = &code[..pos];
    before.contains("let ") || before.contains("Some(")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("test.rs".into(), src)
    }

    #[test]
    fn strips_comments_and_strings() {
        let f = parse(
            "let x = \"begin_view_undo(\"; // begin_view_undo(\nlet y = 1; /* fn unsafe */ let z = 2;\n",
        );
        assert!(!f.lines[0].code.contains("begin_view_undo"));
        assert!(f.lines[1].code.contains("let z"));
        assert!(!f.lines[1].code.contains("unsafe"));
    }

    #[test]
    fn block_comment_spans_lines() {
        let f = parse("/*\n unsafe panic!()\n*/\nlet a = 1;\n");
        assert!(!f.lines[1].code.contains("unsafe"));
        assert!(f.lines[3].code.contains("let a"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = parse("let s = r#\"panic!(\"x\")\"#;\nlet t = 3;\n");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[1].code.contains("let t"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = parse("fn f<'a>(x: &'a str) -> char { '{' }\nlet depth_ok = 1;\n");
        // The '{' char literal must not skew the depth tracking.
        assert_eq!(f.lines[1].depth_before, 0);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let f = parse(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n",
        );
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn token_matching_has_boundaries() {
        assert!(has_token("unsafe {", "unsafe"));
        assert!(!has_token("unsafe_op_in_unsafe_fn", "unsafe"));
        assert!(has_call("db.begin_view_undo()", "begin_view_undo"));
        assert!(!has_call(
            "pub fn begin_view_undo(&self)",
            "begin_view_undo"
        ));
    }
}
