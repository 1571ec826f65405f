//! # svr-lint
//!
//! A workspace-specific static checker for the invariants the engine's
//! module docs promise but the compiler cannot see: lock ordering, undo
//! bracketing, panic-freedom of library code, audited `unsafe`, and
//! versioned-record completeness. (WAL bracketing needs no rule: the
//! storage crate's `WalBatch` guard is the only code that can open a
//! bracket.) It is a hand-rolled line scanner — no external parser — which
//! is exactly enough because the rules key off the workspace's own naming
//! conventions (`_table_guard` / `_shard_guard` bindings,
//! `begin_view_undo`/`commit_undo` pairs, `*_V<n>` version consts).
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `lock-order` | no tier-1 table-lock acquisition while a shard refresh guard is live (the `table → shard` rank order, statically) |
//! | `undo-bracket` | every `begin_view_undo` paired with `commit_undo`/`rollback_undo`, or an audited guard constructor |
//! | `no-unwrap` | no `unwrap`/`expect`/`panic!` in non-test library code outside the allowlist |
//! | `unsafe-audit` | every `unsafe` lives in an allowlisted module and carries a `// SAFETY:` comment |
//! | `codec-version` | a versioned-record reader referencing one `FOO_V<n>` const handles **every** const of the `FOO` family |
//!
//! Findings print as `file:line rule message` (or JSON with `--json`) and
//! any individual site can be suppressed with a justification comment:
//! `// svr-lint: allow(rule)` on the offending line or the line above.
//!
//! The scanner strips comments and string literals before matching, tracks
//! brace depth for scopes, and skips `#[cfg(test)]` regions — test code may
//! unwrap freely.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The named rules, in reporting order.
pub const RULES: [&str; 5] = [
    "lock-order",
    "undo-bracket",
    "no-unwrap",
    "unsafe-audit",
    "codec-version",
];

/// Files (path suffixes) where `unsafe` is permitted — today only the
/// server's poll(2) binding. Everything else flags regardless of SAFETY
/// comments.
const UNSAFE_ALLOWED_FILES: [&str; 1] = ["crates/server/src/poll.rs"];

/// Path fragments exempt from `no-unwrap`: benchmark drivers and binary
/// entry points may panic on startup misconfiguration, and the lint's own
/// fixtures would otherwise flag themselves.
const NO_UNWRAP_ALLOWED_PATHS: [&str; 3] = ["crates/bench/", "/bin/", "crates/lint/"];

/// One finding: a rule violated at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the scanned root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// The finding as a JSON object (the `--json` output element).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"file":"{}","line":{},"rule":"{}","message":"{}"}}"#,
            json_escape(&self.file),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (stable field order, one object per
/// finding).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f.to_json());
    }
    out.push(']');
    out
}

/// One analysed source line.
struct Line {
    /// Source text with comments and string/char literal *contents*
    /// blanked (delimiters preserved), so token matching cannot fire
    /// inside either.
    code: String,
    /// The comment text of the line (SAFETY / allow detection).
    comment: String,
    /// Brace depth before the line.
    depth_before: usize,
    /// Brace depth after the line.
    depth_after: usize,
    /// Inside a `#[cfg(test)]` item.
    in_test: bool,
}

/// A scanned file ready for rule passes.
struct SourceFile {
    rel: String,
    lines: Vec<Line>,
    /// Per line: rules suppressed there via `svr-lint: allow(...)` on the
    /// line itself or the line above.
    allows: Vec<Vec<String>>,
}

/// Lexer state carried across characters while splitting code from
/// comments and strings.
#[derive(PartialEq)]
enum LexState {
    Code,
    Str,
    RawStr(usize),
    Char,
    LineComment,
    BlockComment(usize),
}

impl SourceFile {
    fn parse(rel: String, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut state = LexState::Code;
        let mut depth = 0usize;
        for raw in text.lines() {
            let depth_before = depth;
            let (code, comment, next_state) = strip_line(raw, state);
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
                comment,
                depth_before,
                depth_after: depth,
                in_test: false,
            });
        }
        let mut file = SourceFile {
            rel,
            allows: collect_allows(&lines),
            lines,
        };
        file.mark_test_regions();
        file
    }

    /// Mark every line belonging to a `#[cfg(test)]` item (module or fn).
    fn mark_test_regions(&mut self) {
        let n = self.lines.len();
        let mut i = 0;
        while i < n {
            if self.lines[i].code.trim_start().starts_with("#[cfg(test)]") {
                let base = self.lines[i].depth_before;
                let mut j = i;
                let mut opened = false;
                while j < n {
                    self.lines[j].in_test = true;
                    if self.lines[j].depth_after > base {
                        opened = true;
                    }
                    if opened && self.lines[j].depth_after <= base {
                        break;
                    }
                    // An attribute on a braceless item (e.g. `#[cfg(test)]
                    // use ...;`) ends at the semicolon.
                    if !opened && self.lines[j].code.contains(';') {
                        break;
                    }
                    j += 1;
                }
                i = j + 1;
            } else {
                i += 1;
            }
        }
    }

    fn allowed(&self, line_idx: usize, rule: &str) -> bool {
        self.allows[line_idx].iter().any(|r| r == rule)
    }

    /// Spans of non-test function bodies: `(header_line, body_end_line)`,
    /// both inclusive, 0-based.
    fn function_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let n = self.lines.len();
        let mut i = 0;
        while i < n {
            let line = &self.lines[i];
            if !line.in_test && has_token(&line.code, "fn") && line.code.contains('(') {
                let base = line.depth_before;
                let mut j = i;
                let mut opened = false;
                let mut end = None;
                while j < n {
                    if self.lines[j].depth_after > base {
                        opened = true;
                    }
                    if opened && self.lines[j].depth_after <= base {
                        end = Some(j);
                        break;
                    }
                    if !opened && self.lines[j].code.contains(';') {
                        break; // trait method declaration, no body
                    }
                    j += 1;
                }
                if let Some(end) = end {
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

/// Split one line into (code-with-literals-blanked, comment text), given
/// the lexer state left by the previous line.
fn strip_line(raw: &str, mut state: LexState) -> (String, String, LexState) {
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            LexState::Code => match c {
                '/' if next == Some('/') => {
                    comment
                        .push_str(&raw[raw.char_indices().nth(i).map(|(b, _)| b).unwrap_or(0)..]);
                    state = LexState::LineComment;
                    break;
                }
                '/' if next == Some('*') => {
                    state = LexState::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    // Possible raw string: look back for r / r#...#
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
                    if is_char {
                        code.push('\'');
                        state = LexState::Char;
                    } else {
                        code.push('\'');
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
                if c == '"' {
                    let mut ok = true;
                    for h in 0..hashes {
                        if chars.get(i + 1 + h) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code.push('"');
                        state = LexState::Code;
                        i += 1 + hashes;
                        continue;
                    }
                }
                i += 1;
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
            LexState::LineComment => break,
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
                    comment.push(c);
                    i += 1;
                }
            }
        }
    }
    // Line comments and unterminated raw-string/char states reset or carry:
    if state == LexState::LineComment {
        state = LexState::Code;
    }
    (code, comment, state)
}

/// Collect per-line allow lists: `svr-lint: allow(rule[, rule])` in a
/// comment applies to its own line and the one below.
fn collect_allows(lines: &[Line]) -> Vec<Vec<String>> {
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    for (i, line) in lines.iter().enumerate() {
        let Some(pos) = line.comment.find("svr-lint: allow(") else {
            continue;
        };
        let rest = &line.comment[pos + "svr-lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        allows[i].extend(rules.iter().cloned());
        if i + 1 < lines.len() {
            allows[i + 1].extend(rules);
        }
    }
    allows
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

/// Count call occurrences of `name(` (definitions excluded).
fn count_calls(code: &str, name: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = find_token(code, name, from) {
        let after = &code[pos + name.len()..];
        let before = code[..pos].trim_end();
        if after.trim_start().starts_with('(') && !before.ends_with("fn") {
            n += 1;
        }
        from = pos + 1;
    }
    n
}

/// Walk `root`'s workspace sources: `src/` and every `crates/*/src/`,
/// recursively, `.rs` files only, sorted for deterministic output.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
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

/// Scan the workspace rooted at `root` with every rule and return the
/// unsuppressed findings, ordered by file then line.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let files = workspace_sources(root);
    let mut parsed = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        parsed.push(SourceFile::parse(rel, &text));
    }
    // codec-version needs the workspace-wide const families first.
    let families = collect_version_families(&parsed);
    let mut findings = Vec::new();
    for file in &parsed {
        check_lock_order(file, &mut findings);
        check_bracket(
            file,
            "undo-bracket",
            "begin_view_undo",
            &["commit_undo", "rollback_undo"],
            &mut findings,
        );
        check_no_unwrap(file, &mut findings);
        check_unsafe_audit(file, &mut findings);
        check_codec_version(file, &families, &mut findings);
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
                && !file.allowed(i, "lock-order")
            {
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: i + 1,
                    rule: "lock-order",
                    message: "acquires a tier-1 table lock while a shard refresh guard is live \
                              (lock order is table → shard; release the shard guard first)"
                        .into(),
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

/// `undo-bracket`: per function, `begin` calls must not outnumber the
/// closers. Guard constructors (where the bracket intentionally spans the
/// guard's lifetime) carry an inline allow.
fn check_bracket(
    file: &SourceFile,
    rule: &'static str,
    begin: &str,
    closers: &[&str],
    findings: &mut Vec<Finding>,
) {
    for &(start, end) in &file.function_spans() {
        let mut begins: Vec<usize> = Vec::new();
        let mut closes = 0usize;
        for i in start..=end {
            let line = &file.lines[i];
            if line.in_test {
                continue;
            }
            // A begin whose guard is *bound* (`let g = ...begin_x(...)` or
            // assigned to a field) is bracketed by the guard's lifetime —
            // its Drop closes the bracket on every path, early returns
            // included. Only discarded-result begins need a lexical pair.
            let bound =
                find_token(&line.code, begin, 0).is_some_and(|pos| line.code[..pos].contains('='));
            if bound {
                continue;
            }
            for _ in 0..count_calls(&line.code, begin) {
                begins.push(i);
            }
            for closer in closers {
                closes += count_calls(&line.code, closer);
            }
        }
        if begins.len() > closes {
            for &i in begins.iter().take(begins.len() - closes) {
                if file.allowed(i, rule) {
                    continue;
                }
                findings.push(Finding {
                    file: file.rel.clone(),
                    line: i + 1,
                    rule,
                    message: format!(
                        "`{begin}` without a matching `{}` in this function — pair it on every \
                         path or hold it in a guard (guard constructors suppress with \
                         `// svr-lint: allow({rule})` and a justification)",
                        closers.join("`/`")
                    ),
                });
            }
        }
    }
}

/// `no-unwrap`: `.unwrap()`, `.expect(`, `panic!` in non-test library
/// code. Infallible `try_into().unwrap()` conversions are idiomatic and
/// exempt, as are benchmark/binary entry points (see
/// [`NO_UNWRAP_ALLOWED_PATHS`]).
fn check_no_unwrap(file: &SourceFile, findings: &mut Vec<Finding>) {
    if NO_UNWRAP_ALLOWED_PATHS
        .iter()
        .any(|frag| file.rel.contains(frag))
    {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || file.allowed(i, "no-unwrap") {
            continue;
        }
        let code = &line.code;
        let has_panic = has_token(code, "panic!");
        let has_unwrap = code.contains(".unwrap()") || code.contains(".expect(");
        if !(has_panic || has_unwrap) {
            continue;
        }
        // Fixed-size slice conversions cannot fail; the unwrap documents
        // that, and flagging them would bury the real findings.
        if !has_panic && code.contains("try_into()") {
            continue;
        }
        findings.push(Finding {
            file: file.rel.clone(),
            line: i + 1,
            rule: "no-unwrap",
            message: "panic path in library code (`unwrap`/`expect`/`panic!`) — return an error, \
                      or justify with `// svr-lint: allow(no-unwrap)` if unreachable by invariant"
                .into(),
        });
    }
}

/// `unsafe-audit`: `unsafe` only in allowlisted files, and every
/// occurrence annotated with a `// SAFETY:` comment on it or within the
/// three lines above.
fn check_unsafe_audit(file: &SourceFile, findings: &mut Vec<Finding>) {
    let file_allowed = UNSAFE_ALLOWED_FILES
        .iter()
        .any(|suffix| file.rel.ends_with(suffix));
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || !has_token(&line.code, "unsafe") {
            continue;
        }
        if file.allowed(i, "unsafe-audit") {
            continue;
        }
        if !file_allowed {
            findings.push(Finding {
                file: file.rel.clone(),
                line: i + 1,
                rule: "unsafe-audit",
                message: "`unsafe` outside the allowlisted modules (only the server poll(2) \
                          binding may use unsafe; extend the allowlist deliberately)"
                    .into(),
            });
            continue;
        }
        // Documented when the line itself, or the contiguous run of
        // comment-only lines directly above it, carries `SAFETY:` — a
        // multi-line justification counts in full.
        let is_safety = |c: &str| {
            c.trim_start()
                .trim_start_matches('/')
                .trim_start()
                .starts_with("SAFETY:")
        };
        let mut documented = is_safety(&line.comment);
        let mut j = i;
        while !documented && j > 0 {
            j -= 1;
            let above = &file.lines[j];
            if !above.code.trim().is_empty() || above.comment.trim().is_empty() {
                break;
            }
            documented = is_safety(&above.comment);
        }
        if !documented {
            findings.push(Finding {
                file: file.rel.clone(),
                line: i + 1,
                rule: "unsafe-audit",
                message: "`unsafe` without a `// SAFETY:` comment on the block or the lines \
                          directly above"
                    .into(),
            });
        }
    }
}

/// Pass 1 of `codec-version`: every `const FOO_V<n>` declaration in the
/// workspace, grouped into families by prefix (`FOO` → {`FOO_V1`,
/// `FOO_V2`}).
fn collect_version_families(files: &[SourceFile]) -> BTreeMap<String, Vec<String>> {
    let mut families: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in files {
        for line in &file.lines {
            let code = &line.code;
            let Some(pos) = find_token_prefix(code, "const ") else {
                continue;
            };
            let rest = &code[pos + "const ".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let Some((prefix, version)) = name.rsplit_once("_V") else {
                continue;
            };
            if prefix.is_empty()
                || version.is_empty()
                || !version.chars().all(|c| c.is_ascii_digit())
            {
                continue;
            }
            let entry = families.entry(prefix.to_string()).or_default();
            if !entry.contains(&name) {
                entry.push(name);
            }
        }
    }
    // Single-version families cannot be mishandled; drop them to keep the
    // reader check focused.
    families.retain(|_, members| members.len() > 1);
    for members in families.values_mut() {
        members.sort();
    }
    families
}

fn find_token_prefix(code: &str, tok: &str) -> Option<usize> {
    let pos = code.find(tok)?;
    let before_ok = pos == 0 || {
        let b = code.as_bytes()[pos - 1];
        !(b.is_ascii_alphanumeric() || b == b'_')
    };
    before_ok.then_some(pos)
}

/// Pass 2 of `codec-version`: any function that decodes version tags
/// (calls `record_version`) and references one member of a family must
/// reference them all — a reader that forgets an old tag silently breaks
/// files written by earlier builds.
fn check_codec_version(
    file: &SourceFile,
    families: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    if families.is_empty() {
        return;
    }
    for &(start, end) in &file.function_spans() {
        let mut decodes = false;
        for i in start..=end {
            if has_call(&file.lines[i].code, "record_version") {
                decodes = true;
                break;
            }
        }
        if !decodes {
            continue;
        }
        for (prefix, members) in families {
            let referenced: Vec<&String> = members
                .iter()
                .filter(|m| (start..=end).any(|i| has_token(&file.lines[i].code, m)))
                .collect();
            if referenced.is_empty() || referenced.len() == members.len() {
                continue;
            }
            let missing: Vec<&str> = members
                .iter()
                .filter(|m| !referenced.contains(m))
                .map(|m| m.as_str())
                .collect();
            let line = (start..=end)
                .find(|&i| has_call(&file.lines[i].code, "record_version"))
                .unwrap_or(start);
            if file.allowed(line, "codec-version") {
                continue;
            }
            findings.push(Finding {
                file: file.rel.clone(),
                line: line + 1,
                rule: "codec-version",
                message: format!(
                    "versioned-record reader references the `{prefix}` family but does not \
                     handle {} — readers must handle every tag ≤ current",
                    missing.join(", ")
                ),
            });
        }
    }
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
        assert!(f.lines[0].comment.contains("begin_view_undo"));
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

    #[test]
    fn allow_comment_covers_own_and_next_line() {
        let f = parse("// svr-lint: allow(no-unwrap, undo-bracket)\nx.unwrap();\ny.unwrap();\n");
        assert!(f.allowed(1, "no-unwrap"));
        assert!(f.allowed(1, "undo-bracket"));
        assert!(!f.allowed(2, "no-unwrap"));
    }
}
