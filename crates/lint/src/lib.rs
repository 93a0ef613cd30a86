//! `bpmax-lint` — the repository's own lint engine.
//!
//! Three project-specific rules that `clippy` cannot express, enforced
//! over every crate in the workspace (`ci.sh` runs the binary before
//! the test suites):
//!
//! | rule | what it enforces |
//! |---|---|
//! | `no-panic` | library code never calls `.unwrap()` / `.expect(..)` / `panic!(..)` — fallible entry points return [`Result`]; escape: `// lint: allow(unwrap\|expect\|panic): reason` |
//! | `atomic-ordering` | every atomic `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` use carries a `// ordering:` justification on the same or an adjacent preceding line |
//! | `instant-hot-loop` | `Instant::now` never appears in the solver hot-path files (timing belongs to the supervision `Watch` and the bench crate); escape: `// lint: allow(instant): reason` |
//!
//! There is no `syn` in the offline workspace, so the engine is a
//! hand-rolled lexer: it walks the source once and produces two
//! same-shape views — a *code view* with comment and string/char
//! contents blanked out (so `panic!` inside a string literal or a doc
//! example never matches) and a *comment view* with everything except
//! comment text blanked (so escapes and justifications are only
//! honoured where a human actually wrote a comment). Rules match on
//! the code view and look up escapes in the comment view.
//!
//! Scope conventions the repo upholds (and the lexer relies on):
//! `#[cfg(test)]` appears at most once per library file and everything
//! after it is the test module; binaries live under `src/bin/` or
//! `main.rs`; integration tests under `tests/`. The `no-panic` rule
//! applies to library regions only — tests and binaries may unwrap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the violation is in (as walked, relative to the root).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`no-panic`, `atomic-ordering`, ...).
    pub rule: &'static str,
    /// Human-readable description with the offending token.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// What kind of source a file is — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` (not `src/bin`, not `main.rs`).
    Lib,
    /// A binary: `src/bin/**` or `src/main.rs`.
    Bin,
    /// Test code: anything under `tests/` or `benches/`.
    Test,
}

/// The two same-shape views of a source file the rules match against.
pub struct Views {
    /// Source split into lines, comments and literal contents blanked.
    pub code: Vec<String>,
    /// Source split into lines, everything except comment text blanked.
    pub comment: Vec<String>,
}

/// Lexer state while scanning a file.
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Split `text` into the code view and the comment view (see module
/// docs). Both views have exactly the same line structure as the input.
pub fn views(text: &str) -> Views {
    let bytes: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut comment = String::with_capacity(text.len());
    let mut st = State::Normal;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            // newlines pass through both views; a line comment ends here
            if matches!(st, State::LineComment) {
                st = State::Normal;
            }
            code.push('\n');
            comment.push('\n');
            i += 1;
            continue;
        }
        match st {
            State::Normal => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = State::LineComment;
                    code.push_str("  ");
                    comment.push_str("//");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = State::BlockComment(1);
                    code.push_str("  ");
                    comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    st = State::Str;
                    code.push('"');
                    comment.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !prev_is_ident(&bytes, i)
                    && raw_str_hashes(&bytes, i).is_some()
                {
                    let (hashes, consumed) = raw_str_hashes(&bytes, i).unwrap_or((0, 1));
                    st = State::RawStr(hashes);
                    for _ in 0..consumed {
                        code.push(' ');
                        comment.push(' ');
                    }
                    code.push('"');
                    i += consumed + 1;
                } else if c == '\'' && is_char_literal(&bytes, i) {
                    st = State::Char;
                    code.push('\'');
                    comment.push(' ');
                    i += 1;
                } else {
                    code.push(c);
                    comment.push(' ');
                    i += 1;
                }
            }
            State::LineComment => {
                code.push(' ');
                comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = bytes.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    code.push_str("  ");
                    comment.push_str("*/");
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    code.push_str("  ");
                    comment.push_str("/*");
                    st = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    code.push(' ');
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push(' ');
                    comment.push(' ');
                    i += 2;
                    if bytes.get(i - 1) == Some(&'\n') {
                        code.push('\n');
                        comment.push('\n');
                    } else {
                        code.push(' ');
                        comment.push(' ');
                    }
                } else if c == '"' {
                    code.push('"');
                    comment.push(' ');
                    st = State::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&bytes, i, hashes) {
                    code.push('"');
                    comment.push(' ');
                    for _ in 0..hashes {
                        code.push(' ');
                        comment.push(' ');
                    }
                    st = State::Normal;
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    code.push(' ');
                    comment.push(' ');
                    i += 2;
                    code.push(' ');
                    comment.push(' ');
                } else if c == '\'' {
                    code.push('\'');
                    comment.push(' ');
                    st = State::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
        }
    }
    Views {
        code: code.lines().map(str::to_string).collect(),
        comment: comment.lines().map(str::to_string).collect(),
    }
}

/// Is `bytes[i]` preceded by an identifier character (so `r`/`b` here
/// is the tail of a name like `var`, not a raw-string prefix)?
fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// If position `i` starts a raw(-byte) string literal, return
/// `(hash_count, chars_before_quote)`.
fn raw_str_hashes(bytes: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&'"')).then_some((hashes, j - i))
}

/// Does the `"` at `i` close a raw string with `hashes` hashes?
fn closes_raw(bytes: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Distinguish a char literal from a lifetime: `'x'` or `'\..'` is a
/// literal, `'a` followed by a non-quote is a lifetime.
fn is_char_literal(bytes: &[char], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some('\\') => true,
        Some(_) => bytes.get(i + 2) == Some(&'\''),
        None => false,
    }
}

/// Solver hot-path files: `Instant::now` is banned here (timing belongs
/// to the supervision `Watch`, sampled once per outer diagonal, and to
/// the bench crate).
const HOT_FILES: &[&str] = &[
    "crates/core/src/kernels.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/baseline.rs",
    "crates/core/src/windowed.rs",
    "crates/core/src/ftable.rs",
];

/// The atomic orderings rule 2 watches for. `std::cmp::Ordering`'s
/// variants (`Less`/`Equal`/`Greater`) never match.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// How far above a match (in lines) a justification or escape comment
/// may sit and still attach to it.
const ESCAPE_LOOKBACK: usize = 3;

/// Does any comment within the lookback window (same line or up to
/// [`ESCAPE_LOOKBACK`] lines above) contain `needle`?
fn comment_nearby(views: &Views, line: usize, needle: &str) -> bool {
    let lo = line.saturating_sub(ESCAPE_LOOKBACK);
    (lo..=line).any(|l| views.comment.get(l).is_some_and(|c| c.contains(needle)))
}

/// Line index (0-based) where the file's `#[cfg(test)]` tail module
/// starts, if any — everything from there on is test code.
fn test_region_start(views: &Views) -> Option<usize> {
    views
        .code
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
}

/// Lint one file's source text. `file` is the path as reported in
/// findings (also used for the hot-file rule), `kind` decides which
/// rules apply.
pub fn lint_source(file: &str, text: &str, kind: FileKind) -> Vec<Finding> {
    let v = views(text);
    let mut out = Vec::new();
    let test_start = test_region_start(&v);
    let in_test = |line: usize| kind == FileKind::Test || test_start.is_some_and(|s| line >= s);
    let hot = HOT_FILES.iter().any(|h| file.ends_with(h));
    let finding = |line: usize, rule: &'static str, message: String| Finding {
        file: file.to_string(),
        line: line + 1,
        rule,
        message,
    };

    for (i, code) in v.code.iter().enumerate() {
        // Rule 1: no-panic in library code.
        if kind == FileKind::Lib && !in_test(i) {
            for (token, key) in [
                (".unwrap()", "unwrap"),
                (".expect(", "expect"),
                ("panic!(", "panic"),
            ] {
                let mut hit = code.contains(token);
                if hit && key == "expect" {
                    // `self.expect(` is a parser method of its own, and
                    // `.expect_err(` is a test idiom — not the Option/
                    // Result combinator this rule bans.
                    hit = code
                        .match_indices(".expect(")
                        .any(|(p, _)| !code[..p].ends_with("self") && !code[..p].ends_with("Self"));
                    hit = hit && !code.contains(".expect_err(");
                }
                if hit && !comment_nearby(&v, i, &format!("lint: allow({key})")) {
                    out.push(finding(
                        i,
                        "no-panic",
                        format!(
                            "`{token}` in library code — return a Result or add \
                             `// lint: allow({key}): <why this cannot fail>`"
                        ),
                    ));
                }
            }
        }

        // Rule 2: atomic orderings must be justified (everywhere,
        // including tests — a wrong ordering in a test harness still
        // races).
        for ord in ATOMIC_ORDERINGS {
            if code.contains(ord) && !comment_nearby(&v, i, "ordering:") {
                out.push(finding(
                    i,
                    "atomic-ordering",
                    format!(
                        "`{ord}` without a `// ordering:` justification on this \
                         or an adjacent preceding line"
                    ),
                ));
            }
        }

        // Rule 3: no ad-hoc timing in the solver hot paths.
        if hot
            && !in_test(i)
            && code.contains("Instant::now")
            && !comment_nearby(&v, i, "lint: allow(instant)")
        {
            out.push(finding(
                i,
                "instant-hot-loop",
                "`Instant::now` in a solver hot-path file — route timing \
                 through the supervision Watch or the bench crate"
                    .to_string(),
            ));
        }
    }
    out
}

/// Classify a workspace-relative path into the [`FileKind`] the rules
/// expect.
pub fn classify(path: &str) -> FileKind {
    let p = path.replace('\\', "/");
    if p.contains("/tests/") || p.contains("/benches/") {
        FileKind::Test
    } else if p.contains("/src/bin/") || p.ends_with("/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// Recursively collect `.rs` files under `dir` into `out`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every crate under `<root>/crates`: `src/`, `tests/` and
/// `benches/` of each. Vendored shims and fixture files are out of
/// scope (shims reproduce external APIs; fixtures are deliberately
/// broken).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut members: Vec<_> = std::fs::read_dir(&crates)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    members.sort();
    for member in members {
        if !member.is_dir() {
            continue;
        }
        for sub in ["src", "tests", "benches"] {
            let dir = member.join(sub);
            if dir.is_dir() {
                walk(&dir, &mut files)?;
            }
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &text, classify(&rel)));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_masks_comments_strings_and_chars() {
        let v = views(
            "let a = \"panic!(x)\"; // panic!(y)\nlet c = '\\''; let l: &'a str = r#\"panic!(z)\"#;\n",
        );
        assert!(!v.code[0].contains("panic!"));
        assert!(v.comment[0].contains("panic!(y)"));
        assert!(!v.code[1].contains("panic!"));
        assert!(v.code[1].contains("let l"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let v = views("/* a /* b */ still comment */ let x = 1;\n");
        assert!(v.code[0].contains("let x = 1;"));
        assert!(!v.code[0].contains("still"));
        assert!(v.comment[0].contains("still comment"));
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap()\n";
        assert!(lint_source("crates/x/src/a.rs", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn escape_comment_suppresses_no_panic() {
        let src =
            "fn f() {\n    // lint: allow(unwrap): slice length fixed above\n    x.unwrap();\n}\n";
        assert!(lint_source("crates/x/src/a.rs", src, FileKind::Lib).is_empty());
        let bare = "fn f() {\n    x.unwrap();\n}\n";
        let f = lint_source("crates/x/src/a.rs", bare, FileKind::Lib);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "no-panic");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn self_expect_is_a_method_not_a_combinator() {
        let src = "fn f(&mut self) { self.expect(b'{'); }\n";
        assert!(lint_source("crates/x/src/a.rs", src, FileKind::Lib).is_empty());
        let src = "fn f() { opt.expect(\"boom\"); }\n";
        assert_eq!(
            lint_source("crates/x/src/a.rs", src, FileKind::Lib).len(),
            1
        );
    }

    #[test]
    fn cfg_test_tail_is_exempt_from_no_panic() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/x/src/a.rs", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn cmp_ordering_variants_do_not_match() {
        let src = "fn f() { let _ = a.cmp(&b) == Ordering::Less; }\n";
        assert!(lint_source("crates/x/src/a.rs", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn atomic_ordering_needs_justification_even_in_tests() {
        let src = "fn t() { c.fetch_add(1, Ordering::Relaxed); }\n";
        let f = lint_source("crates/x/tests/a.rs", src, FileKind::Test);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "atomic-ordering");
        let ok = "fn t() {\n    // ordering: test counter, no synchronization implied\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/x/tests/a.rs", ok, FileKind::Test).is_empty());
    }

    #[test]
    fn instant_banned_only_in_hot_files() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let f = lint_source("crates/core/src/kernels.rs", src, FileKind::Lib);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "instant-hot-loop");
        assert!(lint_source("crates/core/src/perfmodel.rs", src, FileKind::Lib).is_empty());
        assert!(lint_source("crates/core/src/supervise.rs", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/engine.rs"), FileKind::Lib);
        assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Bin);
        assert_eq!(classify("crates/bench/src/bin/fig13.rs"), FileKind::Bin);
        assert_eq!(classify("crates/core/tests/properties.rs"), FileKind::Test);
    }
}
