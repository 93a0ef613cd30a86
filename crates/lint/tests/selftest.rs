//! Lint self-test: every seeded mutant fixture is flagged by exactly the
//! rule it was planted for, and the real workspace passes clean.

use bpmax_lint::{classify, lint_source, lint_workspace, FileKind};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => panic!("read {}: {e}", path.display()),
    }
}

fn rules(findings: &[bpmax_lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn mutant_unwrap_in_lib_is_flagged() {
    let f = lint_source(
        "crates/x/src/mutant.rs",
        &fixture("unwrap_in_lib.rs"),
        FileKind::Lib,
    );
    assert_eq!(
        rules(&f),
        ["no-panic", "no-panic", "no-panic"],
        "unwrap, panic! and expect must each be flagged once: {f:?}"
    );
    // The test-tail unwrap must NOT be among them.
    assert!(f.iter().all(|x| x.line < 16), "{f:?}");
}

#[test]
fn mutant_relaxed_no_comment_is_flagged() {
    let f = lint_source(
        "crates/x/src/mutant.rs",
        &fixture("relaxed_no_comment.rs"),
        FileKind::Lib,
    );
    assert_eq!(
        rules(&f),
        ["atomic-ordering", "atomic-ordering"],
        "bare SeqCst and Relaxed must be flagged, justified Relaxed must pass: {f:?}"
    );
}

#[test]
fn mutant_instant_in_kernel_is_flagged() {
    // Linted under a hot-path name the bare Instant::now is an error...
    let f = lint_source(
        "crates/core/src/kernels.rs",
        &fixture("instant_in_kernel.rs"),
        FileKind::Lib,
    );
    assert_eq!(rules(&f), ["instant-hot-loop"], "{f:?}");
    // ...and under any other name the same source is fine.
    let f = lint_source(
        "crates/core/src/perfmodel.rs",
        &fixture("instant_in_kernel.rs"),
        FileKind::Lib,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn real_workspace_is_clean() {
    // CARGO_MANIFEST_DIR is crates/lint; the workspace root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let findings = lint_workspace(&root).unwrap();
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixtures_are_outside_walker_scope() {
    // The walker covers src/, tests/ and benches/ only — the seeded
    // mutants in fixtures/ must never leak into a workspace run.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let findings = lint_workspace(&root).unwrap();
    assert!(
        findings.iter().all(|f| !f.file.contains("fixtures")),
        "{findings:?}"
    );
}

#[test]
fn classification_matches_repo_layout() {
    assert_eq!(classify("crates/core/src/engine.rs"), FileKind::Lib);
    assert_eq!(classify("crates/cli/src/main.rs"), FileKind::Bin);
    assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Bin);
    assert_eq!(classify("crates/core/tests/properties.rs"), FileKind::Test);
    assert_eq!(classify("crates/bench/src/bin/fig13.rs"), FileKind::Bin);
}

#[test]
fn serve_module_is_panic_free_lib_code() {
    // The daemon's wire decoder faces untrusted bytes: it must stay
    // lib-classified (no unwrap/expect/panic without a justified escape)
    // and actually lint clean, independent of the workspace-wide sweep.
    let rel = "crates/core/src/serve.rs";
    assert_eq!(classify(rel), FileKind::Lib);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => panic!("read {}: {e}", path.display()),
    };
    let findings = lint_source(rel, &text, FileKind::Lib);
    assert!(
        findings.is_empty(),
        "serve module must stay panic-free:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hot_file_set_exists_on_disk() {
    // If a hot file is renamed the rule silently stops applying — fail
    // loudly here instead.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    for hot in [
        "crates/core/src/kernels.rs",
        "crates/core/src/engine.rs",
        "crates/core/src/baseline.rs",
        "crates/core/src/windowed.rs",
        "crates/core/src/ftable.rs",
    ] {
        assert!(
            Path::new(&root).join(hot).is_file(),
            "hot-path file {hot} missing — update bpmax-lint's HOT_FILES"
        );
    }
}
