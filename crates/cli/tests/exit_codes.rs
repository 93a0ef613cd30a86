//! End-to-end exit-status contract of `bpmax-cli`.
//!
//! 0 = success, 2 = misuse (usage text on stderr), 1 = `verify` found
//! real violations, 3 = a supervised batch run completed partially
//! (partial results on stdout). The in-process unit tests cover the
//! error *types*; this spawns the real binary to pin the process-level
//! mapping.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bpmax-cli"))
        .args(args)
        .output()
        .expect("spawn bpmax-cli");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn success_exits_zero() {
    let (code, stdout, _) = run(&["interact", "GGG", "CCC"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("interaction score: 9"), "{stdout}");
}

#[test]
fn misuse_exits_two_with_usage() {
    for argv in [
        vec!["frobnicate"],
        vec![],
        vec!["fold"],
        vec!["fold", "XYZ"],
        vec!["interact", "GG", "CC", "--alg", "warp"],
        vec!["scan", "GGG", "CCC", "--window", "oops"],
        vec!["scan", "GGG", "CCC", "--batch", "--deadline", "0"],
        vec!["scan", "GGG", "CCC", "--batch", "--mem-budget", "-1"],
        vec![
            "scan",
            "GGG",
            "CCC",
            "--batch",
            "--mem-budget",
            "99999999999999999999G",
        ],
        vec!["scan", "GGG", "CCC", "--batch", "--resume"],
    ] {
        let (code, _, stderr) = run(&argv);
        assert_eq!(code, 2, "{argv:?}: {stderr}");
        assert!(stderr.contains("error:"), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{argv:?}: {stderr}");
    }
}

#[test]
fn unknown_algorithm_names_the_candidates() {
    let (code, _, stderr) = run(&["interact", "GG", "CC", "--alg", "warp"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown algorithm \"warp\""), "{stderr}");
    assert!(stderr.contains("hybrid-tiled"), "{stderr}");
    assert!(stderr.contains("hybrid-reg"), "{stderr}");
    // the retired versions ran coarse's work; their names are refused,
    // never remapped
    for retired in ["fine", "hybrid", "fine-grain"] {
        let (code, _, stderr) = run(&["interact", "GG", "CC", "--alg", retired]);
        assert_eq!(code, 2, "{retired}: {stderr}");
        assert!(stderr.contains("unknown algorithm"), "{retired}: {stderr}");
    }
}

#[test]
fn partial_batch_exits_three_with_results_on_stdout() {
    let (code, stdout, stderr) = run(&[
        "scan",
        "GGG",
        "CCCAAACCC",
        "--window",
        "3",
        "--batch",
        "--deadline",
        "0.000000001",
    ]);
    assert_eq!(code, 3, "{stderr}");
    // the partial report (outcome counts + failure summary) is a result
    assert!(stdout.contains("outcomes:"), "{stdout}");
    assert!(stdout.contains("timed-out"), "{stdout}");
    assert!(stdout.contains("did not complete"), "{stdout}");
    assert!(stderr.contains("completed partially"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn supervised_batch_scan_with_headroom_exits_zero() {
    let (code, stdout, stderr) = run(&[
        "scan",
        "GGGGG",
        "AAAAAAAAAACCCCCAAAAAAAAAA",
        "--window",
        "5",
        "--batch",
        "--deadline",
        "60",
        "--mem-budget",
        "1G",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("outcomes: ok"), "{stdout}");
}

#[test]
fn batch_scan_succeeds_end_to_end() {
    let (code, stdout, stderr) = run(&[
        "scan",
        "GGGGG",
        "AAAAAAAAAACCCCCAAAAAAAAAA",
        "--window",
        "5",
        "--batch",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("batch engine:"), "{stdout}");
    assert!(stdout.contains("CCCCC"), "{stdout}");
}
