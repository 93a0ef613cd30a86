//! Crash-recovery contract of `bpmax-cli scan --checkpoint-dir`.
//!
//! The durable-checkpoint promise, pinned end-to-end against the real
//! binary: a SIGKILL at an arbitrary instant mid-wave loses at most the
//! work in flight — one problem, or the lane group of up to eight
//! same-shape windows solved together, whose members are journaled only
//! when the group finishes; `--resume` replays every journaled window without
//! recomputing it and produces ranked output **bit-identical** to an
//! uninterrupted run. A journal cut past its header is what a kill
//! mid-append leaves — a torn final frame — and resumes from the whole
//! frames before the cut; any other corruption of the bytes on disk is
//! refused with exit 2 and a typed `corrupt checkpoint` diagnostic,
//! never replayed as garbage.
//!
//! The SIGKILL test needs the `fault-inject` feature (it slows the
//! child's solves via `BPMAX_FAULT_SLOW_MS` so the kill lands mid-wave);
//! the corruption tests run unconditionally.

use std::path::{Path, PathBuf};
use std::process::Command;

const QUERY: &str = "GGCAU";
const TARGET: &str = "AUGCCAAAAUGGCAUAAACCGGU"; // 23 windows
#[cfg(feature = "fault-inject")]
const WINDOWS: usize = 23;

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
    let dir = std::env::temp_dir().join(format!("bpmax-crash-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scan_args(dir: Option<&Path>, resume: bool) -> Vec<String> {
    let mut args: Vec<String> = ["scan", QUERY, TARGET, "--window", "6"]
        .iter()
        .map(ToString::to_string)
        .collect();
    if let Some(dir) = dir {
        args.push("--checkpoint-dir".into());
        args.push(dir.to_str().unwrap().into());
    }
    if resume {
        args.push("--resume".into());
    }
    args
}

fn run(args: &[String]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bpmax-cli"))
        .args(args)
        .env_remove("BPMAX_FAULT_SLOW_MS")
        .output()
        .expect("spawn bpmax-cli");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The ranked-results section of a scan's stdout (everything from the
/// "top N windows:" header down) — the part that must be bit-identical
/// across resumed and uninterrupted runs; the engine note above it
/// carries wall-clock timings.
fn ranked_tail(stdout: &str) -> Vec<String> {
    let tail: Vec<String> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("top "))
        .map(String::from)
        .collect();
    assert!(!tail.is_empty(), "no ranked section in:\n{stdout}");
    tail
}

/// SIGKILL the scan mid-wave, then resume: ranked output bit-identical
/// to an uninterrupted run, and **zero** journaled windows recomputed —
/// their journal records (including the wall-clock `seconds` field,
/// which recomputation could not reproduce bit-for-bit) survive the
/// resume untouched.
#[cfg(feature = "fault-inject")]
#[test]
fn sigkill_mid_wave_then_resume_is_bit_identical() {
    use bpmax::checkpoint;
    use std::time::{Duration, Instant};

    let (code, reference, stderr) = run(&scan_args(None, false));
    assert_eq!(code, 0, "{stderr}");

    let dir = tmpdir("sigkill");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bpmax-cli"))
        .args(scan_args(Some(&dir), false))
        .env("BPMAX_FAULT_SLOW_MS", "30")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn slowed bpmax-cli");

    // wait for a few windows to be journaled, then kill without warning
    // (`Child::kill` is SIGKILL on unix — no chance to clean up)
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((_, records, _)) = checkpoint::load(&dir) {
            if records.len() >= 3 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "no journal progress within 60 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill child");
    let _ = child.wait();

    // whatever the kill left behind is a valid checkpoint: the manifest
    // is written whole, and a torn final journal frame is dropped
    let (_, before, _) = checkpoint::load(&dir).expect("journal valid after SIGKILL");
    assert!(
        !before.is_empty() && before.len() < WINDOWS,
        "kill landed mid-wave: {} of {WINDOWS} journaled",
        before.len()
    );

    let (code, resumed, stderr) = run(&scan_args(Some(&dir), true));
    assert_eq!(code, 0, "{stderr}");
    assert!(
        resumed.contains(&format!(
            "checkpoint: {} of {WINDOWS} windows replayed",
            before.len()
        )),
        "{resumed}"
    );
    assert_eq!(
        ranked_tail(&reference),
        ranked_tail(&resumed),
        "resumed ranking differs from uninterrupted run"
    );

    // zero recomputation: every pre-kill record is still in the journal
    // bit-for-bit, and the rest were filled in exactly once
    let (_, after, _) = checkpoint::load(&dir).expect("journal valid after resume");
    assert_eq!(after.len(), WINDOWS);
    for rec in &before {
        let replayed = after
            .iter()
            .find(|r| r.index == rec.index)
            .expect("journaled record survived the resume");
        assert_eq!(replayed, rec, "window {} was recomputed", rec.index);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted journal — any single flipped byte — is refused with exit
/// 2 and a `corrupt checkpoint` diagnostic, never replayed.
#[test]
fn flipped_journal_byte_is_refused() {
    let dir = tmpdir("flip");
    let (code, _, stderr) = run(&scan_args(Some(&dir), false));
    assert_eq!(code, 0, "{stderr}");

    let jpath = dir.join("journal.bin");
    let pristine = std::fs::read(&jpath).expect("journal written");
    // flip one byte in the header, one mid-file, one in the tail record
    for at in [4, pristine.len() / 2, pristine.len() - 3] {
        let mut bad = pristine.clone();
        bad[at] ^= 0x40;
        std::fs::write(&jpath, &bad).unwrap();
        let (code, stdout, stderr) = run(&scan_args(Some(&dir), true));
        assert_eq!(code, 2, "flip at {at}: {stderr}");
        assert!(
            stderr.contains("corrupt checkpoint"),
            "flip at {at}: {stderr}"
        );
        assert!(!stdout.contains("top "), "flip at {at}: replayed anyway");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal cut inside its 13-byte header is damage and is refused with
/// exit 2. A cut anywhere past it is what a kill mid-append leaves, a
/// torn final frame: the resume keeps the whole frames before the cut,
/// solves the rest, and prints the uninterrupted ranking.
#[test]
fn torn_journal_resumes_and_a_cut_header_is_refused() {
    let (code, reference, stderr) = run(&scan_args(None, false));
    assert_eq!(code, 0, "{stderr}");
    let dir = tmpdir("trunc");
    let (code, _, stderr) = run(&scan_args(Some(&dir), false));
    assert_eq!(code, 0, "{stderr}");

    let jpath = dir.join("journal.bin");
    let pristine = std::fs::read(&jpath).expect("journal written");
    for len in [0, 7] {
        std::fs::write(&jpath, &pristine[..len]).unwrap();
        let (code, _, stderr) = run(&scan_args(Some(&dir), true));
        assert_eq!(code, 2, "truncate to {len}: {stderr}");
        assert!(
            stderr.contains("corrupt checkpoint"),
            "truncate to {len}: {stderr}"
        );
    }
    for len in [pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&jpath, &pristine[..len]).unwrap();
        let (code, resumed, stderr) = run(&scan_args(Some(&dir), true));
        assert_eq!(code, 0, "truncate to {len}: {stderr}");
        let whole = (len - 13) / 30;
        assert!(
            resumed.contains(&format!("checkpoint: {whole} of ")),
            "truncate to {len}: want {whole} replayed:\n{resumed}"
        );
        assert_eq!(
            ranked_tail(&reference),
            ranked_tail(&resumed),
            "truncate to {len}: resumed ranking differs from uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming from a directory that holds no checkpoint is an I/O error
/// (exit 2), clearly distinguished from corruption.
#[test]
fn resume_without_a_checkpoint_is_an_io_error() {
    let dir = tmpdir("missing");
    let (code, _, stderr) = run(&scan_args(Some(&dir), true));
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("checkpoint i/o error"), "{stderr}");
}

/// A checkpoint written under different scoring options is refused as a
/// configuration mismatch, not silently mixed.
#[test]
fn resume_with_different_problems_is_a_mismatch() {
    let dir = tmpdir("mismatch");
    let (code, _, stderr) = run(&scan_args(Some(&dir), false));
    assert_eq!(code, 0, "{stderr}");
    // same flags, different target ⇒ different problem set
    let mut args = scan_args(Some(&dir), true);
    args[2] = "AUGCCAAAAUGGCAUAAACCGGA".into();
    let (code, _, stderr) = run(&args);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("checkpoint configuration mismatch"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
