//! Crash-recovery contract of `bpmax-cli scan --batch --workers N`.
//!
//! The multi-process coordinator promise, pinned end-to-end against the
//! real binary: SIGKILL a worker process mid-wave and the run still
//! completes with ranked output **bit-identical** to a single-process
//! scan, the dead worker's journaled solves replayed verbatim (zero
//! recomputation), and the kill visible only as a respawn in the
//! coordinator's telemetry line. A problem that kills every worker that
//! touches it is quarantined after the retry cap and reported like any
//! failed window (exit 3), with the capped-exponential backoff schedule
//! in the telemetry.
//!
//! The SIGKILL and poison tests need the `fault-inject` feature
//! (`BPMAX_FAULT_SLOW_MS` widens the kill window; `BPMAX_COORD_ABORT`
//! makes a worker die deterministically on one problem); the faultless
//! bit-identity test runs unconditionally.

use std::path::Path;
#[cfg(feature = "fault-inject")]
use std::path::PathBuf;
use std::process::Command;

const QUERY: &str = "GGCAU";
const TARGET: &str = "AUGCCAAAAUGGCAUAAACCGGU"; // 23 windows
#[cfg(feature = "fault-inject")]
const WINDOWS: usize = 23;

// only the fault-inject tests journal into a checkpoint dir
#[cfg(feature = "fault-inject")]
fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
    let dir = std::env::temp_dir().join(format!("bpmax-coord-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scan_args(workers: Option<usize>, dir: Option<&Path>) -> Vec<String> {
    // --top 23 ranks every window, so bit-identity checks cover the
    // full ordering, not just the podium
    let mut args: Vec<String> = [
        "scan", QUERY, TARGET, "--window", "6", "--top", "23", "--batch",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    if let Some(n) = workers {
        args.push("--workers".into());
        args.push(n.to_string());
    }
    if let Some(dir) = dir {
        args.push("--checkpoint-dir".into());
        args.push(dir.to_str().unwrap().into());
    }
    args
}

/// Run the CLI with a clean coordinator/fault environment.
fn command(args: &[String]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bpmax-cli"));
    cmd.args(args);
    for var in [
        "BPMAX_FAULT_SLOW_MS",
        "BPMAX_COORD_ABORT",
        "BPMAX_COORD_RETRIES",
        "BPMAX_COORD_BACKOFF_MS",
        "BPMAX_COORD_BACKOFF_CAP_MS",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

fn run(args: &[String]) -> (i32, String, String) {
    let out = command(args).output().expect("spawn bpmax-cli");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The ranked-results section of a scan's stdout (everything from the
/// "top N windows:" header down) — the part that must be bit-identical
/// across coordinated and single-process runs; the notes above it carry
/// wall-clock timings and recovery telemetry.
fn ranked_tail(stdout: &str) -> Vec<String> {
    let tail: Vec<String> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("top "))
        .map(String::from)
        .collect();
    assert!(!tail.is_empty(), "no ranked section in:\n{stdout}");
    tail
}

/// The `coordinator: …` telemetry line of a coordinated scan's stdout.
fn coordinator_note(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("coordinator: "))
        .unwrap_or_else(|| panic!("no coordinator note in:\n{stdout}"))
}

/// A faultless coordinated run ranks bit-identically to a single-process
/// run and reports a quiet supervision history.
#[test]
fn workers_rank_bit_identical_to_single_process() {
    let (code, reference, stderr) = run(&scan_args(None, None));
    assert_eq!(code, 0, "{stderr}");

    let (code, coordinated, stderr) = run(&scan_args(Some(2), None));
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(
        ranked_tail(&reference),
        ranked_tail(&coordinated),
        "coordinated ranking differs from single-process run"
    );
    assert_eq!(
        coordinator_note(&coordinated),
        "coordinator: 2 workers, 0 respawns, 0 stolen, 0 poisoned"
    );
}

/// SIGKILL one worker process mid-wave: the coordinator respawns it,
/// survivors take over its leases, the merged ranking is bit-identical
/// to a single-process run, and every record the dead worker journaled
/// is replayed verbatim — its journal (including the wall-clock
/// `seconds` fields, which recomputation could not reproduce
/// bit-for-bit) is never rewritten, and no `done`-marked window is
/// solved a second time.
#[cfg(feature = "fault-inject")]
#[test]
fn sigkill_worker_mid_wave_merges_bit_identically() {
    use bpmax::checkpoint::{self, JournalRecord};
    use std::time::{Duration, Instant};

    let (code, reference, stderr) = run(&scan_args(None, None));
    assert_eq!(code, 0, "{stderr}");

    let dir = tmpdir("sigkill");
    let coordinator = command(&scan_args(Some(2), Some(&dir)))
        .env("BPMAX_FAULT_SLOW_MS", "30")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn coordinated bpmax-cli");

    let worker_dirs = |dir: &Path| -> Vec<PathBuf> {
        std::fs::read_dir(dir).map_or_else(
            |_| Vec::new(),
            |entries| {
                entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("worker-"))
                    })
                    .collect()
            },
        )
    };
    let journal_of = |wdir: &Path| -> Vec<JournalRecord> {
        checkpoint::load(wdir).map_or_else(|_| Vec::new(), |(_, records, _)| records)
    };

    // Wait for real progress (≥ 3 journaled windows somewhere), then
    // pick a worker that has journaled at least one — its records are
    // the ones the merge must replay without recomputation.
    let deadline = Instant::now() + Duration::from_secs(60);
    let victim = loop {
        let dirs = worker_dirs(&dir);
        let total: usize = dirs.iter().map(|d| journal_of(d).len()).sum();
        if total >= 3 {
            if let Some(v) = dirs.iter().find(|d| !journal_of(d).is_empty()) {
                break v.clone();
            }
        }
        assert!(Instant::now() < deadline, "no journal progress within 60 s");
        std::thread::sleep(Duration::from_millis(5));
    };

    // SIGKILL the worker via its advertised pid file: a real, unclean
    // process death the coordinator never got to negotiate.
    let pid = std::fs::read_to_string(bpmax::coordinator::pid_path(&victim)).expect("pid file");
    let killed = Command::new("kill")
        .args(["-9", pid.trim()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {pid} failed");

    // Give the kernel a beat to tear the process down, then snapshot
    // what the dead incarnation left behind. Nothing writes to a dead
    // worker's directory again (its replacement gets a fresh epoch
    // directory), so this snapshot must match the post-merge state
    // exactly.
    std::thread::sleep(Duration::from_millis(50));
    let before = journal_of(&victim);
    assert!(!before.is_empty(), "victim journal vanished after SIGKILL");
    let done_at_kill: Vec<usize> = (0..WINDOWS)
        .filter(|i| dir.join("claims").join(format!("done-{i}")).exists())
        .collect();

    let out = coordinator.wait_with_output().expect("coordinator exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    // Bit-identical ranking, and the kill shows up as supervision
    // telemetry, not as a changed answer.
    assert_eq!(
        ranked_tail(&reference),
        ranked_tail(&stdout),
        "post-kill ranking differs from single-process run"
    );
    let note = coordinator_note(&stdout);
    assert!(
        note.starts_with("coordinator: 2 workers, ") && !note.contains(" 0 respawns"),
        "kill left no respawn trace: {note}"
    );
    assert!(note.contains("backoff ["), "no backoff schedule: {note}");

    // Zero recomputation: the dead worker's journal is byte-stable …
    assert_eq!(
        journal_of(&victim),
        before,
        "a dead worker's journal was rewritten"
    );
    // … every window settled before the kill appears in exactly one
    // journal (survivors never re-claim a done window) …
    let journals: Vec<Vec<JournalRecord>> =
        worker_dirs(&dir).iter().map(|d| journal_of(d)).collect();
    for i in &done_at_kill {
        let copies = journals
            .iter()
            .flatten()
            .filter(|r| r.index == *i as u64)
            .count();
        assert_eq!(copies, 1, "done window {i} was recomputed");
    }
    // … and the union of all journals still covers the whole batch.
    let mut covered: Vec<u64> = journals.iter().flatten().map(|r| r.index).collect();
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(
        covered.len(),
        WINDOWS,
        "merge inputs do not cover the batch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A problem that kills its worker every time is quarantined after
/// exactly `max_retries` attempts — each death respawning the worker on
/// the capped exponential backoff schedule — and surfaces as a failed
/// window (exit 3) while every other window still ranks bit-identically.
#[cfg(feature = "fault-inject")]
#[test]
fn poison_window_quarantines_at_the_retry_cap_with_backoff() {
    let (code, reference, stderr) = run(&scan_args(None, None));
    assert_eq!(code, 0, "{stderr}");

    // One worker, so every death and every backoff delay lands on the
    // same slot: 10 ms, 20 ms, then capped at 20 ms.
    let out = command(&scan_args(Some(1), None))
        .env("BPMAX_COORD_ABORT", "0")
        .env("BPMAX_COORD_RETRIES", "3")
        .env("BPMAX_COORD_BACKOFF_MS", "10")
        .env("BPMAX_COORD_BACKOFF_CAP_MS", "20")
        .output()
        .expect("spawn bpmax-cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stdout}\n{stderr}");
    assert!(stderr.contains("batch completed partially"), "{stderr}");

    // The quarantine is typed and counts its attempts exactly.
    assert!(stdout.contains("quarantined after 3 attempts"), "{stdout}");
    assert!(
        stdout.contains("1 of 23 windows did not complete"),
        "{stdout}"
    );

    // Telemetry: three kill-and-respawn events on the documented
    // backoff schedule, one poisoned window.
    let note = coordinator_note(&stdout);
    assert!(
        note.starts_with("coordinator: 1 workers, 3 respawns, "),
        "{note}"
    );
    assert!(note.contains("1 poisoned"), "{note}");
    assert!(note.contains("backoff [10ms, 20ms, 20ms]"), "{note}");

    // Every window the poison did not touch ranks exactly as the
    // uninterrupted single-process run ranks it — the quarantined
    // window 0 is dropped from the ranking, not re-scored. The "top N"
    // headers differ by the one dropped window, so compare entries only.
    let poisoned_prefix = "  [    0..";
    let entries = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .take_while(|l| !l.contains("did not complete"))
            .filter(|l| !l.starts_with(poisoned_prefix) && !l.starts_with("top "))
            .collect()
    };
    assert_eq!(
        entries(ranked_tail(&reference)),
        entries(ranked_tail(&stdout)),
        "surviving windows re-ranked differently"
    );
}
