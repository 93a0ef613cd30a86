//! Fault-tolerant multi-process shard coordinator.
//!
//! [`crate::batch`] survives a *solve* failing; nothing in the repo
//! survives a *process* failing — an OOM kill or a `SIGKILL`ed worker takes
//! the whole batch with it. This module shards a batch across N spawned
//! `bpmax-cli` worker processes on one host and makes the ensemble
//! crash-tolerant, reusing the [`crate::checkpoint`] wire format as a
//! durable work ledger:
//!
//! * **Work ledger** (`<dir>/claims/`) — per-problem lease files. A worker
//!   acquires problem `i` by *exclusively creating* `claim-<i>.bin`
//!   (`O_CREAT|O_EXCL`, the one atomic filesystem primitive that cannot
//!   double-grant), stamped with its `(slot, epoch)` identity. Completed
//!   problems gain a `done-<i>` marker; problems that keep failing gain a
//!   `poison-<i>.bin` quarantine record. Only the coordinator releases the
//!   leases of a dead worker, *after* reaping the process — the fencing
//!   rule: a lease may outlive its worker, but never its worker's epoch.
//! * **Supervision** — each worker slot is respawned with a fresh fencing
//!   epoch after a crash, under capped exponential backoff
//!   ([`backoff_delay`]). Liveness is judged two ways: the child handle
//!   (`try_wait`, which also reaps) and a heartbeat file the worker
//!   touches continuously — a worker that is alive but wedged is killed
//!   once the newest of its heartbeat/journal mtimes goes stale, or when
//!   it exceeds the per-worker deadline.
//! * **Poison quarantine** — a problem whose solve fails typed inside a
//!   worker, or whose worker dies holding its lease, has its
//!   `attempts-<i>.bin` counter bumped on release; at
//!   [`CoordinatorOptions::max_retries`] it is poisoned instead of
//!   retried, and surfaces in the merged report as
//!   [`Outcome::Failed`] + [`BpMaxError::Panicked`] — one bad problem
//!   never wedges the wave.
//! * **Merge** ([`merge`]) — every worker journal (including the partial
//!   journal of a killed worker: the journal rewrite is atomic, so it is
//!   always a valid prefix) is replayed into one ranked
//!   [`BatchReport`]. Scores are bit-identical to a single-process run
//!   because every worker computes the same F-table under the same
//!   options fingerprint ([`crate::batch::BatchOptions::fingerprint`]),
//!   which the ledger root manifest pins. Every torn or corrupt record is a typed
//!   [`BpMaxError`], never a panic.
//!
//! Workers are the same binary re-invoked with the same scan arguments;
//! the coordinator marks them via the `BPMAX_COORD_*` environment
//! contract ([`WorkerEnv`]), so the problem list is reconstructed from
//! argv on both sides and validated against the ledger root manifest.

use crate::batch::{BatchEngine, BatchItem, BatchOptions, BatchReport};
use crate::checkpoint::{
    self, problem_id, put_frame, put_u32, put_u64, take_frame, CheckpointSink, Cursor,
    JournalRecord, RunManifest, KIND_CLAIM,
};
use crate::engine::BpMaxProblem;
use crate::error::BpMaxError;
use crate::ftable::PoolStats;
use crate::supervise::{fault, Outcome};
use std::collections::HashSet;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Environment variable carrying the ledger directory to a worker.
pub const ENV_DIR: &str = "BPMAX_COORD_DIR";
/// Environment variable carrying the worker's slot number.
pub const ENV_SLOT: &str = "BPMAX_COORD_SLOT";
/// Environment variable carrying the worker's fencing epoch.
pub const ENV_EPOCH: &str = "BPMAX_COORD_EPOCH";
/// Environment variable carrying the retry cap (poison threshold).
pub const ENV_RETRIES: &str = "BPMAX_COORD_RETRIES";
/// Fault-inject only: comma-separated global problem indices at which a
/// worker calls `abort()` *before* solving — the deterministic
/// worker-crash knob behind the poison-problem tests.
pub const ENV_ABORT: &str = "BPMAX_COORD_ABORT";

/// How often a worker touches its heartbeat file.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);
/// How long a worker sleeps when every unfinished problem is leased by
/// someone else.
const WORKER_WAIT: Duration = Duration::from_millis(10);

/// Configuration of a coordinator run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoordinatorOptions {
    /// Worker processes to spawn (capped at the problem count).
    pub workers: usize,
    /// Attempts before a problem is poisoned, and consecutive barren
    /// failures (spawn failures, or deaths that produced no work) before
    /// a worker slot is retired.
    pub max_retries: u32,
    /// Base respawn delay; doubles per consecutive death of a slot.
    pub backoff: Duration,
    /// Upper bound on the respawn delay.
    pub backoff_cap: Duration,
    /// A worker whose newest heartbeat/journal mtime is older than this
    /// is presumed wedged and killed.
    pub heartbeat_timeout: Duration,
    /// Wall-clock cap per worker incarnation (`None` = unlimited).
    pub worker_deadline: Option<Duration>,
    /// Supervision poll interval.
    pub poll: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> Self {
        CoordinatorOptions {
            workers: 2,
            max_retries: 3,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            heartbeat_timeout: Duration::from_secs(10),
            worker_deadline: None,
            poll: Duration::from_millis(15),
        }
    }
}

impl CoordinatorOptions {
    /// Defaults: 2 workers, 3 retries, 50 ms backoff capped at 2 s.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker-process count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the poison / slot-retirement retry cap.
    #[must_use]
    pub fn max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Set the respawn backoff base and cap.
    #[must_use]
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff = base;
        self.backoff_cap = cap;
        self
    }

    /// Set the heartbeat staleness threshold.
    #[must_use]
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Set the per-worker-incarnation deadline.
    #[must_use]
    pub fn worker_deadline(mut self, deadline: Duration) -> Self {
        self.worker_deadline = Some(deadline);
        self
    }

    fn validate(&self) -> Result<(), BpMaxError> {
        let bad = |detail: String| Err(BpMaxError::InvalidArgument { detail });
        if self.workers == 0 {
            return bad("--workers must be at least 1".to_string());
        }
        if self.max_retries == 0 {
            return bad("coordinator max_retries must be at least 1".to_string());
        }
        if self.backoff.is_zero() || self.backoff_cap < self.backoff {
            return bad(format!(
                "coordinator backoff {:?} must be non-zero and <= its cap {:?}",
                self.backoff, self.backoff_cap
            ));
        }
        if self.heartbeat_timeout.is_zero() || self.poll.is_zero() {
            return bad("coordinator heartbeat timeout and poll must be non-zero".to_string());
        }
        Ok(())
    }
}

/// How to launch one worker: the `bpmax-cli` binary plus the scan
/// arguments that reconstruct the same problem list (the coordinator's
/// own argv minus `--workers`).
#[derive(Clone, Debug)]
pub struct WorkerCommand {
    /// Path to the worker binary (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments, excluding the program name.
    pub args: Vec<String>,
}

/// The worker side of the `BPMAX_COORD_*` environment contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerEnv {
    /// The ledger directory.
    pub dir: PathBuf,
    /// This worker's slot number.
    pub slot: usize,
    /// This worker's fencing epoch.
    pub epoch: u64,
    /// The poison threshold (worker-side failures poison at this count).
    pub max_retries: u32,
}

/// Detect worker mode: `Some` when the `BPMAX_COORD_*` contract is fully
/// present and well-formed, `None` otherwise (malformed values are
/// treated as absent — the variables are an internal contract, always
/// written by [`run`], never by hand).
pub fn worker_env() -> Option<WorkerEnv> {
    let dir = PathBuf::from(std::env::var_os(ENV_DIR)?);
    let slot = std::env::var(ENV_SLOT).ok()?.parse().ok()?;
    let epoch = std::env::var(ENV_EPOCH).ok()?.parse().ok()?;
    let max_retries = std::env::var(ENV_RETRIES).ok()?.parse().ok()?;
    Some(WorkerEnv {
        dir,
        slot,
        epoch,
        max_retries,
    })
}

/// One kill-and-respawn (or failed-spawn retry) event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Respawn {
    /// The worker slot that died.
    pub slot: usize,
    /// The fencing epoch of the *replacement* incarnation.
    pub epoch: u64,
    /// Consecutive death count that produced this delay.
    pub attempt: u32,
    /// The backoff delay honored before respawning.
    pub delay: Duration,
    /// Why the previous incarnation ended.
    pub why: String,
}

/// Outcome of a coordinator run: the merged batch report plus the
/// recovery telemetry the bench trajectory pins.
#[derive(Debug)]
pub struct CoordinatorReport {
    /// The merged, bit-identical-to-single-process batch report.
    pub report: BatchReport,
    /// Worker processes the run started with.
    pub workers: usize,
    /// Every kill-and-respawn event, in order, with its backoff delay.
    pub respawns: Vec<Respawn>,
    /// Problems whose lease was released at a worker death and later
    /// completed by a surviving worker.
    pub stolen: usize,
    /// Problems quarantined after [`CoordinatorOptions::max_retries`].
    pub poisoned: usize,
}

/// Capped exponential backoff: `min(base * 2^(attempt-1), cap)` for
/// `attempt >= 1` (attempt 0 is treated as 1).
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration) -> Duration {
    let exp = attempt.saturating_sub(1).min(30);
    base.checked_mul(1u32 << exp).map_or(cap, |d| d.min(cap))
}

// ---------------------------------------------------------------------------
// Ledger files
// ---------------------------------------------------------------------------

/// One ledger record: a claim lease, an attempts counter, or a poison
/// quarantine — same wire shape, different file role.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LedgerRecord {
    index: u64,
    slot: u64,
    epoch: u64,
    attempts: u32,
    detail: String,
}

impl LedgerRecord {
    fn encode(&self) -> Vec<u8> {
        let mut buf = checkpoint::header(KIND_CLAIM);
        let mut p = Vec::with_capacity(32 + self.detail.len());
        put_u64(&mut p, self.index);
        put_u64(&mut p, self.slot);
        put_u64(&mut p, self.epoch);
        put_u32(&mut p, self.attempts);
        put_u32(&mut p, self.detail.len() as u32);
        p.extend_from_slice(self.detail.as_bytes());
        put_frame(&mut buf, &p);
        buf
    }

    fn decode(bytes: &[u8], path: &Path) -> Result<LedgerRecord, BpMaxError> {
        let mut cur = Cursor::new(bytes, path);
        checkpoint::check_header(&mut cur, KIND_CLAIM)?;
        let payload = take_frame(&mut cur, "ledger record")?;
        if !cur.done() {
            return Err(cur.corrupt("trailing bytes after ledger frame".to_string()));
        }
        let mut inner = Cursor::new(payload, path);
        let index = inner.u64("ledger index")?;
        let slot = inner.u64("ledger slot")?;
        let epoch = inner.u64("ledger epoch")?;
        let attempts = inner.u32("ledger attempts")?;
        let dlen = inner.u32("ledger detail length")? as usize;
        let raw = inner.take(dlen, "ledger detail")?;
        let detail = String::from_utf8_lossy(raw).into_owned();
        if !inner.done() {
            return Err(inner.corrupt("trailing bytes in ledger record".to_string()));
        }
        Ok(LedgerRecord {
            index,
            slot,
            epoch,
            attempts,
            detail,
        })
    }
}

fn claims_dir(dir: &Path) -> PathBuf {
    dir.join("claims")
}

fn claim_path(dir: &Path, index: usize) -> PathBuf {
    claims_dir(dir).join(format!("claim-{index}.bin"))
}

fn done_path(dir: &Path, index: usize) -> PathBuf {
    claims_dir(dir).join(format!("done-{index}"))
}

fn attempts_path(dir: &Path, index: usize) -> PathBuf {
    claims_dir(dir).join(format!("attempts-{index}.bin"))
}

fn poison_path(dir: &Path, index: usize) -> PathBuf {
    claims_dir(dir).join(format!("poison-{index}.bin"))
}

/// `worker-<slot>-e<epoch>` under the ledger root: one checkpoint
/// directory per worker *incarnation*, so a respawned worker never
/// writes over its predecessor's journal.
pub fn worker_dir(dir: &Path, slot: usize, epoch: u64) -> PathBuf {
    dir.join(format!("worker-{slot:02}-e{epoch:04}"))
}

fn heartbeat_path(wdir: &Path) -> PathBuf {
    wdir.join("heartbeat")
}

/// `pid` under a worker incarnation directory (written by the worker so
/// tests can target a real `SIGKILL`).
pub fn pid_path(wdir: &Path) -> PathBuf {
    wdir.join("pid")
}

fn io_err(path: &Path, detail: String) -> BpMaxError {
    BpMaxError::CheckpointIo {
        path: path.display().to_string(),
        detail,
    }
}

/// Read a ledger file: `Ok(None)` when absent, typed corruption on a
/// damaged record.
fn read_ledger(path: &Path) -> Result<Option<LedgerRecord>, BpMaxError> {
    match fs::read(path) {
        Ok(bytes) => LedgerRecord::decode(&bytes, path).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(path, e.to_string())),
    }
}

fn write_ledger(path: &Path, rec: &LedgerRecord) -> Result<(), BpMaxError> {
    checkpoint::write_atomic(path, &rec.encode())
}

fn mark_done(dir: &Path, index: usize) -> Result<(), BpMaxError> {
    let p = done_path(dir, index);
    fs::write(&p, []).map_err(|e| io_err(&p, e.to_string()))
}

fn settled(dir: &Path, index: usize) -> bool {
    done_path(dir, index).exists() || poison_path(dir, index).exists()
}

/// Bump the attempts counter for `index` (releasing party holds the
/// claim or is fencing a dead holder — never concurrent). Poisons at the
/// cap. Returns the new count.
fn release_with_failure(
    dir: &Path,
    index: usize,
    slot: u64,
    epoch: u64,
    detail: &str,
    max_retries: u32,
) -> Result<u32, BpMaxError> {
    let apath = attempts_path(dir, index);
    let attempts = read_ledger(&apath)?.map_or(0, |r| r.attempts) + 1;
    let rec = LedgerRecord {
        index: index as u64,
        slot,
        epoch,
        attempts,
        detail: detail.to_string(),
    };
    write_ledger(&apath, &rec)?;
    if attempts >= max_retries {
        write_ledger(&poison_path(dir, index), &rec)?;
    }
    let cpath = claim_path(dir, index);
    match fs::remove_file(&cpath) {
        Ok(()) => Ok(attempts),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(attempts),
        Err(e) => Err(io_err(&cpath, format!("releasing claim: {e}"))),
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

enum Next {
    Claimed(usize),
    Wait,
    Settled,
}

/// Acquire the lowest unsettled, unleased problem via exclusive file
/// creation — the one grant per index the filesystem guarantees.
fn claim_next(dir: &Path, count: usize, slot: usize, epoch: u64) -> Result<Next, BpMaxError> {
    let mut all_settled = true;
    for i in 0..count {
        if settled(dir, i) {
            continue;
        }
        all_settled = false;
        let cpath = claim_path(dir, i);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&cpath)
        {
            Ok(mut f) => {
                let rec = LedgerRecord {
                    index: i as u64,
                    slot: slot as u64,
                    epoch,
                    attempts: 0,
                    detail: String::new(),
                };
                return match f.write_all(&rec.encode()) {
                    Ok(()) => Ok(Next::Claimed(i)),
                    Err(e) => {
                        let _ = fs::remove_file(&cpath);
                        Err(io_err(&cpath, format!("writing claim: {e}")))
                    }
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(io_err(&cpath, format!("creating claim: {e}"))),
        }
    }
    Ok(if all_settled {
        Next::Settled
    } else {
        Next::Wait
    })
}

#[cfg(feature = "fault-inject")]
fn abort_planned(index: usize) -> bool {
    std::env::var(ENV_ABORT)
        .is_ok_and(|v| v.split(',').any(|t| t.trim().parse::<usize>() == Ok(index)))
}

#[cfg(not(feature = "fault-inject"))]
fn abort_planned(_index: usize) -> bool {
    false
}

/// The worker main loop: validate the ledger root manifest, then
/// claim → solve → journal until every problem is done or poisoned.
/// Scored outcomes are journaled into this incarnation's own checkpoint
/// directory and marked `done`; unscored outcomes release the claim with
/// an attempts bump (poisoning at the cap), exactly like a crash would —
/// so deterministic per-problem failures quarantine instead of looping
/// forever.
pub fn run_worker(
    problems: &[BpMaxProblem],
    opts: BatchOptions,
    env: &WorkerEnv,
) -> Result<(), BpMaxError> {
    let root = checkpoint::read_manifest(&env.dir)?;
    let want = RunManifest {
        options_hash: opts.fingerprint(),
        seed: root.seed,
        problem_ids: problems.iter().map(problem_id).collect(),
    };
    if root != want {
        return Err(BpMaxError::CheckpointMismatch {
            detail: format!(
                "worker slot {} epoch {} reconstructed a different batch than the \
                 ledger root manifest — coordinator and worker argv disagree",
                env.slot, env.epoch
            ),
        });
    }
    let engine = BatchEngine::new(opts)?;
    let wdir = worker_dir(&env.dir, env.slot, env.epoch);
    let sink = CheckpointSink::create(&wdir, &want)?;

    let ppath = pid_path(&wdir);
    fs::write(&ppath, std::process::id().to_string()).map_err(|e| io_err(&ppath, e.to_string()))?;

    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let stop = Arc::clone(&stop);
        let hb = heartbeat_path(&wdir);
        std::thread::spawn(move || {
            let mut n: u64 = 0;
            // ordering: Relaxed — the flag is a plain stop signal; the
            // thread publishes nothing the main thread reads.
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                let _ = fs::write(&hb, n.to_le_bytes());
                std::thread::sleep(HEARTBEAT_EVERY);
            }
        })
    };

    let result = worker_loop(problems, &engine, &sink, env);
    // ordering: Relaxed — see above; join makes the shutdown visible.
    stop.store(true, Ordering::Relaxed);
    let _ = beat.join();
    result
}

fn worker_loop(
    problems: &[BpMaxProblem],
    engine: &BatchEngine,
    sink: &CheckpointSink,
    env: &WorkerEnv,
) -> Result<(), BpMaxError> {
    loop {
        match claim_next(&env.dir, problems.len(), env.slot, env.epoch)? {
            Next::Settled => return Ok(()),
            Next::Wait => std::thread::sleep(WORKER_WAIT),
            Next::Claimed(i) => {
                if abort_planned(i) {
                    // a real, unclean process death — the deterministic
                    // stand-in for an OOM kill in the poison tests
                    std::process::abort();
                }
                let item = engine.solve_pooled(&problems[i], &engine.options().solve);
                if item.outcome.has_score() {
                    sink.record(&JournalRecord {
                        index: i as u64,
                        outcome: item.outcome,
                        score: item.score,
                        seconds: item.seconds,
                        coarse: item.coarse,
                    });
                    if let Some(e) = sink.take_error() {
                        return Err(e);
                    }
                    mark_done(&env.dir, i)?;
                    let cpath = claim_path(&env.dir, i);
                    match fs::remove_file(&cpath) {
                        Ok(()) => {}
                        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                        Err(e) => return Err(io_err(&cpath, format!("retiring claim: {e}"))),
                    }
                } else {
                    let detail = item
                        .error
                        .as_ref()
                        .map_or_else(|| format!("{:?}", item.outcome), ToString::to_string);
                    release_with_failure(
                        &env.dir,
                        i,
                        env.slot as u64,
                        env.epoch,
                        &detail,
                        env.max_retries,
                    )?;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

enum SlotState {
    Running {
        child: Child,
        spawned: Instant,
        epoch: u64,
    },
    Pending {
        at: Instant,
    },
    Finished,
    Retired,
}

struct Slot {
    state: SlotState,
    /// Latest fencing epoch issued to this slot.
    epoch: u64,
    /// Total deaths (resets never; drives the backoff exponent).
    deaths: u32,
    /// Consecutive spawn failures.
    spawn_failures: u32,
    /// Consecutive deaths that journaled nothing and held no lease —
    /// a worker that cannot even start retires its slot at the cap.
    barren: u32,
}

struct Supervisor<'a> {
    dir: &'a Path,
    count: usize,
    copts: &'a CoordinatorOptions,
    cmd: &'a WorkerCommand,
    slots: Vec<Slot>,
    respawns: Vec<Respawn>,
    released: HashSet<usize>,
    spawn_seq: usize,
    heartbeat_seq: usize,
    last_death: String,
}

impl Supervisor<'_> {
    fn spawn(&mut self, slot: usize) {
        self.slots[slot].epoch += 1;
        let epoch = self.slots[slot].epoch;
        let seq = self.spawn_seq;
        self.spawn_seq += 1;
        let injected = fault::active(fault::SITE_SPAWN, seq).is_some();
        let spawned = if injected {
            Err("injected spawn fault".to_string())
        } else {
            Command::new(&self.cmd.program)
                .args(&self.cmd.args)
                .env(ENV_DIR, self.dir)
                .env(ENV_SLOT, slot.to_string())
                .env(ENV_EPOCH, epoch.to_string())
                .env(ENV_RETRIES, self.copts.max_retries.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", self.cmd.program.display()))
        };
        match spawned {
            Ok(child) => {
                self.slots[slot].spawn_failures = 0;
                self.slots[slot].state = SlotState::Running {
                    child,
                    spawned: Instant::now(),
                    epoch,
                };
            }
            Err(why) => {
                let s = &mut self.slots[slot];
                s.spawn_failures += 1;
                if s.spawn_failures >= self.copts.max_retries {
                    self.last_death = format!("slot {slot}: {why}");
                    s.state = SlotState::Retired;
                } else {
                    let delay =
                        backoff_delay(s.spawn_failures, self.copts.backoff, self.copts.backoff_cap);
                    self.respawns.push(Respawn {
                        slot,
                        epoch: epoch + 1,
                        attempt: s.spawn_failures,
                        delay,
                        why,
                    });
                    s.state = SlotState::Pending {
                        at: Instant::now() + delay,
                    };
                }
            }
        }
    }

    /// Fence and clean up after a reaped worker incarnation: back-fill
    /// `done` markers from its (always-valid-prefix) journal, release its
    /// leases with an attempts bump, then retire or schedule the respawn.
    fn handle_death(&mut self, slot: usize, epoch: u64, why: &str) -> Result<(), BpMaxError> {
        let wdir = worker_dir(self.dir, slot, epoch);
        let mut journaled = 0usize;
        if checkpoint::manifest_path(&wdir).exists() {
            let (_, records, _) = checkpoint::load(&wdir)?;
            journaled = records.len();
            for rec in &records {
                let i = rec.index as usize;
                if i < self.count && !done_path(self.dir, i).exists() {
                    mark_done(self.dir, i)?;
                }
            }
        }

        let mut held = 0usize;
        for i in 0..self.count {
            let cpath = claim_path(self.dir, i);
            if !cpath.exists() {
                continue;
            }
            // A torn claim can only be left by a worker killed mid-write
            // (live workers complete the ~60-byte write in microseconds),
            // so it is released alongside the dead incarnation's leases.
            let ours = match read_ledger(&cpath) {
                Ok(Some(rec)) => rec.slot == slot as u64 && rec.epoch == epoch,
                Ok(None) => false,
                Err(BpMaxError::CorruptCheckpoint { .. }) => true,
                Err(e) => return Err(e),
            };
            if !ours {
                continue;
            }
            held += 1;
            if done_path(self.dir, i).exists() {
                // journaled before the crash: the result is durable, the
                // lease is just stale
                match fs::remove_file(&cpath) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(io_err(&cpath, format!("fencing claim: {e}"))),
                }
            } else {
                let detail = format!("worker slot {slot} epoch {epoch} died: {why}");
                release_with_failure(
                    self.dir,
                    i,
                    slot as u64,
                    epoch,
                    &detail,
                    self.copts.max_retries,
                )?;
                self.released.insert(i);
            }
        }

        let s = &mut self.slots[slot];
        s.deaths += 1;
        if journaled == 0 && held == 0 {
            s.barren += 1;
        } else {
            s.barren = 0;
        }
        self.last_death = format!("slot {slot} epoch {epoch}: {why}");
        if s.barren >= self.copts.max_retries {
            s.state = SlotState::Retired;
        } else {
            let delay = backoff_delay(s.deaths, self.copts.backoff, self.copts.backoff_cap);
            self.respawns.push(Respawn {
                slot,
                epoch: epoch + 1,
                attempt: s.deaths,
                delay,
                why: why.to_string(),
            });
            s.state = SlotState::Pending {
                at: Instant::now() + delay,
            };
        }
        Ok(())
    }

    /// Newest sign of life of a running incarnation, as an age.
    fn liveness_age(&self, slot: usize, epoch: u64, spawned: Instant) -> Duration {
        let wdir = worker_dir(self.dir, slot, epoch);
        let mut age = spawned.elapsed();
        let now = SystemTime::now();
        for p in [heartbeat_path(&wdir), checkpoint::journal_path(&wdir)] {
            if let Ok(mtime) = fs::metadata(&p).and_then(|m| m.modified()) {
                age = age.min(now.duration_since(mtime).unwrap_or(Duration::ZERO));
            }
        }
        age
    }

    fn all_settled(&self) -> bool {
        (0..self.count).all(|i| settled(self.dir, i))
    }

    fn poll_once(&mut self) -> Result<bool, BpMaxError> {
        let mut any_active = false;
        for slot in 0..self.slots.len() {
            let state = std::mem::replace(&mut self.slots[slot].state, SlotState::Finished);
            match state {
                SlotState::Running {
                    mut child,
                    spawned,
                    epoch,
                } => {
                    any_active = true;
                    match child.try_wait() {
                        Ok(Some(status)) => {
                            if status.success() && self.all_settled() {
                                self.slots[slot].state = SlotState::Finished;
                            } else {
                                self.handle_death(slot, epoch, &format!("exited ({status})"))?;
                            }
                        }
                        Ok(None) => {
                            let hb_seq = self.heartbeat_seq;
                            self.heartbeat_seq += 1;
                            let stale = fault::active(fault::SITE_HEARTBEAT, hb_seq).is_some()
                                || self.liveness_age(slot, epoch, spawned)
                                    > self.copts.heartbeat_timeout;
                            let overdue = self
                                .copts
                                .worker_deadline
                                .is_some_and(|d| spawned.elapsed() > d);
                            if stale || overdue {
                                let why = if stale {
                                    "heartbeat stale"
                                } else {
                                    "worker deadline exceeded"
                                };
                                let _ = child.kill();
                                let _ = child.wait();
                                self.handle_death(slot, epoch, why)?;
                            } else {
                                self.slots[slot].state = SlotState::Running {
                                    child,
                                    spawned,
                                    epoch,
                                };
                            }
                        }
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            self.handle_death(slot, epoch, &format!("wait failed: {e}"))?;
                        }
                    }
                }
                SlotState::Pending { at } => {
                    any_active = true;
                    if Instant::now() >= at {
                        self.spawn(slot);
                    } else {
                        self.slots[slot].state = SlotState::Pending { at };
                    }
                }
                other => self.slots[slot].state = other,
            }
        }
        Ok(any_active)
    }

    /// Kill and reap every still-running child (error paths and normal
    /// shutdown both end here — no worker outlives its coordinator).
    fn shutdown(&mut self) {
        for s in &mut self.slots {
            if let SlotState::Running { child, .. } = &mut s.state {
                let _ = child.kill();
                let _ = child.wait();
            }
            s.state = SlotState::Finished;
        }
    }
}

/// Shard `problems` across worker processes and supervise them to
/// completion, then [`merge`] the worker journals. The ledger under
/// `dir` is recreated from scratch (a coordinator run is not resumable
/// across coordinator crashes — worker crashes are its domain).
pub fn run(
    problems: &[BpMaxProblem],
    opts: &BatchOptions,
    copts: &CoordinatorOptions,
    cmd: &WorkerCommand,
    dir: &Path,
) -> Result<CoordinatorReport, BpMaxError> {
    copts.validate()?;
    let start = Instant::now();
    let workers = copts.workers.min(problems.len().max(1));

    // fresh ledger: wipe claims and every worker incarnation dir
    let cdir = claims_dir(dir);
    if cdir.exists() {
        fs::remove_dir_all(&cdir).map_err(|e| io_err(&cdir, e.to_string()))?;
    }
    if dir.exists() {
        let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e.to_string()))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, e.to_string()))?;
            if entry.file_name().to_string_lossy().starts_with("worker-") {
                let p = entry.path();
                fs::remove_dir_all(&p).map_err(|e| io_err(&p, e.to_string()))?;
            }
        }
    }
    let manifest = RunManifest {
        options_hash: opts.fingerprint(),
        seed: 0,
        problem_ids: problems.iter().map(problem_id).collect(),
    };
    checkpoint::write_manifest(dir, &manifest)?;
    fs::create_dir_all(&cdir).map_err(|e| io_err(&cdir, e.to_string()))?;

    let mut sup = Supervisor {
        dir,
        count: problems.len(),
        copts,
        cmd,
        slots: (0..workers)
            .map(|_| Slot {
                state: SlotState::Pending { at: Instant::now() },
                epoch: 0,
                deaths: 0,
                spawn_failures: 0,
                barren: 0,
            })
            .collect(),
        respawns: Vec::new(),
        released: HashSet::new(),
        spawn_seq: 0,
        heartbeat_seq: 0,
        last_death: String::new(),
    };

    let outcome = loop {
        if sup.all_settled() {
            break Ok(());
        }
        match sup.poll_once() {
            Ok(true) => std::thread::sleep(copts.poll),
            Ok(false) => {
                break Err(BpMaxError::Coordinator {
                    detail: format!(
                        "every worker slot retired before the ledger settled \
                         (last failure: {})",
                        if sup.last_death.is_empty() {
                            "none recorded"
                        } else {
                            &sup.last_death
                        }
                    ),
                })
            }
            Err(e) => break Err(e),
        }
    };
    sup.shutdown();
    outcome?;

    let stolen = sup
        .released
        .iter()
        .filter(|&&i| done_path(dir, i).exists())
        .count();
    let mut report = merge(problems, opts, dir)?;
    report.wall_s = start.elapsed().as_secs_f64();
    let poisoned = report
        .items
        .iter()
        .filter(|it| matches!(it.error, Some(BpMaxError::Panicked { .. })))
        .count();
    Ok(CoordinatorReport {
        report,
        workers,
        respawns: sup.respawns,
        stolen,
        poisoned,
    })
}

/// Merge every worker journal under `dir` into one [`BatchReport`],
/// validating the ledger root manifest against `problems` + `opts`
/// exactly like [`BatchEngine::resume`] validates a checkpoint. Scores
/// are replayed verbatim (first record wins — a worker killed between
/// journaling and its `done` marker may leave a benign duplicate), so
/// the merged ranking is bit-identical to a single-process run. Poisoned
/// problems become [`Outcome::Failed`] items carrying
/// [`BpMaxError::Panicked`]; an unresolved problem is a typed
/// [`BpMaxError::Coordinator`] — the merge never invents a score.
pub fn merge(
    problems: &[BpMaxProblem],
    opts: &BatchOptions,
    dir: &Path,
) -> Result<BatchReport, BpMaxError> {
    let root = checkpoint::read_manifest(dir)?;
    let want_hash = opts.fingerprint();
    if root.options_hash != want_hash {
        return Err(BpMaxError::CheckpointMismatch {
            detail: format!(
                "ledger was written under options {:#018x} but this merge is \
                 configured as {want_hash:#018x} — refusing to mix configurations",
                root.options_hash
            ),
        });
    }
    let ids: Vec<u64> = problems.iter().map(problem_id).collect();
    if root.problem_ids != ids {
        return Err(BpMaxError::CheckpointMismatch {
            detail: format!(
                "ledger covers {} problems but the batch has {} (or their ids drifted)",
                root.problem_ids.len(),
                ids.len()
            ),
        });
    }

    let mut wdirs: Vec<PathBuf> = Vec::new();
    if dir.exists() {
        let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e.to_string()))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, e.to_string()))?;
            let p = entry.path();
            if p.is_dir()
                && entry.file_name().to_string_lossy().starts_with("worker-")
                && checkpoint::manifest_path(&p).exists()
            {
                wdirs.push(p);
            }
        }
    }
    wdirs.sort();

    let mut slots: Vec<Option<BatchItem>> = Vec::new();
    slots.resize_with(problems.len(), || None);
    for wdir in &wdirs {
        let (wman, records, _) = checkpoint::load(wdir)?;
        if wman != root {
            return Err(BpMaxError::Coordinator {
                detail: format!(
                    "worker directory {} carries a manifest that disagrees with \
                     the ledger root — refusing to merge across configurations",
                    wdir.display()
                ),
            });
        }
        let jpath = checkpoint::journal_path(wdir).display().to_string();
        for rec in &records {
            let i = rec.index as usize;
            if i >= problems.len() {
                return Err(BpMaxError::CorruptCheckpoint {
                    path: jpath.clone(),
                    detail: format!(
                        "record index {i} out of range for a {}-problem batch",
                        problems.len()
                    ),
                });
            }
            if !rec.outcome.has_score() {
                return Err(BpMaxError::CorruptCheckpoint {
                    path: jpath.clone(),
                    detail: format!(
                        "journaled outcome {:?} for problem {i} carries no score",
                        rec.outcome
                    ),
                });
            }
            if slots[i].is_some() {
                continue; // first record wins; duplicates are deterministic re-solves
            }
            let problem = &problems[i];
            slots[i] = Some(BatchItem {
                index: i,
                m: problem.ctx().m(),
                n: problem.ctx().n(),
                score: rec.score,
                seconds: rec.seconds,
                flops: problem.flops(),
                coarse: rec.coarse,
                outcome: rec.outcome,
                error: None,
                table: None,
            });
        }
    }

    for i in 0..problems.len() {
        if slots[i].is_some() {
            continue;
        }
        if let Some(rec) = read_ledger(&poison_path(dir, i))? {
            let problem = &problems[i];
            slots[i] = Some(BatchItem {
                index: i,
                m: problem.ctx().m(),
                n: problem.ctx().n(),
                score: f32::NEG_INFINITY,
                seconds: 0.0,
                flops: problem.flops(),
                coarse: false,
                outcome: Outcome::Failed,
                error: Some(BpMaxError::Panicked {
                    detail: format!(
                        "problem {i} quarantined after {} attempts: {}",
                        rec.attempts, rec.detail
                    ),
                }),
                table: None,
            });
        }
    }

    let mut items = Vec::with_capacity(problems.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(item) => items.push(item),
            None => {
                return Err(BpMaxError::Coordinator {
                    detail: format!(
                        "problem {i} is neither journaled nor poisoned — the ledger \
                         did not settle"
                    ),
                })
            }
        }
    }
    Ok(BatchReport {
        items,
        wall_s: 0.0,
        pool: PoolStats::default(),
        replayed: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::engine::SolveOptions;
    use rna::ScoringModel;
    use std::sync::atomic::AtomicU64;

    fn tmpdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
        let p =
            std::env::temp_dir().join(format!("bpmax-coord-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn problems() -> Vec<BpMaxProblem> {
        ["GGAUCC", "GGGAAACCC", "GCAUGC", "AUGCUA"]
            .iter()
            .map(|s| {
                BpMaxProblem::new(
                    s.parse().unwrap(),
                    "CCGAUG".parse().unwrap(),
                    ScoringModel::bpmax_default(),
                )
            })
            .collect()
    }

    fn opts() -> BatchOptions {
        BatchOptions::new().solve(SolveOptions::new().algorithm(Algorithm::Permuted))
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_millis(300);
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(50));
        assert_eq!(backoff_delay(2, base, cap), Duration::from_millis(100));
        assert_eq!(backoff_delay(3, base, cap), Duration::from_millis(200));
        assert_eq!(backoff_delay(4, base, cap), cap, "capped");
        assert_eq!(backoff_delay(40, base, cap), cap, "huge attempt saturates");
        assert_eq!(backoff_delay(0, base, cap), base, "attempt 0 acts as 1");
    }

    #[test]
    fn ledger_record_round_trips_and_detects_corruption() {
        let dir = tmpdir("ledger");
        let rec = LedgerRecord {
            index: 7,
            slot: 2,
            epoch: 5,
            attempts: 3,
            detail: "worker died: heartbeat stale".to_string(),
        };
        let path = dir.join("rec.bin");
        write_ledger(&path, &rec).unwrap();
        assert_eq!(read_ledger(&path).unwrap(), Some(rec.clone()));
        assert_eq!(read_ledger(&dir.join("absent.bin")).unwrap(), None);

        let pristine = fs::read(&path).unwrap();
        for at in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[at] ^= 0x20;
            fs::write(&path, &bad).unwrap();
            match read_ledger(&path) {
                Err(BpMaxError::CorruptCheckpoint { .. }) => {}
                other => panic!("flip at byte {at}: {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn claims_are_granted_exactly_once() {
        let dir = tmpdir("claims");
        fs::create_dir_all(claims_dir(&dir)).unwrap();
        match claim_next(&dir, 2, 0, 1).unwrap() {
            Next::Claimed(0) => {}
            _ => panic!("expected to claim problem 0"),
        }
        // the same index is never granted twice; the next claim moves on
        match claim_next(&dir, 2, 1, 1).unwrap() {
            Next::Claimed(1) => {}
            _ => panic!("expected to claim problem 1"),
        }
        // everything leased, nothing settled: wait
        assert!(matches!(claim_next(&dir, 2, 0, 1).unwrap(), Next::Wait));
        mark_done(&dir, 0).unwrap();
        mark_done(&dir, 1).unwrap();
        assert!(matches!(claim_next(&dir, 2, 0, 1).unwrap(), Next::Settled));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_bumps_attempts_and_poisons_at_the_cap() {
        let dir = tmpdir("poison");
        fs::create_dir_all(claims_dir(&dir)).unwrap();
        assert_eq!(release_with_failure(&dir, 4, 0, 1, "boom", 3).unwrap(), 1);
        assert!(!poison_path(&dir, 4).exists());
        assert_eq!(release_with_failure(&dir, 4, 1, 2, "boom", 3).unwrap(), 2);
        assert!(!poison_path(&dir, 4).exists());
        assert_eq!(release_with_failure(&dir, 4, 0, 3, "boom", 3).unwrap(), 3);
        let poison = read_ledger(&poison_path(&dir, 4)).unwrap().unwrap();
        assert_eq!(poison.attempts, 3);
        assert!(poison.detail.contains("boom"));
        assert!(settled(&dir, 4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_replays_worker_journals_bit_identically() {
        let dir = tmpdir("merge");
        let probs = problems();
        let opts = opts();
        let engine = BatchEngine::new(opts.clone()).unwrap();
        let reference = engine.solve_all(&probs).unwrap();

        let manifest = RunManifest {
            options_hash: opts.fingerprint(),
            seed: 0,
            problem_ids: probs.iter().map(problem_id).collect(),
        };
        checkpoint::write_manifest(&dir, &manifest).unwrap();
        fs::create_dir_all(claims_dir(&dir)).unwrap();
        // two worker incarnations split the batch, as real workers would
        let sinks = [
            CheckpointSink::create(&worker_dir(&dir, 0, 1), &manifest).unwrap(),
            CheckpointSink::create(&worker_dir(&dir, 1, 1), &manifest).unwrap(),
        ];
        for item in &reference.items {
            sinks[item.index % 2].record(&JournalRecord {
                index: item.index as u64,
                outcome: item.outcome,
                score: item.score,
                seconds: item.seconds,
                coarse: item.coarse,
            });
        }
        let merged = merge(&probs, &opts, &dir).unwrap();
        assert_eq!(merged.items.len(), reference.items.len());
        for (a, b) in merged.items.iter().zip(&reference.items) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "problem {}", a.index);
            assert_eq!(a.outcome, b.outcome);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_surfaces_poison_as_failed_and_missing_as_typed_error() {
        let dir = tmpdir("merge-poison");
        let probs = problems();
        let opts = opts();
        let manifest = RunManifest {
            options_hash: opts.fingerprint(),
            seed: 0,
            problem_ids: probs.iter().map(problem_id).collect(),
        };
        checkpoint::write_manifest(&dir, &manifest).unwrap();
        fs::create_dir_all(claims_dir(&dir)).unwrap();
        let sink = CheckpointSink::create(&worker_dir(&dir, 0, 1), &manifest).unwrap();
        for i in 0..probs.len() - 1 {
            sink.record(&JournalRecord {
                index: i as u64,
                outcome: Outcome::Ok,
                score: i as f32,
                seconds: 0.01,
                coarse: true,
            });
        }
        // last problem unresolved: typed Coordinator error, no panic
        match merge(&probs, &opts, &dir) {
            Err(BpMaxError::Coordinator { detail }) => {
                assert!(detail.contains("problem 3"), "{detail}");
            }
            other => panic!("expected Coordinator error, got {other:?}"),
        }
        // poison it: merged as Failed + Panicked with the quarantine story
        let last = probs.len() - 1;
        let rec = LedgerRecord {
            index: last as u64,
            slot: 0,
            epoch: 2,
            attempts: 3,
            detail: "worker slot 0 epoch 1 died: exited (signal: 9)".to_string(),
        };
        write_ledger(&poison_path(&dir, last), &rec).unwrap();
        let merged = merge(&probs, &opts, &dir).unwrap();
        let item = &merged.items[last];
        assert_eq!(item.outcome, Outcome::Failed);
        assert!(item.score.is_infinite() && item.score < 0.0);
        match &item.error {
            Some(BpMaxError::Panicked { detail }) => {
                assert!(detail.contains("after 3 attempts"), "{detail}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_configuration_drift() {
        let dir = tmpdir("merge-drift");
        let probs = problems();
        let opts = opts();
        let manifest = RunManifest {
            options_hash: opts.fingerprint() ^ 1,
            seed: 0,
            problem_ids: probs.iter().map(problem_id).collect(),
        };
        checkpoint::write_manifest(&dir, &manifest).unwrap();
        match merge(&probs, &opts, &dir) {
            Err(BpMaxError::CheckpointMismatch { .. }) => {}
            other => panic!("expected CheckpointMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_env_requires_the_full_contract() {
        // worker_env reads process environment; exercised end-to-end by
        // the CLI integration tests. Here: the options validator.
        assert!(CoordinatorOptions::new().validate().is_ok());
        assert!(CoordinatorOptions::new().workers(0).validate().is_err());
        assert!(CoordinatorOptions::new().max_retries(0).validate().is_err());
        let bad = CoordinatorOptions::new().backoff(Duration::from_secs(3), Duration::from_secs(1));
        assert!(bad.validate().is_err());
    }
}
