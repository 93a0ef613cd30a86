//! The resident solve service: a long-lived daemon that keeps a
//! [`BatchEngine`] with hot [`crate::ftable::BlockPool`] arenas alive
//! across requests, plus the wire protocol and client both `bpmax-cli
//! serve` and `bpmax-cli client` speak.
//!
//! # Protocol
//!
//! One message per request/response, over a Unix stream socket, in the
//! `checkpoint` container conventions (little-endian, CRC-framed):
//!
//! ```text
//! [8B magic "BPMXSERV"] [u32 version] [u8 kind] [u32 len] [u32 crc32] [payload]
//! ```
//!
//! A connection carries any number of request → response exchanges; the
//! client closing its end is the normal goodbye. Every malformed byte —
//! bad magic, wrong version, torn or oversized frame, CRC mismatch, a
//! payload that does not decode — is a typed [`BpMaxError::Protocol`],
//! never a panic; the server answers [`Response::Error`] where it can
//! still frame a reply and drops the connection where it cannot. A
//! configurable per-connection read timeout gives silent peers the same
//! treatment: a typed error reply (best-effort) and a hang-up, so a
//! stalled client can never pin a handler thread forever.
//!
//! # Admission and degradation
//!
//! A [`SolveRequest`] is admitted through the perfmodel and the server's
//! [`MemoryBudget`]: an exact solve that cannot fit the effective budget
//! (the tighter of server cap and request cap) is *rejected* with a typed
//! [`RejectReason::Memory`] — unless the request opts into degradation,
//! in which case the engine falls back to the windowed lower-bound solve
//! and the response is flagged [`Outcome::Degraded`]. A predicted runtime
//! above the server's cap is rejected with
//! [`RejectReason::PredictedTime`] before any allocation happens.
//!
//! # Concurrency, backpressure, and drain
//!
//! Admitted requests execute concurrently, each on its connection's
//! handler thread against the one shared engine, but never unboundedly:
//! a bounded in-flight ledger caps how many solves run at once
//! (`max_inflight`) and how many *bytes* of admitted F-tables coexist
//! (the server `mem_budget` is an **aggregate** cap across in-flight
//! work, not only a per-request one). A request that
//! arrives at capacity waits in a bounded queue (`queue_depth` slots,
//! `queue_wait` at most — tightened by the request's own deadline);
//! overflow or a wait timeout is shed with a typed
//! [`RejectReason::Overloaded`] carrying a retry hint, never an
//! unbounded wait. Shedding is deliberately distinct from the budget
//! rejections above: over-capacity is the *server's* state, so the
//! client may retry — which is always safe, because results are
//! content-addressed (a duplicate attempt at worst hits the cache).
//!
//! Shutdown is a drain, not an abort: the daemon stops admitting new
//! solves (they get a clean typed refusal), lets in-flight work finish
//! under `drain_timeout` (stragglers are cancelled through their solve
//! supervision tokens past that), flushes the in-memory cache tier to
//! the disk tier, and only then exits the accept loop. A panicking
//! handler is caught (`catch_unwind`), counted, and answered with a
//! typed error; cache locking is poison-tolerant — one bad request can
//! never take the daemon down.
//!
//! # Result cache
//!
//! Results are cached in a content-addressed in-memory + on-disk store
//! keyed by `(problem content-id) × (options fingerprint)`:
//! [`crate::checkpoint::problem_id_of`] (FNV-1a over strands + scoring
//! model, taken from the request before any problem is built) crossed
//! with the [`crate::batch::BatchOptions::fingerprint`]
//! rule over the request's [`Algorithm`], effective memory budget,
//! and degrade flag. Deadlines are deliberately *not* in the key — they
//! decide whether a solve finishes, never its score. A version that
//! cannot run (a tile with a zero dimension) is refused before the cache
//! is consulted, with the same typed error a cold solve gives. A warm hit
//! skips the solver entirely (the pool stats prove zero table
//! acquisitions) and returns the bit-exact cold score. The in-memory
//! tier holds a configurable
//! byte budget; over-budget entries are evicted least-recently-used
//! first and spill to the on-disk tier, so eviction changes where an
//! answer lives, never its bits. The on-disk tier (one CRC-framed file
//! per key under the cache dir) survives daemon restarts; a corrupt
//! entry is detected and treated as a miss, never replayed.

use crate::batch::{BatchEngine, BatchOptions};
use crate::checkpoint::{
    outcome_code, outcome_from_code, problem_id_of, put_f32, put_f64, put_frame, put_u32, put_u64,
    put_u8, read_file, take_frame, write_atomic, Cursor,
};
use crate::engine::{Algorithm, BpMaxProblem, SolveOptions};
use crate::error::BpMaxError;
use crate::ftable::{FTable, Layout, PoolStats};
use crate::kernels::Tile;
use crate::supervise::{fault, CancelToken, Deadline, MemoryBudget, Outcome};
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Magic bytes opening every serve-wire message and cache file.
pub const MAGIC: &[u8; 8] = b"BPMXSERV";

/// Wire format version; a mismatch is a typed rejection, not a guess.
/// v2 widened the stats reply with the cache-eviction and read-timeout
/// counters. v3 added the overload counters (inflight / shed / drained
/// / panicked) to the stats reply, the [`RejectReason::Overloaded`]
/// load-shedding rejection, and the per-request deadline field. v4
/// dropped the request's bounds-mode override byte (the kernels have one
/// bounds-checked form). v5 dropped the request's tile-override and SIMD
/// presence bytes (a tile now travels only inside `hybrid+tiled`) and
/// added algorithm code 6 (`hybrid+reg`). v6 dropped the layout-override
/// presence byte (a table's layout is always its problem's) and retired
/// algorithm codes 3 and 4 (`fine`, `hybrid`), which are now refused as
/// unknown. An older cache entry fails the header check and is treated
/// as a miss.
pub const VERSION: u32 = 6;

/// Ceiling on a single frame's payload: no request needs more, and the
/// reader must never let a corrupted length field drive allocation.
const MAX_FRAME_BYTES: u32 = 64 << 20;

// Message kind bytes. Requests are low, responses high, cache entries
// out-of-band; a stray response decoded as a request (or vice versa)
// fails on the kind byte, not deep inside a payload.
const KIND_SOLVE: u8 = 1;
const KIND_STATS: u8 = 2;
const KIND_SHUTDOWN: u8 = 3;
const KIND_SOLVED: u8 = 16;
const KIND_REJECTED: u8 = 17;
const KIND_ERROR: u8 = 18;
const KIND_STATS_REPLY: u8 = 19;
const KIND_SHUTTING_DOWN: u8 = 20;
const KIND_CACHE_ENTRY: u8 = 32;

/// Map a decode failure from the shared checkpoint cursor (which speaks
/// `CorruptCheckpoint`) to the wire's own error type, preserving the
/// offset detail.
fn wire_err(e: BpMaxError) -> BpMaxError {
    match e {
        BpMaxError::CorruptCheckpoint { detail, .. } => BpMaxError::Protocol { detail },
        other => other,
    }
}

fn protocol(detail: String) -> BpMaxError {
    BpMaxError::Protocol { detail }
}

// ---------------------------------------------------------------------------
// Request / response API
// ---------------------------------------------------------------------------

/// One solve job, exactly as it crosses the wire: the problem content
/// (strands + scoring model) plus the score-affecting [`Algorithm`]
/// and the request-side supervision knobs. This is the unified request
/// type the CLI's one-shot path and the daemon share — both build it,
/// one solves it locally, the other encodes it.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Strand 1.
    pub seq1: RnaSeq,
    /// Strand 2.
    pub seq2: RnaSeq,
    /// The scoring model (round-tripped bit-exactly).
    pub model: ScoringModel,
    /// The program version: the score-affecting solve configuration.
    pub algorithm: Algorithm,
    /// Request-side F-table byte cap; the server's own cap still applies
    /// (the tighter one wins).
    pub mem_budget: Option<u64>,
    /// Over-budget behaviour: degrade to the windowed lower-bound solve
    /// (`true`) or take the typed rejection (`false`, default).
    pub degrade: bool,
    /// Request-side wall-clock budget, measured from the moment the
    /// server receives the request: it bounds the queue wait *and* the
    /// solve (wired into the solve's [`Deadline`]). `None` leaves only
    /// the server-side limits.
    pub deadline: Option<Duration>,
}

impl SolveRequest {
    /// A request with the default (champion) algorithm and no caps.
    pub fn new(seq1: RnaSeq, seq2: RnaSeq, model: ScoringModel) -> Self {
        SolveRequest {
            seq1,
            seq2,
            model,
            algorithm: Algorithm::default(),
            mem_budget: None,
            degrade: false,
            deadline: None,
        }
    }

    /// Select the program version.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Cap the F-table bytes for this request.
    #[must_use]
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Degrade to windowed solves instead of rejecting when over budget.
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Bound the queue wait plus solve to this wall-clock budget.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// A client→server message.
// Solve dwarfs the flag-like Stats/Shutdown variants, but a Request is
// a transient decoded-once value passed by reference — boxing would add
// a per-message allocation and indirection for no live-memory win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Solve one problem (or serve it from the result cache).
    Solve(SolveRequest),
    /// Report the server's counters and pool statistics.
    Stats,
    /// Stop accepting connections and exit the accept loop.
    Shutdown,
}

/// Why a request was refused admission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RejectReason {
    /// The exact F-table does not fit the effective memory budget (and
    /// the request did not opt into degradation).
    Memory {
        /// Bytes the exact table needs.
        needed_bytes: u64,
        /// The effective budget (tighter of server and request caps).
        budget_bytes: u64,
    },
    /// The perfmodel predicts a runtime above the server's cap.
    PredictedTime {
        /// Predicted single-thread seconds.
        predicted_s: f64,
        /// The server's `--max-seconds` cap.
        cap_s: f64,
    },
    /// The server shed the request: the in-flight ledger was at capacity
    /// and the wait queue was full (or the queue wait timed out).
    /// Nothing was solved; retrying is always safe under content
    /// addressing — see [`Client::solve_with_retry`].
    Overloaded {
        /// Solves executing when the request was shed.
        inflight: u64,
        /// The queue bound that was full (slots).
        depth: u64,
        /// Server's estimate of when capacity frees up, in milliseconds
        /// — seed the retry backoff with it.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Memory {
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "F-table needs {needed_bytes} bytes but the effective budget is {budget_bytes}"
            ),
            RejectReason::PredictedTime { predicted_s, cap_s } => write!(
                f,
                "predicted runtime {predicted_s:.3} s exceeds the {cap_s:.3} s cap"
            ),
            RejectReason::Overloaded {
                inflight,
                depth,
                retry_after_ms,
            } => write!(
                f,
                "server overloaded: {inflight} solves in flight, {depth}-slot \
                 queue full; retry in ~{retry_after_ms} ms"
            ),
        }
    }
}

/// Aggregate server counters plus the resident pool's statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Total requests handled (solve + stats + shutdown).
    pub requests: u64,
    /// Solve requests answered from the result cache.
    pub cache_hits: u64,
    /// Solve requests that ran the engine.
    pub solves: u64,
    /// Solve requests refused admission.
    pub rejects: u64,
    /// Entries evicted from the in-memory cache tier to fit its byte
    /// budget (each spilled to the disk tier when one is configured).
    pub evictions: u64,
    /// Connections dropped because the peer stayed silent past the
    /// per-connection read timeout.
    pub timeouts: u64,
    /// Solves executing right now (a gauge, not a counter): admitted
    /// through the in-flight ledger and not yet finished.
    pub inflight: u64,
    /// Requests shed with [`RejectReason::Overloaded`] (queue overflow
    /// or queue-wait timeout). Counted separately from `rejects`, which
    /// are admission-policy refusals of requests the server *could*
    /// have run.
    pub shed: u64,
    /// In-flight solves that completed during a graceful drain.
    pub drained: u64,
    /// Handler panics caught by the connection loop (the daemon
    /// survived each one and answered a typed error).
    pub panicked: u64,
    /// The resident [`crate::ftable::BlockPool`]'s counters.
    pub pool: PoolStats,
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The solve finished (or was served warm from the cache).
    Solved {
        /// The interaction score (exact, or the windowed lower bound
        /// when `outcome` is [`Outcome::Degraded`]).
        score: f32,
        /// [`Outcome::Ok`] or [`Outcome::Degraded`].
        outcome: Outcome,
        /// Server-side wall-clock seconds for this answer (0 is
        /// plausible for a warm hit).
        seconds: f64,
        /// `true` when the result came from the cache without running
        /// the solver.
        cache_hit: bool,
    },
    /// The request was refused admission; nothing was solved.
    Rejected(RejectReason),
    /// The request failed (malformed payload, solver error, …).
    Error {
        /// Human-readable failure description.
        detail: String,
    },
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
    /// Reply to [`Request::Shutdown`]; the server exits after sending it.
    ShuttingDown,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_seq(buf: &mut Vec<u8>, seq: &RnaSeq) {
    put_u64(buf, seq.len() as u64);
    for &b in seq.bases() {
        put_u8(buf, b.index() as u8);
    }
}

fn take_seq(cur: &mut Cursor<'_>, what: &str) -> Result<RnaSeq, BpMaxError> {
    let len = cur.u64(what)?;
    if len > MAX_FRAME_BYTES as u64 {
        return Err(cur.corrupt(format!("{what}: absurd strand length {len}")));
    }
    let mut bases = Vec::with_capacity(len as usize);
    for _ in 0..len {
        let idx = cur.u8(what)?;
        if idx >= 4 {
            return Err(cur.corrupt(format!("{what}: base index {idx} out of range")));
        }
        bases.push(BASES[idx as usize]);
    }
    Ok(RnaSeq::new(bases))
}

fn put_model(buf: &mut Vec<u8>, model: &ScoringModel) {
    for a in BASES {
        for b in BASES {
            put_f32(buf, model.intra(a, b));
            put_f32(buf, model.inter(a, b));
        }
    }
    put_u64(buf, model.min_loop() as u64);
}

fn take_model(cur: &mut Cursor<'_>) -> Result<ScoringModel, BpMaxError> {
    let mut intra = [[0.0f32; 4]; 4];
    let mut inter = [[0.0f32; 4]; 4];
    for a in BASES {
        for b in BASES {
            intra[a.index()][b.index()] = cur.f32("model intra weight")?;
            inter[a.index()][b.index()] = cur.f32("model inter weight")?;
        }
    }
    let min_loop = cur.u64("model min_loop")?;
    if min_loop > MAX_FRAME_BYTES as u64 {
        return Err(cur.corrupt(format!("model: absurd min_loop {min_loop}")));
    }
    Ok(ScoringModel::from_tables(intra, inter, min_loop as usize))
}

fn algorithm_code(alg: Algorithm) -> u8 {
    match alg {
        Algorithm::Baseline => 0,
        Algorithm::Permuted => 1,
        Algorithm::CoarseGrain => 2,
        Algorithm::HybridTiled { .. } => 5,
        Algorithm::HybridReg => 6,
    }
}

fn put_tile(buf: &mut Vec<u8>, tile: Tile) {
    put_u64(buf, tile.i2 as u64);
    put_u64(buf, tile.k2 as u64);
    put_u64(buf, tile.j2 as u64);
}

fn take_tile(cur: &mut Cursor<'_>, what: &str) -> Result<Tile, BpMaxError> {
    // No range cap: usize::MAX is a legitimate "full extent" dimension
    // (Tile::DEFAULT uses it); only a value this platform cannot even
    // represent is malformed.
    let dim = |cur: &mut Cursor<'_>| -> Result<usize, BpMaxError> {
        let v = cur.u64(what)?;
        usize::try_from(v).map_err(|_| cur.corrupt(format!("{what}: tile dimension {v} overflows")))
    };
    Ok(Tile {
        i2: dim(cur)?,
        k2: dim(cur)?,
        j2: dim(cur)?,
    })
}

fn put_algorithm(buf: &mut Vec<u8>, alg: Algorithm) {
    put_u8(buf, algorithm_code(alg));
    if let Some(tile) = alg.tile() {
        put_tile(buf, tile);
    }
}

fn take_algorithm(cur: &mut Cursor<'_>) -> Result<Algorithm, BpMaxError> {
    Ok(match cur.u8("algorithm code")? {
        0 => Algorithm::Baseline,
        1 => Algorithm::Permuted,
        2 => Algorithm::CoarseGrain,
        5 => Algorithm::HybridTiled {
            tile: take_tile(cur, "algorithm tile")?,
        },
        6 => Algorithm::HybridReg,
        other => return Err(cur.corrupt(format!("unknown algorithm code {other}"))),
    })
}

/// `Option<T>` via a presence byte (`0` absent, `1` present).
fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put(buf, v);
        }
    }
}

fn take_presence(cur: &mut Cursor<'_>, what: &str) -> Result<bool, BpMaxError> {
    match cur.u8(what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(cur.corrupt(format!("{what}: presence byte {other} is not 0/1"))),
    }
}

fn take_bool(cur: &mut Cursor<'_>, what: &str) -> Result<bool, BpMaxError> {
    take_presence(cur, what)
}

fn header(kind: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u8(&mut buf, kind);
    buf
}

fn check_header(cur: &mut Cursor<'_>) -> Result<u8, BpMaxError> {
    let magic = cur.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(cur.corrupt(format!("bad magic {magic:02x?}, want {MAGIC:02x?}")));
    }
    let version = cur.u32("format version")?;
    if version != VERSION {
        return Err(cur.corrupt(format!(
            "format version {version}, this build reads {VERSION}"
        )));
    }
    cur.u8("message kind")
}

fn solve_request_payload(req: &SolveRequest) -> Vec<u8> {
    let mut p = Vec::new();
    put_seq(&mut p, &req.seq1);
    put_seq(&mut p, &req.seq2);
    put_model(&mut p, &req.model);
    put_algorithm(&mut p, req.algorithm);
    put_opt(&mut p, req.mem_budget, put_u64);
    put_u8(&mut p, u8::from(req.degrade));
    // Deadlines cross the wire as whole milliseconds: sub-millisecond
    // serving deadlines are not meaningful, and u64 ms round-trips
    // exactly where f64 seconds would not.
    put_opt(&mut p, req.deadline, |b, d| {
        put_u64(b, u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    });
    p
}

fn take_solve_request(cur: &mut Cursor<'_>) -> Result<SolveRequest, BpMaxError> {
    let seq1 = take_seq(cur, "strand 1")?;
    let seq2 = take_seq(cur, "strand 2")?;
    let model = take_model(cur)?;
    let algorithm = take_algorithm(cur)?;
    let mem_budget = take_presence(cur, "request mem budget")?
        .then(|| cur.u64("request mem budget bytes"))
        .transpose()?;
    let degrade = take_bool(cur, "request degrade flag")?;
    let deadline = take_presence(cur, "request deadline")?
        .then(|| cur.u64("request deadline millis"))
        .transpose()?
        .map(Duration::from_millis);
    Ok(SolveRequest {
        seq1,
        seq2,
        model,
        algorithm,
        mem_budget,
        degrade,
        deadline,
    })
}

/// Encode one request as a complete wire message.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let (kind, payload) = match req {
        Request::Solve(solve) => (KIND_SOLVE, solve_request_payload(solve)),
        Request::Stats => (KIND_STATS, Vec::new()),
        Request::Shutdown => (KIND_SHUTDOWN, Vec::new()),
    };
    let mut buf = header(kind);
    put_frame(&mut buf, &payload);
    buf
}

/// Decode one complete wire message as a request. Every malformation is
/// a typed [`BpMaxError::Protocol`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, BpMaxError> {
    let mut cur = Cursor::new(bytes, Path::new("wire"));
    let (kind, payload) = (|| {
        let kind = check_header(&mut cur)?;
        let payload = take_frame(&mut cur, "request frame")?;
        if !cur.done() {
            return Err(cur.corrupt("trailing bytes after request frame".to_string()));
        }
        Ok((kind, payload))
    })()
    .map_err(wire_err)?;
    let mut p = Cursor::new(payload, Path::new("wire"));
    let req = (|| {
        let req = match kind {
            KIND_SOLVE => Request::Solve(take_solve_request(&mut p)?),
            KIND_STATS => Request::Stats,
            KIND_SHUTDOWN => Request::Shutdown,
            other => return Err(p.corrupt(format!("unknown request kind {other}"))),
        };
        if !p.done() {
            return Err(p.corrupt("trailing bytes in request payload".to_string()));
        }
        Ok(req)
    })()
    .map_err(wire_err)?;
    Ok(req)
}

fn put_stats(buf: &mut Vec<u8>, stats: &ServerStats) {
    put_u64(buf, stats.requests);
    put_u64(buf, stats.cache_hits);
    put_u64(buf, stats.solves);
    put_u64(buf, stats.rejects);
    put_u64(buf, stats.evictions);
    put_u64(buf, stats.timeouts);
    put_u64(buf, stats.inflight);
    put_u64(buf, stats.shed);
    put_u64(buf, stats.drained);
    put_u64(buf, stats.panicked);
    put_u64(buf, stats.pool.allocated);
    put_u64(buf, stats.pool.reused);
    put_u64(buf, stats.pool.recycled);
    put_u64(buf, stats.pool.quarantined);
}

fn take_stats(cur: &mut Cursor<'_>) -> Result<ServerStats, BpMaxError> {
    Ok(ServerStats {
        requests: cur.u64("stats requests")?,
        cache_hits: cur.u64("stats cache hits")?,
        solves: cur.u64("stats solves")?,
        rejects: cur.u64("stats rejects")?,
        evictions: cur.u64("stats evictions")?,
        timeouts: cur.u64("stats timeouts")?,
        inflight: cur.u64("stats inflight")?,
        shed: cur.u64("stats shed")?,
        drained: cur.u64("stats drained")?,
        panicked: cur.u64("stats panicked")?,
        pool: PoolStats {
            allocated: cur.u64("stats pool allocated")?,
            reused: cur.u64("stats pool reused")?,
            recycled: cur.u64("stats pool recycled")?,
            quarantined: cur.u64("stats pool quarantined")?,
        },
    })
}

/// Encode one response as a complete wire message.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let (kind, payload) = match resp {
        Response::Solved {
            score,
            outcome,
            seconds,
            cache_hit,
        } => {
            let mut p = Vec::new();
            put_f32(&mut p, *score);
            put_u8(&mut p, outcome_code(*outcome));
            put_f64(&mut p, *seconds);
            put_u8(&mut p, u8::from(*cache_hit));
            (KIND_SOLVED, p)
        }
        Response::Rejected(reason) => {
            let mut p = Vec::new();
            match *reason {
                RejectReason::Memory {
                    needed_bytes,
                    budget_bytes,
                } => {
                    put_u8(&mut p, 0);
                    put_u64(&mut p, needed_bytes);
                    put_u64(&mut p, budget_bytes);
                }
                RejectReason::PredictedTime { predicted_s, cap_s } => {
                    put_u8(&mut p, 1);
                    put_f64(&mut p, predicted_s);
                    put_f64(&mut p, cap_s);
                }
                RejectReason::Overloaded {
                    inflight,
                    depth,
                    retry_after_ms,
                } => {
                    put_u8(&mut p, 2);
                    put_u64(&mut p, inflight);
                    put_u64(&mut p, depth);
                    put_u64(&mut p, retry_after_ms);
                }
            }
            (KIND_REJECTED, p)
        }
        Response::Error { detail } => {
            let mut p = Vec::new();
            put_u64(&mut p, detail.len() as u64);
            p.extend_from_slice(detail.as_bytes());
            (KIND_ERROR, p)
        }
        Response::Stats(stats) => {
            let mut p = Vec::new();
            put_stats(&mut p, stats);
            (KIND_STATS_REPLY, p)
        }
        Response::ShuttingDown => (KIND_SHUTTING_DOWN, Vec::new()),
    };
    let mut buf = header(kind);
    put_frame(&mut buf, &payload);
    buf
}

/// Decode one complete wire message as a response.
pub fn decode_response(bytes: &[u8]) -> Result<Response, BpMaxError> {
    let mut cur = Cursor::new(bytes, Path::new("wire"));
    let (kind, payload) = (|| {
        let kind = check_header(&mut cur)?;
        let payload = take_frame(&mut cur, "response frame")?;
        if !cur.done() {
            return Err(cur.corrupt("trailing bytes after response frame".to_string()));
        }
        Ok((kind, payload))
    })()
    .map_err(wire_err)?;
    let mut p = Cursor::new(payload, Path::new("wire"));
    let resp = (|| {
        let resp = match kind {
            KIND_SOLVED => {
                let score = p.f32("response score")?;
                let code = p.u8("response outcome")?;
                let outcome = outcome_from_code(code, &p)?;
                let seconds = p.f64("response seconds")?;
                let cache_hit = take_bool(&mut p, "response cache-hit flag")?;
                Response::Solved {
                    score,
                    outcome,
                    seconds,
                    cache_hit,
                }
            }
            KIND_REJECTED => Response::Rejected(match p.u8("reject reason kind")? {
                0 => RejectReason::Memory {
                    needed_bytes: p.u64("reject needed bytes")?,
                    budget_bytes: p.u64("reject budget bytes")?,
                },
                1 => RejectReason::PredictedTime {
                    predicted_s: p.f64("reject predicted seconds")?,
                    cap_s: p.f64("reject cap seconds")?,
                },
                2 => RejectReason::Overloaded {
                    inflight: p.u64("reject inflight")?,
                    depth: p.u64("reject queue depth")?,
                    retry_after_ms: p.u64("reject retry hint")?,
                },
                other => return Err(p.corrupt(format!("unknown reject reason {other}"))),
            }),
            KIND_ERROR => {
                let len = p.u64("error detail length")?;
                if len > MAX_FRAME_BYTES as u64 {
                    return Err(p.corrupt(format!("error detail length {len} absurd")));
                }
                let raw = p.take(len as usize, "error detail")?;
                let detail = std::str::from_utf8(raw)
                    .map_err(|e| p.corrupt(format!("error detail not utf-8: {e}")))?
                    .to_string();
                Response::Error { detail }
            }
            KIND_STATS_REPLY => Response::Stats(take_stats(&mut p)?),
            KIND_SHUTTING_DOWN => Response::ShuttingDown,
            other => return Err(p.corrupt(format!("unknown response kind {other}"))),
        };
        if !p.done() {
            return Err(p.corrupt("trailing bytes in response payload".to_string()));
        }
        Ok(resp)
    })()
    .map_err(wire_err)?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------------

/// Fixed prefix of every message: magic + version + kind + frame len +
/// frame crc. Reading it tells the reader exactly how many payload bytes
/// follow.
const MESSAGE_PREFIX: usize = 8 + 4 + 1 + 4 + 4;

fn fill(stream: &mut impl Read, buf: &mut [u8], already: usize) -> Result<usize, BpMaxError> {
    let mut filled = already;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A client-side read timeout keeps its own marker ("socket
            // read timed out"); the server uses the polled reader above
            // instead of this blocking fill.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(protocol(format!("socket read timed out: {e}")))
            }
            Err(e) => return Err(protocol(format!("socket read: {e}"))),
        }
    }
    Ok(filled)
}

/// Read one complete wire message off a stream. `Ok(None)` is the clean
/// end of the conversation (EOF on a message boundary); EOF mid-message
/// and a corrupted length field are typed protocol errors.
pub fn read_message(stream: &mut impl Read) -> Result<Option<Vec<u8>>, BpMaxError> {
    let mut prefix = [0u8; MESSAGE_PREFIX];
    let got = fill(stream, &mut prefix, 0)?;
    if got == 0 {
        return Ok(None);
    }
    if got < MESSAGE_PREFIX {
        return Err(protocol(format!(
            "connection closed mid-message after {got} of {MESSAGE_PREFIX} prefix bytes"
        )));
    }
    // lint: allow(unwrap): the slice is exactly 4 bytes by construction
    let len = u32::from_le_bytes(prefix[13..17].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut msg = vec![0u8; MESSAGE_PREFIX + len as usize];
    msg[..MESSAGE_PREFIX].copy_from_slice(&prefix);
    let total = fill(stream, &mut msg, MESSAGE_PREFIX)?;
    if total < msg.len() {
        return Err(protocol(format!(
            "connection closed mid-message after {total} of {} bytes",
            msg.len()
        )));
    }
    Ok(Some(msg))
}

fn write_message(stream: &mut impl Write, bytes: &[u8]) -> Result<(), BpMaxError> {
    stream
        .write_all(bytes)
        .and_then(|()| stream.flush())
        .map_err(|e| protocol(format!("socket write: {e}")))
}

/// Poison-tolerant lock: a panicking handler thread must never take the
/// daemon's shared state down with it. Every protected value here (cache
/// map, ledger counters, phase) is valid after any partial update — the
/// poison flag carries no information we act on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// The fingerprint half of the cache key: the shared
/// [`BatchOptions::fingerprint`] rule over the request's algorithm,
/// effective budget, and degrade flag. Deadlines are excluded on
/// purpose — they cannot change a score.
fn cache_fingerprint(algorithm: Algorithm, effective_budget: Option<u64>, degrade: bool) -> u64 {
    let mut solve = SolveOptions::new().algorithm(algorithm).degrade(degrade);
    if let Some(bytes) = effective_budget {
        solve = solve.mem_budget(MemoryBudget::bytes(bytes));
    }
    BatchOptions::new().solve(solve).fingerprint()
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct CachedResult {
    score: f32,
    outcome: Outcome,
}

fn encode_cache_entry(pid: u64, fp: u64, r: CachedResult) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u64(&mut payload, pid);
    put_u64(&mut payload, fp);
    put_f32(&mut payload, r.score);
    put_u8(&mut payload, outcome_code(r.outcome));
    let mut buf = header(KIND_CACHE_ENTRY);
    put_frame(&mut buf, &payload);
    buf
}

fn decode_cache_entry(bytes: &[u8], path: &Path) -> Result<(u64, u64, CachedResult), BpMaxError> {
    let mut cur = Cursor::new(bytes, path);
    let kind = check_header(&mut cur)?;
    if kind != KIND_CACHE_ENTRY {
        return Err(cur.corrupt(format!("kind {kind} is not a cache entry")));
    }
    let payload = take_frame(&mut cur, "cache entry frame")?;
    if !cur.done() {
        return Err(cur.corrupt("trailing bytes after cache entry".to_string()));
    }
    let mut p = Cursor::new(payload, path);
    let pid = p.u64("cache problem id")?;
    let fp = p.u64("cache options fingerprint")?;
    let score = p.f32("cache score")?;
    let outcome = outcome_from_code(p.u8("cache outcome")?, &p)?;
    if !p.done() {
        return Err(p.corrupt("trailing bytes in cache payload".to_string()));
    }
    Ok((pid, fp, CachedResult { score, outcome }))
}

/// Approximate resident cost of one in-memory cache entry: the 16-byte
/// key, the value, and hash-map slot overhead. The budget arithmetic
/// only needs to be consistent across entries, not exact.
const MEM_ENTRY_BYTES: u64 = 64;

/// The in-memory cache tier: a map with a per-entry last-use stamp, so a
/// byte budget can evict least-recently-used first. Scores never leave
/// the process through this type — eviction changes *where* an answer
/// lives (memory vs disk), never its bits.
struct MemTier {
    map: HashMap<(u64, u64), (CachedResult, u64)>,
    /// Monotonic use counter; larger stamp = more recently touched.
    clock: u64,
    /// Byte budget over `len() * MEM_ENTRY_BYTES`; `None` is unbounded.
    budget: Option<u64>,
}

impl MemTier {
    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn get(&mut self, key: (u64, u64)) -> Option<CachedResult> {
        let now = self.stamp();
        let (r, at) = self.map.get_mut(&key)?;
        *at = now;
        Some(*r)
    }

    /// Insert `key`, then shed least-recently-used entries until the
    /// tier fits its budget again. Returns the shed entries so the
    /// caller can spill them to the disk tier.
    fn insert(&mut self, key: (u64, u64), r: CachedResult) -> Vec<((u64, u64), CachedResult)> {
        let now = self.stamp();
        self.map.insert(key, (r, now));
        let Some(budget) = self.budget else {
            return Vec::new();
        };
        // Never evict below one entry: the freshly inserted result must
        // survive long enough to answer an immediate re-ask.
        let cap = usize::try_from((budget / MEM_ENTRY_BYTES).max(1)).unwrap_or(usize::MAX);
        let mut shed = Vec::new();
        while self.map.len() > cap {
            // O(n) scan per eviction is fine: the budget keeps this map
            // small by construction.
            let lru = self.map.iter().min_by_key(|(_, (_, at))| *at);
            // lint: allow(unwrap): len > cap >= 1, so the map is non-empty
            let oldest = *lru.map(|(k, _)| k).unwrap();
            // lint: allow(unwrap): `oldest` was just read out of the map
            let (r, _) = self.map.remove(&oldest).unwrap();
            shed.push((oldest, r));
        }
        shed
    }
}

/// Content-addressed result store: a byte-budgeted LRU in-memory tier in
/// front of an optional on-disk tier (one atomic CRC-framed file per
/// key, named `<problem-id>-<fingerprint>.bin`). Entries evicted from
/// memory spill to disk, so a warm hit stays warm — it just pays one
/// file read — and stays bit-identical, because the disk codec
/// round-trips scores exactly. Corrupt or mismatched disk entries are
/// misses, never answers.
struct ResultCache {
    mem: Mutex<MemTier>,
    dir: Option<PathBuf>,
    evictions: AtomicU64,
}

impl ResultCache {
    fn new(dir: Option<PathBuf>, mem_budget: Option<u64>) -> Result<ResultCache, BpMaxError> {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir).map_err(|e| BpMaxError::CheckpointIo {
                path: dir.display().to_string(),
                detail: e.to_string(),
            })?;
        }
        Ok(ResultCache {
            mem: Mutex::new(MemTier {
                map: HashMap::new(),
                clock: 0,
                budget: mem_budget,
            }),
            dir,
            evictions: AtomicU64::new(0),
        })
    }

    fn entry_path(dir: &Path, pid: u64, fp: u64) -> PathBuf {
        dir.join(format!("{pid:016x}-{fp:016x}.bin"))
    }

    /// Entries evicted from the in-memory tier so far.
    fn evictions(&self) -> u64 {
        // ordering: report-only counter
        self.evictions.load(Ordering::Relaxed)
    }

    /// Spill entries shed by the in-memory tier to the disk tier.
    /// Usually a no-op rewrite of identical bytes (every put already
    /// wrote through), but it re-covers an entry whose put-time write
    /// failed on a then-full disk.
    fn spill(&self, shed: Vec<((u64, u64), CachedResult)>) {
        for ((pid, fp), r) in shed {
            // ordering: monotonic counter
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(dir) = &self.dir {
                let _ = write_atomic(
                    &Self::entry_path(dir, pid, fp),
                    &encode_cache_entry(pid, fp, r),
                );
            }
        }
    }

    fn get(&self, pid: u64, fp: u64) -> Option<CachedResult> {
        if let Some(hit) = lock(&self.mem).get((pid, fp)) {
            return Some(hit);
        }
        let dir = self.dir.as_deref()?;
        let path = Self::entry_path(dir, pid, fp);
        let bytes = read_file(&path).ok()?;
        match decode_cache_entry(&bytes, &path) {
            Ok((got_pid, got_fp, r)) if got_pid == pid && got_fp == fp => {
                // Promote back into memory; promoting may itself evict
                // colder entries.
                let shed = lock(&self.mem).insert((pid, fp), r);
                self.spill(shed);
                Some(r)
            }
            // Corrupt or mismatched: a miss. Remove so the re-solve can
            // rewrite a clean entry.
            _ => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn put(&self, pid: u64, fp: u64, r: CachedResult) {
        let shed = lock(&self.mem).insert((pid, fp), r);
        self.spill(shed);
        if let Some(dir) = &self.dir {
            // Disk persistence is best-effort: a full disk degrades the
            // cache to memory-only, it does not fail the solve.
            let _ = write_atomic(
                &Self::entry_path(dir, pid, fp),
                &encode_cache_entry(pid, fp, r),
            );
        }
    }

    /// Write every in-memory entry through to the disk tier (a no-op
    /// without one). Called on drain, so a restarted daemon inherits
    /// the full warm set — including entries whose put-time write-through
    /// failed transiently. Best-effort like every disk write here.
    fn flush(&self) {
        let Some(dir) = &self.dir else { return };
        let entries: Vec<((u64, u64), CachedResult)> = lock(&self.mem)
            .map
            .iter()
            .map(|(&key, &(r, _))| (key, r))
            .collect();
        for ((pid, fp), r) in entries {
            let _ = write_atomic(
                &Self::entry_path(dir, pid, fp),
                &encode_cache_entry(pid, fp, r),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Daemon configuration (`bpmax-cli serve`'s flags).
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Unix socket path to listen on (created on bind, removed on exit).
    pub socket: PathBuf,
    /// Server-side F-table byte cap applied to every request (a request
    /// may tighten it, never widen it).
    pub mem_budget: Option<u64>,
    /// Reject requests the perfmodel predicts to run longer than this
    /// many single-thread seconds.
    pub max_predicted_s: Option<f64>,
    /// Directory for the on-disk result-cache tier; `None` keeps the
    /// cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the in-memory result-cache tier; over-budget
    /// entries are evicted least-recently-used first and spilled to the
    /// disk tier. `None` keeps every entry resident.
    pub cache_mem_budget: Option<u64>,
    /// Per-connection read timeout: a peer silent this long mid-message
    /// gets a typed protocol error and the connection is dropped. The
    /// same limit is applied as the socket *write* timeout, so a peer
    /// that never drains responses cannot pin a handler either. `None`
    /// waits forever.
    pub read_timeout: Option<Duration>,
    /// Cap on concurrently executing solves; arrivals past it queue,
    /// and past the queue they are shed with
    /// [`RejectReason::Overloaded`]. `None` is unbounded (the aggregate
    /// byte cap below may still bound concurrency).
    pub max_inflight: Option<u64>,
    /// Slots in the wait queue in front of the in-flight ledger; an
    /// arrival finding the queue full is shed immediately. `None` is
    /// unbounded (waits are still bounded by `queue_wait`).
    pub queue_depth: Option<u64>,
    /// Longest a queued request waits for capacity before being shed
    /// (tightened further by the request's own deadline). `None` takes
    /// the 30 s default — a queue wait is *never* unbounded.
    pub queue_wait: Option<Duration>,
    /// Longest a graceful drain waits for in-flight solves before
    /// cancelling the stragglers through their supervision tokens.
    /// `None` takes the 10 s default.
    pub drain_timeout: Option<Duration>,
}

/// Queue waits are never unbounded: a request with no explicit
/// `queue_wait` config still gives up (and is shed) after this long.
const DEFAULT_QUEUE_WAIT: Duration = Duration::from_secs(30);

/// Default limit a graceful drain waits for in-flight solves before
/// cancelling the stragglers.
const DEFAULT_DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// How often a blocked server-side read wakes to re-check the drain
/// state, so an idle keep-alive connection cannot stall a shutdown.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Floor and ceiling on the `retry_after_ms` hint attached to
/// [`RejectReason::Overloaded`]: the predicted solve time of the work
/// ahead, clamped to something a client can reasonably sleep.
const RETRY_HINT_MS: (u64, u64) = (50, 5000);

/// The daemon's lifecycle. Transitions are monotonic:
/// `Running → Draining → Stopped`, never backwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Accepting and solving.
    Running,
    /// A shutdown was accepted: new solves are refused with a typed
    /// error, in-flight solves finish (or are cancelled at the drain
    /// timeout), the cache mem tier flushes to disk.
    Draining,
    /// Drain complete; the accept loop exits.
    Stopped,
}

/// The in-flight ledger's counters, guarded by one mutex: how many
/// solves run, how many wait, and how many admitted F-table bytes
/// coexist. `bytes` is the *aggregate* admission extension — each
/// request's table was individually checked against the budget, but
/// without this sum N admitted requests could multiply the server's
/// memory cap by N.
#[derive(Clone, Copy, Debug, Default)]
struct LedgerState {
    running: u64,
    queued: u64,
    bytes: u64,
}

struct Ledger {
    state: Mutex<LedgerState>,
    /// Notified whenever a slot frees (guard drop) or the phase leaves
    /// `Running` (queued waiters must wake and take the drain refusal).
    changed: Condvar,
}

/// RAII in-flight slot: admission increments `running`/`bytes`, and this
/// guard's `Drop` gives them back — including when the solve panics, so
/// a caught panic can never leak ledger capacity.
struct AdmitGuard<'a> {
    server: &'a Server,
    bytes: u64,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        let mut led = lock(&self.server.ledger.state);
        led.running = led.running.saturating_sub(1);
        led.bytes = led.bytes.saturating_sub(self.bytes);
        drop(led);
        if self.server.stopping() {
            // ordering: monotonic counter
            self.server.drained.fetch_add(1, Ordering::Relaxed);
        }
        self.server.ledger.changed.notify_all();
    }
}

/// How one polled buffer fill ended.
enum FillEnd {
    /// The buffer is full.
    Full,
    /// EOF after this many bytes (0 = a clean boundary).
    Eof(usize),
    /// The daemon is draining and the peer was idle at a boundary.
    Draining,
    /// The peer stayed silent past the configured read timeout.
    TimedOut,
    /// A hard I/O error or a post-drain give-up mid-message.
    Torn,
}

/// What the polled server-side reader produced: one message, or the
/// reason the conversation is over.
enum NextMessage {
    /// A complete framed message.
    Msg(Vec<u8>),
    /// EOF on a message boundary — the peer's clean goodbye.
    Goodbye,
    /// The daemon is draining and the peer is idle: close at the
    /// message boundary.
    Draining,
    /// The peer stayed silent past the configured read timeout.
    TimedOut,
    /// Torn mid-message, an oversized frame, or a hard I/O error — the
    /// conversation cannot continue.
    Torn,
}

/// The resident solve daemon: one warm [`BatchEngine`] (hot block-pool
/// arenas), one two-tier result cache, admission control plus a bounded
/// in-flight ledger in front, and a drain-aware connection loop around
/// it all.
pub struct Server {
    cfg: ServerConfig,
    engine: BatchEngine,
    cache: ResultCache,
    phase: Mutex<Phase>,
    phase_changed: Condvar,
    ledger: Ledger,
    /// Cancels every in-flight solve when the drain timeout fires; wired
    /// into each solve's supervision.
    drain_cancel: CancelToken,
    requests: AtomicU64,
    cache_hits: AtomicU64,
    solves: AtomicU64,
    rejects: AtomicU64,
    timeouts: AtomicU64,
    shed: AtomicU64,
    drained: AtomicU64,
    panicked: AtomicU64,
}

impl Server {
    /// Build the resident engine and cache; nothing listens yet.
    pub fn new(cfg: ServerConfig) -> Result<Server, BpMaxError> {
        let engine = BatchEngine::new(BatchOptions::new())?;
        let cache = ResultCache::new(cfg.cache_dir.clone(), cfg.cache_mem_budget)?;
        Ok(Server {
            cfg,
            engine,
            cache,
            phase: Mutex::new(Phase::Running),
            phase_changed: Condvar::new(),
            ledger: Ledger {
                state: Mutex::new(LedgerState::default()),
                changed: Condvar::new(),
            },
            drain_cancel: CancelToken::new(),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        })
    }

    /// The configuration this server was built with.
    pub fn cfg(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Current counters + pool statistics.
    pub fn stats(&self) -> ServerStats {
        let led = *lock(&self.ledger.state);
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed), // ordering: report-only counter
            cache_hits: self.cache_hits.load(Ordering::Relaxed), // ordering: report-only counter
            solves: self.solves.load(Ordering::Relaxed),     // ordering: report-only counter
            rejects: self.rejects.load(Ordering::Relaxed),   // ordering: report-only counter
            evictions: self.cache.evictions(),
            timeouts: self.timeouts.load(Ordering::Relaxed), // ordering: report-only counter
            inflight: led.running,
            shed: self.shed.load(Ordering::Relaxed), // ordering: report-only counter
            drained: self.drained.load(Ordering::Relaxed), // ordering: report-only counter
            panicked: self.panicked.load(Ordering::Relaxed), // ordering: report-only counter
            pool: self.engine.pool_stats(),
        }
    }

    fn phase(&self) -> Phase {
        *lock(&self.phase)
    }

    /// True once a shutdown request has been accepted (the daemon is
    /// draining or already stopped).
    pub fn stopping(&self) -> bool {
        self.phase() != Phase::Running
    }

    /// Begin a graceful drain, exactly as a wire [`Request::Shutdown`]
    /// would: stop admitting solves, let in-flight work finish under the
    /// drain timeout, flush the cache, then exit the accept loop. The
    /// workspace forbids `unsafe`, so a SIGTERM handler cannot exist —
    /// this method (and the wire shutdown it backs) *is* the daemon's
    /// termination protocol. Idempotent.
    pub fn begin_drain(&self) {
        {
            let mut phase = lock(&self.phase);
            if *phase == Phase::Running {
                *phase = Phase::Draining;
            }
        }
        self.phase_changed.notify_all();
        // Queued admission waiters must wake up and take the refusal.
        self.ledger.changed.notify_all();
    }

    fn set_stopped(&self) {
        {
            let mut phase = lock(&self.phase);
            *phase = Phase::Stopped;
        }
        self.phase_changed.notify_all();
        self.ledger.changed.notify_all();
    }

    fn drain_refusal() -> Response {
        Response::Error {
            detail: "server is draining: no new solves are admitted (the daemon \
                     is shutting down; retry against a restarted instance)"
                .to_string(),
        }
    }

    fn overloaded(&self, led: LedgerState, retry_after_ms: u64) -> Response {
        // ordering: monotonic counter
        self.shed.fetch_add(1, Ordering::Relaxed);
        Response::Rejected(RejectReason::Overloaded {
            inflight: led.running,
            depth: self.cfg.queue_depth.unwrap_or(led.queued),
            retry_after_ms,
        })
    }

    /// Reserve an in-flight slot (and `planned_bytes` of the aggregate
    /// byte cap), waiting in the bounded queue when the ledger is full.
    /// Every refusal is typed: queue overflow and wait timeout shed with
    /// [`RejectReason::Overloaded`], a drain refuses outright, and an
    /// expired request deadline reports how long it waited.
    fn admit(
        &self,
        planned_bytes: u64,
        retry_after_ms: u64,
        deadline: Option<&Deadline>,
    ) -> Result<AdmitGuard<'_>, Response> {
        let max_wait = self.cfg.queue_wait.unwrap_or(DEFAULT_QUEUE_WAIT);
        let started = Instant::now();
        let mut led = lock(&self.ledger.state);
        let mut queued_here = false;
        loop {
            if self.stopping() {
                if queued_here {
                    led.queued = led.queued.saturating_sub(1);
                }
                return Err(Self::drain_refusal());
            }
            let slot_free = self.cfg.max_inflight.is_none_or(|cap| led.running < cap);
            let bytes_fit = self
                .cfg
                .mem_budget
                .is_none_or(|budget| led.bytes.saturating_add(planned_bytes) <= budget);
            if slot_free && bytes_fit {
                if queued_here {
                    led.queued = led.queued.saturating_sub(1);
                }
                led.running += 1;
                led.bytes = led.bytes.saturating_add(planned_bytes);
                return Ok(AdmitGuard {
                    server: self,
                    bytes: planned_bytes,
                });
            }
            if !queued_here {
                if self
                    .cfg
                    .queue_depth
                    .is_some_and(|depth| led.queued >= depth)
                {
                    return Err(self.overloaded(*led, retry_after_ms));
                }
                led.queued += 1;
                queued_here = true;
            }
            // The longest this request may still wait: the queue-wait
            // budget, tightened by its own deadline.
            let mut allowance = max_wait.saturating_sub(started.elapsed());
            if let Some(deadline) = deadline {
                allowance = allowance.min(deadline.remaining());
            }
            if allowance.is_zero() {
                led.queued = led.queued.saturating_sub(1);
                if deadline.is_some_and(Deadline::expired) {
                    return Err(Response::Error {
                        detail: BpMaxError::DeadlineExceeded {
                            elapsed_s: started.elapsed().as_secs_f64(),
                        }
                        .to_string(),
                    });
                }
                return Err(self.overloaded(*led, retry_after_ms));
            }
            led = self
                .ledger
                .changed
                .wait_timeout(led, allowance)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Handle one request. Pure with respect to the transport — the
    /// socket loop and the in-process tests share this path.
    pub fn handle(&self, req: &Request) -> Response {
        // ordering: monotonic counter, no other state hangs off it; the
        // prior value doubles as this request's ordinal for fault sites
        let seq = self.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Solve(solve) => {
                if fault::active(fault::SITE_SERVE_HANDLER, seq as usize)
                    == Some(fault::Fault::Panic)
                {
                    // lint: allow(panic): deliberate injected fault — the
                    // connection loop's catch_unwind must contain it
                    panic!("injected fault: serve handler panic");
                }
                if self.stopping() {
                    return Self::drain_refusal();
                }
                self.handle_solve(solve, seq)
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::Shutdown => {
                self.begin_drain();
                Response::ShuttingDown
            }
        }
    }

    fn handle_solve(&self, req: &SolveRequest, seq: u64) -> Response {
        // A version that cannot run gets the cold path's typed error
        // before the cache is consulted, so no cached answer of another
        // configuration can stand in for it.
        if let Err(e) = req.algorithm.validate() {
            return Response::Error {
                detail: e.to_string(),
            };
        }
        let effective_budget = match (self.cfg.mem_budget, req.mem_budget) {
            (None, None) => None,
            (server, request) => Some(server.unwrap_or(u64::MAX).min(request.unwrap_or(u64::MAX))),
        };

        // Cache first: a warm hit answers without touching the solver,
        // the pool, or the in-flight ledger — it holds no F-table bytes
        // and no slot, and builds no problem. The key is the problem
        // content-id, taken from the request's strands and model,
        // crossed with the fingerprint of everything score-affecting
        // (algorithm + effective budget + degrade — a degraded score
        // depends on the budget).
        let pid = problem_id_of(&req.seq1, &req.seq2, &req.model);
        let fp = cache_fingerprint(req.algorithm, effective_budget, req.degrade);
        if let Some(hit) = self.cache.get(pid, fp) {
            // ordering: monotonic counter
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Response::Solved {
                score: hit.score,
                outcome: hit.outcome,
                seconds: 0.0,
                cache_hit: true,
            };
        }

        // A miss builds the problem: both Nussinov folds and the weight
        // tables.
        let problem = BpMaxProblem::new(req.seq1.clone(), req.seq2.clone(), req.model.clone());

        // The request's wall-clock budget starts at receipt and covers
        // the queue wait plus the solve.
        let deadline = req.deadline.map(Deadline::within);

        // Admission: memory, then predicted runtime — both before any
        // F-table allocation.
        let mut solve = SolveOptions::new()
            .algorithm(req.algorithm)
            .degrade(req.degrade);
        let needed = match FTable::estimate_bytes(req.seq1.len(), req.seq2.len(), Layout::Packed) {
            Ok(needed) => needed,
            Err(e) => {
                return Response::Error {
                    detail: e.to_string(),
                }
            }
        };
        if let Some(bytes) = effective_budget {
            solve = solve.mem_budget(MemoryBudget::bytes(bytes));
            if needed > bytes && !req.degrade {
                // ordering: monotonic counter
                self.rejects.fetch_add(1, Ordering::Relaxed);
                return Response::Rejected(RejectReason::Memory {
                    needed_bytes: needed,
                    budget_bytes: bytes,
                });
            }
            // degrade=true falls through: the engine runs the windowed
            // lower-bound solve at the widest in-budget window.
        }
        let predicted_s = self.engine.predict_seconds(&problem, &solve);
        if let Some(cap_s) = self.cfg.max_predicted_s {
            if predicted_s > cap_s {
                // ordering: monotonic counter
                self.rejects.fetch_add(1, Ordering::Relaxed);
                return Response::Rejected(RejectReason::PredictedTime { predicted_s, cap_s });
            }
        }

        // Reserve what this solve will actually hold: the exact table,
        // or at most the effective budget when degrading. The retry hint
        // handed to shed requests is the predicted runtime of the work
        // occupying the slot they wanted.
        let planned = effective_budget.map_or(needed, |bytes| needed.min(bytes));
        let retry_hint = ((predicted_s * 1000.0) as u64).clamp(RETRY_HINT_MS.0, RETRY_HINT_MS.1);
        let slot = match self.admit(planned, retry_hint, deadline.as_ref()) {
            Ok(slot) => slot,
            Err(refusal) => return refusal,
        };
        // Injected slot hold: occupy admitted capacity without solving,
        // deterministically driving queue overflow and drain windows.
        if let Some(fault::Fault::Slow { millis }) =
            fault::active(fault::SITE_SERVE_QUEUE, seq as usize)
        {
            std::thread::sleep(Duration::from_millis(millis));
        }

        let mut solve = solve.cancel(self.drain_cancel.clone());
        if let Some(deadline) = deadline {
            solve = solve.deadline(deadline);
        }
        let item = self.engine.solve_pooled(&problem, &solve);
        drop(slot);
        match item.outcome {
            Outcome::Ok | Outcome::Degraded => {
                // ordering: monotonic counter
                self.solves.fetch_add(1, Ordering::Relaxed);
                self.cache.put(
                    pid,
                    fp,
                    CachedResult {
                        score: item.score,
                        outcome: item.outcome,
                    },
                );
                Response::Solved {
                    score: item.score,
                    outcome: item.outcome,
                    seconds: item.seconds,
                    cache_hit: false,
                }
            }
            other => Response::Error {
                detail: match item.error {
                    Some(e) => e.to_string(),
                    None => format!("solve ended {}", other.as_str()),
                },
            },
        }
    }

    /// Fill `buf` completely, waking at every poll tick to re-check the
    /// drain state and the silence clock. `at_boundary` marks a read
    /// that sits between messages — only there may a drain close the
    /// connection cleanly; mid-message the peer gets to finish its
    /// frame (until the drain gives up and cancels).
    fn fill_polled(&self, stream: &mut UnixStream, buf: &mut [u8], at_boundary: bool) -> FillEnd {
        let mut filled = 0usize;
        let mut quiet = Instant::now();
        while filled < buf.len() {
            match stream.read(&mut buf[filled..]) {
                Ok(0) => return FillEnd::Eof(filled),
                Ok(n) => {
                    filled += n;
                    quiet = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // The poll tick fired, not necessarily the timeout:
                    // check the world, then keep waiting.
                    if at_boundary && filled == 0 && self.stopping() {
                        return FillEnd::Draining;
                    }
                    if self.drain_cancel.is_cancelled() {
                        // The drain stopped being patient; nobody waits
                        // for a half-composed message any more.
                        return if at_boundary && filled == 0 {
                            FillEnd::Draining
                        } else {
                            FillEnd::Torn
                        };
                    }
                    if self
                        .cfg
                        .read_timeout
                        .is_some_and(|limit| quiet.elapsed() >= limit)
                    {
                        return FillEnd::TimedOut;
                    }
                }
                Err(_) => return FillEnd::Torn,
            }
        }
        FillEnd::Full
    }

    /// Read one complete wire message, drain-aware: the server-side
    /// counterpart of [`read_message`]. The socket's read timeout must
    /// already be set to the poll tick.
    fn read_message_polled(&self, stream: &mut UnixStream) -> NextMessage {
        let mut prefix = [0u8; MESSAGE_PREFIX];
        match self.fill_polled(stream, &mut prefix, true) {
            FillEnd::Full => {}
            FillEnd::Eof(0) => return NextMessage::Goodbye,
            FillEnd::Eof(_) | FillEnd::Torn => return NextMessage::Torn,
            FillEnd::Draining => return NextMessage::Draining,
            FillEnd::TimedOut => return NextMessage::TimedOut,
        }
        // lint: allow(unwrap): the slice is exactly 4 bytes by construction
        let len = u32::from_le_bytes(prefix[13..17].try_into().unwrap());
        if len > MAX_FRAME_BYTES {
            return NextMessage::Torn;
        }
        let mut msg = vec![0u8; MESSAGE_PREFIX + len as usize];
        msg[..MESSAGE_PREFIX].copy_from_slice(&prefix);
        match self.fill_polled(stream, &mut msg[MESSAGE_PREFIX..], false) {
            FillEnd::Full => NextMessage::Msg(msg),
            FillEnd::TimedOut => NextMessage::TimedOut,
            FillEnd::Eof(_) | FillEnd::Torn | FillEnd::Draining => NextMessage::Torn,
        }
    }

    fn serve_connection(&self, mut stream: UnixStream) {
        // The socket wakes the reader every poll tick (or sooner, when
        // the configured read timeout is tighter) so a blocked read can
        // watch the drain state and the silence clock.
        let tick = self
            .cfg
            .read_timeout
            .map_or(POLL_TICK, |limit| limit.min(POLL_TICK));
        let _ = stream.set_read_timeout(Some(tick));
        // A peer that never drains its responses must not pin this
        // thread any more than a silent one: mirror the limit on writes.
        let _ = stream.set_write_timeout(self.cfg.read_timeout);
        loop {
            let msg = match self.read_message_polled(&mut stream) {
                NextMessage::Msg(msg) => msg,
                // Goodbye is the peer's clean close; Draining is ours;
                // Torn peers (vanished mid-message, garbage framing)
                // get no reply — the conversation is over either way.
                NextMessage::Goodbye | NextMessage::Draining | NextMessage::Torn => return,
                NextMessage::TimedOut => {
                    // ordering: monotonic counter
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    // Best-effort: tell the peer why before hanging up —
                    // it may still be listening.
                    let resp = Response::Error {
                        detail: "socket read timed out: peer stayed silent past the \
                                 connection's read timeout"
                            .to_string(),
                    };
                    let _ = write_message(&mut stream, &encode_response(&resp));
                    return;
                }
            };
            let resp = match decode_request(&msg) {
                Ok(req) => match catch_unwind(AssertUnwindSafe(|| self.handle(&req))) {
                    Ok(resp) => resp,
                    Err(_) => {
                        // ordering: monotonic counter
                        self.panicked.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            detail: "internal error: the request handler panicked (the \
                                     daemon recovered; this request was not solved)"
                                .to_string(),
                        }
                    }
                },
                Err(e) => Response::Error {
                    detail: e.to_string(),
                },
            };
            let shutting_down = matches!(resp, Response::ShuttingDown);
            if write_message(&mut stream, &encode_response(&resp)).is_err() {
                return;
            }
            if shutting_down {
                // The drain watcher owns the rest of the shutdown; this
                // conversation is complete.
                return;
            }
        }
    }

    /// Wait until nothing runs or waits in the ledger. Returns whether
    /// it went idle within `limit` (`None` waits without limit).
    fn wait_idle(&self, limit: Option<Duration>) -> bool {
        let started = Instant::now();
        let mut led = lock(&self.ledger.state);
        loop {
            if led.running == 0 && led.queued == 0 {
                return true;
            }
            let wait = match limit {
                None => POLL_TICK,
                Some(limit) => {
                    let left = limit.saturating_sub(started.elapsed());
                    if left.is_zero() {
                        return false;
                    }
                    left.min(POLL_TICK)
                }
            };
            led = self
                .ledger
                .changed
                .wait_timeout(led, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The drain watcher: sleeps until a drain begins, shepherds
    /// in-flight work out (cancelling stragglers at the drain timeout),
    /// flushes the cache mem tier to disk, and stops the accept loop.
    fn drain_and_stop(&self) {
        {
            let mut phase = lock(&self.phase);
            while *phase == Phase::Running {
                phase = self
                    .phase_changed
                    .wait(phase)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let limit = self.cfg.drain_timeout.unwrap_or(DEFAULT_DRAIN_TIMEOUT);
        if !self.wait_idle(Some(limit)) {
            // Stragglers: cancel through the solves' supervision tokens,
            // then give the cancellations one more drain window to land
            // at their checkpoints.
            self.drain_cancel.cancel();
            self.wait_idle(Some(limit));
        }
        self.cache.flush();
        // From here every polled reader gives up promptly, so the scope
        // join cannot hang on an idle or half-written connection.
        self.drain_cancel.cancel();
        self.set_stopped();
        // Unblock the accept loop so it can observe the stop.
        let _ = UnixStream::connect(&self.cfg.socket);
    }

    /// Bind the socket and serve until a shutdown request arrives and
    /// its graceful drain completes. Blocking; spawn it on a thread to
    /// drive the server in-process.
    pub fn run(&self) -> Result<(), BpMaxError> {
        // A stale socket file from a killed daemon would fail the bind.
        let _ = std::fs::remove_file(&self.cfg.socket);
        let listener =
            UnixListener::bind(&self.cfg.socket).map_err(|e| BpMaxError::InvalidArgument {
                detail: format!("binding {}: {e}", self.cfg.socket.display()),
            })?;
        std::thread::scope(|scope| {
            scope.spawn(|| self.drain_and_stop());
            for (accepted, conn) in listener.incoming().enumerate() {
                if self.phase() == Phase::Stopped {
                    break;
                }
                // Injected accept failure: drop the connection before a
                // handler thread exists, exactly as a crashed accept
                // would — the retrying client must survive it.
                if fault::active(fault::SITE_SERVE_ACCEPT, accepted).is_some() {
                    continue;
                }
                if let Ok(stream) = conn {
                    scope.spawn(move || {
                        // The handler path contains its own panics; this
                        // outer belt keeps an unexpected one in the
                        // read/write path from poisoning the scope join.
                        if catch_unwind(AssertUnwindSafe(|| self.serve_connection(stream))).is_err()
                        {
                            // ordering: monotonic counter
                            self.panicked.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            }
        });
        let _ = std::fs::remove_file(&self.cfg.socket);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking client for the solve daemon; one connection, any number of
/// exchanges.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connect to a running daemon's socket.
    pub fn connect(socket: &Path) -> Result<Client, BpMaxError> {
        let stream = UnixStream::connect(socket).map_err(|e| BpMaxError::InvalidArgument {
            detail: format!("connecting to {}: {e}", socket.display()),
        })?;
        Ok(Client { stream })
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, BpMaxError> {
        write_message(&mut self.stream, &encode_request(req))?;
        let msg = read_message(&mut self.stream)?
            .ok_or_else(|| protocol("server closed the connection without replying".to_string()))?;
        decode_response(&msg)
    }

    /// Submit one solve request; any of the typed responses may come
    /// back.
    pub fn solve(&mut self, req: &SolveRequest) -> Result<Response, BpMaxError> {
        self.exchange(&Request::Solve(req.clone()))
    }

    /// Fetch the server's counters.
    pub fn stats(&mut self) -> Result<ServerStats, BpMaxError> {
        match self.exchange(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error { detail } => Err(protocol(detail)),
            other => Err(protocol(format!("expected stats reply, got {other:?}"))),
        }
    }

    /// Ask the server to shut down; returns once it acknowledged.
    pub fn shutdown(&mut self) -> Result<(), BpMaxError> {
        match self.exchange(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error { detail } => Err(protocol(detail)),
            other => Err(protocol(format!("expected shutdown ack, got {other:?}"))),
        }
    }

    /// Submit a solve with capped, jittered retry on [`Overloaded`]
    /// sheds and torn connections. Safe to call repeatedly for the same
    /// request: the server's results are content-addressed, so a
    /// duplicate attempt at worst lands a warm cache hit — retrying is
    /// idempotent by construction.
    ///
    /// Each attempt opens a fresh connection (the previous one may be
    /// the thing that tore). Typed non-transient answers — `Solved`,
    /// budget/time `Rejected`, server `Error` — return immediately;
    /// only overload sheds and transport failures burn attempts. When
    /// the budget runs out the last failure comes back typed:
    /// [`BpMaxError::Overloaded`] for a shed,
    /// the transport error otherwise.
    ///
    /// [`Overloaded`]: RejectReason::Overloaded
    pub fn solve_with_retry(
        socket: &Path,
        req: &SolveRequest,
        policy: RetryPolicy,
    ) -> Result<Response, BpMaxError> {
        let attempts = policy.attempts.max(1);
        let mut jitter = policy.seed | 1;
        let mut attempt = 0u32;
        loop {
            let outcome = Client::connect(socket).and_then(|mut client| client.solve(req));
            let (err, hint_ms) = match outcome {
                Ok(Response::Rejected(RejectReason::Overloaded {
                    inflight,
                    depth,
                    retry_after_ms,
                })) => (
                    BpMaxError::Overloaded {
                        inflight,
                        depth,
                        retry_after_ms,
                    },
                    retry_after_ms,
                ),
                // A torn connection or a refused connect is transient:
                // the daemon may be busy accepting or mid-restart.
                Err(e @ (BpMaxError::Protocol { .. } | BpMaxError::InvalidArgument { .. })) => {
                    (e, 0)
                }
                other => return other,
            };
            attempt += 1;
            if attempt >= attempts {
                return Err(err);
            }
            std::thread::sleep(policy.backoff(attempt - 1, hint_ms, &mut jitter));
        }
    }
}

/// Backoff policy for [`Client::solve_with_retry`]: capped exponential
/// growth from `base`, scaled by a deterministic jitter in `[0.5, 1.5)`
/// so a herd of shed clients does not return in lockstep, and never
/// sleeping less than the server's `retry_after_ms` hint asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try included); clamped to at least 1.
    pub attempts: u32,
    /// First backoff step; doubles each further attempt.
    pub base: Duration,
    /// Ceiling on any single sleep.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream (same seed → same
    /// sleeps, so tests reproduce).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based), given the
    /// server's `retry_after_ms` hint. `state` carries the jitter
    /// stream between calls.
    fn backoff(&self, attempt: u32, hint_ms: u64, state: &mut u64) -> Duration {
        // xorshift64 — deterministic, no external RNG needed.
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let jitter = 0.5 + (*state >> 11) as f64 / (1u64 << 53) as f64;
        let exp_s = self.base.as_secs_f64() * (1u64 << attempt.min(16)) as f64;
        let want_s = exp_s.max(hint_ms as f64 / 1000.0);
        Duration::from_secs_f64((want_s * jitter).min(self.cap.as_secs_f64()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Tile;

    fn request() -> SolveRequest {
        SolveRequest::new(
            "GGGAAACCC".parse().unwrap(),
            "UUUGG".parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    #[test]
    fn request_round_trips_with_every_override() {
        let req = request()
            .algorithm(Algorithm::HybridTiled {
                tile: Tile {
                    i2: 3,
                    k2: 5,
                    j2: 7,
                },
            })
            .mem_budget(1 << 20)
            .degrade(true)
            .deadline(Duration::from_millis(1500));
        let wire = encode_request(&Request::Solve(req.clone()));
        assert_eq!(decode_request(&wire).unwrap(), Request::Solve(req));
    }

    #[test]
    fn retired_algorithm_codes_are_refused_not_remapped() {
        // codes 3 and 4 were `fine` and `hybrid`, which ran `coarse`'s
        // work; 7 was never assigned
        for code in [3u8, 4, 7] {
            let err = take_algorithm(&mut Cursor::new(&[code], Path::new("wire")))
                .expect_err("no version has this code");
            let want = format!("unknown algorithm code {code}");
            assert!(
                matches!(&err, BpMaxError::CorruptCheckpoint { detail, .. } if *detail == want),
                "{err}"
            );
        }
    }

    #[test]
    fn plain_requests_round_trip() {
        for req in [Request::Solve(request()), Request::Stats, Request::Shutdown] {
            let wire = encode_request(&req);
            assert_eq!(decode_request(&wire).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Solved {
                score: 15.0,
                outcome: Outcome::Ok,
                seconds: 0.125,
                cache_hit: true,
            },
            Response::Solved {
                score: 7.5,
                outcome: Outcome::Degraded,
                seconds: 0.0,
                cache_hit: false,
            },
            Response::Rejected(RejectReason::Memory {
                needed_bytes: 1 << 30,
                budget_bytes: 1 << 20,
            }),
            Response::Rejected(RejectReason::PredictedTime {
                predicted_s: 120.0,
                cap_s: 1.5,
            }),
            Response::Rejected(RejectReason::Overloaded {
                inflight: 8,
                depth: 4,
                retry_after_ms: 250,
            }),
            Response::Error {
                detail: "protocol error: bad magic".to_string(),
            },
            Response::Stats(ServerStats {
                requests: 10,
                cache_hits: 3,
                solves: 6,
                rejects: 1,
                evictions: 5,
                timeouts: 2,
                inflight: 7,
                shed: 11,
                drained: 8,
                panicked: 1,
                pool: PoolStats {
                    allocated: 4,
                    reused: 9,
                    recycled: 13,
                    quarantined: 0,
                },
            }),
            Response::ShuttingDown,
        ];
        for resp in cases {
            let wire = encode_response(&resp);
            assert_eq!(decode_response(&wire).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn request_decoded_as_response_is_a_typed_error() {
        let wire = encode_request(&Request::Stats);
        assert!(matches!(
            decode_response(&wire),
            Err(BpMaxError::Protocol { .. })
        ));
    }

    #[test]
    fn cache_fingerprint_ignores_nothing_score_affecting() {
        let alg = Algorithm::default();
        let base = cache_fingerprint(alg, None, false);
        // budget and degrade are part of the key
        assert_ne!(base, cache_fingerprint(alg, Some(1 << 20), false));
        assert_ne!(base, cache_fingerprint(alg, None, true));
        // a different algorithm is a different key
        assert_ne!(base, cache_fingerprint(Algorithm::Baseline, None, false));
    }

    #[test]
    fn cache_fingerprint_values_are_pinned() {
        // Every disk-tier entry is filed under this value: a new value
        // for an old request would leave the disk cache cold after an
        // upgrade. The degrade-on keys are the batch fingerprint pins.
        let alg = Algorithm::default();
        let pins = [
            ((None, false), 0xd096_1793_4280_66af_u64),
            ((Some(1 << 20), false), 0x502c_e567_99a3_1e87),
            ((None, true), 0xef7d_c2a0_d95a_ae66),
            ((Some(1 << 20), true), 0x8be1_26a2_0afe_0e3e),
        ];
        for ((budget, degrade), want) in pins {
            let got = cache_fingerprint(alg, budget, degrade);
            assert_eq!(got, want, "{budget:?}, degrade {degrade}: {got:#018x}");
        }
    }

    #[test]
    fn bad_tile_gets_the_cold_error_even_after_a_cached_solve() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let tile = Tile {
            i2: 0,
            k2: 4,
            j2: 4,
        };
        let bad = request().algorithm(Algorithm::HybridTiled { tile });
        let want = Response::Error {
            detail: BpMaxError::BadTile { tile }.to_string(),
        };
        assert_eq!(server.handle(&Request::Solve(bad.clone())), want, "cold");
        let permuted = request().algorithm(Algorithm::Permuted);
        assert!(matches!(
            server.handle(&Request::Solve(permuted)),
            Response::Solved { score, .. } if score == 15.0
        ));
        let before = server.stats();
        assert_eq!(
            server.handle(&Request::Solve(bad)),
            want,
            "a cached solve of another algorithm must not answer a bad tile"
        );
        assert_eq!(server.stats().cache_hits, before.cache_hits);
    }

    #[test]
    fn in_process_server_solves_caches_and_rejects() {
        let server = Server::new(ServerConfig::default()).unwrap();
        let req = request();

        // cold solve
        let cold = server.handle(&Request::Solve(req.clone()));
        let (cold_score, cold_hit) = match cold {
            Response::Solved {
                score,
                cache_hit,
                outcome: Outcome::Ok,
                ..
            } => (score, cache_hit),
            other => panic!("cold solve: {other:?}"),
        };
        assert!(!cold_hit);
        assert_eq!(cold_score, 15.0);

        // warm hit: same bits, no solver run
        let before = server.stats();
        let warm = server.handle(&Request::Solve(req.clone()));
        match warm {
            Response::Solved {
                score,
                cache_hit: true,
                ..
            } => assert_eq!(score.to_bits(), cold_score.to_bits()),
            other => panic!("warm solve: {other:?}"),
        }
        let after = server.stats();
        assert_eq!(after.solves, before.solves, "warm hit must not solve");
        assert_eq!(after.pool.allocated_since(&before.pool), 0);
        assert_eq!(after.cache_hits, before.cache_hits + 1);

        // over-budget without degrade: typed rejection
        let tight = req.clone().mem_budget(8);
        match server.handle(&Request::Solve(tight)) {
            Response::Rejected(RejectReason::Memory {
                budget_bytes: 8, ..
            }) => {}
            other => panic!("over-budget: {other:?}"),
        }

        // over-budget with degrade: a windowed lower bound, cached too
        // (2048 < the ~2.7 KiB exact table, but wide enough for a band)
        let degraded = req.clone().mem_budget(2048).degrade(true);
        let first = match server.handle(&Request::Solve(degraded.clone())) {
            Response::Solved {
                score,
                outcome: Outcome::Degraded,
                cache_hit: false,
                ..
            } => score,
            other => panic!("degraded: {other:?}"),
        };
        assert!(first <= cold_score);
        match server.handle(&Request::Solve(degraded)) {
            Response::Solved {
                score,
                outcome: Outcome::Degraded,
                cache_hit: true,
                ..
            } => assert_eq!(score.to_bits(), first.to_bits()),
            other => panic!("degraded warm: {other:?}"),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
        let p =
            std::env::temp_dir().join(format!("bpmax-serve-test-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// Three problems with distinct content-ids, so each occupies its
    /// own cache slot.
    fn distinct_requests() -> [SolveRequest; 3] {
        ["GGGAAACCC", "GGAUCC", "GCAUGC"].map(|s| {
            SolveRequest::new(
                s.parse().unwrap(),
                "UUUGG".parse().unwrap(),
                ScoringModel::bpmax_default(),
            )
        })
    }

    #[test]
    fn mem_budget_evicts_lru_and_disk_spill_keeps_hits_bit_identical() {
        let dir = tmpdir("lru-spill");
        // MEM_ENTRY_BYTES budget => the mem tier holds exactly one entry.
        let server = Server::new(ServerConfig {
            cache_dir: Some(dir.clone()),
            cache_mem_budget: Some(MEM_ENTRY_BYTES),
            ..ServerConfig::default()
        })
        .unwrap();
        let [a, b, _] = distinct_requests();

        let score_of = |resp: Response| match resp {
            Response::Solved {
                score, cache_hit, ..
            } => (score, cache_hit),
            other => panic!("{other:?}"),
        };

        let (cold_a, _) = score_of(server.handle(&Request::Solve(a.clone())));
        // Solving B evicts A from the one-entry mem tier.
        score_of(server.handle(&Request::Solve(b)));
        assert!(server.stats().evictions >= 1, "{:?}", server.stats());

        // A is gone from memory but spilled/written to disk: still a
        // cache hit (no solver run), still the exact same bits.
        let before = server.stats();
        let (warm_a, hit) = score_of(server.handle(&Request::Solve(a)));
        assert!(hit, "expected a disk-tier hit");
        assert_eq!(warm_a.to_bits(), cold_a.to_bits());
        assert_eq!(server.stats().solves, before.solves);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_only_eviction_is_a_miss_that_resolves_to_the_same_bits() {
        // No disk tier: eviction genuinely forgets, and the re-solve
        // must reproduce the identical score.
        let server = Server::new(ServerConfig {
            cache_mem_budget: Some(MEM_ENTRY_BYTES),
            ..ServerConfig::default()
        })
        .unwrap();
        let [a, b, c] = distinct_requests();
        let cold_a = match server.handle(&Request::Solve(a.clone())) {
            Response::Solved { score, .. } => score,
            other => panic!("{other:?}"),
        };
        server.handle(&Request::Solve(b));
        server.handle(&Request::Solve(c));
        assert!(server.stats().evictions >= 2);
        match server.handle(&Request::Solve(a)) {
            Response::Solved {
                score,
                cache_hit: false,
                ..
            } => assert_eq!(score.to_bits(), cold_a.to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbudgeted_cache_never_evicts() {
        let server = Server::new(ServerConfig::default()).unwrap();
        for req in distinct_requests() {
            server.handle(&Request::Solve(req));
        }
        assert_eq!(server.stats().evictions, 0);
    }

    #[test]
    fn silent_peer_times_out_with_a_typed_error_reply() {
        let server = Server::new(ServerConfig {
            read_timeout: Some(Duration::from_millis(40)),
            ..ServerConfig::default()
        })
        .unwrap();
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve_connection(theirs));
            // Say nothing. The server must give up on its own and send
            // a typed protocol error before hanging up.
            let msg = read_message(&mut ours).unwrap().expect("an error reply");
            match decode_response(&msg).unwrap() {
                Response::Error { detail } => {
                    assert!(detail.contains("timed out"), "{detail}");
                }
                other => panic!("{other:?}"),
            }
            // Then EOF: the connection is closed, not half-open.
            assert!(matches!(read_message(&mut ours), Ok(None)));
        });
        assert_eq!(server.stats().timeouts, 1);
    }

    #[test]
    fn responsive_peer_is_not_timed_out() {
        let server = Server::new(ServerConfig {
            read_timeout: Some(Duration::from_millis(500)),
            ..ServerConfig::default()
        })
        .unwrap();
        let (mut ours, theirs) = UnixStream::pair().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve_connection(theirs));
            write_message(&mut ours, &encode_request(&Request::Stats)).unwrap();
            let msg = read_message(&mut ours).unwrap().unwrap();
            assert!(matches!(decode_response(&msg).unwrap(), Response::Stats(_)));
            drop(ours); // clean goodbye unblocks the handler
        });
        assert_eq!(server.stats().timeouts, 0);
    }

    #[test]
    fn full_queue_sheds_with_typed_overload_and_recovers() {
        let server = Server::new(ServerConfig {
            max_inflight: Some(1),
            queue_depth: Some(0),
            queue_wait: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        })
        .unwrap();
        // Occupy the single slot by hand, as a running solve would.
        let slot = server.admit(0, 123, None).unwrap();
        match server.handle(&Request::Solve(request())) {
            Response::Rejected(RejectReason::Overloaded {
                inflight: 1,
                depth: 0,
                retry_after_ms,
            }) => assert!(retry_after_ms >= RETRY_HINT_MS.0),
            other => panic!("{other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.inflight, 1);
        assert_eq!(stats.rejects, 0, "sheds are not admission rejects");
        drop(slot);
        assert_eq!(server.stats().inflight, 0);
        match server.handle(&Request::Solve(request())) {
            Response::Solved {
                cache_hit: false, ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn queue_wait_timeout_sheds_instead_of_waiting_forever() {
        let server = Server::new(ServerConfig {
            max_inflight: Some(1),
            queue_wait: Some(Duration::from_millis(30)),
            ..ServerConfig::default()
        })
        .unwrap();
        let _slot = server.admit(0, 99, None).unwrap();
        let t0 = Instant::now();
        // Unbounded queue depth: the request queues, waits out the
        // 30 ms budget, and is shed — never an unbounded wait.
        match server.handle(&Request::Solve(request())) {
            Response::Rejected(RejectReason::Overloaded { .. }) => {}
            other => panic!("{other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(server.stats().shed, 1);
    }

    #[test]
    fn queued_request_runs_when_capacity_frees() {
        let server = Server::new(ServerConfig {
            max_inflight: Some(1),
            queue_depth: Some(4),
            queue_wait: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        })
        .unwrap();
        let slot = server.admit(0, 99, None).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| server.handle(&Request::Solve(request())));
            std::thread::sleep(Duration::from_millis(30));
            drop(slot);
            match waiter.join().unwrap() {
                Response::Solved {
                    cache_hit: false, ..
                } => {}
                other => panic!("{other:?}"),
            }
        });
        assert_eq!(server.stats().shed, 0);
    }

    #[test]
    fn aggregate_budget_blocks_concurrent_requests_that_fit_alone() {
        let server = Server::new(ServerConfig {
            mem_budget: Some(64 << 10),
            queue_depth: Some(0),
            queue_wait: Some(Duration::from_millis(40)),
            ..ServerConfig::default()
        })
        .unwrap();
        // Occupy the entire aggregate byte budget.
        let slot = server.admit(64 << 10, 77, None).unwrap();
        // This request fits the per-request budget easily, but the
        // ledger has no aggregate room: shed, not Memory-rejected.
        match server.handle(&Request::Solve(request())) {
            Response::Rejected(RejectReason::Overloaded { .. }) => {}
            other => panic!("{other:?}"),
        }
        drop(slot);
        match server.handle(&Request::Solve(request())) {
            Response::Solved { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_deadline_bounds_the_queue_wait() {
        let server = Server::new(ServerConfig {
            max_inflight: Some(1),
            queue_wait: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        })
        .unwrap();
        let _slot = server.admit(0, 50, None).unwrap();
        let req = request().deadline(Duration::from_millis(40));
        let t0 = Instant::now();
        match server.handle(&Request::Solve(req)) {
            Response::Error { detail } => {
                assert!(detail.contains("deadline exceeded"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn drain_refuses_new_solves_but_answers_stats_and_shutdown() {
        let server = Server::new(ServerConfig::default()).unwrap();
        assert!(matches!(
            server.handle(&Request::Solve(request())),
            Response::Solved { .. }
        ));
        server.begin_drain();
        // Even a request the cache could answer is refused: the daemon
        // is going away, the client must move on.
        match server.handle(&Request::Solve(request())) {
            Response::Error { detail } => assert!(detail.contains("draining"), "{detail}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(server.handle(&Request::Stats), Response::Stats(_)));
        // A second shutdown is an idempotent ack, not an error.
        assert!(matches!(
            server.handle(&Request::Shutdown),
            Response::ShuttingDown
        ));
    }

    #[test]
    fn drain_wakes_queued_waiters_with_the_refusal() {
        let server = Server::new(ServerConfig {
            max_inflight: Some(1),
            queue_depth: Some(4),
            queue_wait: Some(Duration::from_secs(30)),
            ..ServerConfig::default()
        })
        .unwrap();
        let _slot = server.admit(0, 50, None).unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| server.handle(&Request::Solve(request())));
            std::thread::sleep(Duration::from_millis(30));
            let t0 = Instant::now();
            server.begin_drain();
            match waiter.join().unwrap() {
                Response::Error { detail } => assert!(detail.contains("draining"), "{detail}"),
                other => panic!("{other:?}"),
            }
            // The waiter must be woken promptly, not ride out its 30 s
            // queue-wait budget.
            assert!(t0.elapsed() < Duration::from_secs(5));
        });
    }

    #[test]
    fn poisoned_cache_lock_does_not_kill_the_daemon() {
        let server = Server::new(ServerConfig::default()).unwrap();
        // Poison the cache mutex exactly as a panicking handler would.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = server.cache.mem.lock().unwrap();
            panic!("poison the cache lock");
        }));
        assert!(server.cache.mem.lock().is_err(), "mutex should be poisoned");
        // Solving still works: the locking is poison-tolerant.
        assert!(matches!(
            server.handle(&Request::Solve(request())),
            Response::Solved { .. }
        ));
    }

    #[test]
    fn cache_flush_recovers_the_disk_tier() {
        let dir = tmpdir("flush");
        let server = Server::new(ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        assert!(matches!(
            server.handle(&Request::Solve(request())),
            Response::Solved { .. }
        ));
        // Sabotage the disk tier (as a transiently full disk at put
        // time would); the drain-time flush must re-cover every entry.
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        server.cache.flush();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_recovers_from_overload_and_torn_connections() {
        let dir = tmpdir("retry");
        let socket = dir.join("sock");
        let listener = UnixListener::bind(&socket).unwrap();
        let fake = std::thread::spawn(move || {
            // 1st attempt: shed. 2nd: torn (close without replying).
            // 3rd: solved.
            for round in 0..3 {
                let (mut conn, _) = listener.accept().unwrap();
                let msg = read_message(&mut conn).unwrap().unwrap();
                assert!(matches!(decode_request(&msg).unwrap(), Request::Solve(_)));
                match round {
                    0 => {
                        let resp = Response::Rejected(RejectReason::Overloaded {
                            inflight: 1,
                            depth: 0,
                            retry_after_ms: 1,
                        });
                        write_message(&mut conn, &encode_response(&resp)).unwrap();
                    }
                    1 => drop(conn),
                    _ => {
                        let resp = Response::Solved {
                            score: 42.0,
                            outcome: Outcome::Ok,
                            seconds: 0.0,
                            cache_hit: false,
                        };
                        write_message(&mut conn, &encode_response(&resp)).unwrap();
                    }
                }
            }
        });
        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            seed: 7,
        };
        let resp = Client::solve_with_retry(&socket, &request(), policy).unwrap();
        assert!(matches!(resp, Response::Solved { score, .. } if score == 42.0));
        fake.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_overload_error() {
        let dir = tmpdir("retry-cap");
        let socket = dir.join("sock");
        let listener = UnixListener::bind(&socket).unwrap();
        let fake = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                let _ = read_message(&mut conn).unwrap().unwrap();
                let resp = Response::Rejected(RejectReason::Overloaded {
                    inflight: 9,
                    depth: 3,
                    retry_after_ms: 2,
                });
                write_message(&mut conn, &encode_response(&resp)).unwrap();
            }
        });
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 11,
        };
        let err = Client::solve_with_retry(&socket, &request(), policy).unwrap_err();
        assert_eq!(
            err,
            BpMaxError::Overloaded {
                inflight: 9,
                depth: 3,
                retry_after_ms: 2,
            }
        );
        fake.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_hint_respecting() {
        let policy = RetryPolicy::default();
        let mut a = policy.seed | 1;
        let mut b = policy.seed | 1;
        let mut last = Duration::ZERO;
        for attempt in 0..6 {
            let x = policy.backoff(attempt, 100, &mut a);
            let y = policy.backoff(attempt, 100, &mut b);
            assert_eq!(x, y, "same seed must give the same sleeps");
            assert!(x <= policy.cap);
            // Jitter floor is 0.5: never sleep less than half the
            // server's hint.
            assert!(x >= Duration::from_millis(50), "{x:?}");
            last = last.max(x);
        }
        assert!(last > Duration::from_millis(50), "backoff should grow");
    }

    #[test]
    fn predicted_time_cap_rejects_before_solving() {
        let server = Server::new(ServerConfig {
            max_predicted_s: Some(0.0),
            ..ServerConfig::default()
        })
        .unwrap();
        match server.handle(&Request::Solve(request())) {
            Response::Rejected(RejectReason::PredictedTime { cap_s, .. }) => {
                assert_eq!(cap_s, 0.0);
            }
            other => panic!("{other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.solves, 0);
        assert_eq!(stats.rejects, 1);
        assert_eq!(stats.pool.allocated, 0);
    }
}
