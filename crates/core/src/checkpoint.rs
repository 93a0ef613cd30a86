//! Durable checkpoint/resume for batch solving.
//!
//! A `scan` over thousands of RNA pairs that dies at 95% should
//! not restart from zero. This module gives [`crate::batch::BatchEngine`]
//! a crash-safe on-disk representation of batch progress:
//!
//! * **`manifest.bin`** — the run manifest: a fingerprint of every
//!   score-affecting option plus the id of every problem in the batch.
//!   Resume refuses a directory whose manifest disagrees with the current
//!   configuration ([`BpMaxError::CheckpointMismatch`]) — mixing scores
//!   computed under different options would be silent corruption.
//! * **`journal.bin`** — one record per *completed* problem (an
//!   [`Outcome`] that produced a score: `Ok` or `Degraded`), appended as
//!   each problem or lane group finishes. Replayed on resume so finished
//!   work is never recomputed.
//! * **`snapshot.bin`** — optionally, the partial F-table of the one
//!   in-flight large problem, at outer-diagonal granularity: by the
//!   wavefront invariant, diagonals `0..done` are final the moment
//!   diagonal `done` starts, so a prefix of diagonals is exactly the
//!   resumable state ([`crate::FTable::export_diagonals`]).
//!
//! ## Wire format
//!
//! Hand-rolled and serde-free, mirroring `bench::json`'s no-deps style.
//! Every file is `b"BPMXCKPT"` + `u32` version + `u8` kind, followed by
//! length-prefixed frames: `[u32 len][u32 crc32][payload]`, all integers
//! little-endian. The CRC32 (IEEE 802.3) covers the payload, so a torn or
//! bit-flipped file fails verification deterministically.
//!
//! ## Atomicity
//!
//! The manifest, the snapshot and the journal's header are written whole,
//! via write-to-temp + `fsync` + atomic `rename`, so a `SIGKILL` leaves
//! each of them complete or absent. The journal is the one file that
//! grows: each solved unit (one problem, or one lane group) appends its
//! frames with one `write_all` and one `sync_data` before its items are
//! returned. A kill mid-append can therefore leave one thing behind: a
//! *torn final frame*, shorter than a whole one. Every journal frame has
//! the same size (30 bytes: a length field that reads 22, a CRC32 and a
//! 22-byte record), so [`load`] tells a tear from damage without
//! guessing: a tail after the header that is shorter than one frame (and
//! whose length field, where it is complete, reads 22) is dropped, and
//! [`CheckpointSink::open`] truncates it before appending.
//! Every other integrity failure — a cut inside a header, a wrong frame
//! length, a CRC mismatch anywhere — is genuine damage (disk fault,
//! manual edit) and is refused with [`BpMaxError::CorruptCheckpoint`] —
//! never a panic, a garbage score, or a silent restart-from-zero.

use crate::engine::BpMaxProblem;
use crate::error::BpMaxError;
use crate::ftable::{FTable, Layout};
use crate::supervise::Outcome;
use rna::{RnaSeq, ScoringModel};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File magic: any checkpoint file starts with these 8 bytes.
pub const MAGIC: &[u8; 8] = b"BPMXCKPT";
/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Bytes of every checkpoint file's header: magic, version, kind.
const HEADER_LEN: usize = MAGIC.len() + 5;
/// Bytes of a journal record's payload ([`JournalRecord`]).
const RECORD_LEN: usize = 22;
/// Bytes of one journal frame: length, CRC32 and a record's payload.
const FRAME_LEN: usize = 8 + RECORD_LEN;

const KIND_MANIFEST: u8 = 1;
const KIND_JOURNAL: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;
// Kind 4 stays unused: the retired multi-process coordinator tagged its claim files with it.

/// `manifest.bin` under a checkpoint directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.bin")
}

/// `journal.bin` under a checkpoint directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.bin")
}

/// `snapshot.bin` under a checkpoint directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

// ---------------------------------------------------------------------------
// Hashes
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`) of `bytes` — the frame
/// checksum of the checkpoint wire format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Incremental FNV-1a 64-bit hasher — stable across platforms and runs
/// (unlike `DefaultHasher`), used for problem ids and the options
/// fingerprint.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Start from the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold in a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold in an `f32` by bit pattern (exact, no rounding ambiguity).
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content-derived identity of a problem: strands + scoring model (the
/// inputs that determine its scores). Resume uses it to refuse a
/// checkpoint whose problem list has drifted from the current batch.
pub fn problem_id(problem: &BpMaxProblem) -> u64 {
    problem_id_of(problem.seq1(), problem.seq2(), problem.model())
}

/// [`problem_id`] from the inputs alone, before any problem is built: the
/// serve daemon keys its result cache with it, so a cache hit never pays
/// for the Nussinov folds and weight tables of `BpMaxProblem::new`.
pub fn problem_id_of(seq1: &RnaSeq, seq2: &RnaSeq, model: &ScoringModel) -> u64 {
    use rna::Base;
    let mut h = Fnv64::new();
    for &b in seq1.bases() {
        h.write(&[b.index() as u8]);
    }
    h.write(&[0xFF]); // strand separator: ("AB","C") != ("A","BC")
    for &b in seq2.bases() {
        h.write(&[b.index() as u8]);
    }
    h.write(&[0xFE]);
    h.write_u64(model.min_loop() as u64);
    const BASES: [Base; 4] = [Base::A, Base::C, Base::G, Base::U];
    for a in BASES {
        for b in BASES {
            h.write_f32(model.intra(a, b));
            h.write_f32(model.inter(a, b));
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Bounds-checked little-endian reader; every failure is a
/// [`BpMaxError::CorruptCheckpoint`] naming the file (or, for the serve
/// wire, the connection) and offset. Shared with [`crate::serve`], which
/// maps the errors to [`BpMaxError::Protocol`] at its decode boundary.
pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    path: String,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], path: &Path) -> Cursor<'a> {
        Cursor {
            buf,
            pos: 0,
            path: path.display().to_string(),
        }
    }

    pub(crate) fn corrupt(&self, detail: String) -> BpMaxError {
        BpMaxError::CorruptCheckpoint {
            path: self.path.clone(),
            detail,
        }
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BpMaxError> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(format!(
                "truncated at byte {}: {what} needs {n} bytes, {} remain",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, BpMaxError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, BpMaxError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap())) // lint: allow(unwrap): take(4) returned exactly 4 bytes
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, BpMaxError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap())) // lint: allow(unwrap): take(8) returned exactly 8 bytes
    }

    pub(crate) fn f32(&mut self, what: &str) -> Result<f32, BpMaxError> {
        Ok(f32::from_bits(self.u32(what)?))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, BpMaxError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8, what)?.try_into().unwrap(), // lint: allow(unwrap): take(8) returned exactly 8 bytes
        )))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

pub(crate) fn header(kind: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u8(&mut buf, kind);
    buf
}

pub(crate) fn check_header(cur: &mut Cursor<'_>, kind: u8) -> Result<(), BpMaxError> {
    let magic = cur.take(MAGIC.len(), "file magic")?;
    if magic != MAGIC {
        return Err(cur.corrupt(format!("bad magic {magic:02x?} (expected {MAGIC:02x?})")));
    }
    let version = cur.u32("format version")?;
    if version != VERSION {
        return Err(cur.corrupt(format!(
            "format version {version} (this build supports {VERSION})"
        )));
    }
    let got = cur.u8("file kind")?;
    if got != kind {
        return Err(cur.corrupt(format!("file kind {got} (expected {kind})")));
    }
    Ok(())
}

pub(crate) fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc32(payload));
    buf.extend_from_slice(payload);
}

pub(crate) fn take_frame<'a>(cur: &mut Cursor<'a>, what: &str) -> Result<&'a [u8], BpMaxError> {
    let len = cur.u32(&format!("{what} frame length"))? as usize;
    let stored = cur.u32(&format!("{what} frame checksum"))?;
    let payload = cur.take(len, &format!("{what} frame payload"))?;
    let computed = crc32(payload);
    if computed != stored {
        return Err(cur.corrupt(format!(
            "{what}: crc32 mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    Ok(payload)
}

pub(crate) fn layout_code(layout: Layout) -> u8 {
    match layout {
        Layout::Packed => 0,
        Layout::Identity => 1,
        Layout::Shifted => 2,
    }
}

pub(crate) fn layout_from_code(code: u8, cur: &Cursor<'_>) -> Result<Layout, BpMaxError> {
    match code {
        0 => Ok(Layout::Packed),
        1 => Ok(Layout::Identity),
        2 => Ok(Layout::Shifted),
        other => Err(cur.corrupt(format!("unknown layout code {other}"))),
    }
}

pub(crate) fn outcome_code(outcome: Outcome) -> u8 {
    match outcome {
        Outcome::Ok => 0,
        Outcome::Degraded => 1,
        Outcome::Failed => 2,
        Outcome::Cancelled => 3,
        Outcome::TimedOut => 4,
    }
}

pub(crate) fn outcome_from_code(code: u8, cur: &Cursor<'_>) -> Result<Outcome, BpMaxError> {
    match code {
        0 => Ok(Outcome::Ok),
        1 => Ok(Outcome::Degraded),
        2 => Ok(Outcome::Failed),
        3 => Ok(Outcome::Cancelled),
        4 => Ok(Outcome::TimedOut),
        other => Err(cur.corrupt(format!("unknown outcome code {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The run manifest: what this checkpoint directory was written *for*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// FNV-1a fingerprint of every score-affecting batch option
    /// (algorithm + tile, memory budget, degradation, solve-level
    /// supervision budget). Threads and deadlines do *not* change scores
    /// and are excluded, so a resumed run may use more workers or a fresh
    /// deadline.
    pub options_hash: u64,
    /// Caller-chosen run seed (0 when unused) — carried verbatim.
    pub seed: u64,
    /// [`problem_id`] of every problem, in batch order.
    pub problem_ids: Vec<u64>,
}

impl RunManifest {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(24 + 8 * self.problem_ids.len());
        put_u64(&mut p, self.options_hash);
        put_u64(&mut p, self.seed);
        put_u64(&mut p, self.problem_ids.len() as u64);
        for &id in &self.problem_ids {
            put_u64(&mut p, id);
        }
        p
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<RunManifest, BpMaxError> {
        let options_hash = cur.u64("options hash")?;
        let seed = cur.u64("run seed")?;
        let count = cur.u64("problem count")? as usize;
        let mut problem_ids = Vec::with_capacity(count.min(1 << 20));
        for i in 0..count {
            problem_ids.push(cur.u64(&format!("problem id {i}"))?);
        }
        if !cur.done() {
            return Err(cur.corrupt(format!("{} trailing bytes after manifest", {
                cur.buf.len() - cur.pos
            })));
        }
        Ok(RunManifest {
            options_hash,
            seed,
            problem_ids,
        })
    }
}

/// One completed problem, as journaled. Only outcomes that produced a
/// score (`Ok`, `Degraded`) are written: failures are cheap to reproduce
/// and deterministic, so resume recomputes them instead of trusting a
/// stale error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JournalRecord {
    /// Position in the batch (index into the manifest's problem list).
    pub index: u64,
    /// How the solve ended ([`Outcome::Ok`] or [`Outcome::Degraded`]).
    pub outcome: Outcome,
    /// The score the outcome supports.
    pub score: f32,
    /// Wall-clock seconds the original solve took.
    pub seconds: f64,
    /// Whether the problem was classified coarse
    /// ([`crate::batch::BatchItem::coarse`]).
    pub coarse: bool,
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(RECORD_LEN);
        put_u64(&mut p, self.index);
        put_u8(&mut p, outcome_code(self.outcome));
        put_u8(&mut p, u8::from(self.coarse));
        put_f32(&mut p, self.score);
        put_f64(&mut p, self.seconds);
        p
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<JournalRecord, BpMaxError> {
        let index = cur.u64("record index")?;
        let outcome = outcome_from_code(cur.u8("record outcome")?, cur)?;
        let coarse = cur.u8("record coarse flag")? != 0;
        let score = cur.f32("record score")?;
        let seconds = cur.f64("record seconds")?;
        Ok(JournalRecord {
            index,
            outcome,
            score,
            seconds,
            coarse,
        })
    }
}

/// The resumable prefix of one in-flight F-table: outer diagonals
/// `0..done`, captured in diagonal-major order (the wavefront's own
/// production order — see [`FTable::export_diagonals`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TableSnapshot {
    /// Position of the interrupted problem in the batch.
    pub index: u64,
    /// [`problem_id`] of the interrupted problem — restore refuses a
    /// snapshot whose problem drifted.
    pub problem_id: u64,
    /// Strand-1 length of the table.
    pub m: usize,
    /// Strand-2 length of the table.
    pub n: usize,
    /// Inner-triangle memory map the cells were captured under.
    pub layout: Layout,
    /// Number of final outer diagonals captured.
    pub done: usize,
    /// The captured cells, diagonal-major.
    pub cells: Vec<f32>,
}

impl TableSnapshot {
    /// Capture the final prefix of `f` (diagonals `0..done`).
    pub fn capture(index: u64, problem_id: u64, f: &FTable, done: usize) -> TableSnapshot {
        TableSnapshot {
            index,
            problem_id,
            m: f.m(),
            n: f.n(),
            layout: f.layout(),
            done: done.min(f.m()),
            cells: f.export_diagonals(done),
        }
    }

    /// Write the captured diagonals back into a freshly `-∞`-initialised
    /// table of the same shape and layout; the solve then resumes at
    /// diagonal [`TableSnapshot::done`].
    pub fn restore_into(&self, f: &mut FTable) -> Result<(), BpMaxError> {
        if f.m() != self.m || f.n() != self.n || f.layout() != self.layout {
            return Err(BpMaxError::CheckpointMismatch {
                detail: format!(
                    "snapshot is a {}x{} {:?} table but the problem needs {}x{} {:?}",
                    self.m,
                    self.n,
                    self.layout,
                    f.m(),
                    f.n(),
                    f.layout()
                ),
            });
        }
        self.cells_per_block()
            .and_then(|_| f.import_diagonals(self.done, &self.cells).ok())
            .ok_or_else(|| BpMaxError::CheckpointMismatch {
                detail: format!(
                    "snapshot holds {} cells for {} diagonals of a {}x{} table",
                    self.cells.len(),
                    self.done,
                    self.m,
                    self.n
                ),
            })
    }

    /// Cell count per block if the snapshot is internally consistent.
    fn cells_per_block(&self) -> Option<usize> {
        let blocks = FTable::diagonal_blocks(self.m, self.done);
        if blocks == 0 {
            return (self.cells.is_empty()).then_some(0);
        }
        (self.cells.len() % blocks == 0).then(|| self.cells.len() / blocks)
    }

    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(41 + 4 * self.cells.len());
        put_u64(&mut p, self.index);
        put_u64(&mut p, self.problem_id);
        put_u64(&mut p, self.m as u64);
        put_u64(&mut p, self.n as u64);
        put_u8(&mut p, layout_code(self.layout));
        put_u64(&mut p, self.done as u64);
        put_u64(&mut p, self.cells.len() as u64);
        for &c in &self.cells {
            put_f32(&mut p, c);
        }
        p
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<TableSnapshot, BpMaxError> {
        let index = cur.u64("snapshot index")?;
        let problem_id = cur.u64("snapshot problem id")?;
        let m = cur.u64("snapshot m")? as usize;
        let n = cur.u64("snapshot n")? as usize;
        let layout = layout_from_code(cur.u8("snapshot layout")?, cur)?;
        // the CRC only guards against accidents: a shape no table can have
        // must not reach the block arithmetic below
        if FTable::estimate_bytes(m, n, layout).is_err() {
            return Err(cur.corrupt(format!(
                "snapshot claims a {m}x{n} table, beyond any addressable size"
            )));
        }
        let done = cur.u64("snapshot done diagonals")? as usize;
        if done > m {
            return Err(cur.corrupt(format!(
                "snapshot claims {done} diagonals of an m={m} table"
            )));
        }
        let count = cur.u64("snapshot cell count")? as usize;
        let raw = cur.take(count.saturating_mul(4), "snapshot cells")?;
        let cells = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap())) // lint: allow(unwrap): chunks_exact(4) yields 4-byte chunks
            .collect();
        if !cur.done() {
            return Err(cur.corrupt("trailing bytes after snapshot".to_string()));
        }
        let snap = TableSnapshot {
            index,
            problem_id,
            m,
            n,
            layout,
            done,
            cells,
        };
        if snap.cells_per_block().is_none() {
            return Err(cur.corrupt(format!(
                "snapshot cell count {count} is not a multiple of its {} blocks",
                FTable::diagonal_blocks(m, done)
            )));
        }
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

/// Write `bytes` to `path` crash-safely: temp file in the same directory,
/// `fsync`, atomic rename, best-effort directory `fsync`. A reader (or a
/// crash) can only ever observe the old complete file or the new one.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), BpMaxError> {
    let io = |detail: String| BpMaxError::CheckpointIo {
        path: path.display().to_string(),
        detail,
    };
    let tmp = path.with_extension("tmp");
    {
        let mut file = fs::File::create(&tmp).map_err(|e| io(format!("creating temp: {e}")))?;
        file.write_all(bytes)
            .map_err(|e| io(format!("writing temp: {e}")))?;
        file.sync_all().map_err(|e| io(format!("fsync: {e}")))?;
    }
    fs::rename(&tmp, path).map_err(|e| io(format!("renaming into place: {e}")))?;
    if let Some(dir) = path.parent() {
        // make the rename itself durable; non-fatal on filesystems that
        // refuse to fsync a directory handle
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, BpMaxError> {
    fs::read(path).map_err(|e| BpMaxError::CheckpointIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// The records of a journal file. A tail after the header that is
/// shorter than one frame is a torn final frame — an append a crash cut
/// short — and is dropped; every other flaw is
/// [`BpMaxError::CorruptCheckpoint`]. Every frame holds one fixed-size
/// record, so a length field that reads anything but the record size is
/// damage wherever it sits, the torn tail's included.
fn decode_journal(bytes: &[u8], path: &Path) -> Result<Vec<JournalRecord>, BpMaxError> {
    let mut cur = Cursor::new(bytes, path);
    check_header(&mut cur, KIND_JOURNAL)?;
    let mut records = Vec::with_capacity(cur.buf.len() / FRAME_LEN);
    while !cur.done() {
        let rest = &cur.buf[cur.pos..];
        if let Some(field) = rest.get(..4) {
            let len = u32::from_le_bytes(field.try_into().unwrap()); // lint: allow(unwrap): get(..4) returned exactly 4 bytes
            if len as usize != RECORD_LEN {
                return Err(cur.corrupt(format!(
                    "journal record {}: frame length {len} at byte {} (a record is {RECORD_LEN} bytes)",
                    records.len(),
                    cur.pos
                )));
            }
        }
        if rest.len() < FRAME_LEN {
            break;
        }
        let payload = take_frame(&mut cur, &format!("journal record {}", records.len()))?;
        records.push(JournalRecord::decode(&mut Cursor::new(payload, path))?);
    }
    Ok(records)
}

/// Everything [`load`] recovers from a checkpoint directory: manifest,
/// journaled records, and the in-flight table snapshot if one exists.
pub type LoadedCheckpoint = (RunManifest, Vec<JournalRecord>, Option<TableSnapshot>);

/// Read-only view of a checkpoint directory: the manifest, every whole
/// journal record, and the in-flight table snapshot if one was flushed.
/// A torn final journal frame (a crash mid-append) is left out, not
/// refused; it changes nothing on disk. Fails with
/// [`BpMaxError::CorruptCheckpoint`] on any other integrity violation and
/// [`BpMaxError::CheckpointIo`] when files cannot be read at all.
pub fn load(dir: &Path) -> Result<LoadedCheckpoint, BpMaxError> {
    let mpath = manifest_path(dir);
    let mbytes = read_file(&mpath)?;
    let mut cur = Cursor::new(&mbytes, &mpath);
    check_header(&mut cur, KIND_MANIFEST)?;
    let payload = take_frame(&mut cur, "manifest")?;
    if !cur.done() {
        return Err(cur.corrupt("trailing bytes after manifest frame".to_string()));
    }
    let manifest = RunManifest::decode(&mut Cursor::new(payload, &mpath))?;

    let jpath = journal_path(dir);
    let jbytes = read_file(&jpath)?;
    let records = decode_journal(&jbytes, &jpath)?;

    let spath = snapshot_path(dir);
    let snapshot = if spath.exists() {
        let sbytes = read_file(&spath)?;
        let mut cur = Cursor::new(&sbytes, &spath);
        check_header(&mut cur, KIND_SNAPSHOT)?;
        let payload = take_frame(&mut cur, "snapshot")?;
        if !cur.done() {
            return Err(cur.corrupt("trailing bytes after snapshot frame".to_string()));
        }
        Some(TableSnapshot::decode(&mut Cursor::new(payload, &spath))?)
    } else {
        None
    };
    Ok((manifest, records, snapshot))
}

/// The batch engine's live handle on a checkpoint directory: appends
/// completed problems to the journal and flushes/retires the in-flight
/// snapshot. Writes happen from worker threads; I/O failures are latched
/// (first wins) and surfaced by [`CheckpointSink::take_error`] when the
/// wave ends — a full disk must fail the run loudly, not drop records
/// silently.
pub struct CheckpointSink {
    dir: PathBuf,
    /// `journal.bin`, open for appending. `None` once an append failed:
    /// it may have left a torn frame, which stays recoverable only while
    /// it is the last one.
    journal: Mutex<Option<fs::File>>,
    /// Batch index the on-disk `snapshot.bin` belongs to, if any.
    snapshot_for: Mutex<Option<u64>>,
    error: Mutex<Option<BpMaxError>>,
}

impl CheckpointSink {
    /// Start a fresh checkpoint: create `dir`, write the manifest and an
    /// empty journal, drop any stale snapshot.
    pub fn create(dir: &Path, manifest: &RunManifest) -> Result<CheckpointSink, BpMaxError> {
        fs::create_dir_all(dir).map_err(|e| BpMaxError::CheckpointIo {
            path: dir.display().to_string(),
            detail: format!("creating checkpoint directory: {e}"),
        })?;
        let mut mbytes = header(KIND_MANIFEST);
        put_frame(&mut mbytes, &manifest.encode());
        write_atomic(&manifest_path(dir), &mbytes)?;
        write_atomic(&journal_path(dir), &header(KIND_JOURNAL))?;
        let spath = snapshot_path(dir);
        if spath.exists() {
            fs::remove_file(&spath).map_err(|e| BpMaxError::CheckpointIo {
                path: spath.display().to_string(),
                detail: format!("removing stale snapshot: {e}"),
            })?;
        }
        Ok(CheckpointSink::over(
            dir,
            open_journal(dir, HEADER_LEN)?,
            None,
        ))
    }

    /// Re-open an existing checkpoint for resuming: verify and return its
    /// contents, and truncate a torn final journal frame, so that new
    /// records append right after the replayed ones.
    pub fn open(dir: &Path) -> Result<(CheckpointSink, LoadedCheckpoint), BpMaxError> {
        let (manifest, records, snapshot) = load(dir)?;
        let journal = open_journal(dir, HEADER_LEN + FRAME_LEN * records.len())?;
        let sink = CheckpointSink::over(dir, journal, snapshot.as_ref().map(|s| s.index));
        Ok((sink, (manifest, records, snapshot)))
    }

    fn over(dir: &Path, journal: fs::File, snapshot_for: Option<u64>) -> CheckpointSink {
        CheckpointSink {
            dir: dir.to_path_buf(),
            journal: Mutex::new(Some(journal)),
            snapshot_for: Mutex::new(snapshot_for),
            error: Mutex::new(None),
        }
    }

    /// The directory this sink writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Journal the records of one solved unit — a problem, or a lane
    /// group's members — with one append and one `sync_data`, so each is
    /// on disk before the call returns. Called from worker threads;
    /// failures are latched, not returned, and stop later appends.
    pub fn record(&self, records: &[JournalRecord]) {
        if records.is_empty() {
            return;
        }
        let mut frames = Vec::with_capacity(FRAME_LEN * records.len());
        for rec in records {
            put_frame(&mut frames, &rec.encode());
        }
        let mut journal = self.journal.lock().unwrap(); // lint: allow(unwrap): holders never panic with the journal lock held
        let Some(file) = journal.as_mut() else {
            return; // an earlier append failed, and its error is latched
        };
        if let Err(e) = file.write_all(&frames).and_then(|()| file.sync_data()) {
            *journal = None;
            drop(journal);
            self.latch(BpMaxError::CheckpointIo {
                path: journal_path(&self.dir).display().to_string(),
                detail: format!("appending {} record(s): {e}", records.len()),
            });
        }
    }

    /// Flush the in-flight table snapshot (atomic whole-file rewrite).
    pub fn snapshot(&self, snap: &TableSnapshot) {
        let mut bytes = header(KIND_SNAPSHOT);
        put_frame(&mut bytes, &snap.encode());
        match write_atomic(&snapshot_path(&self.dir), &bytes) {
            Ok(()) => *self.snapshot_for.lock().unwrap() = Some(snap.index), // lint: allow(unwrap): holders never panic with this lock held
            Err(e) => self.latch(e),
        }
    }

    /// Retire the on-disk snapshot once the problem it belonged to has a
    /// journaled result (no-op for any other index).
    pub fn complete(&self, index: u64) {
        let mut owner = self.snapshot_for.lock().unwrap(); // lint: allow(unwrap): holders never panic with this lock held
        if *owner == Some(index) {
            let spath = snapshot_path(&self.dir);
            match fs::remove_file(&spath) {
                Ok(()) => *owner = None,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => *owner = None,
                Err(e) => self.latch(BpMaxError::CheckpointIo {
                    path: spath.display().to_string(),
                    detail: format!("removing retired snapshot: {e}"),
                }),
            }
        }
    }

    /// The first I/O failure any write hit, if one did — the wave's
    /// results are valid, but the checkpoint on disk is behind.
    pub fn take_error(&self) -> Option<BpMaxError> {
        self.error.lock().unwrap().take() // lint: allow(unwrap): holders never panic with this lock held
    }

    fn latch(&self, e: BpMaxError) {
        let mut slot = self.error.lock().unwrap(); // lint: allow(unwrap): holders never panic with this lock held
        if slot.is_none() {
            *slot = Some(e);
        }
    }
}

/// `journal.bin` under `dir`, open for appending after its first `whole`
/// bytes, the header and the verified frames. A longer file ends in a
/// torn final frame: it is cut back and synced before anything is
/// appended, since a frame written after the tear would turn it into
/// damage.
fn open_journal(dir: &Path, whole: usize) -> Result<fs::File, BpMaxError> {
    let path = journal_path(dir);
    let io = |what: &str, e: std::io::Error| BpMaxError::CheckpointIo {
        path: path.display().to_string(),
        detail: format!("{what}: {e}"),
    };
    let file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .map_err(|e| io("opening for append", e))?;
    let len = file.metadata().map_err(|e| io("reading length", e))?.len();
    if len > whole as u64 {
        file.set_len(whole as u64)
            .and_then(|()| file.sync_data())
            .map_err(|e| io("truncating a torn final frame", e))?;
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::supervise::Watch;
    use rna::ScoringModel;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// [`Fnv64`] of the snapshot cell stream in `snapshot_cell_stream_is_pinned`.
    const PINNED_CELL_STREAM: u64 = 0x4b3b_1a08_a40a_612e;

    fn tmpdir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
        let p =
            std::env::temp_dir().join(format!("bpmax-ckpt-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn problem(a: &str, b: &str) -> BpMaxProblem {
        BpMaxProblem::new(
            a.parse().unwrap(),
            b.parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn problem_id_separates_strands_and_models() {
        let a = problem_id(&problem("GGAU", "CC"));
        assert_eq!(a, problem_id(&problem("GGAU", "CC")), "deterministic");
        assert_ne!(a, problem_id(&problem("GGA", "UCC")), "strand split");
        assert_ne!(a, problem_id(&problem("CC", "GGAU")), "strand order");
        let other_model = BpMaxProblem::new(
            "GGAU".parse().unwrap(),
            "CC".parse().unwrap(),
            ScoringModel::bpmax_default().with_min_loop(3),
        );
        assert_ne!(a, problem_id(&other_model), "scoring model");
    }

    #[test]
    fn problem_id_of_the_inputs_agrees_with_the_built_problem() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let weights = [0.0, -0.0, 1.0, 2.5, -1.5, f32::NAN, f32::INFINITY, f32::MAX];
        for trial in 0..200 {
            let (m, n) = (rng.gen_range(0..12), rng.gen_range(0..12));
            let s1 = RnaSeq::random(&mut rng, m);
            let s2 = RnaSeq::random(&mut rng, n);
            let mut table = || {
                let mut t = [[ScoringModel::NO_PAIR; 4]; 4];
                for row in &mut t {
                    for w in row.iter_mut() {
                        if rng.gen_range(0..3) > 0 {
                            *w = weights[rng.gen_range(0..weights.len())];
                        }
                    }
                }
                t
            };
            let model = match trial % 3 {
                0 => ScoringModel::bpmax_default(),
                1 => ScoringModel::bpmax_default().with_min_loop(trial % 4),
                _ => ScoringModel::from_tables(table(), table(), trial % 3),
            };
            let built = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
            assert_eq!(
                problem_id_of(&s1, &s2, &model),
                problem_id(&built),
                "{s1}/{s2} under {model:?}"
            );
        }
    }

    #[test]
    fn manifest_journal_snapshot_round_trip_through_a_directory() {
        let dir = tmpdir("roundtrip");
        let manifest = RunManifest {
            options_hash: 0xDEAD_BEEF,
            seed: 7,
            problem_ids: vec![1, 2, 3],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        let rec0 = JournalRecord {
            index: 0,
            outcome: Outcome::Ok,
            score: 6.0,
            seconds: 0.25,
            coarse: true,
        };
        let rec2 = JournalRecord {
            index: 2,
            outcome: Outcome::Degraded,
            score: -1.5,
            seconds: 1.0,
            coarse: false,
        };
        sink.record(&[rec0]);
        sink.record(&[rec2]);
        let p = problem("GGAUCGAC", "CCGAUG");
        let f = p.compute_prefix(Algorithm::CoarseGrain, 5).unwrap();
        let snap = TableSnapshot::capture(1, problem_id(&p), &f, 5);
        sink.snapshot(&snap);
        assert_eq!(sink.take_error(), None);

        let (got_manifest, got_records, got_snapshot) = load(&dir).unwrap();
        assert_eq!(got_manifest, manifest);
        assert_eq!(got_records, vec![rec0, rec2]);
        assert_eq!(got_snapshot.as_ref(), Some(&snap));

        // restoring + resuming reproduces the from-scratch table
        let snap = got_snapshot.unwrap();
        let mut f2 = FTable::new(p.seq1().len(), p.seq2().len(), Layout::Packed);
        snap.restore_into(&mut f2).unwrap();
        p.resume_from(Algorithm::CoarseGrain, &mut f2, snap.done)
            .unwrap();
        let reference = p
            .solve_opts(&crate::engine::SolveOptions::new().algorithm(Algorithm::CoarseGrain))
            .unwrap()
            .into_ftable();
        for (i1, j1, i2, j2) in reference.iter_cells().collect::<Vec<_>>() {
            assert_eq!(f2.get(i1, j1, i2, j2), reference.get(i1, j1, i2, j2));
        }

        // retiring the snapshot removes the file
        sink.complete(1);
        assert!(!snapshot_path(&dir).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_after_replayed_records() {
        let dir = tmpdir("reopen");
        let manifest = RunManifest {
            options_hash: 1,
            seed: 0,
            problem_ids: vec![10, 11],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        let rec0 = JournalRecord {
            index: 0,
            outcome: Outcome::Ok,
            score: 1.0,
            seconds: 0.1,
            coarse: true,
        };
        sink.record(&[rec0]);
        drop(sink);

        let (sink, (got_manifest, records, snapshot)) = CheckpointSink::open(&dir).unwrap();
        assert_eq!(got_manifest, manifest);
        assert_eq!(records, vec![rec0]);
        assert_eq!(snapshot, None);
        let rec1 = JournalRecord {
            index: 1,
            outcome: Outcome::Ok,
            score: 2.0,
            seconds: 0.2,
            coarse: true,
        };
        sink.record(&[rec1]);
        assert_eq!(sink.take_error(), None);
        let (_, records, _) = load(&dir).unwrap();
        assert_eq!(records, vec![rec0, rec1]);
        let _ = fs::remove_dir_all(&dir);
    }

    fn record(index: u64) -> JournalRecord {
        JournalRecord {
            index,
            outcome: Outcome::Ok,
            score: index as f32,
            seconds: 0.1,
            coarse: false,
        }
    }

    /// The journal's bytes, pinned by hash: a checkpoint written by an
    /// earlier build must resume in this one, and this build's journals
    /// must load in an earlier one.
    #[test]
    fn journal_bytes_are_pinned() {
        let dir = tmpdir("pinned");
        let manifest = RunManifest {
            options_hash: 4,
            seed: 0,
            problem_ids: vec![30, 31, 32, 33, 34, 35, 36, 37],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        sink.record(&[JournalRecord {
            coarse: true,
            score: 6.0,
            seconds: 0.25,
            ..record(0)
        }]);
        sink.record(&[
            JournalRecord {
                outcome: Outcome::Degraded,
                score: -1.5,
                seconds: 1.0,
                ..record(2)
            },
            JournalRecord {
                score: 13.0,
                seconds: 0.125,
                ..record(7)
            },
        ]);
        assert_eq!(sink.take_error(), None);
        let bytes = fs::read(journal_path(&dir)).unwrap();
        assert_eq!(bytes.len(), 13 + 3 * 30);
        let mut h = Fnv64::new();
        h.write(&bytes);
        assert_eq!(h.finish(), 0xd190_fc75_c938_6238, "{:#018x}", h.finish());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_a_torn_tail_truncates_then_appends() {
        let dir = tmpdir("torn");
        let manifest = RunManifest {
            options_hash: 3,
            seed: 0,
            problem_ids: vec![20, 21, 22, 23],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        let written = [record(0), record(1), record(2)];
        sink.record(&written);
        drop(sink);
        // a kill mid-append: the third frame is cut 11 bytes in
        let jpath = journal_path(&dir);
        let whole = fs::read(&jpath).unwrap();
        assert_eq!(whole.len(), HEADER_LEN + 3 * FRAME_LEN);
        fs::write(&jpath, &whole[..HEADER_LEN + 2 * FRAME_LEN + 11]).unwrap();

        let (sink, (_, records, _)) = CheckpointSink::open(&dir).unwrap();
        assert_eq!(records, written[..2]);
        assert_eq!(
            fs::metadata(&jpath).unwrap().len(),
            (HEADER_LEN + 2 * FRAME_LEN) as u64,
            "the torn frame is cut off before anything is appended"
        );
        sink.record(&[record(3)]);
        assert_eq!(sink.take_error(), None);
        let (_, records, _) = load(&dir).unwrap();
        assert_eq!(records, vec![record(0), record(1), record(3)]);
        // the file is what a run that never tore would have written
        let clean = tmpdir("untorn");
        let sink = CheckpointSink::create(&clean, &manifest).unwrap();
        sink.record(&[record(0), record(1)]);
        sink.record(&[record(3)]);
        drop(sink);
        assert_eq!(
            fs::read(&jpath).unwrap(),
            fs::read(journal_path(&clean)).unwrap()
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&clean);
    }

    #[test]
    fn every_corruption_is_detected_never_a_panic() {
        let dir = tmpdir("corrupt");
        let manifest = RunManifest {
            options_hash: 42,
            seed: 0,
            problem_ids: vec![5, 6, 7],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        let records: Vec<JournalRecord> = (0..3).map(record).collect();
        for rec in &records {
            sink.record(std::slice::from_ref(rec));
        }
        let jpath = journal_path(&dir);
        let pristine = fs::read(&jpath).unwrap();

        // flip every byte in turn: always CorruptCheckpoint, never panic
        for at in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[at] ^= 0x40;
            fs::write(&jpath, &bad).unwrap();
            match load(&dir) {
                Err(BpMaxError::CorruptCheckpoint { path, .. }) => {
                    assert!(path.ends_with("journal.bin"), "{path}");
                }
                Ok(_) => panic!("flip at byte {at} went undetected"),
                Err(other) => panic!("flip at byte {at}: unexpected {other}"),
            }
        }
        // truncate at every length: a cut inside the header is refused,
        // any other loads exactly the whole frames before the cut
        for len in 0..pristine.len() {
            fs::write(&jpath, &pristine[..len]).unwrap();
            match load(&dir) {
                Err(BpMaxError::CorruptCheckpoint { .. }) if len < 13 => {}
                Ok((_, got, _)) if len >= 13 => {
                    assert_eq!(got, records[..(len - 13) / 30], "truncate to {len}");
                }
                Ok(_) => panic!("truncate to {len}: a cut header loaded"),
                Err(other) => panic!("truncate to {len}: unexpected {other}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_validation_rejects_inconsistent_shapes() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let f = p.compute_prefix(Algorithm::Permuted, 3).unwrap();
        let snap = TableSnapshot::capture(0, problem_id(&p), &f, 3);
        // wrong shape target
        let mut wrong = FTable::new(4, 3, Layout::Packed);
        let err = snap.restore_into(&mut wrong).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CheckpointMismatch { .. }),
            "{err}"
        );
        // wrong layout target
        let mut wrong = FTable::new(8, 6, Layout::Identity);
        let err = snap.restore_into(&mut wrong).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CheckpointMismatch { .. }),
            "{err}"
        );
        // tampered cell count
        let mut bad = snap.clone();
        bad.cells.pop();
        let mut target = FTable::new(8, 6, Layout::Packed);
        let err = bad.restore_into(&mut target).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CheckpointMismatch { .. }),
            "{err}"
        );
    }

    /// The diagonal-major cell stream a snapshot stores, pinned by hash
    /// over solved tables of every layout, several shapes (empty and
    /// one-base strands included) and every prefix: a snapshot written by
    /// an earlier build must restore into this one.
    #[test]
    fn snapshot_cell_stream_is_pinned() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(19);
        let mut h = Fnv64::new();
        for (m, n) in [(0, 3), (1, 4), (3, 0), (2, 1), (5, 3), (7, 6)] {
            let s1 = rna::RnaSeq::random(&mut rng, m);
            let s2 = rna::RnaSeq::random(&mut rng, n);
            let p = BpMaxProblem::new(s1, s2, ScoringModel::bpmax_default());
            for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
                let mut f = FTable::new(m, n, layout);
                p.compute_watched_range(Algorithm::default(), &mut f, 0, m, &Watch::none())
                    .unwrap();
                for done in 0..=m {
                    let cells = f.export_diagonals(done);
                    h.write_u64(cells.len() as u64);
                    cells.iter().for_each(|&c| h.write_f32(c));
                }
            }
        }
        assert_eq!(h.finish(), PINNED_CELL_STREAM, "{:#018x}", h.finish());
    }

    #[test]
    fn snapshot_with_an_impossible_shape_is_corrupt_not_a_panic() {
        let dir = tmpdir("shape");
        let manifest = RunManifest {
            options_hash: 1,
            seed: 0,
            problem_ids: vec![1],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        // a well-formed frame, CRC included, whose shape no table can have
        sink.snapshot(&TableSnapshot {
            index: 0,
            problem_id: 1,
            m: 1 << 62,
            n: 4,
            layout: Layout::Packed,
            done: 1 << 62,
            cells: Vec::new(),
        });
        assert_eq!(sink.take_error(), None);
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, BpMaxError::CorruptCheckpoint { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_io_error_not_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "bpmax-ckpt-test-{}-definitely-missing",
            std::process::id()
        ));
        let err = load(&dir).unwrap_err();
        assert!(matches!(err, BpMaxError::CheckpointIo { .. }), "{err}");
    }
}
