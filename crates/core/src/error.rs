//! The typed error for every fallible `BPMax` entry point.
//!
//! Historically the library panicked (`FTable::new` on impossible sizes,
//! `Tile` misuse deep in a kernel) and the CLI threaded ad-hoc `String`s.
//! Neither survives a service setting: a batch engine solving thousands of
//! problems must report *which* problem failed and *why* without tearing
//! down the process. [`BpMaxError`] is that contract — one enum covering
//! the domain failures of problem construction, solving, and sequence I/O,
//! used by [`crate::engine::BpMaxProblem::solve_opts`], the batch engine
//! ([`crate::batch`]), and `bpmax-cli`.

use crate::engine::Algorithm;
use crate::kernels::Tile;

/// Everything that can go wrong constructing or solving a `BPMax` problem.
#[derive(Clone, Debug, PartialEq)]
pub enum BpMaxError {
    /// The requested F-table would overflow address arithmetic (or the
    /// platform's allocation limit): `Θ(M²N²)` cells at strand lengths
    /// `m × n`.
    SizeOverflow {
        /// Strand-1 length.
        m: usize,
        /// Strand-2 length.
        n: usize,
    },
    /// A sequence that must be non-empty was empty (e.g. the query or
    /// target of a scan).
    EmptySequence {
        /// Which sequence was empty ("query", "target", …).
        what: &'static str,
    },
    /// A [`Tile`] with a zero dimension — the tiled kernel would make no
    /// progress.
    BadTile {
        /// The offending tile shape.
        tile: Tile,
    },
    /// An algorithm name that [`crate::Algorithm`]'s `FromStr` does not
    /// recognise.
    UnknownAlgorithm {
        /// The unrecognised name.
        name: String,
    },
    /// A sequence argument that is neither a readable FASTA file nor a
    /// valid RNA string.
    InvalidSequence {
        /// The offending input (possibly truncated).
        input: String,
        /// Parser detail.
        detail: String,
    },
    /// FASTA I/O failure: unreadable file, or a file with no records.
    Fasta {
        /// The path that failed.
        path: String,
        /// I/O or format detail.
        detail: String,
    },
    /// A malformed option value (bad `--window`, non-numeric size, …).
    InvalidArgument {
        /// Human-readable description of the bad argument.
        detail: String,
    },
    /// The solve was stopped by a [`crate::supervise::CancelToken`].
    Cancelled,
    /// The solve was stopped by a [`crate::supervise::Deadline`].
    DeadlineExceeded {
        /// Wall-clock seconds elapsed when the deadline fired.
        elapsed_s: f64,
    },
    /// The problem's F-table does not fit the configured
    /// [`crate::supervise::MemoryBudget`] (and degradation was off).
    BudgetExceeded {
        /// Bytes the exact F-table would need.
        needed_bytes: u64,
        /// The configured budget in bytes.
        budget_bytes: u64,
    },
    /// A solve panicked; the batch engine isolated it (`catch_unwind`)
    /// and quarantined its buffers.
    Panicked {
        /// The panic payload, if it was a string.
        detail: String,
    },
    /// A checkpoint file failed its integrity checks: bad magic, wrong
    /// format version, a torn record frame, or a CRC32 mismatch. The data
    /// is *detectably* damaged — resume refuses rather than replaying
    /// garbage scores.
    CorruptCheckpoint {
        /// The file that failed verification.
        path: String,
        /// What exactly was wrong (offset, expected/actual checksum, …).
        detail: String,
    },
    /// A checkpoint was written under a different configuration (options
    /// hash or problem set): resuming it would silently mix incompatible
    /// runs, so it is refused.
    CheckpointMismatch {
        /// Which fingerprint disagreed and how.
        detail: String,
    },
    /// An I/O failure while writing or reading checkpoint state (the
    /// filesystem, not the format).
    CheckpointIo {
        /// The path involved.
        path: String,
        /// The underlying I/O error text.
        detail: String,
    },
    /// A malformed message on the solve-service wire: bad magic, wrong
    /// protocol version, a torn or oversized frame, a CRC32 mismatch, or
    /// a payload that does not decode. The connection is poisoned — the
    /// peer answers with a typed error (or drops) rather than guessing.
    Protocol {
        /// What exactly was wrong (offset, expected/actual bytes, …).
        detail: String,
    },
    /// The solve daemon shed the request: its in-flight ledger was at
    /// capacity and the wait queue was full (or the queue wait timed
    /// out). Nothing was solved; retrying is safe because results are
    /// content-addressed — a duplicate attempt at worst lands a warm
    /// cache hit. [`crate::serve::Client::solve_with_retry`] returns
    /// this once its retry budget is exhausted.
    Overloaded {
        /// Solves executing when the request was shed.
        inflight: u64,
        /// The queue bound that was full (slots).
        depth: u64,
        /// The server's hint for when capacity should free up, in
        /// milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for BpMaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpMaxError::SizeOverflow { m, n } => write!(
                f,
                "problem size {m} x {n} overflows the F-table address space \
                 (Theta(M^2 N^2) cells)"
            ),
            BpMaxError::EmptySequence { what } => {
                write!(f, "{what} sequence must be non-empty")
            }
            BpMaxError::BadTile { tile } => write!(
                f,
                "tile {}x{}x{} has a zero dimension",
                tile.i2, tile.k2, tile.j2
            ),
            BpMaxError::UnknownAlgorithm { name } => {
                let flags: Vec<&str> = Algorithm::ALL.iter().map(Algorithm::flag).collect();
                write!(
                    f,
                    "unknown algorithm {name:?} (expected one of: {})",
                    flags.join(", ")
                )
            }
            BpMaxError::InvalidSequence { input, detail } => {
                write!(
                    f,
                    "{input:?} is neither a file nor an RNA sequence: {detail}"
                )
            }
            BpMaxError::Fasta { path, detail } => write!(f, "reading {path}: {detail}"),
            BpMaxError::InvalidArgument { detail } => write!(f, "{detail}"),
            BpMaxError::Cancelled => write!(f, "solve cancelled"),
            BpMaxError::DeadlineExceeded { elapsed_s } => {
                write!(f, "deadline exceeded after {elapsed_s:.3} s")
            }
            BpMaxError::BudgetExceeded {
                needed_bytes,
                budget_bytes,
            } => write!(
                f,
                "F-table needs {needed_bytes} bytes but the memory budget is \
                 {budget_bytes} bytes"
            ),
            BpMaxError::Panicked { detail } => write!(f, "solve panicked: {detail}"),
            BpMaxError::CorruptCheckpoint { path, detail } => {
                write!(f, "corrupt checkpoint {path}: {detail}")
            }
            BpMaxError::CheckpointMismatch { detail } => {
                write!(f, "checkpoint configuration mismatch: {detail}")
            }
            BpMaxError::CheckpointIo { path, detail } => {
                write!(f, "checkpoint i/o error at {path}: {detail}")
            }
            BpMaxError::Protocol { detail } => {
                write!(f, "protocol error: {detail}")
            }
            BpMaxError::Overloaded {
                inflight,
                depth,
                retry_after_ms,
            } => write!(
                f,
                "server overloaded: {inflight} solves in flight and the \
                 {depth}-slot queue is full; retry in ~{retry_after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for BpMaxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(BpMaxError, &str)> = vec![
            (
                BpMaxError::SizeOverflow { m: 1 << 40, n: 2 },
                "overflows the F-table",
            ),
            (
                BpMaxError::EmptySequence { what: "query" },
                "query sequence must be non-empty",
            ),
            (
                BpMaxError::BadTile {
                    tile: Tile {
                        i2: 0,
                        k2: 4,
                        j2: 4,
                    },
                },
                "tile 0x4x4",
            ),
            (
                BpMaxError::UnknownAlgorithm {
                    name: "warp".to_string(),
                },
                "unknown algorithm \"warp\" (expected one of: base, permuted, coarse, \
                 hybrid-tiled, hybrid-reg)",
            ),
            (
                BpMaxError::InvalidSequence {
                    input: "XYZ".to_string(),
                    detail: "bad base".to_string(),
                },
                "neither a file nor an RNA sequence",
            ),
            (
                BpMaxError::Fasta {
                    path: "a.fa".to_string(),
                    detail: "no records".to_string(),
                },
                "reading a.fa",
            ),
            (
                BpMaxError::InvalidArgument {
                    detail: "bad --window".to_string(),
                },
                "bad --window",
            ),
            (BpMaxError::Cancelled, "solve cancelled"),
            (
                BpMaxError::DeadlineExceeded { elapsed_s: 1.25 },
                "deadline exceeded after 1.250 s",
            ),
            (
                BpMaxError::BudgetExceeded {
                    needed_bytes: 4096,
                    budget_bytes: 1024,
                },
                "needs 4096 bytes but the memory budget is 1024",
            ),
            (
                BpMaxError::Panicked {
                    detail: "index out of bounds".to_string(),
                },
                "solve panicked: index out of bounds",
            ),
            (
                BpMaxError::CorruptCheckpoint {
                    path: "ckpt/journal.bin".to_string(),
                    detail: "record 3: crc mismatch".to_string(),
                },
                "corrupt checkpoint ckpt/journal.bin",
            ),
            (
                BpMaxError::CheckpointMismatch {
                    detail: "options hash 1 != 2".to_string(),
                },
                "checkpoint configuration mismatch",
            ),
            (
                BpMaxError::CheckpointIo {
                    path: "ckpt/manifest.bin".to_string(),
                    detail: "permission denied".to_string(),
                },
                "checkpoint i/o error at ckpt/manifest.bin",
            ),
            (
                BpMaxError::Protocol {
                    detail: "frame crc mismatch".to_string(),
                },
                "protocol error: frame crc mismatch",
            ),
            (
                BpMaxError::Overloaded {
                    inflight: 4,
                    depth: 2,
                    retry_after_ms: 250,
                },
                "server overloaded: 4 solves in flight",
            ),
        ];
        for (err, marker) in cases {
            let text = err.to_string();
            assert!(text.contains(marker), "{err:?} -> {text}");
        }
    }

    #[test]
    fn supervision_variants_round_trip_through_clone_and_eq() {
        let cases = vec![
            BpMaxError::Cancelled,
            BpMaxError::DeadlineExceeded { elapsed_s: 0.5 },
            BpMaxError::BudgetExceeded {
                needed_bytes: 10,
                budget_bytes: 5,
            },
            BpMaxError::Panicked {
                detail: "boom".to_string(),
            },
        ];
        for err in &cases {
            assert_eq!(err, &err.clone());
        }
        assert_ne!(
            BpMaxError::Cancelled,
            BpMaxError::DeadlineExceeded { elapsed_s: 0.5 }
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(BpMaxError::EmptySequence { what: "target" });
        assert!(e.to_string().contains("target"));
    }
}
