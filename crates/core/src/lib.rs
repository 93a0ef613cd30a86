//! `BPMax` — base-pair maximization for RNA-RNA interaction — with every
//! optimization stage of Mondal & Rajopadhye, *"Accelerating the `BPMax`
//! Algorithm for RNA-RNA Interaction"* (IPPS 2021).
//!
//! `BPMax` takes two RNA strands and a weighted base-pair-counting model and
//! computes, for every pair of subsequences `[i1..=j1] × [i2..=j2]`, the
//! maximum total weight of a joint secondary structure (intramolecular
//! pairs in each strand plus intermolecular pairs, no crossings or
//! pseudoknots). The result is a 4-D "triangle of triangles" table `F` —
//! `Θ(M²N²)` space filled in `Θ(M³N³)` time, dominated by the *double
//! max-plus* reduction
//! `D = max_{k1,k2} F[i1,k1,i2,k2] + F[k1+1,j1,k2+1,j2]`.
//!
//! # Quick start
//!
//! ```
//! use bpmax::{BpMaxProblem, SolveOptions};
//! use rna::{RnaSeq, ScoringModel};
//!
//! let s1: RnaSeq = "GGGAAACC".parse().unwrap();
//! let s2: RnaSeq = "GGUUUCCC".parse().unwrap();
//! let problem = BpMaxProblem::new(s1, s2, ScoringModel::bpmax_default());
//! let solution = problem.solve_opts(&SolveOptions::new()).unwrap();
//! let structure = solution.traceback();
//! assert_eq!(structure.score(problem.seq1(), problem.seq2(), problem.model()),
//!            solution.score());
//! ```
//!
//! [`SolveOptions`] picks the champion algorithm by default and exposes
//! the one score-affecting knob, the program version with its tile,
//! behind one fallible entry point; every solve packs its table's inner
//! triangles ([`ftable::Layout::Packed`]). To solve *many* problems, use
//! the pooled [`batch::BatchEngine`] instead of a loop — it recycles
//! F-table buffers across solves, and its
//! [`BatchEngine::solve_pooled`] solves one problem the same way,
//! degrading an over-budget one to the windowed algorithm where
//! [`BpMaxProblem::solve_opts`] rejects it.
//!
//! # Module map
//!
//! | module | paper artifact |
//! |---|---|
//! | [`spec`] | Equations (1)–(3) as a memoized recursion — the correctness oracle |
//! | [`ftable`] | the packed 4-D table + Fig 10 memory-map options |
//! | [`baseline`] | the original diagonal-by-diagonal program (the speedup reference) |
//! | [`kernels`] | the per-triangle compute kernels: double max-plus (naive, permuted, tiled, register-tiled), R1/R2 interleaved finalization, R3/R4 piggybacking |
//! | [`engine`] | the five runnable program versions (Phase I–III and register tiling) assembled from the kernels |
//! | [`traceback`] | recovering an optimal [`rna::JointStructure`] from `F` |
//! | [`schedules`] | Tables I–V encoded as `polyhedral` schedules + dependence system, machine-verified |
//! | [`nests`] | generated loop nests per version (Table VI LOC metric) |
//! | [`perfmodel`] | nominal cost model + `simsched` composition for the multi-thread figures |
//! | [`windowed`] | banded/windowed `BPMax` (the Glidemaster-style restriction) |
//! | [`batch`] | the pooled batch engine: arena-recycled tables, supervision, checkpoints |
//! | [`supervise`] | cancellation, deadlines, memory budgets, outcomes, fault injection |
//! | [`checkpoint`] | crash-safe batch journaling + integrity-verified table snapshots |
//! | [`serve`] | the resident solve daemon: wire protocol, admission control, content-addressed result cache |
//! | [`error`] | [`BpMaxError`], the error type of every fallible entry point |
//!
//! # Safety policy
//!
//! The crate contains no `unsafe` code: `unsafe_code` is forbidden here
//! and workspace-wide, so the compiler rejects any `unsafe` block,
//! unchecked indexing included. Every kernel index keeps Rust's slice
//! check. The [`bounds`] certificates (exact Fourier–Motzkin proofs over
//! all problem and tile sizes — `bpmax-cli verify --bounds`) prove that
//! none of those checks can fire, given the one runtime precondition the
//! kernels assert at entry: every block holds at least
//! `layout().storage_len(n)` elements.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod batch;
pub mod bounds;
pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod ftable;
pub mod kernels;
pub mod nests;
pub mod perfmodel;
pub mod schedules;
pub mod serve;
pub mod spec;
pub mod supervise;
pub mod traceback;
pub mod windowed;

pub use batch::{BatchEngine, BatchItem, BatchOptions, BatchReport};
pub use checkpoint::{CheckpointSink, JournalRecord, RunManifest, TableSnapshot};
pub use engine::{Algorithm, BpMaxProblem, Solution, SolveOptions};
pub use error::BpMaxError;
pub use ftable::{BlockPool, FTable, PoolStats};
pub use serve::{
    Client, RejectReason, Request, Response, RetryPolicy, Server, ServerConfig, ServerStats,
    SolveRequest,
};
pub use supervise::{CancelToken, Deadline, MemoryBudget, Outcome, OutcomeCounts, Supervision};

/// The one-import surface for typical callers: problem construction, the
/// unified solve options, the batch engine, the solve service, and the
/// `rna` domain types they consume. `use bpmax::prelude::*;` replaces
/// the doc-deprecated free-function era (`solve`, `solve_with_threads`,
/// `compute`) with the single options-driven API.
pub mod prelude {
    pub use crate::batch::{BatchEngine, BatchItem, BatchOptions, BatchReport};
    pub use crate::engine::{Algorithm, BpMaxProblem, Solution, SolveOptions};
    pub use crate::error::BpMaxError;
    pub use crate::serve::{
        Client, RejectReason, Request, Response, Server, ServerConfig, ServerStats, SolveRequest,
    };
    pub use crate::supervise::{CancelToken, Deadline, MemoryBudget, Outcome, Supervision};
    pub use rna::{Base, JointStructure, RnaSeq, ScoringModel, Structure};
}

#[cfg(test)]
#[path = "tests/lanes16.rs"]
mod lanes16_tests;
