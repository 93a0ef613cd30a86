//! A compact polyhedral-model substrate — the `AlphaZ` stand-in of the `BPMax`
//! reproduction.
//!
//! The paper's method is: write the `BPMax` recurrence as a system of affine
//! recurrence equations, then hand `AlphaZ` *mapping directives* — a
//! multidimensional affine **schedule** per variable (Tables I–V), a
//! **processor allocation** (which schedule dimension runs in parallel), a
//! **memory map**, and a **tiling** of the dominant reduction — and let the
//! tool generate C. The scientific content is in the directives: they must
//! be *legal* (respect every dependence) and they determine locality and
//! vectorizability.
//!
//! This crate reproduces that content in Rust:
//!
//! * [`affine`] — affine expressions and multi-dim affine maps over named
//!   index variables and size parameters.
//! * [`domain`] — polyhedral domains (conjunctions of affine inequalities):
//!   membership, bounded enumeration, emptiness-in-box.
//! * [`schedule`] — multidimensional schedules, including strip-mined
//!   (tiled) dimensions `⌊e/s⌋`, lexicographic time comparison, and
//!   parallel-dimension annotations.
//! * [`dependence`] — variables, affine dependences, and whole systems;
//!   **exhaustive legality verification**: every dependence instance must
//!   have its producer scheduled strictly lexicographically before its
//!   consumer (checked over scaled problem instances, with violation
//!   witnesses).
//! * [`presburger`] — linear integer constraint systems decided by exact
//!   rational Fourier–Motzkin elimination with integer tightening and a
//!   backtracking integer-witness search.
//! * [`verify_static`] — **symbolic legality verification**: per
//!   dependence, the set of schedule-violating instances is encoded as
//!   integer polyhedra over the iteration indices *and the size
//!   parameters*, and certified empty for all parameter values at once
//!   (or refuted with a concrete integer witness).
//! * [`tiling`] — strip-mining transformations on schedules and the loop
//!   range helpers the hand-materialized kernels share.
//! * [`codegen`] — textual loop-nest generation from (domain, schedule)
//!   pairs plus the LOC metric of the paper's Table VI.
//! * [`parser`] — a miniature Alpha-like surface syntax: systems,
//!   domains, dependences and schedules as text (the shape of the paper's
//!   "alphabets" programs and command scripts).
//! * [`executor`] — an interpreter that runs a system's statements in
//!   schedule order (used by tests to execute `BPMax` straight from the
//!   encoded paper schedules) and can emit memory-access traces for the
//!   cache simulator in the `machine` crate.
//!
//! The deliberate scope cut (mirroring the paper, where a human writes the
//! schedules): there is no automatic scheduler. We verify and apply mapping
//! directives; we do not search for them.
//!
//! # Example: verify a schedule from text
//!
//! ```
//! use polyhedral::parser::parse_system;
//! use polyhedral::affine::env;
//!
//! let sys = parse_system(r#"
//!     system Chain {N}
//!     var X {i | 0 <= i < N};
//!     dep "prev" X -> X (i - 1) when {i | i >= 1};
//!     schedule X (i -> i);
//! "#).unwrap();
//! assert!(sys.verify(&env(&[("N", 10)]), 10, 5).is_empty());
//!
//! // the reversed order violates the chain dependence
//! let bad = parse_system(r#"
//!     system Chain {N}
//!     var X {i | 0 <= i < N};
//!     dep "prev" X -> X (i - 1) when {i | i >= 1};
//!     schedule X (i -> 0 - i);
//! "#).unwrap();
//! assert!(!bad.verify(&env(&[("N", 10)]), 10, 5).is_empty());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod bounds;
pub mod codegen;
pub mod dependence;
pub mod domain;
pub mod executor;
pub mod parser;
pub mod presburger;
pub mod schedule;
pub mod tiling;
pub mod verify_static;

pub use affine::{AffineExpr, AffineMap, Env};
pub use bounds::{
    AccessReport, AccessSpec, AccessVerdict, BoundsCertificate, BoundsOptions, BoundsViolation,
    KernelSpec, Region,
};
pub use dependence::{Dependence, System, Var, Violation};
pub use domain::{Constraint, Domain};
pub use presburger::{Assignment, Budget, Feasibility, LinExpr, Polyhedron};
pub use schedule::{SchedDim, Schedule, TimeVec};
pub use verify_static::{
    StaticOptions, StaticReport, StaticVerdict, StaticViolation, StaticViolationKind,
};
