//! Tropical (max-plus) semiring kernels.
//!
//! This crate is the computational substrate of the `BPMax` reproduction: the
//! dominant kernel of `BPMax` (the "double max-plus" reduction `R0`) is, per
//! instance, a *max-plus matrix product* — "matrix multiplication like
//! computation, except only a fraction of work is being done here, and the
//! access pattern is imbalanced" (Mondal & Rajopadhye, IPPS 2021, Fig 8).
//!
//! Contents:
//!
//! * [`semiring`] — a small algebraic [`semiring::Semiring`] abstraction with
//!   max-plus, min-plus, boolean and ordinary-arithmetic instances. Property
//!   tests assert the semiring axioms.
//! * [`scalar`] — scalar max-plus helpers on `f32` (the paper uses
//!   single-precision storage to halve the memory footprint).
//! * [`simd`] — streaming kernels on stable Rust that LLVM vectorizes to
//!   packed `addps`/`maxps`, including the 4-way fused [`simd::mp_axpy4`]
//!   register-blocked inner kernel.
//! * [`stream`] — the paper's micro-benchmark kernel `Y[i] = max(a + X[i], Y[i])`
//!   (Algorithm 3), used to estimate the attainable L1 bandwidth and hence the
//!   achievable fraction of machine peak (Fig 12).
//! * [`matrix`] — a dense row-major matrix container.
//! * [`gemm`] — semiring matrix products in several loop orders (naive `ijk`,
//!   permuted `ikj` that auto-vectorizes, and a tiled variant mirroring the
//!   paper's `(i2 × k2 × j2)` tiling where the streaming `j2` dimension is
//!   deliberately left untiled).
//! * [`triangular`] — packed upper-triangular storage, the building block of
//!   the `BPMax` "triangle of triangles" F-table.
//! * [`paths`] — all-pairs shortest paths over min-plus, exercising the
//!   same GEMM kernels on a second domain ("(not just) a step towards
//!   RNA-RNA interaction computations").
//!
//! # Quick example
//!
//! ```
//! use tropical::gemm::{maxplus_gemm_naive, maxplus_gemm_permuted};
//! use tropical::matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[0.0, 1.0][..], &[2.0, f32::NEG_INFINITY][..]]);
//! let b = Matrix::from_rows(&[&[1.0, 0.0][..], &[0.0, 3.0][..]]);
//! let mut c1 = Matrix::neg_inf(2, 2);
//! let mut c2 = Matrix::neg_inf(2, 2);
//! maxplus_gemm_naive(&a, &b, &mut c1);
//! maxplus_gemm_permuted(&a, &b, &mut c2);
//! assert_eq!(c1, c2);
//! // (A ⊗ B)[0][1] = max(A[0][0]+B[0][1], A[0][1]+B[1][1]) = max(0+0, 1+3) = 4
//! assert_eq!(c1[(0, 1)], 4.0);
//! ```
#![forbid(unsafe_code)]

pub mod gemm;
pub mod matrix;
pub mod paths;
pub mod scalar;
pub mod semiring;
pub mod simd;
pub mod stream;
pub mod triangular;

pub use matrix::Matrix;
pub use semiring::{Boolean, MaxPlus, MinPlus, Semiring};
pub use triangular::Triangular;

/// Additive identity of the max-plus semiring on `f32`.
///
/// In max-plus, "plus" is `max` and its identity is `-∞`; we use the IEEE-754
/// negative infinity, which `max` treats correctly and which survives
/// auto-vectorization (no NaN traps on the hot path).
pub const NEG_INF: f32 = f32::NEG_INFINITY;
