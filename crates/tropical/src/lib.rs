//! Tropical (max-plus) kernels on `f32` and on eight-problem lanes.
//!
//! The dominant kernel of `BPMax` (the "double max-plus" reduction `R0`)
//! is, per instance, a *max-plus matrix product* — "matrix multiplication
//! like computation, except only a fraction of work is being done here,
//! and the access pattern is imbalanced" (Mondal & Rajopadhye, IPPS 2021,
//! Fig 8). The solver's `R0` kernels, tiled and register-tiled, live in
//! `bpmax::kernels`; this crate holds the streaming primitives they are
//! built from and the triangular storage their tables use.
//!
//! Contents:
//!
//! * [`scalar`] — the max-plus join, the streaming axpy
//!   `y[i] = max(a + x[i], y[i])`, and [`scalar::MaxPlus`], the cell
//!   element both kernels are generic over: one `f32` (the paper uses
//!   single-precision storage to halve the memory footprint) or a
//!   [`scalar::LaneCell`], the same cell of eight same-shape problems in
//!   `f32` ([`scalar::Lanes`]) or in exact 16-bit integers
//!   ([`scalar::Lanes16`]).
//! * [`simd`] — the 4-way fused [`simd::mp_axpy4`] register-blocked inner
//!   kernel, a plain loop on stable Rust that LLVM vectorizes to packed
//!   `addps`/`maxps`.
//! * [`stream`] — the paper's micro-benchmark kernel `Y[i] = max(a + X[i], Y[i])`
//!   (Algorithm 3), used to estimate the attainable L1 bandwidth and hence the
//!   achievable fraction of machine peak (Fig 12).
//! * [`triangular`] — packed upper-triangular storage and the paper's
//!   memory maps, the building block of the `BPMax` "triangle of
//!   triangles" F-table.
#![forbid(unsafe_code)]

pub mod scalar;
pub mod simd;
pub mod stream;
pub mod triangular;
