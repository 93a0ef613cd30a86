//! A minimal semiring abstraction.
//!
//! A semiring `(S, ⊕, ⊗, 0̄, 1̄)` has a commutative, associative "addition" `⊕`
//! with identity `0̄`, an associative "multiplication" `⊗` with identity `1̄`
//! that distributes over `⊕`, and `0̄` annihilates under `⊗`.
//!
//! `BPMax` computes over the **max-plus** (tropical) semiring:
//! `⊕ = max`, `⊗ = +`, `0̄ = -∞`, `1̄ = 0`. The paper's headline kernel
//! performance (117 GFLOPS on the double max-plus) counts one `max` and one
//! `+` per inner-loop iteration, i.e. 2 FLOPs per `⊗`/`⊕` pair.
//!
//! The abstraction lets the same matrix-product kernels serve max-plus,
//! min-plus (shortest paths), boolean (reachability) and plain arithmetic,
//! which is exactly the scope of the tropical GPU library the paper cites
//! (Gildemaster et al., IPDPSW 2020).

use std::fmt::Debug;

/// An algebraic semiring over a copyable scalar type.
///
/// Implementations must satisfy the semiring axioms; the test-suite checks
/// them with property tests for every instance shipped by this crate
/// (floating-point instances are checked modulo IEEE rounding, which is exact
/// for `max` and commutative-but-unassociative for `+`; the axioms hold
/// exactly on the integer-valued scores `BPMax` uses).
pub trait Semiring: Copy + Debug + 'static {
    /// The scalar carrier type.
    type Elem: Copy + PartialEq + Debug + Send + Sync;

    /// Additive identity `0̄` (`⊕`-identity, `⊗`-annihilator).
    fn zero() -> Self::Elem;
    /// Multiplicative identity `1̄`.
    fn one() -> Self::Elem;
    /// Semiring addition `⊕`.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// Semiring multiplication `⊗`.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Fused multiply-add in the semiring: `acc ⊕ (a ⊗ b)`.
    ///
    /// Kernels call this in their innermost loop; a specialised
    /// implementation can help the compiler vectorize.
    #[inline(always)]
    fn mul_add(acc: Self::Elem, a: Self::Elem, b: Self::Elem) -> Self::Elem {
        Self::add(acc, Self::mul(a, b))
    }
}

/// Max-plus (tropical) semiring on `f32`: `⊕ = max`, `⊗ = +`.
///
/// This is the semiring of `BPMax`: scores of alternative substructures are
/// combined with `max`, scores of independent parts with `+`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaxPlus;

impl Semiring for MaxPlus {
    type Elem = f32;

    #[inline(always)]
    fn zero() -> f32 {
        f32::NEG_INFINITY
    }
    #[inline(always)]
    fn one() -> f32 {
        0.0
    }
    #[inline(always)]
    fn add(a: f32, b: f32) -> f32 {
        // IEEE `maxNum`: on the baseline x86-64 target `f32::max` lowers
        // to `maxss` plus a NaN fix-up (`cmpunordss`, `andps`, `andnps`,
        // `orps`). The streaming kernels use the one-instruction
        // `scalar::mp_join` instead, which agrees with this on every
        // value the BPMax solver produces.
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: f32, b: f32) -> f32 {
        a + b
    }
}

/// Min-plus semiring on `f32`: `⊕ = min`, `⊗ = +` (shortest-path algebra).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type Elem = f32;

    #[inline(always)]
    fn zero() -> f32 {
        f32::INFINITY
    }
    #[inline(always)]
    fn one() -> f32 {
        0.0
    }
    #[inline(always)]
    fn add(a: f32, b: f32) -> f32 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: f32, b: f32) -> f32 {
        a + b
    }
}

/// Boolean semiring: `⊕ = ∨`, `⊗ = ∧` (graph reachability).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Boolean;

impl Semiring for Boolean {
    type Elem = bool;

    #[inline(always)]
    fn zero() -> bool {
        false
    }
    #[inline(always)]
    fn one() -> bool {
        true
    }
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a | b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }
}

/// Ordinary arithmetic semiring on `f64` (the `(+, ×)` ring restricted to a
/// semiring view) — useful to sanity-check kernels against textbook GEMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arith;

impl Semiring for Arith {
    type Elem = f64;

    #[inline(always)]
    fn zero() -> f64 {
        0.0
    }
    #[inline(always)]
    fn one() -> f64 {
        1.0
    }
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// Max-plus on `i64` — the exact integer instance used by property tests
/// (`BPMax` scores are small integers, so `i64` never overflows in practice;
/// `i64::MIN / 4` stands in for `-∞` with headroom for one addition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaxPlusInt;

/// The `-∞` stand-in for [`MaxPlusInt`]. Chosen so that `NEG_INF_I64 + NEG_INF_I64`
/// does not overflow and still compares below any reachable score.
pub const NEG_INF_I64: i64 = i64::MIN / 4;

impl Semiring for MaxPlusInt {
    type Elem = i64;

    #[inline(always)]
    fn zero() -> i64 {
        NEG_INF_I64
    }
    #[inline(always)]
    fn one() -> i64 {
        0
    }
    #[inline(always)]
    fn add(a: i64, b: i64) -> i64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: i64, b: i64) -> i64 {
        // Saturating keeps -∞ absorbing even when both operands are the
        // stand-in value.
        a.saturating_add(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxplus_identities() {
        assert_eq!(MaxPlus::add(MaxPlus::zero(), 3.5), 3.5);
        assert_eq!(MaxPlus::mul(MaxPlus::one(), 3.5), 3.5);
        // zero annihilates under ⊗
        assert_eq!(MaxPlus::mul(MaxPlus::zero(), 3.5), f32::NEG_INFINITY);
    }

    #[test]
    fn maxplus_mul_add_matches_definition() {
        let acc = 1.0f32;
        assert_eq!(MaxPlus::mul_add(acc, 2.0, 3.0), 5.0);
        assert_eq!(MaxPlus::mul_add(10.0, 2.0, 3.0), 10.0);
    }

    #[test]
    fn minplus_identities() {
        assert_eq!(MinPlus::add(MinPlus::zero(), 3.5), 3.5);
        assert_eq!(MinPlus::mul(MinPlus::one(), 3.5), 3.5);
    }

    #[test]
    fn boolean_semiring_truth_table() {
        assert!(Boolean::add(true, false));
        assert!(!Boolean::add(false, false));
        assert!(Boolean::mul(true, true));
        assert!(!Boolean::mul(true, false));
    }

    #[test]
    fn maxplus_int_neg_inf_is_absorbing() {
        let z = MaxPlusInt::zero();
        assert!(MaxPlusInt::mul(z, 100) < -1_000_000_000);
        assert!(MaxPlusInt::mul(z, z) < -1_000_000_000);
        assert_eq!(MaxPlusInt::add(z, 7), 7);
    }

    /// Exhaustive axiom check for the boolean semiring (2³ = 8 triples).
    #[test]
    fn boolean_axioms_exhaustive() {
        let vals = [false, true];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(Boolean::add(a, b), Boolean::add(b, a));
                assert_eq!(Boolean::mul(a, b), Boolean::mul(b, a));
                for &c in &vals {
                    assert_eq!(
                        Boolean::add(Boolean::add(a, b), c),
                        Boolean::add(a, Boolean::add(b, c))
                    );
                    assert_eq!(
                        Boolean::mul(Boolean::mul(a, b), c),
                        Boolean::mul(a, Boolean::mul(b, c))
                    );
                    // distributivity
                    assert_eq!(
                        Boolean::mul(a, Boolean::add(b, c)),
                        Boolean::add(Boolean::mul(a, b), Boolean::mul(a, c))
                    );
                }
            }
        }
    }
}
