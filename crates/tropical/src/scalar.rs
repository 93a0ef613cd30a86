//! Scalar max-plus helpers, and the cell element the kernels are generic
//! over.
//!
//! `BPMax` stores scores in single precision ("we use single-precision storage
//! to reduce the memory footprint of `BPMax`" — §IV.A). These helpers define
//! the handful of scalar idioms the kernels are written in, so the hot loops
//! stay uniform and auto-vectorizable. [`MaxPlus`] lifts them to a cell
//! element: one `f32` score, or a [`LaneCell`] — the same cell of
//! independent problems, lane `l` computing exactly problem `l`'s scalar
//! update sequence: [`LANES`] of them in `f32` ([`Lanes`]), or, for
//! models whose scores are small integers, in exact 16-bit integers,
//! [`LANES`] ([`Lanes16`]) or sixteen ([`Wide16`]) per cell.

/// The max-plus join of the axpy family: `if s > c { s } else { c }`,
/// with the candidate `s` first and the accumulator `c` second.
///
/// On the baseline `x86-64` target this compare-select lowers to a single
/// `maxss`/`maxps`, where [`f32::max`] lowers to five instructions
/// (`maxps`, `cmpunordps`, `andps`, `andnps`, `orps`) to honour IEEE
/// `maxNum`'s NaN rule. The two differ only where that rule or a signed
/// zero matters: a NaN accumulator stays NaN (`f32::max` would return
/// `s`), and a `+0`/`−0` tie returns `c`. A NaN candidate leaves `c`
/// unchanged, as `f32::max` does. The solver never hits either
/// difference: every `s` it passes is a sum of F-table and S-table
/// values, which are never NaN and never `−0` (a float sum is `−0` only
/// if both terms are), and every accumulator starts at `−∞` and only ever
/// holds such sums.
#[inline(always)]
pub fn mp_join(s: f32, c: f32) -> f32 {
    if s > c {
        s
    } else {
        c
    }
}

/// Problems one [`Lanes`] cell carries.
pub const LANES: usize = 8;

/// One F-table cell of [`LANES`] same-shape problems: lane `l` is problem
/// `l`'s value. Two SSE registers on the baseline `x86-64` target.
pub type Lanes = [f32; LANES];

/// [`Lanes`] in 16-bit integers: one SSE register on the baseline
/// `x86-64` target, updated by saturating `paddsw` and `pmaxsw`. Exact
/// for a problem whose every real value is an integer below 8,192, with
/// `−∞` held as `i16::MIN` ([`f32_to_i16`], [`i16_to_f32`]); the solver
/// checks that from the model and the shape before it takes them.
pub type Lanes16 = [i16; LANES];

/// [`Lanes16`] twice as wide: sixteen problems in two SSE registers on
/// the baseline `x86-64` target, with the same operations and the same
/// exactness. A batch wave's 16-bit lane groups of nine to sixteen
/// members run on it.
pub type Wide16 = [i16; 16];

/// Offset of the rounding constant `1.5 × 2²³`: adding it to an `f32` puts
/// every integer in `[−2²², 2²²]` into the binade whose unit is 1, where
/// its bit pattern is `0x4B40_0000` plus the integer.
const MAGIC: f32 = 12_582_912.0;

/// `x` as a 16-bit lane value: exact on `−∞` (to `i16::MIN`) and on every
/// integer an `i16` holds; the other integers in `[−2²², 2²²]` clamp to
/// the nearer end. Other values, which the solver never converts, map to
/// an arbitrary `i16`.
///
/// The magic-constant form vectorizes: a pack loop over it compiles to
/// `addps`, an integer add and a saturating pack. `x as i16`, which
/// also saturates, compiles to one scalar `cvttss2si` plus two clamps per
/// value, and made a pack cost 4.7× the `f32` pack.
#[inline(always)]
pub fn f32_to_i16(x: f32) -> i16 {
    ((x + MAGIC).to_bits() as i32)
        .wrapping_sub(0x4B40_0000)
        .clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// A 16-bit lane value as an `f32`: `−∞` below −16,384, where only values
/// derived from `−∞` lie (a real value is at least 0), and the integer
/// itself elsewhere.
#[inline(always)]
pub fn i16_to_f32(v: i16) -> f32 {
    if v < -16_384 {
        f32::NEG_INFINITY
    } else {
        f32::from(v)
    }
}

use std::sync::atomic::{compiler_fence, Ordering};

/// A max-plus cell element: the one trait the kernels are generic over.
///
/// Every operation is applied element by element: for [`Lanes`] it is the
/// `f32` operation in each lane, so a kernel instantiated at [`Lanes`]
/// runs, in lane `l`, the exact scalar expressions it runs at `f32` for
/// problem `l`. The one place the two differ is [`MaxPlus::skips`]: the
/// `f32` kernels skip a term whose coefficient is `−∞` (also
/// `ScoringModel::NO_PAIR`), where the lane kernels compute it, since one
/// lane's `−∞` says nothing of the others. Computing it is bit-identical
/// to skipping it: the candidate is `−∞` or NaN (`−∞ + +∞`), and
/// [`mp_join`] keeps the accumulator for both, as does [`f32::max`]
/// unless the accumulator is NaN — which a solver accumulator never is
/// (it starts at `−∞` and only ever takes a candidate that compared
/// greater, or the non-NaN side of `f32::max`).
///
/// For a 16-bit cell ([`Lanes16`], [`Wide16`]) each operation is its
/// integer counterpart (`+` saturates, both joins are `max`), which
/// equals the `f32` operation on the values it is exact for (DESIGN.md
/// §11).
pub trait MaxPlus: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// `−∞` in every lane: the max-plus zero.
    const NEG_INF: Self;
    /// `0` in every lane: the score of an empty interval.
    const ZERO: Self;
    /// Lane-wise `+`.
    fn plus(self, rhs: Self) -> Self;
    /// Lane-wise [`mp_join`]`(s, c)`, candidate first.
    fn join(s: Self, c: Self) -> Self;
    /// Lane-wise [`f32::max`].
    fn max_num(self, other: Self) -> Self;
    /// Whether a max-plus term with this coefficient may be skipped: a
    /// scalar `−∞`. Always `false` for a [`LaneCell`] (see the trait doc).
    fn skips(self) -> bool;
    /// Marks the top of one element of a streaming loop. Nothing for
    /// `f32`, whose element loops LLVM vectorizes across elements. For a
    /// [`LaneCell`] a compiler-only fence, which emits no instruction but
    /// keeps LLVM's loop vectorizer off the element loop: left alone, it
    /// vectorizes across four cells and transposes their lanes with
    /// shuffles, where each cell alone is already one or two full vectors
    /// (the SLP vectorizer's `addps`/`maxps` or `paddsw`/`pmaxsw`).
    fn cell_fence();
}

/// A cell of [`LaneCell::WIDTH`] problems, converted from and to `f32`
/// where a lane kernel meets the `f32` F-table: the pack, reduce and
/// unpack edges of the lane drivers, and the lane terms built from a
/// problem's `f32` terms.
pub trait LaneCell: MaxPlus {
    /// Problems one cell carries.
    const WIDTH: usize;
    /// The cell whose lane `l` holds `value(l)`, for `l` in
    /// `0..WIDTH`.
    fn from_fn(value: impl FnMut(usize) -> f32) -> Self;
    /// Lane `l` as an `f32`.
    fn lane(self, l: usize) -> f32;
    /// `acc` joined with every lane, candidates first ([`mp_join`]).
    fn join_into(self, acc: f32) -> f32;
}

impl MaxPlus for f32 {
    const NEG_INF: f32 = f32::NEG_INFINITY;
    const ZERO: f32 = 0.0;

    #[inline(always)]
    fn plus(self, rhs: f32) -> f32 {
        self + rhs
    }

    #[inline(always)]
    fn join(s: f32, c: f32) -> f32 {
        mp_join(s, c)
    }

    #[inline(always)]
    fn max_num(self, other: f32) -> f32 {
        self.max(other)
    }

    #[inline(always)]
    fn skips(self) -> bool {
        self == f32::NEG_INFINITY
    }

    #[inline(always)]
    fn cell_fence() {}
}

impl LaneCell for Lanes {
    const WIDTH: usize = LANES;

    #[inline(always)]
    fn from_fn(value: impl FnMut(usize) -> f32) -> Lanes {
        std::array::from_fn(value)
    }

    #[inline(always)]
    fn lane(self, l: usize) -> f32 {
        self[l]
    }

    #[inline(always)]
    fn join_into(self, acc: f32) -> f32 {
        self.iter().fold(acc, |best, &v| mp_join(v, best))
    }
}

/// Every 16-bit cell, [`Lanes16`] and [`Wide16`] alike.
impl<const W: usize> MaxPlus for [i16; W] {
    const NEG_INF: [i16; W] = [i16::MIN; W];
    const ZERO: [i16; W] = [0; W];

    #[inline(always)]
    fn plus(self, rhs: [i16; W]) -> [i16; W] {
        std::array::from_fn(|l| self[l].saturating_add(rhs[l]))
    }

    #[inline(always)]
    fn join(s: [i16; W], c: [i16; W]) -> [i16; W] {
        std::array::from_fn(|l| s[l].max(c[l]))
    }

    #[inline(always)]
    fn max_num(self, other: [i16; W]) -> [i16; W] {
        std::array::from_fn(|l| self[l].max(other[l]))
    }

    #[inline(always)]
    fn skips(self) -> bool {
        false
    }

    #[inline(always)]
    fn cell_fence() {
        // ordering: a compiler-only fence that orders nothing between
        // threads; it only stops the loop vectorizer (see the trait doc)
        compiler_fence(Ordering::SeqCst);
    }
}

impl<const W: usize> LaneCell for [i16; W] {
    const WIDTH: usize = W;

    /// Gathers the `f32` values, then converts them all: converting each
    /// as it was gathered made the lone-solve `pack` a fifth larger.
    #[inline(always)]
    fn from_fn(value: impl FnMut(usize) -> f32) -> [i16; W] {
        std::array::from_fn::<f32, W, _>(value).map(f32_to_i16)
    }

    #[inline(always)]
    fn lane(self, l: usize) -> f32 {
        i16_to_f32(self[l])
    }

    /// The lanes' 16-bit maximum, converted once.
    #[inline(always)]
    fn join_into(self, acc: f32) -> f32 {
        let best = self.into_iter().fold(i16::MIN, i16::max);
        mp_join(i16_to_f32(best), acc)
    }
}

impl MaxPlus for Lanes {
    const NEG_INF: Lanes = [f32::NEG_INFINITY; LANES];
    const ZERO: Lanes = [0.0; LANES];

    #[inline(always)]
    fn plus(self, rhs: Lanes) -> Lanes {
        std::array::from_fn(|l| self[l] + rhs[l])
    }

    #[inline(always)]
    fn join(s: Lanes, c: Lanes) -> Lanes {
        std::array::from_fn(|l| mp_join(s[l], c[l]))
    }

    #[inline(always)]
    fn max_num(self, other: Lanes) -> Lanes {
        std::array::from_fn(|l| self[l].max(other[l]))
    }

    #[inline(always)]
    fn skips(self) -> bool {
        false
    }

    #[inline(always)]
    fn cell_fence() {
        // ordering: a compiler-only fence that orders nothing between
        // threads; it only stops the loop vectorizer (see the trait doc)
        compiler_fence(Ordering::SeqCst);
    }
}

/// In-place vector update `y[i] = max(a + x[i], y[i])` over paired slices.
///
/// This is the paper's streaming access pattern (`Y = max(a + X, Y)`): one
/// scalar broadcast, one load from each of `x` and `y`, one store to `y`;
/// 2 FLOPs per element, arithmetic intensity `2 / (3 × 4 B) = 1/6` FLOP/byte.
///
/// Each element is `y[i] = join(a + x[i], y[i])`; the plain loop
/// LLVM vectorizes to one `addps` + `maxps` per vector (per `f32` vector,
/// or per half of a [`Lanes`] cell), or one `paddsw` + `pmaxsw` per
/// [`Lanes16`] cell (two per [`Wide16`] cell). It is also the reference
/// the fused [`crate::simd::mp_axpy4`] is tested bit-identical against.
#[inline]
pub fn mp_axpy<E: MaxPlus>(a: E, x: &[E], y: &mut [E]) {
    assert_eq!(x.len(), y.len(), "mp_axpy: slice lengths differ");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        E::cell_fence();
        *yi = E::join(a.plus(xi), *yi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn axpy_matches_scalar_loop() {
        let x = [1.0f32, -1.0, 0.5, f32::NEG_INFINITY];
        let mut y = [0.0f32, 1.0, 2.0, 3.0];
        let mut expect = y;
        for i in 0..x.len() {
            expect[i] = expect[i].max(2.0 + x[i]);
        }
        mp_axpy(2.0, &x, &mut y);
        assert_eq!(y, expect);
    }

    #[test]
    fn axpy_neg_inf_alpha_is_identity() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [4.0f32, 5.0, 6.0];
        let before = y;
        mp_axpy(f32::NEG_INFINITY, &x, &mut y);
        assert_eq!(y, before);
    }

    #[test]
    #[should_panic(expected = "slice lengths differ")]
    fn axpy_length_mismatch_panics() {
        let x = [0.0f32; 3];
        let mut y = [0.0f32; 4];
        mp_axpy(0.0, &x, &mut y);
    }

    #[test]
    fn lane_axpy_is_the_scalar_axpy_in_every_lane() {
        // lane l of a Lanes axpy runs problem l's f32 axpy, -inf
        // coefficients included (the f32 path skips nothing inside
        // mp_axpy itself, so this pins the lane arithmetic)
        let a: Lanes = std::array::from_fn(|l| [2.0, f32::NEG_INFINITY, -1.5, 0.0][l % 4]);
        let x: Vec<Lanes> = (0..5)
            .map(|i| {
                std::array::from_fn(|l| [1.0, f32::INFINITY, -3.0, f32::NEG_INFINITY][(i + l) % 4])
            })
            .collect();
        let mut y: Vec<Lanes> = (0..5)
            .map(|i| std::array::from_fn(|l| (i * LANES + l) as f32 - 9.0))
            .collect();
        let before = y.clone();
        mp_axpy(a, &x, &mut y);
        for l in 0..LANES {
            let xs: Vec<f32> = x.iter().map(|v| v[l]).collect();
            let mut ys: Vec<f32> = before.iter().map(|v| v[l]).collect();
            mp_axpy(a[l], &xs, &mut ys);
            let got: Vec<u32> = y.iter().map(|v| v[l].to_bits()).collect();
            let want: Vec<u32> = ys.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "lane {l}");
        }
    }

    /// Adversarial join operands: finite values, signed zeros, both
    /// infinities, NaN, subnormals and the largest finite magnitudes.
    fn operand() -> impl Strategy<Value = f32> {
        prop_oneof![
            3 => -100.0f32..100.0,
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
            1 => Just(f32::INFINITY),
            1 => Just(f32::NEG_INFINITY),
            1 => Just(f32::NAN),
            1 => Just(f32::MIN_POSITIVE / 2.0),
            1 => Just(-f32::MIN_POSITIVE / 2.0),
            1 => Just(f32::MAX),
            1 => Just(-f32::MAX),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn join_is_max_with_the_accumulator_kept_on_ties_and_nan(s in operand(), c in operand()) {
            let j = mp_join(s, c).to_bits();
            if s.is_nan() {
                // A NaN candidate leaves the accumulator unchanged, as
                // f32::max does; this pins the operand order.
                prop_assert_eq!(j, c.to_bits());
            } else if c.is_nan() || (s == 0.0 && c == 0.0) {
                // Where f32::max differs or is unspecified — a NaN
                // accumulator, a +0/−0 tie — the accumulator is kept.
                prop_assert_eq!(j, c.to_bits());
            } else {
                prop_assert_eq!(j, s.max(c).to_bits());
            }
        }
    }
}
