//! Scalar max-plus helpers on `f32`.
//!
//! `BPMax` stores scores in single precision ("we use single-precision storage
//! to reduce the memory footprint of `BPMax`" — §IV.A). These helpers define
//! the handful of scalar idioms the kernels are written in, so the hot loops
//! stay uniform and auto-vectorizable.

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

/// In-place vector update `y[i] = max(a + x[i], y[i])` over paired slices.
///
/// This is the paper's streaming access pattern (`Y = max(a + X, Y)`): one
/// scalar broadcast, one load from each of `x` and `y`, one store to `y`;
/// 2 FLOPs per element, arithmetic intensity `2 / (3 × 4 B) = 1/6` FLOP/byte.
///
/// Each element is `y[i] = mp_join(a + x[i], y[i])`; the plain loop
/// LLVM vectorizes to one `addps` + `maxps` per vector. It is also the
/// reference the fused [`crate::simd::mp_axpy4`] is tested bit-identical
/// against.
#[inline]
pub fn mp_axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "mp_axpy: slice lengths differ");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = mp_join(a + xi, *yi);
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
