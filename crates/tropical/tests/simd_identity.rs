//! Bit-identity of the fused `mp_axpy4` kernel to sequential `mp_axpy`
//! steps, and the `-∞` identity of both.
//!
//! The `SimdReg` solve path is only sound if `mp_axpy4` is *bit*-identical
//! to the sequential single-stream updates — not merely close — because
//! every solver mode is pinned bit-identical to the memoized oracle. These
//! properties drive the kernels with adversarial values: the `-∞` sentinel
//! (max-plus identity/annihilator), magnitudes at the `i32` saturation
//! boundary (where `a + x` rounds coarsely and overflows to `±∞`),
//! subnormals, signed zeros, and lengths straddling every remainder class
//! of the vector width.

use proptest::prelude::*;
use tropical::scalar::mp_axpy;
use tropical::simd::mp_axpy4;

/// Vector width the slice lengths are drawn around, in `f32` elements:
/// 8 = one AVX2 register / two SSE2 registers.
const LANES: usize = 8;

/// Adversarial score values: finite smalls, `-∞`, `i32`-extreme
/// magnitudes (so `a + x` can saturate to `±∞` or lose all low bits),
/// signed zeros and subnormals.
fn value() -> impl Strategy<Value = f32> {
    prop_oneof![
        4 => -100.0f32..100.0,
        2 => Just(f32::NEG_INFINITY),
        1 => Just(i32::MAX as f32),
        1 => Just(i32::MIN as f32),
        1 => Just(f32::MAX),
        1 => Just(-f32::MAX),
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::MIN_POSITIVE / 2.0), // subnormal
    ]
}

/// Lengths covering every remainder class of [`LANES`], including 0 and
/// several full lanes plus an odd tail.
fn len() -> impl Strategy<Value = usize> {
    0usize..(3 * LANES + LANES - 1)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn axpy4_bit_identical_to_sequential_axpys(
        a0 in value(), a1 in value(), a2 in value(), a3 in value(),
        n in len(),
        seed in any::<u64>(),
    ) {
        let vals = materialize(seed, 5 * n);
        let (x0, rest) = vals.split_at(n);
        let (x1, rest) = rest.split_at(n);
        let (x2, rest) = rest.split_at(n);
        let (x3, y0) = rest.split_at(n);
        let a = [a0, a1, a2, a3];
        let mut y_simd = y0.to_vec();
        let mut y_ref = y0.to_vec();
        mp_axpy4(a, [x0, x1, x2, x3], &mut y_simd);
        for (ai, xi) in a.iter().zip([x0, x1, x2, x3]) {
            mp_axpy(*ai, xi, &mut y_ref);
        }
        prop_assert_eq!(bits(&y_simd), bits(&y_ref));
    }

    #[test]
    fn neg_inf_broadcast_is_identity(
        n in len(),
        seed in any::<u64>(),
    ) {
        // -∞ is the max-plus annihilator: a -∞ broadcast must leave y
        // untouched bit for bit, in both kernels.
        let vals = materialize(seed, 2 * n);
        let x = &vals[..n];
        let mut y = vals[n..].to_vec();
        let before = bits(&y);
        mp_axpy(f32::NEG_INFINITY, x, &mut y);
        prop_assert_eq!(bits(&y), before.clone());
        mp_axpy4([f32::NEG_INFINITY; 4], [x, x, x, x], &mut y);
        prop_assert_eq!(bits(&y), before);
    }
}

/// Deterministic adversarial fill from a seed, drawing from the same
/// value classes as [`value`] (proptest shrinks over the seed).
fn materialize(seed: u64, n: usize) -> Vec<f32> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        match s % 11 {
            0 => f32::NEG_INFINITY,
            1 => i32::MAX as f32,
            2 => i32::MIN as f32,
            3 => f32::MAX,
            4 => -f32::MAX,
            5 => -0.0f32,
            6 => f32::MIN_POSITIVE / 2.0,
            _ => ((s % 1000) as f32) / 8.0 - 60.0,
        }
    };
    (0..n).map(|_| next()).collect()
}
