//! The fused max-plus streaming kernel on stable Rust.
//!
//! [`mp_axpy4`] is a plain element loop that LLVM vectorizes to one
//! `addps` + `maxps` per stream and vector (no nightly `std::simd`); its
//! single-stream counterpart is [`crate::scalar::mp_axpy`]. Neither is
//! written as fixed-width `chunks_exact` lane arrays: with the
//! compare-select join, LLVM vectorizes such a chunk loop *across* chunks,
//! with transposes, and leaves rows shorter than four chunks scalar. On a
//! 2-vCPU Xeon at the default `x86-64` target the chunked single-stream
//! form ran at 2.9 GFLOP/s against 9.6 for the element loop on
//! 512-element rows.
//!
//! # Bit-identity contract
//!
//! [`mp_axpy4`] per element is exactly four sequential
//! [`crate::scalar::mp_axpy`] steps fused into one pass over `y`, so it
//! computes *the same scalar expressions in the same order*.
//!
//! The join is [`crate::scalar::mp_join`]`(s, c) = if s > c { s } else { c }`, always with
//! the candidate `a + x[i]` as `s` and the accumulator `y[i]` as `c`: that
//! order is the one `maxps` computes, so the join is one instruction
//! instead of the five `f32::max` needs for its NaN rule. IEEE-754
//! addition and compare-select are deterministic per lane, so vectorizing
//! identical expressions yields identical bits for *every* input —
//! including the sentinel semantics the solver depends on: `-∞ + x == -∞`
//! (annihilator) and `join(-∞, y) == y` (identity). The property suite in
//! `tests/simd_identity.rs` pins this against adversarial values.
//!
//! The join equals `f32::max` except on a `+0`/`−0` tie (it returns `c`)
//! and on a NaN accumulator (it stays NaN). Neither occurs in the solver:
//! its candidates are sums of F-table and S-table values, which are never
//! NaN and never `−0` (a float sum is `−0` only if both terms are), and
//! its accumulators start at `−∞`. A NaN candidate — `−∞ + +∞` under a
//! model with `+∞` weights — leaves `c` unchanged, exactly as `f32::max`
//! does, so the solver's tables stay bit-identical to the `f32::max`
//! oracle in `bpmax::spec`.

use crate::scalar::MaxPlus;

/// Four fused max-plus axpy streams into one destination row:
///
/// ```text
/// y[i] = max(y[i], a0 + x0[i], a1 + x1[i], a2 + x2[i], a3 + x3[i])
/// ```
///
/// evaluated as four *sequential* [`MaxPlus::join`] steps per element, in
/// the order `a0`, `a1`, `a2`, `a3`, so the result is bit-identical to calling
/// [`crate::scalar::mp_axpy`] four times — but with one load/store
/// of `y` instead of four, lifting arithmetic intensity from 2/12 to 8/24
/// FLOP/byte. This is the register-blocked inner kernel of the `R0`
/// reduction: four consecutive `k` steps share the `y` register tile.
///
/// As an element loop rather than fixed-width chunks (see the module doc)
/// it measured about 15% more 40 × 40 solves per second (perfbench
/// `solve-large` on a 2-vCPU Xeon, baseline `x86-64` target). Over
/// [`crate::scalar::Lanes`] each element is one cell of eight problems,
/// so every step is two full SSE vectors and no row is ragged; over
/// [`crate::scalar::Lanes16`] it is one (`paddsw` + `pmaxsw`).
#[inline]
pub fn mp_axpy4<E: MaxPlus>(a: [E; 4], x: [&[E]; 4], y: &mut [E]) {
    let [x0, x1, x2, x3] = x;
    let n = y.len();
    assert!(
        x0.len() == n && x1.len() == n && x2.len() == n && x3.len() == n,
        "mp_axpy4: slice lengths differ"
    );
    for ((((yi, &v0), &v1), &v2), &v3) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        E::cell_fence();
        let mut v = *yi;
        v = E::join(a[0].plus(v0), v);
        v = E::join(a[1].plus(v1), v);
        v = E::join(a[2].plus(v2), v);
        v = E::join(a[3].plus(v3), v);
        *yi = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::mp_axpy;

    fn ref_axpy4(a: [f32; 4], x: [&[f32]; 4], y: &mut [f32]) {
        for (ai, xi) in a.iter().zip(x.iter()) {
            mp_axpy(*ai, xi, y);
        }
    }

    #[test]
    fn axpy4_matches_four_sequential_axpys() {
        for n in 0..29 {
            let mk = |s: usize| -> Vec<f32> {
                (0..n)
                    .map(|i| {
                        if (i + s) % 5 == 0 {
                            f32::NEG_INFINITY
                        } else {
                            (i as f32) * 0.5 - s as f32
                        }
                    })
                    .collect()
            };
            let (x0, x1, x2, x3) = (mk(0), mk(1), mk(2), mk(3));
            let a = [0.5, f32::NEG_INFINITY, -1.0, 2.0];
            let mut y: Vec<f32> = (0..n).map(|i| (i % 7) as f32 - 3.0).collect();
            let mut expect = y.clone();
            ref_axpy4(a, [&x0, &x1, &x2, &x3], &mut expect);
            mp_axpy4(a, [&x0, &x1, &x2, &x3], &mut y);
            let yb: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(yb, eb, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "mp_axpy4: slice lengths differ")]
    fn axpy4_length_mismatch_panics() {
        let x = [0.0f32; 3];
        let full = [0.0f32; 4];
        let mut y = [0.0f32; 4];
        mp_axpy4([0.0; 4], [&full, &x, &full, &full], &mut y);
    }
}
