//! Semiring matrix products in the loop orders the paper explores.
//!
//! The double max-plus reduction `R0` of `BPMax` is, per `(k1)` step, one
//! *max-plus matrix product* `C ⊕= A ⊗ B` over triangular operands (paper
//! Fig 8). The schedule question of §IV.A — which of `(i2, k2, j2)` goes
//! innermost — is exactly the classic GEMM loop-order question:
//!
//! * `ijk` (reduction `k` innermost): a scalar accumulator, **no**
//!   auto-vectorization of the reduction ("auto-vectorization is prohibited
//!   if k2 is the innermost loop iteration").
//! * `ikj` (`j` innermost): the inner loop is the streaming update
//!   `C[i][j] = max(C[i][j], A[i][k] + B[k][j])` over `j` — a perfect
//!   [`crate::scalar::mp_axpy`], which LLVM vectorizes.
//! * tiled `ikj`: `(i × k)` tiles with `j` untiled ("we observe the best
//!   result when j2 is not tiled due to the streaming effect"), plus a fully
//!   3-D tiled variant so the cubic-tile regression of Fig 18 can be shown.
//!
//! All variants compute identical results (property-tested, exactly on the
//! integer semiring) and count 2 FLOPs per inner iteration.

use crate::matrix::Matrix;
use crate::scalar::mp_axpy;
use crate::semiring::Semiring;
use crate::simd::mp_axpy4;

/// FLOPs of one `m×k — k×n` semiring product (2 per inner iteration).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

fn check_dims<T: Copy>(a: &Matrix<T>, b: &Matrix<T>, c: &Matrix<T>) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimensions differ");
    assert_eq!(a.rows(), c.rows(), "gemm: C row count mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm: C col count mismatch");
}

/// Generic semiring product, naive `ijk` order (reduction innermost).
///
/// `C[i][j] ⊕= Σ⊕_k A[i][k] ⊗ B[k][j]` — the unoptimizable baseline order.
pub fn gemm_naive<S: Semiring>(a: &Matrix<S::Elem>, b: &Matrix<S::Elem>, c: &mut Matrix<S::Elem>) {
    check_dims(a, b, c);
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[(i, j)];
            for k in 0..kk {
                acc = S::mul_add(acc, a[(i, k)], b[(k, j)]);
            }
            c[(i, j)] = acc;
        }
    }
}

/// Generic semiring product, permuted `ikj` order (`j` innermost, streams).
pub fn gemm_permuted<S: Semiring>(
    a: &Matrix<S::Elem>,
    b: &Matrix<S::Elem>,
    c: &mut Matrix<S::Elem>,
) {
    check_dims(a, b, c);
    let (m, kk, _n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for k in 0..kk {
            let aik = a[(i, k)];
            let brow = b.row(k);
            let crow = c.row_mut(i);
            for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                *cj = S::add(*cj, S::mul(aik, bj));
            }
        }
    }
}

/// Max-plus product on `f32`, naive `ijk` order.
pub fn maxplus_gemm_naive(a: &Matrix<f32>, b: &Matrix<f32>, c: &mut Matrix<f32>) {
    gemm_naive::<crate::semiring::MaxPlus>(a, b, c);
}

/// Max-plus product on `f32`, permuted `ikj` order built on [`mp_axpy`] —
/// the vectorizable schedule of Phase I.
pub fn maxplus_gemm_permuted(a: &Matrix<f32>, b: &Matrix<f32>, c: &mut Matrix<f32>) {
    check_dims(a, b, c);
    let (m, kk) = (a.rows(), a.cols());
    for i in 0..m {
        for k in 0..kk {
            let aik = a[(i, k)];
            if aik == f32::NEG_INFINITY {
                continue; // annihilator: the whole axpy is a no-op
            }
            mp_axpy(aik, b.row(k), c.row_mut(i));
        }
    }
}

/// Max-plus product with **register-level blocking** of the reduction:
/// `ikj` order with the `k` loop unrolled 4×, fusing four streaming updates
/// into one pass over the `C` row via [`mp_axpy4`].
///
/// The plain permuted kernel loads and stores the `C` row once per `k`
/// step (arithmetic intensity 1/6 FLOP/byte); keeping a register tile of
/// `C` live across four fused `k` steps quarters that traffic (8 FLOPs per
/// 24 B ≈ 1/3) — the paper's "additional level of tiling at the register
/// level" applied to the dense product. Results are bit-identical to
/// [`maxplus_gemm_permuted`] (four sequential per-element updates in the
/// same order), which the tests pin.
pub fn maxplus_gemm_reg(a: &Matrix<f32>, b: &Matrix<f32>, c: &mut Matrix<f32>) {
    check_dims(a, b, c);
    let (m, kk) = (a.rows(), a.cols());
    for i in 0..m {
        let crow = c.row_mut(i);
        let mut k = 0;
        while k + 4 <= kk {
            let aik = [a[(i, k)], a[(i, k + 1)], a[(i, k + 2)], a[(i, k + 3)]];
            mp_axpy4(
                aik,
                [b.row(k), b.row(k + 1), b.row(k + 2), b.row(k + 3)],
                crow,
            );
            k += 4;
        }
        while k < kk {
            let aik = a[(i, k)];
            if aik != f32::NEG_INFINITY {
                mp_axpy(aik, b.row(k), crow);
            }
            k += 1;
        }
    }
}

/// Tile-shape parameters `(ti × tk × tj)` for the tiled kernels.
///
/// `tj = usize::MAX` (see [`TileShape::j_untiled`]) leaves the streaming `j`
/// dimension untiled — the configuration the paper finds best.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileShape {
    /// Tile extent along `i` (rows of `C`).
    pub ti: usize,
    /// Tile extent along the reduction `k`.
    pub tk: usize,
    /// Tile extent along `j` (columns of `C`); `usize::MAX` = untiled.
    pub tj: usize,
}

impl TileShape {
    /// `(ti × tk)` tiles with `j` untiled — the paper's winning shape
    /// (`32×4×N`, `64×16×N` are the shapes presented in Figs 13/14).
    pub fn j_untiled(ti: usize, tk: usize) -> Self {
        TileShape {
            ti,
            tk,
            tj: usize::MAX,
        }
    }

    /// Cubic tiles `t×t×t` (shown by the paper to perform poorly).
    pub fn cubic(t: usize) -> Self {
        TileShape {
            ti: t,
            tk: t,
            tj: t,
        }
    }

    fn clamp(len: usize, t: usize) -> usize {
        t.min(len).max(1)
    }
}

/// Max-plus product, tiled `ikj`: loops over `(i, k, j)` tiles, `ikj` order
/// inside each tile. With `tj` untiled this keeps the streaming inner loop
/// full-width while blocking `A`/`C` rows and `B` row panels into cache.
pub fn maxplus_gemm_tiled(a: &Matrix<f32>, b: &Matrix<f32>, c: &mut Matrix<f32>, t: TileShape) {
    check_dims(a, b, c);
    let (m, kk, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || kk == 0 || n == 0 {
        return;
    }
    let ti = TileShape::clamp(m, t.ti);
    let tk = TileShape::clamp(kk, t.tk);
    let tj = TileShape::clamp(n, t.tj);
    let mut ii = 0;
    while ii < m {
        let i_hi = (ii + ti).min(m);
        let mut kk0 = 0;
        while kk0 < kk {
            let k_hi = (kk0 + tk).min(kk);
            let mut jj = 0;
            while jj < n {
                let j_hi = (jj + tj).min(n);
                for i in ii..i_hi {
                    let crow = c.row_mut(i);
                    for k in kk0..k_hi {
                        let aik = a[(i, k)];
                        if aik == f32::NEG_INFINITY {
                            continue;
                        }
                        mp_axpy(aik, &b.row(k)[jj..j_hi], &mut crow[jj..j_hi]);
                    }
                }
                jj = j_hi;
            }
            kk0 = k_hi;
        }
        ii = i_hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{Arith, MaxPlusInt, NEG_INF_I64};

    fn small_f32() -> (Matrix<f32>, Matrix<f32>) {
        let a = Matrix::from_fn(4, 3, |i, j| (i as f32) - (j as f32) * 0.5);
        let b = Matrix::from_fn(3, 5, |i, j| (j as f32) * 0.25 - (i as f32));
        (a, b)
    }

    #[test]
    fn permuted_matches_naive_f32() {
        let (a, b) = small_f32();
        let mut c1 = Matrix::neg_inf(4, 5);
        let mut c2 = Matrix::neg_inf(4, 5);
        maxplus_gemm_naive(&a, &b, &mut c1);
        maxplus_gemm_permuted(&a, &b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn tiled_matches_naive_for_many_shapes() {
        let (a, b) = small_f32();
        let mut reference = Matrix::neg_inf(4, 5);
        maxplus_gemm_naive(&a, &b, &mut reference);
        for shape in [
            TileShape::cubic(1),
            TileShape::cubic(2),
            TileShape::cubic(64),
            TileShape::j_untiled(2, 1),
            TileShape::j_untiled(3, 2),
        ] {
            let mut c = Matrix::neg_inf(4, 5);
            maxplus_gemm_tiled(&a, &b, &mut c, shape);
            assert_eq!(c, reference, "shape {shape:?}");
        }
    }

    #[test]
    fn reg_matches_permuted_bitwise() {
        // Cover every k remainder class (k mod 4) and -inf annihilators.
        for kk in 1..10usize {
            let a = Matrix::from_fn(5, kk, |i, j| {
                if (i + j) % 4 == 0 {
                    f32::NEG_INFINITY
                } else {
                    (i as f32) * 0.5 - (j as f32)
                }
            });
            let b = Matrix::from_fn(kk, 7, |i, j| (j as f32) * 0.25 - (i as f32) * 0.75);
            let mut c1 = Matrix::neg_inf(5, 7);
            let mut c2 = Matrix::neg_inf(5, 7);
            maxplus_gemm_permuted(&a, &b, &mut c1);
            maxplus_gemm_reg(&a, &b, &mut c2);
            let bits =
                |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&c1), bits(&c2), "kk={kk}");
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        // C starts non-empty: result must be max(C_old, A⊗B).
        let (a, b) = small_f32();
        let mut c = Matrix::filled(4, 5, 100.0f32);
        maxplus_gemm_permuted(&a, &b, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 100.0));
    }

    #[test]
    fn integer_semiring_exactness() {
        let a = Matrix::from_fn(3, 3, |i, j| {
            if (i + j) % 2 == 0 {
                (i * 3 + j) as i64
            } else {
                NEG_INF_I64
            }
        });
        let b = Matrix::from_fn(3, 3, |i, j| (2 * i + j) as i64);
        let mut c1 = Matrix::filled(3, 3, NEG_INF_I64);
        let mut c2 = Matrix::filled(3, 3, NEG_INF_I64);
        gemm_naive::<MaxPlusInt>(&a, &b, &mut c1);
        gemm_permuted::<MaxPlusInt>(&a, &b, &mut c2);
        assert_eq!(c1, c2);
        // spot value: c[0][0] = max over k of a[0][k] + b[k][0]
        let expect = (0..3)
            .map(|k| {
                let av = a[(0, k)];
                if av <= NEG_INF_I64 {
                    NEG_INF_I64
                } else {
                    av + b[(k, 0)]
                }
            })
            .max()
            .unwrap();
        assert_eq!(c1[(0, 0)], expect);
    }

    #[test]
    fn arith_semiring_matches_textbook() {
        let a = Matrix::from_rows(&[&[1.0f64, 2.0][..], &[3.0, 4.0][..]]);
        let b = Matrix::from_rows(&[&[5.0f64, 6.0][..], &[7.0, 8.0][..]]);
        let mut c = Matrix::filled(2, 2, 0.0f64);
        gemm_naive::<Arith>(&a, &b, &mut c);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    fn empty_dims_are_noops() {
        let a = Matrix::<f32>::filled(0, 0, 0.0);
        let b = Matrix::<f32>::filled(0, 0, 0.0);
        let mut c = Matrix::<f32>::filled(0, 0, 0.0);
        maxplus_gemm_tiled(&a, &b, &mut c, TileShape::cubic(4));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dim_mismatch_panics() {
        let a = Matrix::<f32>::filled(2, 3, 0.0);
        let b = Matrix::<f32>::filled(4, 2, 0.0);
        let mut c = Matrix::<f32>::filled(2, 2, 0.0);
        maxplus_gemm_naive(&a, &b, &mut c);
    }
}
