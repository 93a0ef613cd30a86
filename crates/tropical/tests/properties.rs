//! Property tests for the tropical crate: semiring axioms and kernel
//! equivalence. Run on the exact integer max-plus instance so floating-point
//! rounding cannot mask (or fake) disagreements.

use proptest::prelude::*;
use tropical::gemm::{gemm_naive, gemm_permuted, maxplus_gemm_tiled, TileShape};
use tropical::matrix::Matrix;
use tropical::scalar::{mp_axpy, mp_axpy_reduce};
use tropical::semiring::{MaxPlusInt, MinPlus, Semiring, NEG_INF_I64};
use tropical::triangular::{Layout, Triangular};

/// Scores in `BPMax` are small non-negative integers plus -inf; mirror that.
fn score() -> impl Strategy<Value = i64> {
    prop_oneof![
        4 => 0i64..100,
        1 => Just(NEG_INF_I64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maxplus_int_axioms(a in score(), b in score(), c in score()) {
        type S = MaxPlusInt;
        // ⊕ commutative + associative
        prop_assert_eq!(S::add(a, b), S::add(b, a));
        prop_assert_eq!(S::add(S::add(a, b), c), S::add(a, S::add(b, c)));
        // identities
        prop_assert_eq!(S::add(S::zero(), a), a);
        prop_assert_eq!(S::mul(S::one(), a), a);
        // ⊗ associative (saturating add is associative on this range)
        prop_assert_eq!(S::mul(S::mul(a, b), c), S::mul(a, S::mul(b, c)));
        // distributivity: a ⊗ (b ⊕ c) = (a⊗b) ⊕ (a⊗c)
        prop_assert_eq!(S::mul(a, S::add(b, c)), S::add(S::mul(a, b), S::mul(a, c)));
    }

    #[test]
    fn minplus_axioms_on_finite(a in -1e3f32..1e3, b in -1e3f32..1e3, c in -1e3f32..1e3) {
        type S = MinPlus;
        prop_assert_eq!(S::add(a, b), S::add(b, a));
        prop_assert_eq!(S::add(S::add(a, b), c), S::add(a, S::add(b, c)));
        prop_assert_eq!(S::add(S::zero(), a), a);
        prop_assert_eq!(S::mul(S::one(), a), a);
    }

    #[test]
    fn gemm_orders_agree_int(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in any::<u64>(),
    ) {
        // Deterministic fill from the seed (proptest shrinks over it).
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            if s.is_multiple_of(5) { NEG_INF_I64 } else { (s % 100) as i64 }
        };
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let mut c1 = Matrix::filled(m, n, NEG_INF_I64);
        let mut c2 = Matrix::filled(m, n, NEG_INF_I64);
        gemm_naive::<MaxPlusInt>(&a, &b, &mut c1);
        gemm_permuted::<MaxPlusInt>(&a, &b, &mut c2);
        prop_assert_eq!(c1.as_slice(), c2.as_slice());
    }

    #[test]
    fn tiled_f32_agrees_with_naive_for_any_tile(
        dims in (1usize..8, 1usize..8, 1usize..8),
        tiles in (1usize..10, 1usize..10, 1usize..10),
        av in proptest::collection::vec(-50i32..50, 64),
    ) {
        let (m, k, n) = dims;
        let (ti, tk, tj) = tiles;
        let pick = |idx: usize| av[idx % av.len()] as f32;
        let a = Matrix::from_fn(m, k, |i, j| pick(i * 31 + j));
        let b = Matrix::from_fn(k, n, |i, j| pick(i * 17 + j + 5));
        let mut reference = Matrix::neg_inf(m, n);
        tropical::gemm::maxplus_gemm_naive(&a, &b, &mut reference);
        let mut c = Matrix::neg_inf(m, n);
        maxplus_gemm_tiled(&a, &b, &mut c, TileShape { ti, tk, tj });
        prop_assert_eq!(c.as_slice(), reference.as_slice());
    }

    #[test]
    fn axpy_reduce_is_max_of_axpy(
        alpha in -100.0f32..100.0,
        xs in proptest::collection::vec(-100.0f32..100.0, 1..32),
    ) {
        let mut y = vec![f32::NEG_INFINITY; xs.len()];
        mp_axpy(alpha, &xs, &mut y);
        let max = y.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(mp_axpy_reduce(alpha, &xs), max);
    }

    #[test]
    fn triangular_layouts_equivalent(
        n in 1usize..12,
        vals in proptest::collection::vec(-100i64..100, 1..200),
    ) {
        let pick = |i: usize, j: usize| vals[(i * 131 + j * 7) % vals.len()];
        let id = Triangular::from_fn(n, Layout::Identity, 0, pick);
        let sh = Triangular::from_fn(n, Layout::Shifted, 0, pick);
        let pk = Triangular::from_fn(n, Layout::Packed, 0, pick);
        for i in 0..n {
            for j in i..n {
                prop_assert_eq!(id.get(i, j), sh.get(i, j));
                prop_assert_eq!(id.get(i, j), pk.get(i, j));
                prop_assert_eq!(id.row(i)[j - i], pk.get(i, j));
            }
        }
        prop_assert!(pk.storage_bytes() <= id.storage_bytes());
    }
}
