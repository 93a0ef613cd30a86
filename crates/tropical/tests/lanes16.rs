//! The 16-bit lane cells against the `f32` one, on the values they are
//! exact for.
//!
//! A solve takes `[i16; 8]` or `[i16; 16]` lanes only when every real
//! value is an integer in `[0, 8191]` (the gate,
//! `bpmax::kernels::exact_in_lanes16`), with `−∞` held as `i16::MIN`. On
//! that domain both streaming kernels, read back through `i16_to_f32`,
//! must give the `[f32; 8]` kernels' result in every lane, bit for bit: a
//! sum of two real values fits an `i16`, and a sum with a `−∞` operand
//! stays below −16,384, which reads back as `−∞`. A sixteen-lane cell is
//! held to two `[f32; 8]` cells, its low and high halves.

use proptest::prelude::*;
use tropical::scalar::{f32_to_i16, i16_to_f32, mp_axpy, LaneCell, Lanes, Lanes16, Wide16, LANES};
use tropical::simd::mp_axpy4;

/// A value of the 16-bit domain: `−∞`, the ends of `[0, 8191]`, or an
/// integer inside it.
fn value() -> impl Strategy<Value = f32> {
    prop_oneof![
        6 => (0u32..8192).prop_map(|v| v as f32),
        2 => Just(f32::NEG_INFINITY),
        1 => Just(0.0f32),
        1 => Just(8191.0f32),
    ]
}

/// An `f32` lane cell of domain values.
fn cell() -> impl Strategy<Value = Lanes> {
    proptest::collection::vec(value(), LANES).prop_map(|v| std::array::from_fn(|l| v[l]))
}

/// Five rows of the same length, 0 to 19 cells of domain values each.
fn rows() -> impl Strategy<Value = Vec<Vec<Lanes>>> {
    (0usize..20, proptest::collection::vec(cell(), 5 * 19))
        .prop_map(|(n, all)| all.chunks_exact(19).map(|row| row[..n].to_vec()).collect())
}

/// Five rows of the same length, 0 to 19 cells of two `f32` lane cells
/// each: the low and high halves of a sixteen-lane cell.
fn wide_rows() -> impl Strategy<Value = Vec<Vec<[Lanes; 2]>>> {
    (
        0usize..20,
        proptest::collection::vec((cell(), cell()), 5 * 19),
    )
        .prop_map(|(n, all)| {
            all.chunks_exact(19)
                .map(|row| row[..n].iter().map(|&(lo, hi)| [lo, hi]).collect())
                .collect()
        })
}

fn narrow(cells: &[Lanes]) -> Vec<Lanes16> {
    cells.iter().map(|&c| Lanes16::from_fn(|l| c[l])).collect()
}

/// The sixteen-lane cell of two halves, lanes 0–7 from the first.
fn widen(halves: [Lanes; 2]) -> Wide16 {
    Wide16::from_fn(|l| halves[l / LANES][l % LANES])
}

/// Half `h` of every cell of `rows`.
fn half(rows: &[[Lanes; 2]], h: usize) -> Vec<Lanes> {
    rows.iter().map(|pair| pair[h]).collect()
}

/// Every lane of a row of sixteen-lane cells, read back as `f32`, as
/// bits.
fn wide_bits(got: &[Wide16]) -> Vec<[u32; 16]> {
    got.iter()
        .map(|c| std::array::from_fn(|l| c.lane(l).to_bits()))
        .collect()
}

/// The two halves' `f32` rows as one row of sixteen lanes, as bits.
fn halves_bits(lo: &[Lanes], hi: &[Lanes]) -> Vec<[u32; 16]> {
    lo.iter()
        .zip(hi)
        .map(|(lo, hi)| std::array::from_fn(|l| [lo, hi][l / LANES][l % LANES].to_bits()))
        .collect()
}

/// Every lane of `got`, read back as `f32`, as bits.
fn widened_bits(got: &[Lanes16]) -> Vec<[u32; LANES]> {
    got.iter()
        .map(|c| std::array::from_fn(|l| c.lane(l).to_bits()))
        .collect()
}

fn bits(want: &[Lanes]) -> Vec<[u32; LANES]> {
    want.iter()
        .map(|c| std::array::from_fn(|l| c[l].to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn axpy_in_16_bits_reads_back_as_the_f32_axpy(a in cell(), xs in rows()) {
        let (x, y) = (&xs[0], &xs[1]);
        let mut want = y.clone();
        mp_axpy(a, x, &mut want);
        let mut got = narrow(y);
        mp_axpy(Lanes16::from_fn(|l| a[l]), &narrow(x), &mut got);
        prop_assert_eq!(widened_bits(&got), bits(&want));
    }

    #[test]
    fn axpy4_in_16_bits_reads_back_as_the_f32_axpy4(
        a0 in cell(), a1 in cell(), a2 in cell(), a3 in cell(),
        xs in rows(),
    ) {
        let a = [a0, a1, a2, a3];
        let mut want = xs[4].clone();
        mp_axpy4(a, [&xs[0], &xs[1], &xs[2], &xs[3]], &mut want);
        let narrowed: Vec<Vec<Lanes16>> = xs.iter().map(|x| narrow(x)).collect();
        let mut got = narrowed[4].clone();
        mp_axpy4(
            a.map(|a| Lanes16::from_fn(|l| a[l])),
            [&narrowed[0], &narrowed[1], &narrowed[2], &narrowed[3]],
            &mut got,
        );
        prop_assert_eq!(widened_bits(&got), bits(&want));
    }

    #[test]
    fn join_into_is_the_f32_lane_fold(c in cell(), acc in value()) {
        let want = c.join_into(acc);
        let got = Lanes16::from_fn(|l| c[l]).join_into(acc);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn axpy_in_16_wide_lanes_reads_back_as_two_f32_axpys(
        lo in cell(), hi in cell(), xs in wide_rows(),
    ) {
        let (x, y) = (&xs[0], &xs[1]);
        let want: Vec<Vec<Lanes>> = [lo, hi]
            .iter()
            .enumerate()
            .map(|(h, &a)| {
                let mut want = half(y, h);
                mp_axpy(a, &half(x, h), &mut want);
                want
            })
            .collect();
        let mut got: Vec<Wide16> = y.iter().map(|&c| widen(c)).collect();
        let wide_x: Vec<Wide16> = x.iter().map(|&c| widen(c)).collect();
        mp_axpy(widen([lo, hi]), &wide_x, &mut got);
        prop_assert_eq!(wide_bits(&got), halves_bits(&want[0], &want[1]));
    }

    #[test]
    fn axpy4_in_16_wide_lanes_reads_back_as_two_f32_axpy4s(
        a0 in (cell(), cell()), a1 in (cell(), cell()),
        a2 in (cell(), cell()), a3 in (cell(), cell()),
        xs in wide_rows(),
    ) {
        let a = [a0, a1, a2, a3].map(|(lo, hi)| [lo, hi]);
        let want: Vec<Vec<Lanes>> = (0..2)
            .map(|h| {
                let x: Vec<Vec<Lanes>> = xs.iter().map(|row| half(row, h)).collect();
                let mut want = x[4].clone();
                mp_axpy4(a.map(|pair| pair[h]), [&x[0], &x[1], &x[2], &x[3]], &mut want);
                want
            })
            .collect();
        let wide: Vec<Vec<Wide16>> =
            xs.iter().map(|row| row.iter().map(|&c| widen(c)).collect()).collect();
        let mut got = wide[4].clone();
        mp_axpy4(a.map(widen), [&wide[0], &wide[1], &wide[2], &wide[3]], &mut got);
        prop_assert_eq!(wide_bits(&got), halves_bits(&want[0], &want[1]));
    }

    #[test]
    fn join_into_16_wide_lanes_is_the_f32_fold_of_both_halves(
        lo in cell(), hi in cell(), acc in value(),
    ) {
        let want = hi.join_into(lo.join_into(acc));
        let got = widen([lo, hi]).join_into(acc);
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }
}

#[test]
fn conversion_is_exact_on_neg_inf_and_every_integer_from_minus_16384_to_16383() {
    assert_eq!(f32_to_i16(f32::NEG_INFINITY), i16::MIN);
    assert_eq!(i16_to_f32(i16::MIN).to_bits(), f32::NEG_INFINITY.to_bits());
    for v in -16_384i16..=16_383 {
        assert_eq!(f32_to_i16(f32::from(v)), v, "{v}");
        assert_eq!(i16_to_f32(v).to_bits(), f32::from(v).to_bits(), "{v}");
    }
    // below -16,384 only values derived from -inf lie
    for v in [-16_385i16, -24_577, -32_767] {
        assert_eq!(i16_to_f32(v), f32::NEG_INFINITY, "{v}");
    }
    // integers past an i16 clamp to its ends, up to 2^22
    assert_eq!(f32_to_i16(40_000.0), i16::MAX);
    assert_eq!(f32_to_i16(-40_000.0), i16::MIN);
    assert_eq!(f32_to_i16(4_194_304.0), i16::MAX);
    assert_eq!(f32_to_i16(-4_194_304.0), i16::MIN);
}
