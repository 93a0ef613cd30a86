//! The 16-bit lane cell against the `f32` one, on the values it is exact
//! for.
//!
//! A solve takes `[i16; 8]` lanes only when every real value is an
//! integer in `[0, 8191]` (the gate, `bpmax::kernels::exact_in_lanes16`),
//! with `−∞` held as `i16::MIN`. On that domain both streaming kernels,
//! read back through `i16_to_f32`, must give the `[f32; 8]` kernels'
//! result in every lane, bit for bit: a sum of two real values fits an
//! `i16`, and a sum with a `−∞` operand stays below −16,384, which reads
//! back as `−∞`.

use proptest::prelude::*;
use tropical::scalar::{f32_to_i16, i16_to_f32, mp_axpy, LaneCell, Lanes, Lanes16, LANES};
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

fn narrow(cells: &[Lanes]) -> Vec<Lanes16> {
    cells.iter().map(|&c| Lanes16::from_f32s(c)).collect()
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
        mp_axpy(Lanes16::from_f32s(a), &narrow(x), &mut got);
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
            a.map(Lanes16::from_f32s),
            [&narrowed[0], &narrowed[1], &narrowed[2], &narrowed[3]],
            &mut got,
        );
        prop_assert_eq!(widened_bits(&got), bits(&want));
    }

    #[test]
    fn join_into_is_the_f32_lane_fold(c in cell(), acc in value()) {
        let want = c.join_into(acc);
        let got = Lanes16::from_f32s(c).join_into(acc);
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
