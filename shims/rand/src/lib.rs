//! Offline stand-in for the `rand` crate, implementing exactly the 0.8 API
//! subset this workspace uses (`StdRng`, `SeedableRng::seed_from_u64`,
//! `Rng::{gen_range, gen_bool}`).
//!
//! The build container has no network access and no vendored registry, so
//! the real crate cannot be fetched; this shim keeps the workspace building
//! and testing offline. The generator is `SplitMix64` — deterministic, fast,
//! and statistically fine for test-data generation (the only use here).
//! Range sampling uses multiply-shift reduction; the tiny modulo bias is
//! irrelevant for tests and benches.

use std::ops::{Range, RangeInclusive};

/// Core RNG interface: a source of uniform 64-bit words.
pub trait RngCore {
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;

    /// Next uniform 32-bit word (upper half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction (the only constructor the workspace uses).
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from a range (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }

    /// Bernoulli sample: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Map a 64-bit word to a uniform f64 in `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Named RNG types, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic `SplitMix64` generator standing in for `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            StdRng { state }
        }
    }
}

/// A range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types with uniform sampling over half-open / inclusive intervals.
///
/// The single blanket `SampleRange` impl below (rather than one impl per
/// concrete range type) is what lets integer-literal inference work in
/// calls like `rng.gen_range(0..4)` used as a slice index.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform sample from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range in gen_range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range in gen_range");
        T::sample_inclusive(rng, lo, hi)
    }
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u128;
                let word = ((rng.next_u64() as u128) * span) >> 64;
                (lo as i128 + word as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let word = ((rng.next_u64() as u128) * span) >> 64;
                (lo as i128 + word as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

macro_rules! float_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                lo + (unit_f64(rng.next_u64()) as $t) * (hi - lo)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                Self::sample_half_open(rng, lo, hi)
            }
        }
    )*};
}

float_sample_uniform!(f32, f64);

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(-8..8);
            assert!((-8..8).contains(&x));
            let u = rng.gen_range(0usize..4);
            assert!(u < 4);
            let f = rng.gen_range(-1.5f32..2.5);
            assert!((-1.5..2.5).contains(&f));
            let i = rng.gen_range(3i64..=5);
            assert!((3..=5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(a.gen_range(0u64..1 << 40), b.gen_range(0u64..1 << 40));
        }
    }
}
