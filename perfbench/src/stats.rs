//! Order statistics over latency samples, and the seeded input generator.

use rna::{Base, RnaSeq};

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p`% of the samples at or below it (0 for no samples).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Samples strictly above the `p`-th percentile: the evidence behind a
/// tail figure (at least 10 are needed for it to mean anything).
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// SplitMix64: the benchmark's own input generator, so the inputs of a
/// seed never change with the program under test.
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A uniformly random strand of `n` bases.
    pub fn seq(&mut self, n: usize) -> RnaSeq {
        const BASES: [Base; 4] = [Base::A, Base::C, Base::G, Base::U];
        RnaSeq::new(
            (0..n)
                .map(|_| BASES[(self.next_u64() >> 62) as usize])
                .collect(),
        )
    }
}
