//! The paper's max-plus streaming micro-benchmark (Algorithm 3, Fig 12).
//!
//! The benchmark estimates the *attainable* L1 bandwidth for the access
//! pattern `Y = max(a + X, Y)`: per thread, two large 1-D arrays are
//! allocated, initialised with (pseudo-)random numbers, and the kernel is
//! invoked `MAX_ITERATION` times over `CHUNK_SIZE`-element chunks. The
//! measured GFLOPS (2 FLOPs/element) bound what the double max-plus kernel
//! can hope to reach: the paper measures ~120 GFLOPS at 6 threads versus a
//! 329 GFLOPS L1 roofline, and the tiled kernel then reaches 97% of the
//! micro-benchmark.
//!
//! [`StreamBench`] packages allocation, a deterministic fill, the timed run
//! and FLOP accounting for the Fig-12 harness binary.

use crate::scalar::mp_axpy;
use std::time::Instant;

/// Result of one micro-benchmark run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamResult {
    /// Elements per chunk (working-set knob; `2 × 4 B × chunk` bytes live).
    pub chunk_elems: usize,
    /// Number of sweeps over the chunk.
    pub iterations: usize,
    /// Total floating-point operations executed (2 per element per sweep).
    pub flops: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl StreamResult {
    /// Achieved GFLOPS.
    pub fn gflops(&self) -> f64 {
        self.flops as f64 / self.seconds / 1e9
    }

    /// Effective bandwidth in GB/s assuming the paper's 3 memory operations
    /// (two loads + one store of 4 bytes) per 2 FLOPs.
    pub fn gbytes_per_sec(&self) -> f64 {
        (self.flops as f64 / 2.0) * 12.0 / self.seconds / 1e9
    }
}

/// FLOPs performed by a `chunk × iterations` streaming run.
pub fn stream_flops(chunk_elems: usize, iterations: usize) -> u64 {
    2 * chunk_elems as u64 * iterations as u64
}

/// The micro-benchmark harness.
pub struct StreamBench {
    x: Vec<f32>,
    y: Vec<f32>,
}

impl StreamBench {
    /// Allocate and deterministically fill the two arrays.
    ///
    /// A tiny xorshift fill (not `rand`) keeps this crate dependency-free on
    /// the hot path and the values reproducible across runs.
    pub fn new(chunk_elems: usize) -> Self {
        assert!(chunk_elems > 0, "chunk must be non-empty");
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // map to [0, 1)
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        let x: Vec<f32> = (0..chunk_elems).map(|_| next()).collect();
        let y: Vec<f32> = (0..chunk_elems).map(|_| next()).collect();
        StreamBench { x, y }
    }

    /// Run `iterations` sweeps of `Y = max(alpha + X, Y)` and time them.
    ///
    /// `alpha` varies per sweep so the compiler cannot hoist the whole loop;
    /// the result vector is observed through a checksum to defeat dead-code
    /// elimination.
    pub fn run(&mut self, iterations: usize) -> StreamResult {
        let n = self.x.len();
        let start = Instant::now();
        for it in 0..iterations {
            // Alpha hovers near zero so roughly half the lanes update each
            // sweep — neither saturating nor dead.
            let alpha = (it % 7) as f32 * 1e-3 - 3e-3;
            mp_axpy(alpha, &self.x, &mut self.y);
        }
        let seconds = start.elapsed().as_secs_f64();
        std::hint::black_box(&self.y);
        StreamResult {
            chunk_elems: n,
            iterations,
            flops: stream_flops(n, iterations),
            seconds,
        }
    }

    /// One checksum over `y` (tests use it to prove the kernel ran).
    pub fn checksum(&self) -> f64 {
        self.y.iter().map(|&v| v as f64).sum()
    }
}

/// Sweep chunk sizes (bytes of working set per array) mirroring Fig 12's
/// L1 / L2 / L3-resident regimes. Returns `(chunk_elems, GFLOPS)` pairs.
///
/// `flop_budget` bounds the work per point so the sweep stays fast.
pub fn sweep_chunks(chunk_bytes: &[usize], flop_budget: u64) -> Vec<(usize, f64)> {
    chunk_bytes
        .iter()
        .map(|&bytes| {
            let elems = (bytes / 4).max(8);
            let iters = ((flop_budget / stream_flops(elems, 1)).max(1)) as usize;
            let mut bench = StreamBench::new(elems);
            // Warm-up sweep so the first timed sweep doesn't pay page faults.
            bench.run(1);
            let res = bench.run(iters);
            (elems, res.gflops())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_accounting() {
        assert_eq!(stream_flops(1000, 10), 20_000);
    }

    #[test]
    fn run_changes_y_and_reports_positive_rate() {
        let mut b = StreamBench::new(1024);
        let before = b.checksum();
        let res = b.run(4);
        assert_eq!(res.flops, stream_flops(1024, 4));
        assert!(res.seconds > 0.0);
        assert!(res.gflops() > 0.0);
        // alpha close to -1 over uniform [0,1) values still raises some y.
        assert_ne!(before, b.checksum());
    }

    #[test]
    fn y_is_monotone_nondecreasing_under_sweeps() {
        let mut b = StreamBench::new(256);
        let y0 = b.y.clone();
        b.run(3);
        for (a, b_) in y0.iter().zip(b.y.iter()) {
            assert!(b_ >= a);
        }
    }

    #[test]
    fn bandwidth_consistent_with_gflops() {
        let mut b = StreamBench::new(512);
        let res = b.run(2);
        // 12 bytes per 2 flops → GB/s = GFLOPS * 6.
        let ratio = res.gbytes_per_sec() / res.gflops();
        assert!((ratio - 6.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_produces_one_point_per_size() {
        let pts = sweep_chunks(&[1 << 10, 1 << 12], 1 << 18);
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|&(_, g)| g > 0.0));
    }
}
