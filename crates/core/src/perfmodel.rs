//! Calibrated performance model — how the multi-thread figures are
//! regenerated on single-core CI hardware.
//!
//! The substitution (DESIGN.md §3): the paper's parallel results are
//! properties of (a) per-kernel serial throughput, (b) the wavefront task
//! structure, (c) the scheduling policy, and (d) memory-system ceilings.
//! We measure (a) on the machine we have, build (b) exactly as the real
//! variants do, use `simsched` for (c), and take (d) from the roofline
//! model. The composition predicts seconds per variant/size/thread-count;
//! figures 12–17 plot those predictions next to the measured
//! single-thread numbers.
//!
//! Memory ceilings applied (all from the paper's own analysis):
//!
//! * **Coarse-grain R0** streams two whole triangles *per thread*; when
//!   `threads × working set` exceeds the LLC, every thread is throttled to
//!   its DRAM-bandwidth share ("the program quickly becomes DRAM-bound for
//!   the coarse-grain schedule").
//! * **Fine-grain/hybrid R0** shares the same two triangles across
//!   threads; it throttles only when a *single* working set exceeds LLC.
//! * **R1/R2 rows** touch Θ(N²) bytes; beyond-LLC sizes pay the DRAM
//!   ratio, which is what caps the full `BPMax` at ~60% below the pure
//!   kernel (§V.C) and what hyper-threading amplifies.

use crate::engine::{Algorithm, BpMaxProblem, SolveOptions};
use crate::kernels::Tile;
use machine::spec::MachineSpec;
use machine::traffic;
use rna::{RnaSeq, ScoringModel};
use simsched::sched::{simulate_parallel_for, OmpPolicy};
use simsched::speedup::HtModel;
use std::time::Instant;

/// Bytes touched per max-plus FLOP by the streaming kernels (AI = 1/6).
const BYTES_PER_FLOP: f64 = 6.0;

/// Measured (or assumed) serial kernel throughputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Seconds per FLOP, naive (unvectorized, strided) R0 order.
    pub spf_r0_naive: f64,
    /// Seconds per FLOP, permuted (vectorized streaming) R0 order.
    pub spf_r0_permuted: f64,
    /// Seconds per FLOP, tiled R0 (cache-blocked streaming).
    pub spf_r0_tiled: f64,
    /// Seconds per FLOP for the R1/R2 finalization work.
    pub spf_r12: f64,
    /// Seconds per pointwise F cell (base cases, pair terms).
    pub spf_cell: f64,
}

impl CostModel {
    /// Nominal constants for a ~3.5 GHz AVX2 core: ~1 GFLOP/s scalar
    /// strided, ~20 GFLOP/s streaming vectorized (the paper's measured
    /// per-core rates are in this range). Used when calibration is not
    /// wanted (tests, deterministic output).
    pub fn nominal() -> Self {
        CostModel {
            spf_r0_naive: 1.0 / 0.9e9,
            spf_r0_permuted: 1.0 / 16e9,
            spf_r0_tiled: 1.0 / 20e9,
            spf_r12: 1.0 / 8e9,
            spf_cell: 1.0 / 0.2e9,
        }
    }

    /// Calibrate by timing the real kernels on a small instance.
    /// `size` ≈ 24–48 gives stable numbers in well under a second.
    pub fn calibrate(size: usize) -> Self {
        let seqs = || -> (RnaSeq, RnaSeq) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(0xB9);
            (
                RnaSeq::random(&mut rng, size),
                RnaSeq::random(&mut rng, size),
            )
        };
        let (s1, s2) = seqs();
        let model = ScoringModel::bpmax_default();
        let p = BpMaxProblem::new(s1, s2, model);
        let flops = traffic::r0_flops(size, size) as f64;
        let solve = |alg: Algorithm| {
            p.solve_opts(&SolveOptions::new().algorithm(alg))
                .map(super::engine::Solution::into_ftable)
                .ok()
        };
        let time = |alg: Algorithm| -> f64 {
            let t = Instant::now();
            std::hint::black_box(solve(alg));
            t.elapsed().as_secs_f64()
        };
        // Warm-up.
        let _ = solve(Algorithm::Permuted);
        let t_base = time(Algorithm::Baseline);
        let t_perm = time(Algorithm::Permuted);
        let t_tiled = time(Algorithm::HybridTiled {
            tile: Tile::small(),
        });
        let all = traffic::bpmax_flops(size, size) as f64;
        // Attribute whole-program time to R0 FLOPs (R0 dominates at this
        // aspect ratio); R1/R2 throughput taken as half the permuted rate.
        let nominal = CostModel::nominal();
        CostModel {
            spf_r0_naive: (t_base / all).max(1e-12),
            spf_r0_permuted: (t_perm / all).max(1e-12),
            spf_r0_tiled: (t_tiled / all).max(1e-12).min(t_perm / all),
            spf_r12: 2.0 * (t_perm / all).max(1e-12),
            spf_cell: nominal.spf_cell,
        }
        .validated(flops)
    }

    fn validated(self, _flops: f64) -> Self {
        assert!(self.spf_r0_naive > 0.0 && self.spf_r0_permuted > 0.0);
        self
    }
}

/// Effective per-FLOP cost of streaming work once memory ceilings apply:
/// the cost cannot beat `bytes/flop ÷ available bandwidth`.
fn throttle(spf: f64, concurrent_streams: usize, working_set: usize, spec: &MachineSpec) -> f64 {
    let llc = spec.caches.last().map(|c| c.size_bytes).unwrap_or(0);
    if working_set.saturating_mul(concurrent_streams.max(1)) <= llc {
        return spf; // everything stays cache-resident
    }
    // DRAM-bound: each of the concurrent streams gets a bandwidth share.
    let share = spec.dram_gbps * 1e9 / concurrent_streams.max(1) as f64;
    spf.max(BYTES_PER_FLOP / share)
}

/// Per-triangle R0 working set in bytes (the two operand triangles).
fn r0_working_set(n: usize) -> usize {
    2 * traffic::triangle_elems(n) * traffic::F32_BYTES
}

/// R0 FLOPs of one triangle at outer diagonal `d1` (over all its `k1`
/// steps): `2 · d1 · Σ-combinations(n)`.
fn triangle_r0_flops(d1: usize, n: usize) -> f64 {
    let s2: u64 = (0..n as u64).map(|d| d * (n as u64 - d)).sum();
    (2 * d1 as u64 * s2) as f64
}

/// R1+R2 FLOPs of one triangle: `2 · 2 · Σ-combinations(n)`.
fn triangle_r12_flops(n: usize) -> f64 {
    let s2: u64 = (0..n as u64).map(|d| d * (n as u64 - d)).sum();
    (4 * s2) as f64
}

/// Row costs of one triangle's R0 phase at diagonal `d1` — row `i2` does
/// `2·d1·Σ_{k2 ≥ i2}(n−1−k2)` FLOPs, a decreasing (imbalanced) profile.
fn triangle_row_costs(d1: usize, n: usize, spf: f64) -> Vec<f64> {
    (0..n)
        .map(|i2| {
            let combos: u64 = (i2 as u64..n as u64).map(|k2| n as u64 - 1 - k2).sum();
            2.0 * d1 as f64 * combos as f64 * spf
        })
        .collect()
}

/// Predicted wall-clock seconds for the **double max-plus** kernel alone
/// (Figs 13/14): square problem `m × n`, one of the five curve variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DmpVariant {
    /// The original order, serial.
    Base,
    /// Coarse-grain: triangles of a diagonal across threads.
    Coarse,
    /// Fine-grain, inner triangles walked diagonally.
    FineDiagonal,
    /// Fine-grain, inner triangles walked bottom-up (marginally different
    /// constant factors; same asymptotics).
    FineBottomUp,
    /// Fine-grain with the tiled kernel.
    Tiled,
}

impl DmpVariant {
    /// All five curves of Fig 13.
    pub fn all() -> [DmpVariant; 5] {
        [
            DmpVariant::Base,
            DmpVariant::Coarse,
            DmpVariant::FineDiagonal,
            DmpVariant::FineBottomUp,
            DmpVariant::Tiled,
        ]
    }

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            DmpVariant::Base => "base",
            DmpVariant::Coarse => "coarse",
            DmpVariant::FineDiagonal => "fine (diagonal)",
            DmpVariant::FineBottomUp => "fine (bottom-up)",
            DmpVariant::Tiled => "fine + tiled",
        }
    }
}

/// Predict seconds for the double max-plus kernel.
pub fn predict_dmp_seconds(
    v: DmpVariant,
    m: usize,
    n: usize,
    threads: usize,
    cm: &CostModel,
    spec: &MachineSpec,
    ht: HtModel,
) -> f64 {
    let speed = ht.worker_speed(threads);
    let ws = r0_working_set(n);
    let mut total = 0.0;
    for d1 in 1..m {
        let triangles = m - d1;
        match v {
            DmpVariant::Base => {
                let spf = throttle(cm.spf_r0_naive, 1, ws, spec);
                total += triangles as f64 * triangle_r0_flops(d1, n) * spf;
            }
            DmpVariant::Coarse => {
                // Whole triangles per thread: each thread streams its own
                // operands — `threads` concurrent working sets.
                let active = threads.min(triangles).max(1);
                let spf = throttle(cm.spf_r0_permuted, active, ws, spec);
                let costs = vec![triangle_r0_flops(d1, n) * spf; triangles];
                total += simulate_parallel_for(&costs, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
            }
            DmpVariant::FineDiagonal | DmpVariant::FineBottomUp => {
                // Rows of one triangle shared; one working set total.
                let spf = throttle(cm.spf_r0_permuted, 1, ws, spec);
                // diagonal walk has slightly worse constant locality
                let spf = if v == DmpVariant::FineDiagonal {
                    spf * 1.08
                } else {
                    spf
                };
                // every triangle of this diagonal is identical: simulate
                // one, multiply.
                let rows = triangle_row_costs(d1, n, spf);
                let per = simulate_parallel_for(&rows, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
                total += per * triangles as f64;
            }
            DmpVariant::Tiled => {
                // Tiling keeps the panel resident: no throttle until a
                // single tile panel misses LLC (practically never here).
                let spf = cm.spf_r0_tiled;
                // every triangle of this diagonal is identical: simulate
                // one, multiply.
                let rows = triangle_row_costs(d1, n, spf);
                let per = simulate_parallel_for(&rows, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
                total += per * triangles as f64;
            }
        }
    }
    total
}

/// Predict GFLOPS for the double max-plus kernel.
pub fn predict_dmp_gflops(
    v: DmpVariant,
    m: usize,
    n: usize,
    threads: usize,
    cm: &CostModel,
    spec: &MachineSpec,
    ht: HtModel,
) -> f64 {
    let flops = traffic::r0_flops(m, n) as f64;
    flops / predict_dmp_seconds(v, m, n, threads, cm, spec, ht) / 1e9
}

/// Predict seconds for the **full `BPMax` program** (Figs 15/16).
pub fn predict_bpmax_seconds(
    alg: Algorithm,
    m: usize,
    n: usize,
    threads: usize,
    cm: &CostModel,
    spec: &MachineSpec,
    ht: HtModel,
) -> f64 {
    let speed = ht.worker_speed(threads);
    let ws_r0 = r0_working_set(n);
    let ws_r12 = traffic::r1r2_row_working_set_bytes(n);
    let cells_per_triangle = traffic::triangle_elems(n) as f64;
    let mut total = 0.0;
    for d1 in 0..m {
        let triangles = m - d1;
        let fin_flops = triangle_r12_flops(n) + cells_per_triangle * (cm.spf_cell / cm.spf_r12);
        match alg {
            Algorithm::Baseline => {
                let spf = throttle(cm.spf_r0_naive, 1, ws_r0, spec);
                total += triangles as f64
                    * (triangle_r0_flops(d1, n) * spf + fin_flops * cm.spf_r0_naive);
            }
            Algorithm::Permuted => {
                let spf = throttle(cm.spf_r0_permuted, 1, ws_r0, spec);
                total += triangles as f64
                    * (triangle_r0_flops(d1, n) * spf
                        + fin_flops * throttle(cm.spf_r12, 1, ws_r12, spec));
            }
            Algorithm::CoarseGrain => {
                let active = threads.min(triangles).max(1);
                let spf = throttle(cm.spf_r0_permuted, active, ws_r0, spec);
                let spf12 = throttle(cm.spf_r12, active, ws_r12, spec);
                let costs = vec![triangle_r0_flops(d1, n) * spf + fin_flops * spf12; triangles];
                total += simulate_parallel_for(&costs, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
            }
            Algorithm::FineGrain => {
                let spf = throttle(cm.spf_r0_permuted, 1, ws_r0, spec);
                let spf12 = throttle(cm.spf_r12, 1, ws_r12, spec);
                let rows = triangle_row_costs(d1, n, spf);
                let per = simulate_parallel_for(&rows, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
                // serial finalization (R1/R2 unparallelized)
                total += (per + fin_flops * spf12 / speed.min(1.0)) * triangles as f64;
            }
            Algorithm::Hybrid | Algorithm::HybridTiled { .. } | Algorithm::HybridReg => {
                let spf_r0 = match alg {
                    Algorithm::HybridTiled { .. } | Algorithm::HybridReg => cm.spf_r0_tiled,
                    _ => throttle(cm.spf_r0_permuted, 1, ws_r0, spec),
                };
                // Stage 1: Phase A per triangle, rows parallel (identical
                // triangles: simulate one, multiply).
                let rows = triangle_row_costs(d1, n, spf_r0);
                let per = simulate_parallel_for(&rows, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
                total += per * triangles as f64;
                // Stage 2: Phase B coarse over triangles; each stream has
                // the Θ(N²) row working set.
                let active = threads.min(triangles).max(1);
                let spf12 = throttle(cm.spf_r12, active, ws_r12, spec);
                let costs = vec![fin_flops * spf12; triangles];
                total += simulate_parallel_for(&costs, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
            }
        }
    }
    total
}

/// Predict GFLOPS for the full program.
pub fn predict_bpmax_gflops(
    alg: Algorithm,
    m: usize,
    n: usize,
    threads: usize,
    cm: &CostModel,
    spec: &MachineSpec,
    ht: HtModel,
) -> f64 {
    let flops = traffic::bpmax_flops(m, n) as f64;
    flops / predict_bpmax_seconds(alg, m, n, threads, cm, spec, ht) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CostModel, MachineSpec, HtModel) {
        (
            CostModel::nominal(),
            MachineSpec::xeon_e5_1650v4(),
            HtModel {
                physical: 6,
                smt_efficiency: 0.15,
            },
        )
    }

    #[test]
    fn dmp_ranking_matches_fig13() {
        let (cm, spec, ht) = setup();
        let (m, n, t) = (64, 64, 6);
        let g = |v| predict_dmp_gflops(v, m, n, t, &cm, &spec, ht);
        let base = g(DmpVariant::Base);
        let coarse = g(DmpVariant::Coarse);
        let fine = g(DmpVariant::FineBottomUp);
        let tiled = g(DmpVariant::Tiled);
        assert!(base < coarse, "base {base} < coarse {coarse}");
        assert!(
            fine > coarse,
            "fine {fine} > coarse {coarse} (DRAM-bound coarse)"
        );
        assert!(tiled >= fine, "tiled {tiled} >= fine {fine}");
    }

    #[test]
    fn coarse_collapses_only_when_working_sets_spill() {
        let (cm, spec, ht) = setup();
        // Small n: per-thread triangles fit LLC → coarse ≈ fine.
        let small_ratio = predict_dmp_gflops(DmpVariant::Coarse, 32, 64, 6, &cm, &spec, ht)
            / predict_dmp_gflops(DmpVariant::FineBottomUp, 32, 64, 6, &cm, &spec, ht);
        // Large n: 6 × 2·T(n)·4 B ≫ 15 MB → coarse collapses.
        let big_ratio = predict_dmp_gflops(DmpVariant::Coarse, 16, 1400, 6, &cm, &spec, ht)
            / predict_dmp_gflops(DmpVariant::FineBottomUp, 16, 1400, 6, &cm, &spec, ht);
        assert!(big_ratio < small_ratio, "{big_ratio} < {small_ratio}");
        assert!(
            big_ratio < 0.6,
            "coarse must collapse at scale: {big_ratio}"
        );
    }

    #[test]
    fn bpmax_ranking_matches_fig15() {
        let (cm, spec, ht) = setup();
        let (m, n, t) = (48, 48, 6);
        let g = |a| predict_bpmax_gflops(a, m, n, t, &cm, &spec, ht);
        let base = g(Algorithm::Baseline);
        let coarse = g(Algorithm::CoarseGrain);
        let fine = g(Algorithm::FineGrain);
        let hybrid = g(Algorithm::Hybrid);
        let tiled = g(Algorithm::HybridTiled {
            tile: Tile::default(),
        });
        assert!(base < fine);
        assert!(hybrid > fine, "hybrid {hybrid} > fine {fine}");
        assert!(hybrid > coarse, "hybrid {hybrid} > coarse {coarse}");
        assert!(tiled >= hybrid, "tiled {tiled} >= hybrid {hybrid}");
    }

    #[test]
    fn tiled_speedup_over_base_is_large() {
        let (cm, spec, ht) = setup();
        let (m, n) = (64, 64);
        let base = predict_bpmax_seconds(Algorithm::Baseline, m, n, 1, &cm, &spec, ht);
        let tiled = predict_bpmax_seconds(
            Algorithm::HybridTiled {
                tile: Tile::default(),
            },
            m,
            n,
            6,
            &cm,
            &spec,
            ht,
        );
        let speedup = base / tiled;
        // paper: >100× at scale with 6 threads
        assert!(speedup > 30.0, "speedup {speedup}");
        // the register-tiled version is priced exactly like the tiled one
        let tiled_alg = Algorithm::HybridTiled {
            tile: Tile::DEFAULT,
        };
        for t in [1, 6] {
            let p = |alg| predict_bpmax_seconds(alg, m, n, t, &cm, &spec, ht).to_bits();
            assert_eq!(p(Algorithm::HybridReg), p(tiled_alg), "t={t}");
        }
    }

    #[test]
    fn hyperthreading_gain_is_small_for_tiled_dmp() {
        let (cm, spec, ht) = setup();
        let s6 = predict_dmp_seconds(DmpVariant::Tiled, 32, 96, 6, &cm, &spec, ht);
        let s12 = predict_dmp_seconds(DmpVariant::Tiled, 32, 96, 12, &cm, &spec, ht);
        let gain = s6 / s12 - 1.0;
        assert!((0.0..0.25).contains(&gain), "HT gain {gain} (Fig 17: 3-5%)");
    }

    #[test]
    fn speedup_grows_with_threads_until_physical() {
        let (cm, spec, ht) = setup();
        let mut prev = f64::INFINITY;
        for t in [1usize, 2, 4, 6] {
            let s = predict_bpmax_seconds(Algorithm::Hybrid, 48, 48, t, &cm, &spec, ht);
            assert!(s <= prev + 1e-12, "t={t}: {s} > {prev}");
            prev = s;
        }
    }

    #[test]
    fn calibration_produces_sane_model() {
        let cm = CostModel::calibrate(20);
        assert!(cm.spf_r0_naive > cm.spf_r0_permuted * 0.5);
        assert!(cm.spf_r0_permuted > 0.0 && cm.spf_r0_permuted < 1e-6);
    }
}
