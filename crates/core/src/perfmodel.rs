//! Performance model — how the multi-thread figures are
//! regenerated on single-core CI hardware.
//!
//! The substitution (DESIGN.md §3): the paper's parallel results are
//! properties of (a) per-kernel serial throughput, (b) the wavefront task
//! structure, (c) the scheduling policy, and (d) memory-system ceilings.
//! We take (a) from per-core rates in the paper's range
//! ([`CostModel::nominal`]), build (b) exactly as the real variants do,
//! use `simsched` for (c), and take (d) from the roofline model. The
//! composition predicts seconds per variant/size/thread-count; figures
//! 12–17 plot those predictions next to the measured single-thread
//! numbers.
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

use crate::engine::Algorithm;
use machine::spec::MachineSpec;
use machine::traffic;
use simsched::sched::{simulate_parallel_for, OmpPolicy};
use simsched::speedup::HtModel;

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
    /// per-core rates are in this range). Every caller prices work with
    /// these constants; none is measured on the host.
    pub fn nominal() -> Self {
        CostModel {
            spf_r0_naive: 1.0 / 0.9e9,
            spf_r0_permuted: 1.0 / 16e9,
            spf_r0_tiled: 1.0 / 20e9,
            spf_r12: 1.0 / 8e9,
            spf_cell: 1.0 / 0.2e9,
        }
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
pub(crate) fn triangle_r0_flops(d1: usize, n: usize) -> f64 {
    let s2: u64 = (0..n as u64).map(|d| d * (n as u64 - d)).sum();
    (2 * d1 as u64 * s2) as f64
}

/// R1+R2 FLOPs of one triangle: `2 · 2 · Σ-combinations(n)`.
pub(crate) fn triangle_r12_flops(n: usize) -> f64 {
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

/// A full-program curve of Figs 15/16: one of the paper's program
/// versions, priced by [`predict_bpmax_seconds`]. `Fine` and `Hybrid`
/// are the paper's Phase II fine-grain and Phase III hybrid schedules;
/// they are modeled here and verified by [`crate::schedules`], but not
/// run ([`crate::engine`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BpMaxVariant {
    /// The original program, serial.
    Base,
    /// Phase I: the loop-permuted program, serial.
    Permuted,
    /// Phase II coarse-grain: triangles of a diagonal across threads.
    Coarse,
    /// Phase II fine-grain: rows of one triangle across threads; `R1`/`R2`
    /// serial.
    Fine,
    /// Phase III hybrid: fine-grain `R0`/`R3`/`R4`, coarse-grain
    /// finalization.
    Hybrid,
    /// Phase III hybrid with the tiled `R0`.
    Tiled,
}

impl BpMaxVariant {
    /// The curve that prices `alg`. Both tiled versions are `Tiled`,
    /// whatever their tile.
    pub fn of(alg: Algorithm) -> BpMaxVariant {
        match alg {
            Algorithm::Baseline => BpMaxVariant::Base,
            Algorithm::Permuted => BpMaxVariant::Permuted,
            Algorithm::CoarseGrain => BpMaxVariant::Coarse,
            Algorithm::HybridTiled { .. } | Algorithm::HybridReg => BpMaxVariant::Tiled,
        }
    }

    /// Label used in figures and bench record ids.
    pub fn label(&self) -> &'static str {
        match self {
            BpMaxVariant::Base => "base",
            BpMaxVariant::Permuted => "permuted",
            BpMaxVariant::Coarse => "coarse",
            BpMaxVariant::Fine => "fine",
            BpMaxVariant::Hybrid => "hybrid",
            BpMaxVariant::Tiled => "hybrid+tiled",
        }
    }
}

/// Predict seconds for the **full `BPMax` program** (Figs 15/16).
pub fn predict_bpmax_seconds(
    v: BpMaxVariant,
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
        match v {
            BpMaxVariant::Base => {
                let spf = throttle(cm.spf_r0_naive, 1, ws_r0, spec);
                total += triangles as f64
                    * (triangle_r0_flops(d1, n) * spf + fin_flops * cm.spf_r0_naive);
            }
            BpMaxVariant::Permuted => {
                let spf = throttle(cm.spf_r0_permuted, 1, ws_r0, spec);
                total += triangles as f64
                    * (triangle_r0_flops(d1, n) * spf
                        + fin_flops * throttle(cm.spf_r12, 1, ws_r12, spec));
            }
            BpMaxVariant::Coarse => {
                let active = threads.min(triangles).max(1);
                let spf = throttle(cm.spf_r0_permuted, active, ws_r0, spec);
                let spf12 = throttle(cm.spf_r12, active, ws_r12, spec);
                let costs = vec![triangle_r0_flops(d1, n) * spf + fin_flops * spf12; triangles];
                total += simulate_parallel_for(&costs, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
            }
            BpMaxVariant::Fine => {
                let spf = throttle(cm.spf_r0_permuted, 1, ws_r0, spec);
                let spf12 = throttle(cm.spf_r12, 1, ws_r12, spec);
                let rows = triangle_row_costs(d1, n, spf);
                let per = simulate_parallel_for(&rows, threads, OmpPolicy::Dynamic { chunk: 1 })
                    .makespan
                    / speed;
                // serial finalization (R1/R2 unparallelized)
                total += (per + fin_flops * spf12 / speed.min(1.0)) * triangles as f64;
            }
            BpMaxVariant::Hybrid | BpMaxVariant::Tiled => {
                let spf_r0 = match v {
                    BpMaxVariant::Tiled => cm.spf_r0_tiled,
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
    v: BpMaxVariant,
    m: usize,
    n: usize,
    threads: usize,
    cm: &CostModel,
    spec: &MachineSpec,
    ht: HtModel,
) -> f64 {
    let flops = traffic::bpmax_flops(m, n) as f64;
    flops / predict_bpmax_seconds(v, m, n, threads, cm, spec, ht) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Tile;

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
        let base = g(BpMaxVariant::Base);
        let coarse = g(BpMaxVariant::Coarse);
        let fine = g(BpMaxVariant::Fine);
        let hybrid = g(BpMaxVariant::Hybrid);
        let tiled = g(BpMaxVariant::Tiled);
        assert!(base < fine);
        assert!(hybrid > fine, "hybrid {hybrid} > fine {fine}");
        assert!(hybrid > coarse, "hybrid {hybrid} > coarse {coarse}");
        assert!(tiled >= hybrid, "tiled {tiled} >= hybrid {hybrid}");
    }

    #[test]
    fn tiled_speedup_over_base_is_large() {
        let (cm, spec, ht) = setup();
        let (m, n) = (64, 64);
        let base = predict_bpmax_seconds(BpMaxVariant::Base, m, n, 1, &cm, &spec, ht);
        let tiled = predict_bpmax_seconds(BpMaxVariant::Tiled, m, n, 6, &cm, &spec, ht);
        let speedup = base / tiled;
        // paper: >100× at scale with 6 threads
        assert!(speedup > 30.0, "speedup {speedup}");
        // the register-tiled version is priced exactly like the tiled one
        let tiled_alg = Algorithm::HybridTiled {
            tile: Tile::DEFAULT,
        };
        for t in [1, 6] {
            let p = |alg| {
                predict_bpmax_seconds(BpMaxVariant::of(alg), m, n, t, &cm, &spec, ht).to_bits()
            };
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
            let s = predict_bpmax_seconds(BpMaxVariant::Hybrid, 48, 48, t, &cm, &spec, ht);
            assert!(s <= prev + 1e-12, "t={t}: {s} > {prev}");
            prev = s;
        }
    }
}
