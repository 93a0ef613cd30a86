//! The original `BPMax` program: diagonal-by-diagonal, reduction innermost.
//!
//! This is the speedup reference of the paper ("We use the original `BPMax`
//! program as the reference since no better CPU-version of the `BPMax`
//! program is available"). The schedule is
//! `(i1, j1, i2, j2) ↦ (j1−i1, j2−i2, i1, i2)` with every reduction
//! evaluated per cell, `k1`/`k2` innermost:
//!
//! * the `R0` dot products read `F[k1+1, j1, k2+1, j2]` down a strided
//!   column for consecutive `k2` — no spatial locality, no vectorization;
//! * nothing is reused across cells — the same producer triangles are
//!   re-streamed for every `(i2, j2)`.
//!
//! Kept faithful on purpose: every figure's speedup is measured against
//! this implementation.

use crate::ftable::{FTable, Layout};
use crate::kernels::Ctx;
use crate::supervise::{Interrupt, Watch};
use rna::ScoringModel;

/// Solve by the original diagonal-by-diagonal order. Returns the full
/// F-table.
pub fn solve_baseline(ctx: &Ctx, layout: Layout) -> FTable {
    solve_baseline_into(ctx, FTable::new(ctx.m(), ctx.n(), layout))
}

/// [`solve_baseline`] into a caller-provided (possibly pool-recycled)
/// table. `f` must be freshly `-∞`-initialised with dims `ctx.m() × ctx.n()`.
pub fn solve_baseline_into(ctx: &Ctx, mut f: FTable) -> FTable {
    solve_baseline_watched(ctx, &mut f, &Watch::none())
        .expect("unsupervised solve cannot be interrupted"); // lint: allow(expect): Watch::none() can never interrupt
    f
}

/// [`solve_baseline_into`] under supervision: one checkpoint per `(d1, d2)`
/// diagonal pair — `Θ(M·N)` cells of work guarded per check.
pub(crate) fn solve_baseline_watched(
    ctx: &Ctx,
    f: &mut FTable,
    watch: &Watch,
) -> Result<(), Interrupt> {
    solve_baseline_watched_range(ctx, f, 0, ctx.m(), watch)
}

/// [`solve_baseline_watched`] over outer diagonals `start..end` only —
/// the resume driver. Diagonals `0..start` must already hold final values
/// (e.g. restored from a [`crate::checkpoint::TableSnapshot`]).
pub(crate) fn solve_baseline_watched_range(
    ctx: &Ctx,
    f: &mut FTable,
    start: usize,
    end: usize,
    watch: &Watch,
) -> Result<(), Interrupt> {
    let m = ctx.m();
    let n = ctx.n();
    debug_assert!(f.m() == m && f.n() == n, "table shape mismatch");
    let end = end.min(m);
    for d1 in start..end {
        // diagonals 0..d1 are final: an interrupt below leaves exactly
        // that resumable prefix (cells of diagonal d1 may be partial and
        // are discarded by checkpoint capture)
        watch.note_progress(d1);
        for d2 in 0..n {
            watch.check()?;
            for i1 in 0..m - d1 {
                let j1 = i1 + d1;
                for i2 in 0..n - d2 {
                    let j2 = i2 + d2;
                    let v = cell(ctx, f, i1, j1, i2, j2);
                    f.set(i1, j1, i2, j2, v);
                }
            }
        }
    }
    watch.note_progress(end.max(start));
    Ok(())
}

/// Evaluate one cell with every reduction as an inner loop (2 FLOPs per
/// reduction term, exactly the work the optimized versions do — only the
/// order differs).
fn cell(ctx: &Ctx, f: &FTable, i1: usize, j1: usize, i2: usize, j2: usize) -> f32 {
    // S1 + S2 (no interaction)
    let mut best = ctx.terms().s1v(i1, j1) + ctx.terms().s2v(i2, j2);
    // 1×1 box
    if i1 == j1 && i2 == j2 {
        let wi = ctx.terms().wi(i1, i2);
        if wi != ScoringModel::NO_PAIR {
            best = best.max(wi);
        }
    }
    // R0 (D): double split, k2 innermost
    for k1 in i1..j1 {
        for k2 in i2..j2 {
            best = best.max(f.get(i1, k1, i2, k2) + f.get(k1 + 1, j1, k2 + 1, j2));
        }
    }
    // R1: S2 prefix + F suffix (same triangle, shorter strand-2 interval)
    for k2 in i2..j2 {
        best = best.max(ctx.terms().s2v(i2, k2) + f.get(i1, j1, k2 + 1, j2));
    }
    // R2: F prefix + S2 suffix
    for k2 in i2..j2 {
        best = best.max(f.get(i1, j1, i2, k2) + ctx.terms().s2v(k2 + 1, j2));
    }
    // R3: S1 prefix + F suffix (earlier outer diagonal)
    for k1 in i1..j1 {
        best = best.max(ctx.terms().s1v(i1, k1) + f.get(k1 + 1, j1, i2, j2));
    }
    // R4: F prefix + S1 suffix
    for k1 in i1..j1 {
        best = best.max(f.get(i1, k1, i2, j2) + ctx.terms().s1v(k1 + 1, j1));
    }
    // pair i1–j1
    if j1 > i1 {
        let w1 = ctx.terms().w1(i1, j1);
        if w1 != ScoringModel::NO_PAIR {
            let inner = if j1 - i1 >= 2 {
                f.get(i1 + 1, j1 - 1, i2, j2)
            } else {
                ctx.terms().s2v(i2, j2) // empty strand-1 interval
            };
            best = best.max(inner + w1);
        }
    }
    // pair i2–j2
    if j2 > i2 {
        let w2 = ctx.terms().w2(i2, j2);
        if w2 != ScoringModel::NO_PAIR {
            let inner = if j2 - i2 >= 2 {
                f.get(i1, j1, i2 + 1, j2 - 1)
            } else {
                ctx.terms().s1v(i1, j1) // empty strand-2 interval
            };
            best = best.max(inner + w2);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecEval;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rna::RnaSeq;

    fn check(a: &str, b: &str) {
        let s1: RnaSeq = a.parse().unwrap();
        let s2: RnaSeq = b.parse().unwrap();
        let model = ScoringModel::bpmax_default();
        let ctx = Ctx::new(s1.clone(), s2.clone(), model.clone());
        let f = solve_baseline(&ctx, Layout::Packed);
        let mut spec = SpecEval::new(&s1, &s2, &model);
        for i1 in 0..s1.len() {
            for j1 in i1..s1.len() {
                for i2 in 0..s2.len() {
                    for j2 in i2..s2.len() {
                        let got = f.get(i1, j1, i2, j2);
                        let want = spec.f(i1 as isize, j1 as isize, i2 as isize, j2 as isize);
                        assert_eq!(got, want, "{a}/{b} F[{i1},{j1},{i2},{j2}]");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_spec_on_fixed_cases() {
        check("G", "C");
        check("GC", "GC");
        check("GGG", "CCC");
        check("GGGAAACCC", "UUU");
        check("GGAA", "UUCC");
    }

    #[test]
    fn matches_spec_on_random_cases() {
        let mut rng = StdRng::seed_from_u64(17);
        let model = ScoringModel::bpmax_default();
        for _ in 0..8 {
            let s1 = RnaSeq::random(&mut rng, 6);
            let s2 = RnaSeq::random(&mut rng, 5);
            let ctx = Ctx::new(s1.clone(), s2.clone(), model.clone());
            let f = solve_baseline(&ctx, Layout::Packed);
            let mut spec = SpecEval::new(&s1, &s2, &model);
            assert_eq!(f.final_score().unwrap(), spec.top(), "{s1} / {s2}");
        }
    }

    #[test]
    fn layout_does_not_change_values() {
        let s1: RnaSeq = "GGAUC".parse().unwrap();
        let s2: RnaSeq = "CCGAU".parse().unwrap();
        let ctx = Ctx::new(s1, s2, ScoringModel::bpmax_default());
        let fp = solve_baseline(&ctx, Layout::Packed);
        let fi = solve_baseline(&ctx, Layout::Identity);
        let fs = solve_baseline(&ctx, Layout::Shifted);
        for (i1, j1, i2, j2) in fp.iter_cells().collect::<Vec<_>>() {
            assert_eq!(fp.get(i1, j1, i2, j2), fi.get(i1, j1, i2, j2));
            assert_eq!(fp.get(i1, j1, i2, j2), fs.get(i1, j1, i2, j2));
        }
    }

    #[test]
    fn min_loop_model_agrees_with_spec() {
        let s1: RnaSeq = "GGGAAACCC".parse().unwrap();
        let s2: RnaSeq = "GGAUU".parse().unwrap();
        let model = ScoringModel::bpmax_default().with_min_loop(3);
        let ctx = Ctx::new(s1.clone(), s2.clone(), model.clone());
        let f = solve_baseline(&ctx, Layout::Packed);
        let mut spec = SpecEval::new(&s1, &s2, &model);
        assert_eq!(f.final_score().unwrap(), spec.top());
    }
}
