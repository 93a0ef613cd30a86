//! Windowed (banded) `BPMax` — the Glidemaster-style restriction.
//!
//! The paper's related-work section notes that the GPU library only
//! handles "a windowed version of the `BPMax`" because the full `Θ(M²N²)`
//! table does not fit device memory. The same restriction is useful on
//! CPUs for the classic scanning workload: a short regulator strand
//! against every window of a long target (sRNA → mRNA target search).
//!
//! Restriction: strand-2 intervals are limited to width
//! `j2 − i2 < w`. The recurrence is *closed* under this band — every term
//! of `H`/`D` only references strand-2 sub-intervals of `[i2..j2]` — so
//! banded cells are **exact**: they equal the full table's values
//! (property-tested). What the windowed table cannot answer is a single
//! score for the whole strand 2; instead it yields the score of the full
//! strand 1 against every width-`w` window — `Θ(M²·N·w)` space instead of
//! `Θ(M²N²)`.

use crate::kernels::Ctx;
use crate::supervise::{Interrupt, Watch};
use rna::ScoringModel;

/// A banded F-table: cells `F[i1, j1, i2, j2]` with `j2 − i2 < w`.
pub struct WindowedTable {
    m: usize,
    n: usize,
    w: usize,
    /// blocks[outer(i1,j1)][band_offset(i2, j2)]
    blocks: Vec<Vec<f32>>,
    band_len: usize,
}

impl WindowedTable {
    fn outer(&self, i1: usize, j1: usize) -> usize {
        i1 * (2 * self.m - i1 + 1) / 2 + (j1 - i1)
    }

    /// Offset of `(i2, j2)` inside a band block: row-major with row width
    /// `min(w, n − i2)`.
    fn band_off(&self, i2: usize, j2: usize) -> usize {
        debug_assert!(j2 >= i2 && j2 - i2 < self.w && j2 < self.n);
        // start(i2) = Σ_{r<i2} min(w, n−r)
        let full_rows = self.n.saturating_sub(self.w - 1).min(i2);
        let start = full_rows * self.w + (full_rows..i2).map(|r| self.n - r).sum::<usize>();
        start + (j2 - i2)
    }

    /// Strand-1 length.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Strand-2 length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Window width.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Bytes allocated.
    pub fn storage_bytes(&self) -> usize {
        self.blocks.len() * self.band_len * 4
    }

    /// Read a banded cell (panics outside the band).
    pub fn get(&self, i1: usize, j1: usize, i2: usize, j2: usize) -> f32 {
        self.blocks[self.outer(i1, j1)][self.band_off(i2, j2)]
    }

    fn set(&mut self, i1: usize, j1: usize, i2: usize, j2: usize, v: f32) {
        let o = self.outer(i1, j1);
        let k = self.band_off(i2, j2);
        self.blocks[o][k] = v;
    }

    /// Score of the whole strand 1 against each window
    /// `[s, min(s+w, n) − 1]` of strand 2.
    pub fn window_scores(&self) -> Vec<f32> {
        if self.m == 0 || self.n == 0 {
            return Vec::new();
        }
        (0..self.n)
            .map(|s| {
                let e = (s + self.w).min(self.n) - 1;
                self.get(0, self.m - 1, s, e)
            })
            .collect()
    }
}

/// Solve the banded problem: all cells with `j2 − i2 < w`, exact values.
///
/// Traversal is the baseline diagonal order restricted to the band; the
/// point of this variant is the `Θ(M²·N·w)` footprint, not peak FLOPS.
pub fn solve_windowed(ctx: &Ctx, w: usize) -> WindowedTable {
    solve_windowed_watched(ctx, w, &Watch::none())
        .expect("unsupervised solve cannot be interrupted") // lint: allow(expect): Watch::none() can never interrupt
}

/// [`solve_windowed`] under supervision: one checkpoint per `(d1, d2)`
/// diagonal pair. This is the degraded path of a memory-budgeted solve, so
/// it honours the same cancellation token and deadline as the exact path
/// it stands in for.
pub(crate) fn solve_windowed_watched(
    ctx: &Ctx,
    w: usize,
    watch: &Watch,
) -> Result<WindowedTable, Interrupt> {
    assert!(w >= 1, "window width must be at least 1");
    let m = ctx.m();
    let n = ctx.n();
    let w = w.min(n.max(1));
    let band_len = if n == 0 {
        0
    } else {
        let full_rows = n.saturating_sub(w - 1);
        full_rows * w + (full_rows..n).map(|r| n - r).sum::<usize>()
    };
    let mut t = WindowedTable {
        m,
        n,
        w,
        blocks: (0..m * (m + 1) / 2)
            .map(|_| vec![f32::NEG_INFINITY; band_len])
            .collect(),
        band_len,
    };
    for d1 in 0..m {
        for d2 in 0..w.min(n) {
            watch.check()?;
            for i1 in 0..m - d1 {
                let j1 = i1 + d1;
                for i2 in 0..n - d2 {
                    let j2 = i2 + d2;
                    let v = cell(ctx, &t, i1, j1, i2, j2);
                    t.set(i1, j1, i2, j2, v);
                }
            }
        }
    }
    Ok(t)
}

/// Bytes of cell storage a banded table of shape `m × n` at width `w`
/// would allocate, without allocating it (`u128`: immune to overflow even
/// at absurd shapes).
pub fn windowed_bytes(m: usize, n: usize, w: usize) -> u128 {
    if n == 0 {
        return 0;
    }
    let w = w.min(n) as u128;
    let n = n as u128;
    let full_rows = n.saturating_sub(w - 1);
    let tail = n - full_rows; // rows shorter than w at the strand end
    let band_len = full_rows * w + tail * (tail + 1) / 2;
    let outer = m as u128 * (m as u128 + 1) / 2;
    outer * band_len * std::mem::size_of::<f32>() as u128
}

/// The widest window `w ∈ [1, n]` whose banded table fits in
/// `budget_bytes` — `None` when not even `w = 1` fits. Binary search over
/// the monotone [`windowed_bytes`]; this is how a memory-budgeted solve
/// picks its degraded shape.
pub fn max_window_within(m: usize, n: usize, budget_bytes: u64) -> Option<usize> {
    if m == 0 || n == 0 {
        // degenerate problems store nothing; any window "fits"
        return Some(n.max(1));
    }
    let fits = |w: usize| windowed_bytes(m, n, w) <= u128::from(budget_bytes);
    if !fits(1) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// One banded cell — identical math to `baseline::cell`, reading only
/// in-band entries (every referenced strand-2 interval is a sub-interval,
/// hence in-band).
fn cell(ctx: &Ctx, f: &WindowedTable, i1: usize, j1: usize, i2: usize, j2: usize) -> f32 {
    let mut best = ctx.terms().s1v(i1, j1) + ctx.terms().s2v(i2, j2);
    if i1 == j1 && i2 == j2 {
        let wi = ctx.terms().wi(i1, i2);
        if wi != ScoringModel::NO_PAIR {
            best = best.max(wi);
        }
    }
    for k1 in i1..j1 {
        for k2 in i2..j2 {
            best = best.max(f.get(i1, k1, i2, k2) + f.get(k1 + 1, j1, k2 + 1, j2));
        }
    }
    for k2 in i2..j2 {
        best = best.max(ctx.terms().s2v(i2, k2) + f.get(i1, j1, k2 + 1, j2));
        best = best.max(f.get(i1, j1, i2, k2) + ctx.terms().s2v(k2 + 1, j2));
    }
    for k1 in i1..j1 {
        best = best.max(ctx.terms().s1v(i1, k1) + f.get(k1 + 1, j1, i2, j2));
        best = best.max(f.get(i1, k1, i2, j2) + ctx.terms().s1v(k1 + 1, j1));
    }
    if j1 > i1 {
        let w1 = ctx.terms().w1(i1, j1);
        if w1 != ScoringModel::NO_PAIR {
            let inner = if j1 - i1 >= 2 {
                f.get(i1 + 1, j1 - 1, i2, j2)
            } else {
                ctx.terms().s2v(i2, j2)
            };
            best = best.max(inner + w1);
        }
    }
    if j2 > i2 {
        let w2 = ctx.terms().w2(i2, j2);
        if w2 != ScoringModel::NO_PAIR {
            let inner = if j2 - i2 >= 2 {
                f.get(i1, j1, i2 + 1, j2 - 1)
            } else {
                ctx.terms().s1v(i1, j1)
            };
            best = best.max(inner + w2);
        }
    }
    best
}

/// Convenience: scan strand 2 with strand 1 at window width `w`, returning
/// `(window_start, score)` sorted by descending score.
pub fn scan_ranked(ctx: &Ctx, w: usize) -> Vec<(usize, f32)> {
    let t = solve_windowed(ctx, w);
    let mut out: Vec<(usize, f32)> = t.window_scores().into_iter().enumerate().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, BpMaxProblem, SolveOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rna::RnaSeq;

    fn ctx(a: &str, b: &str) -> Ctx {
        Ctx::new(
            a.parse().unwrap(),
            b.parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    #[test]
    fn banded_cells_equal_full_table() {
        let mut rng = StdRng::seed_from_u64(77);
        let model = ScoringModel::bpmax_default();
        for _ in 0..5 {
            let s1 = RnaSeq::random(&mut rng, 5);
            let s2 = RnaSeq::random(&mut rng, 8);
            let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
            let full = p
                .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
                .unwrap()
                .into_ftable();
            let c = Ctx::new(s1.clone(), s2.clone(), model.clone());
            for w in [1usize, 3, 8] {
                let banded = solve_windowed(&c, w);
                for i1 in 0..5 {
                    for j1 in i1..5 {
                        for i2 in 0..8 {
                            for j2 in i2..(i2 + w).min(8) {
                                assert_eq!(
                                    banded.get(i1, j1, i2, j2),
                                    full.get(i1, j1, i2, j2),
                                    "{s1}/{s2} w={w} [{i1},{j1},{i2},{j2}]"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn full_width_window_recovers_global_score() {
        let c = ctx("GGGAAACCC", "UUUCC");
        let t = solve_windowed(&c, 5);
        let p = BpMaxProblem::new(c.s1.clone(), c.s2.clone(), ScoringModel::bpmax_default());
        let want = p
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
            .unwrap()
            .score();
        assert_eq!(t.get(0, 8, 0, 4), want);
    }

    #[test]
    fn window_scores_align_with_windows() {
        // strand2 = CCCUUUUU; strand1 = GGG. Window w=3: the CCC window
        // (start 0) scores 9, late windows (UUU) score 3 (G–U wobbles).
        let c = ctx("GGG", "CCCUUUUU");
        let t = solve_windowed(&c, 3);
        let scores = t.window_scores();
        assert_eq!(scores.len(), 8);
        assert_eq!(scores[0], 9.0);
        assert!(scores[5] <= 3.0);
        let ranked = scan_ranked(&c, 3);
        assert_eq!(ranked[0].0, 0);
    }

    #[test]
    fn banded_storage_is_smaller() {
        let c = ctx("GGGAAACC", "GGGAAACCCGGGAAACCC");
        let t = solve_windowed(&c, 4);
        let full = crate::ftable::FTable::new(8, 18, crate::ftable::Layout::Packed);
        assert!(t.storage_bytes() < full.storage_bytes() / 2);
    }

    #[test]
    fn width_one_band() {
        let c = ctx("GC", "CG");
        let t = solve_windowed(&c, 1);
        // F[0,1,0,0]: GC vs C — best single pair G–C inter (3) or intra GC
        // (3, leaving C unpaired) = 3.
        assert_eq!(t.get(0, 1, 0, 0), 3.0);
        assert_eq!(t.window_scores().len(), 2);
    }

    #[test]
    fn empty_strands() {
        let c = ctx("", "");
        let t = solve_windowed(&c, 4);
        assert!(t.window_scores().is_empty());
    }

    #[test]
    fn windowed_bytes_matches_real_allocation() {
        let c = ctx("GGGAAACC", "GGGAAACCCGGGAAACCC");
        for w in [1usize, 4, 17, 18, 30] {
            let t = solve_windowed(&c, w);
            assert_eq!(windowed_bytes(8, 18, w), t.storage_bytes() as u128, "w={w}");
        }
        assert_eq!(windowed_bytes(8, 0, 4), 0);
    }

    #[test]
    fn max_window_within_is_tight() {
        let (m, n) = (8usize, 18usize);
        for budget in [0u64, 100, 1000, 10_000, u64::MAX] {
            match max_window_within(m, n, budget) {
                Some(w) => {
                    assert!(windowed_bytes(m, n, w) <= u128::from(budget), "w={w}");
                    if w < n {
                        assert!(
                            windowed_bytes(m, n, w + 1) > u128::from(budget),
                            "w={w} not maximal for {budget}"
                        );
                    }
                }
                None => assert!(windowed_bytes(m, n, 1) > u128::from(budget)),
            }
        }
        assert_eq!(max_window_within(m, n, u64::MAX), Some(n));
        assert_eq!(max_window_within(m, n, 0), None);
        assert_eq!(max_window_within(0, 5, 0), Some(5));
    }
}
