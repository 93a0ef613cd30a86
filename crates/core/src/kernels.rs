//! Per-triangle compute kernels — the materialization of the paper's
//! schedules.
//!
//! Every optimized `BPMax` version factors into two phases per outer cell
//! `(i1, j1)` (one *inner triangle* of the F-table):
//!
//! **Phase A — accumulate `R0`, `R3`, `R4`** ([`accumulate_r034_serial`]):
//! for each split point `k1 ∈ [i1, j1)`, combine triangles
//! `A = F(i1, k1)` and `B = F(k1+1, j1)`:
//!
//! * `R0`: `acc[i2][j2] ⊕= A[i2][k2] + B[k2+1][j2]` over all `k2` — one
//!   *matrix instance of max-plus operation* (paper Fig 8). Four loop
//!   orders are provided: `naive` (`k2` innermost — the unvectorizable
//!   baseline order), `permuted` (`j2` innermost — streams, vectorizes),
//!   `tiled` (`(i2 × k2)` tiles, `j2` untiled — Phase III's winner), and
//!   `simd` (`k2` unrolled 4× — the paper's register-tiling future work).
//! * `R3`: `acc ⊕= S1(i1, k1) + B` — a whole-block axpy.
//! * `R4`: `acc ⊕= A + S1(k1+1, j1)` — likewise. ("R3 and R4 are almost
//!   free since those get computed along with the R0.")
//!
//! **Phase B — finalize** (`finalize_triangle`): walk rows `i2` from the
//! bottom up (descending index, the `-i2` schedule dimension) and, within a
//! row, columns left to right; at `(i2, k2)` the cell's final value is
//! fixed (max of the accumulator, `S1+S2`, both pair-closing terms, and
//! the 1×1 `iscore` case), then its `R1`/`R2` contributions are pushed to
//! the longer intervals of the same row as two streaming axpys — exactly
//! the paper's "we ensure that F-table gets updated when k2 reaches j2"
//! interleave that keeps `R1`/`R2` vectorizable despite their reduction.

use crate::ftable::FTable;
use rna::nussinov::{Fold, Nussinov};
use rna::{RnaSeq, ScoringModel};
use tropical::scalar::mp_axpy;
use tropical::simd::mp_axpy4;

/// Shared per-problem context: sequences, model, `S⁽¹⁾`/`S⁽²⁾` tables and
/// pre-evaluated pair-weight tables.
pub struct Ctx {
    /// Strand 1.
    pub s1: RnaSeq,
    /// Strand 2.
    pub s2: RnaSeq,
    /// The scoring model.
    pub model: ScoringModel,
    /// Nussinov fold of strand 1 (the `S⁽¹⁾` table).
    pub fold1: Fold,
    /// Nussinov fold of strand 2 (the `S⁽²⁾` table).
    pub fold2: Fold,
    /// `w1[i1·M + j1]`: positional intramolecular weight in strand 1
    /// (`-∞` when the pair is illegal).
    w1: Vec<f32>,
    /// `w2[i2·N + j2]`: likewise for strand 2.
    w2: Vec<f32>,
    /// `wi[i1·N + i2]`: intermolecular weight.
    wi: Vec<f32>,
}

impl Ctx {
    /// Build the context (runs both Nussinov folds).
    pub fn new(s1: RnaSeq, s2: RnaSeq, model: ScoringModel) -> Self {
        let fold1 = Nussinov::fold(&s1, &model);
        let fold2 = Nussinov::fold(&s2, &model);
        let m = s1.len();
        let n = s2.len();
        let mut w1 = vec![ScoringModel::NO_PAIR; m * m];
        for i in 0..m {
            for j in i + 1..m {
                w1[i * m + j] = model.intra_pos(i, j, s1[i], s1[j]);
            }
        }
        let mut w2 = vec![ScoringModel::NO_PAIR; n * n];
        for i in 0..n {
            for j in i + 1..n {
                w2[i * n + j] = model.intra_pos(i, j, s2[i], s2[j]);
            }
        }
        let mut wi = vec![ScoringModel::NO_PAIR; m * n];
        for i in 0..m {
            for j in 0..n {
                wi[i * n + j] = model.inter(s1[i], s2[j]);
            }
        }
        Ctx {
            s1,
            s2,
            model,
            fold1,
            fold2,
            w1,
            w2,
            wi,
        }
    }

    /// Strand-1 length.
    #[inline(always)]
    pub fn m(&self) -> usize {
        self.s1.len()
    }

    /// Strand-2 length.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.s2.len()
    }

    /// `S⁽¹⁾(i1, j1)` with the empty convention (`0` when `j1 < i1`).
    #[inline(always)]
    pub fn s1v(&self, i1: usize, j1: usize) -> f32 {
        if j1 < i1 {
            0.0
        } else {
            self.fold1.score(i1, j1)
        }
    }

    /// `S⁽²⁾(i2, j2)` with the empty convention.
    #[inline(always)]
    pub fn s2v(&self, i2: usize, j2: usize) -> f32 {
        if j2 < i2 {
            0.0
        } else {
            self.fold2.score(i2, j2)
        }
    }

    /// Intramolecular pair weight in strand 1 (positional, `-∞` = illegal).
    #[inline(always)]
    pub fn w1(&self, i1: usize, j1: usize) -> f32 {
        self.w1[i1 * self.m() + j1]
    }

    /// Intramolecular pair weight in strand 2.
    #[inline(always)]
    pub fn w2(&self, i2: usize, j2: usize) -> f32 {
        self.w2[i2 * self.n() + j2]
    }

    /// Intermolecular pair weight.
    #[inline(always)]
    pub fn wi(&self, i1: usize, i2: usize) -> f32 {
        self.wi[i1 * self.n() + i2]
    }
}

/// Tile shape `(i2 × k2 × j2)` for the tiled double max-plus
/// (`usize::MAX` = untiled dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Rows of the accumulator triangle per tile.
    pub i2: usize,
    /// Split points per tile.
    pub k2: usize,
    /// Columns per tile (`usize::MAX` keeps the streaming loop full-width —
    /// "we observe the best result when j2 is not tiled").
    pub j2: usize,
}

impl Default for Tile {
    /// The paper's generic shape `64 × 16 × N`.
    fn default() -> Self {
        Tile::DEFAULT
    }
}

impl Tile {
    /// The paper's generic shape `64 × 16 × N`, as a `const` so it can sit
    /// inside [`crate::Algorithm::ALL`].
    pub const DEFAULT: Tile = Tile {
        i2: 64,
        k2: 16,
        j2: usize::MAX,
    };

    /// A tile is usable iff every dimension is nonzero (a zero dimension
    /// would make the tiled loops never advance).
    pub fn validate(self) -> Result<(), crate::error::BpMaxError> {
        if self.i2 == 0 || self.k2 == 0 || self.j2 == 0 {
            Err(crate::error::BpMaxError::BadTile { tile: self })
        } else {
            Ok(())
        }
    }

    /// The paper's small-sequence shape `32 × 4 × N` ("restricted for
    /// sequence length up to 2048").
    pub fn small() -> Self {
        Tile {
            i2: 32,
            k2: 4,
            j2: usize::MAX,
        }
    }

    /// A cubic tile `t × t × t` (shown to perform poorly — Fig 18).
    pub fn cubic(t: usize) -> Self {
        Tile {
            i2: t,
            k2: t,
            j2: t,
        }
    }
}

// ---------------------------------------------------------------------
// R0: one matrix instance  acc ⊕= A ⊗ B  over triangles
// ---------------------------------------------------------------------

/// Always-on check that every block slice is as long as the layout's
/// storage for an `n × n` triangle — the *one* runtime precondition of
/// the kernels. It is asserted unconditionally at the public compute
/// entry boundary (each `r0_instance_*`, [`accumulate_r034_serial`],
/// [`finalize_triangle`]) and nowhere in the interior: the hot loops
/// index blocks through `FTable::inner`/`row_of` with Rust's slice
/// checks, and the [`crate::bounds`] certificates *plus* this entry
/// assertion prove that none of those checks can panic. The check is
/// `O(#blocks)` per call — noise against the `O(n²)`..`O(n³)` work
/// behind it.
#[inline]
fn assert_block_shapes(ft: &FTable, blocks: &[&[f32]]) {
    let need = ft.layout().storage_len(ft.n());
    for (idx, blk) in blocks.iter().enumerate() {
        assert!(
            blk.len() >= need,
            "block {idx} has {} elements, layout needs {need}",
            blk.len()
        );
    }
}

/// `R0` matrix instance, **naive** order: `(i2, j2, k2)` with the reduction
/// innermost — a dot product per cell, strided reads of `B`, no
/// vectorization. This is the loop order the original `BPMax` uses.
pub fn r0_instance_naive(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    for i2 in 0..n {
        let arow = ft.row_of(a, i2);
        let crow = ft.row_of_mut(acc, i2);
        for j2 in i2 + 1..n {
            let mut best = crow[j2 - i2];
            for k2 in i2..j2 {
                // B[k2+1][j2]: strided column access
                let bv = b[ft.inner(k2 + 1, j2)];
                best = best.max(arow[k2 - i2] + bv);
            }
            crow[j2 - i2] = best;
        }
    }
}

/// `R0` matrix instance, **permuted** order: `(i2, k2, j2)` with the
/// streaming column loop innermost — each `(i2, k2)` step is one
/// [`mp_axpy`] from a contiguous `B` row into a contiguous `acc` row
/// segment. This is the Phase I loop permutation that unlocks
/// auto-vectorization.
pub fn r0_instance_permuted(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    for i2 in 0..n {
        let arow = ft.row_of(a, i2);
        let crow = ft.row_of_mut(acc, i2);
        for k2 in i2..n.saturating_sub(1) {
            let av = arow[k2 - i2];
            if av == f32::NEG_INFINITY {
                continue;
            }
            let brow = ft.row_of(b, k2 + 1);
            mp_axpy(av, brow, &mut crow[k2 + 1 - i2..]);
        }
    }
}

/// `R0` matrix instance, **tiled** order: `(i2, k2)` tiles with `j2`
/// chunks (untiled by default) — Phase III's locality transformation,
/// keeping the `B` row panel and `acc` row band in cache across `k2`
/// steps.
pub fn r0_instance_tiled(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32], t: Tile) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    if n < 2 {
        return;
    }
    for (i2lo, i2hi) in polyhedral::tiling::tile_ranges(0, n, t.i2.max(1)) {
        r0_row_band_tiled(ft, a, b, acc, i2lo, i2hi, t);
    }
}

/// The `[i2lo, i2hi)` row band of the tiled `R0` instance — the unit the
/// paper's fine-grain parallelism distributes ("we parallelize the outer
/// i2 dimension" of the tiled space).
fn r0_row_band_tiled(
    ft: &FTable,
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    i2lo: usize,
    i2hi: usize,
    t: Tile,
) {
    let n = ft.n();
    debug_assert!(
        i2lo <= i2hi && i2hi <= n,
        "row band [{i2lo}, {i2hi}) outside triangle of {n} rows"
    );
    for (k2lo, k2hi) in polyhedral::tiling::tile_ranges(i2lo, n - 1, t.k2.max(1)) {
        for (j2lo, j2hi) in polyhedral::tiling::tile_ranges(k2lo + 1, n, t.j2.max(1)) {
            for i2 in i2lo..i2hi {
                let arow = ft.row_of(a, i2);
                // Row borrow re-derived per i2: rows of `acc` are disjoint.
                let rs = ft.inner_row_start(i2);
                let crow = &mut acc[rs..rs + (n - i2)];
                for k2 in k2lo.max(i2)..k2hi {
                    let lo = j2lo.max(k2 + 1);
                    if lo >= j2hi {
                        continue;
                    }
                    let av = arow[k2 - i2];
                    if av == f32::NEG_INFINITY {
                        continue;
                    }
                    let brow = ft.row_of(b, k2 + 1);
                    mp_axpy(
                        av,
                        &brow[lo - (k2 + 1)..j2hi - (k2 + 1)],
                        &mut crow[lo - i2..j2hi - i2],
                    );
                }
            }
        }
    }
}

/// `R0` matrix instance with **register-level tiling** — the paper's
/// future-work item ("an additional level of tiling at the register level
/// is required to make the program compute-bound").
///
/// The streaming update reads and writes the `acc` row once per `k2` step
/// (arithmetic intensity 1/6). Unrolling the `k2` loop by 4 keeps the
/// `acc` vector register live across four fused updates, quartering its
/// traffic: per 8 FLOPs the loop now moves four `B` loads + one `acc`
/// load + one store ≈ 24 B / 8 FLOP → intensity 1/3. The shared-range
/// body runs through the fused [`mp_axpy4`] and the streaming tail
/// through [`mp_axpy`], both joining with the one-instruction
/// compare-select. This is the kernel [`R0Order::SimdReg`] selects, and
/// the one the default program version ([`crate::Algorithm::HybridReg`])
/// runs.
pub fn r0_instance_simd(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    if n < 2 {
        return;
    }
    for i2 in 0..n {
        let arow = ft.row_of(a, i2);
        let rs = ft.inner_row_start(i2);
        let crow = &mut acc[rs..rs + (n - i2)];
        r0_row_simd(ft, arow, b, crow, i2);
    }
}

/// One row of the register-tiled `R0` instance.
///
/// Four consecutive `k2` values form a group: the ragged head (columns
/// `j2 ∈ (k2, k2+4)`, reachable only by the group's earlier lanes) takes
/// at most 3 scalar updates, and the shared range `[k2+4, n)` is one
/// [`mp_axpy4`] over the four `B`-row tails (`B` row `r` covers columns
/// `[r, n)`, so lane `l`'s slice starts at offset `3 − l`); the `< 4`
/// remainder `k2` values stream through [`mp_axpy`]. Bit-identical to
/// every other order: the per-element expressions are the sequential
/// `mp_axpy` updates. The three phases' accesses are certified by
/// `bounds::r0_row_simd/{head,body,tail}`.
// Always inlined, so LLVM inlines this row into `r0_instance_simd` before
// it inlines `mp_axpy4` here. With `mp_axpy4` inlined into the row first
// (its only caller in this crate), `r0_instance_simd` compiled to code
// that ran about 10% slower per instance.
#[inline(always)]
pub(crate) fn r0_row_simd(ft: &FTable, arow: &[f32], b: &[f32], crow: &mut [f32], i2: usize) {
    let n = ft.n();
    debug_assert!(i2 < n, "row {i2} outside triangle of {n} rows");
    debug_assert!(
        arow.len() >= n - i2 && crow.len() >= n - i2,
        "row slices shorter than the {} remaining columns of row {i2}",
        n - i2
    );
    let mut k2 = i2;
    while k2 + 4 <= n.saturating_sub(1) {
        let av = [
            arow[k2 - i2],
            arow[k2 + 1 - i2],
            arow[k2 + 2 - i2],
            arow[k2 + 3 - i2],
        ];
        let b0 = ft.row_of(b, k2 + 1);
        let b1 = ft.row_of(b, k2 + 2);
        let b2 = ft.row_of(b, k2 + 3);
        let b3 = ft.row_of(b, k2 + 4);
        // Head: columns j2 in (k2, k2+4) are only reachable by the
        // earlier k2 values of this group — at most 3 scalar updates.
        for (lane, brow) in [b0, b1, b2].iter().enumerate() {
            let kk = k2 + lane;
            let hi = (k2 + 4).min(n);
            for j2 in kk + 1..hi {
                crow[j2 - i2] = (av[lane] + brow[j2 - (kk + 1)]).max(crow[j2 - i2]);
            }
        }
        // Body: the shared range [k2+4, n) as one fused 4-stream pass
        // (all five slices have length n - (k2+4), asserted by mp_axpy4).
        let lo = k2 + 4;
        mp_axpy4(av, [&b0[3..], &b1[2..], &b2[1..], b3], &mut crow[lo - i2..]);
        k2 += 4;
    }
    // Remainder k2 values: single-stream updates.
    while k2 < n.saturating_sub(1) {
        let av = arow[k2 - i2];
        if av != f32::NEG_INFINITY {
            let brow = ft.row_of(b, k2 + 1);
            mp_axpy(av, brow, &mut crow[k2 + 1 - i2..]);
        }
        k2 += 1;
    }
}

// ---------------------------------------------------------------------
// R3 / R4: whole-block axpys that ride along with R0
// ---------------------------------------------------------------------

/// `R3` contribution of split `k1`: `acc ⊕= S1(i1, k1) + B` over the whole
/// block. Slack cells of bounding-box layouts hold `-∞` in `B`, making the
/// update a no-op there.
pub fn r3_block(s1_ik1: f32, b: &[f32], acc: &mut [f32]) {
    if s1_ik1 == f32::NEG_INFINITY {
        return;
    }
    mp_axpy(s1_ik1, b, acc);
}

/// `R4` contribution of split `k1`: `acc ⊕= A + S1(k1+1, j1)`.
pub fn r4_block(s1_k1p1j: f32, a: &[f32], acc: &mut [f32]) {
    if s1_k1p1j == f32::NEG_INFINITY {
        return;
    }
    mp_axpy(s1_k1p1j, a, acc);
}

// ---------------------------------------------------------------------
// Phase A drivers
// ---------------------------------------------------------------------

/// Which loop order Phase A uses for the `R0` matrix instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum R0Order {
    /// Reduction innermost (baseline order).
    Naive,
    /// Streaming `j2` innermost (Phase I permutation).
    Permuted,
    /// Tiled `(i2 × k2 × j2)` (Phase III).
    Tiled(Tile),
    /// Register-level `k2`-unrolled streaming (the paper's future work)
    /// through the kernels of [`tropical::simd`], joined with the
    /// one-instruction compare-select — the order `hybrid+reg` runs.
    SimdReg,
}

/// Serial Phase A for triangle `(i1, j1)`: accumulate `R0` (in `order`),
/// `R3` and `R4` into `acc` across all splits `k1`.
pub fn accumulate_r034_serial(
    ctx: &Ctx,
    ft: &FTable,
    i1: usize,
    j1: usize,
    acc: &mut [f32],
    order: R0Order,
) {
    assert!(
        i1 <= j1 && j1 < ctx.m(),
        "outer cell ({i1}, {j1}) outside the {0}×{0} upper triangle",
        ctx.m()
    );
    assert_block_shapes(ft, &[acc]);
    for k1 in i1..j1 {
        let a = ft.block(i1, k1);
        let b = ft.block(k1 + 1, j1);
        match order {
            R0Order::Naive => r0_instance_naive(ft, a, b, acc),
            R0Order::Permuted => r0_instance_permuted(ft, a, b, acc),
            R0Order::Tiled(t) => r0_instance_tiled(ft, a, b, acc, t),
            R0Order::SimdReg => r0_instance_simd(ft, a, b, acc),
        }
        r3_block(ctx.s1v(i1, k1), b, acc);
        r4_block(ctx.s1v(k1 + 1, j1), a, acc);
    }
}

// ---------------------------------------------------------------------
// Phase B: finalization (F + R1 + R2)
// ---------------------------------------------------------------------

/// Finalize triangle `(i1, j1)`: combine the Phase-A accumulator with the
/// remaining recurrence terms and resolve `R1`/`R2` by the bottom-up,
/// left-to-right interleave. On return, `acc` holds final `F` values.
///
/// `prev` is the block of `(i1+1, j1−1)` when `j1 ≥ i1+2` (the pair-1
/// term's source); for `j1 = i1+1` the term degenerates to `S⁽²⁾`.
pub fn finalize_triangle(
    ctx: &Ctx,
    i1: usize,
    j1: usize,
    ft: &FTable,
    prev: Option<&[f32]>,
    acc: &mut [f32],
) {
    let n = ft.n();
    debug_assert!(
        i1 <= j1 && j1 < ctx.m(),
        "outer cell ({i1}, {j1}) outside the {0}×{0} upper triangle",
        ctx.m()
    );
    debug_assert!(
        prev.is_some() == (j1 >= i1 + 2),
        "prev block must be supplied exactly when (i1+1, j1-1) is a real cell"
    );
    assert_block_shapes(ft, &[acc]);
    if let Some(p) = prev {
        assert_block_shapes(ft, &[p]);
    }
    let s1ij = ctx.s1v(i1, j1);
    let w1 = if j1 > i1 {
        ctx.w1(i1, j1)
    } else {
        ScoringModel::NO_PAIR
    };
    for i2 in (0..n).rev() {
        let rs_i2 = ft.inner_row_start(i2);
        for k2 in i2..n {
            // --- finalize F[i1, j1, i2, k2] ---
            let idx = ft.inner(i2, k2);
            let mut val = acc[idx];
            val = val.max(s1ij + ctx.s2v(i2, k2));
            // pair i2–k2 (strand-2 closing)
            let w2 = if k2 > i2 {
                ctx.w2(i2, k2)
            } else {
                ScoringModel::NO_PAIR
            };
            if w2 != ScoringModel::NO_PAIR {
                let inner = if k2 >= i2 + 2 {
                    acc[ft.inner(i2 + 1, k2 - 1)] // row i2+1 already final
                } else {
                    s1ij // empty strand-2 interval ⇒ F = S1
                };
                val = val.max(inner + w2);
            }
            // pair i1–j1 (strand-1 closing)
            if w1 != ScoringModel::NO_PAIR {
                let inner = match prev {
                    Some(p) => p[ft.inner(i2, k2)],
                    None => ctx.s2v(i2, k2), // empty strand-1 interval
                };
                val = val.max(inner + w1);
            }
            // 1×1 box: the intermolecular pair
            if i1 == j1 && i2 == k2 {
                let wi = ctx.wi(i1, i2);
                if wi != ScoringModel::NO_PAIR {
                    val = val.max(wi);
                }
            }
            acc[idx] = val;
            // --- propagate R1 / R2 to longer intervals of row i2 ---
            if k2 + 1 >= n {
                continue;
            }
            let rs_next = ft.inner_row_start(k2 + 1);
            let (lo_part, hi_part) = acc.split_at_mut(rs_next);
            let frow_next = &hi_part[..n - (k2 + 1)]; // final row k2+1
            let row_i2 = &mut lo_part[rs_i2..rs_i2 + (n - i2)];
            let dst = &mut row_i2[k2 + 1 - i2..];
            // R1: S2(i2, k2) + F[i1, j1, k2+1, j2]
            let s2ik = ctx.s2v(i2, k2);
            mp_axpy(s2ik, frow_next, dst);
            // R2: F[i1, j1, i2, k2] + S2(k2+1, j2)
            let s2row = ctx.fold2.table().row(k2 + 1);
            mp_axpy(val, s2row, dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftable::Layout;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx(a: &str, b: &str) -> Ctx {
        Ctx::new(
            a.parse().unwrap(),
            b.parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    /// Random triangle block over the given layout, slack cells -inf.
    fn random_block(ft: &FTable, rng: &mut StdRng) -> Vec<f32> {
        let mut block = vec![f32::NEG_INFINITY; ft.layout().storage_len(ft.n())];
        for i2 in 0..ft.n() {
            for j2 in i2..ft.n() {
                block[ft.inner(i2, j2)] = rng.gen_range(-8..8) as f32;
            }
        }
        block
    }

    #[test]
    fn r0_orders_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in [1usize, 2, 3, 5, 8, 9, 13, 16, 23] {
                let ft = FTable::new(2, n, layout);
                let a = random_block(&ft, &mut rng);
                let b = random_block(&ft, &mut rng);
                let mut c1 = random_block(&ft, &mut rng);
                let mut c2 = c1.clone();
                let mut c3 = c1.clone();
                let mut c4 = c1.clone();
                let mut c5 = c1.clone();
                r0_instance_naive(&ft, &a, &b, &mut c1);
                r0_instance_permuted(&ft, &a, &b, &mut c2);
                r0_instance_tiled(&ft, &a, &b, &mut c3, Tile::default());
                r0_instance_tiled(&ft, &a, &b, &mut c4, Tile::cubic(3));
                r0_instance_tiled(&ft, &a, &b, &mut c5, Tile::small());
                for i2 in 0..n {
                    for j2 in i2..n {
                        let k = ft.inner(i2, j2);
                        assert_eq!(c1[k], c2[k], "{layout:?} n={n} permuted ({i2},{j2})");
                        assert_eq!(c1[k], c3[k], "{layout:?} n={n} tiled ({i2},{j2})");
                        assert_eq!(c1[k], c4[k], "{layout:?} n={n} cubic ({i2},{j2})");
                        assert_eq!(c1[k], c5[k], "{layout:?} n={n} small ({i2},{j2})");
                    }
                }
            }
        }
    }

    #[test]
    fn simd_r0_agrees_with_naive() {
        let mut rng = StdRng::seed_from_u64(33);
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in [1usize, 2, 4, 5, 7, 11, 16, 23] {
                let ft = FTable::new(2, n, layout);
                let a = random_block(&ft, &mut rng);
                let b = random_block(&ft, &mut rng);
                let mut c1 = random_block(&ft, &mut rng);
                let mut c2 = c1.clone();
                r0_instance_naive(&ft, &a, &b, &mut c1);
                r0_instance_simd(&ft, &a, &b, &mut c2);
                for i2 in 0..n {
                    for j2 in i2..n {
                        let k = ft.inner(i2, j2);
                        assert_eq!(
                            c1[k].to_bits(),
                            c2[k].to_bits(),
                            "{layout:?} n={n} ({i2},{j2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn r0_matches_direct_definition() {
        // acc'[i2][j2] = max(acc, max_{k2 in [i2, j2)} a[i2][k2] + b[k2+1][j2])
        let mut rng = StdRng::seed_from_u64(9);
        let ft = FTable::new(2, 7, Layout::Packed);
        let a = random_block(&ft, &mut rng);
        let b = random_block(&ft, &mut rng);
        let mut acc = random_block(&ft, &mut rng);
        let orig = acc.clone();
        r0_instance_permuted(&ft, &a, &b, &mut acc);
        for i2 in 0..7 {
            for j2 in i2..7 {
                let mut expect = orig[ft.inner(i2, j2)];
                for k2 in i2..j2 {
                    expect = expect.max(a[ft.inner(i2, k2)] + b[ft.inner(k2 + 1, j2)]);
                }
                assert_eq!(acc[ft.inner(i2, j2)], expect, "({i2},{j2})");
            }
        }
    }

    #[test]
    fn r3_r4_match_direct_definition() {
        let mut rng = StdRng::seed_from_u64(4);
        let ft = FTable::new(2, 6, Layout::Packed);
        let b = random_block(&ft, &mut rng);
        let mut acc = random_block(&ft, &mut rng);
        let orig = acc.clone();
        r3_block(2.5, &b, &mut acc);
        for i2 in 0..6 {
            for j2 in i2..6 {
                let k = ft.inner(i2, j2);
                assert_eq!(acc[k], orig[k].max(2.5 + b[k]));
            }
        }
        // neg-inf scalar is a no-op
        let before = acc.clone();
        r4_block(f32::NEG_INFINITY, &b, &mut acc);
        assert_eq!(acc, before);
    }

    #[test]
    fn finalize_smallest_triangles() {
        // Single-base strands: F = max(iscore, 0) — exercised through the
        // full finalize path with an all--inf accumulator.
        let c = ctx("G", "C");
        let ft = FTable::new(1, 1, Layout::Packed);
        let mut acc = vec![f32::NEG_INFINITY; 1];
        finalize_triangle(&c, 0, 0, &ft, None, &mut acc);
        assert_eq!(acc[0], 3.0); // G–C inter pair
        let c = ctx("A", "C");
        let mut acc = vec![f32::NEG_INFINITY; 1];
        finalize_triangle(&c, 0, 0, &ft, None, &mut acc);
        assert_eq!(acc[0], 0.0); // no pair, empty structure
    }

    #[test]
    fn tile_constructors() {
        assert_eq!(
            Tile::cubic(8),
            Tile {
                i2: 8,
                k2: 8,
                j2: 8
            }
        );
        assert_eq!(Tile::default().j2, usize::MAX);
        assert_eq!(Tile::small().i2, 32);
    }
}
