//! Per-triangle compute kernels — the materialization of the paper's
//! schedules.
//!
//! Every optimized `BPMax` version factors into two phases per outer cell
//! `(i1, j1)` (one *inner triangle* of the F-table):
//!
//! **Phase A — accumulate `R0`, `R3`, `R4`** (`accumulate_r034_*`):
//! for each split point `k1 ∈ [i1, j1)`, combine triangles
//! `A = F(i1, k1)` and `B = F(k1+1, j1)`:
//!
//! * `R0`: `acc[i2][j2] ⊕= A[i2][k2] + B[k2+1][j2]` over all `k2` — one
//!   *matrix instance of max-plus operation* (paper Fig 8). Four loop
//!   orders are provided: `naive` (`k2` innermost — the unvectorizable
//!   baseline order), `permuted` (`j2` innermost — streams, vectorizes),
//!   `tiled` (`(i2 × k2)` tiles, `j2` untiled — Phase III's winner), and
//!   `reg` (`k2` unrolled 4× — the paper's register-tiling future work).
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
/// entry boundary (each `r0_instance_*`, `accumulate_r034_*`,
/// [`finalize_triangle`]) and nowhere in the interior: the hot loops
/// index blocks through `FTable::inner`/`row_of` without per-access
/// bounds reasoning, and the certified-unchecked fast path drops the
/// slice checks entirely, justified by the [`crate::bounds`]
/// certificates *plus* this entry assertion. The check is `O(#blocks)`
/// per call — noise against the `O(n²)`..`O(n³)` work behind it.
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
/// load + one store ≈ 24 B / 8 FLOP → intensity 1/3. The epilogue handles
/// the `< 4` remainder and the ragged triangle heads.
pub fn r0_instance_reg(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    if n < 2 {
        return;
    }
    for i2 in 0..n {
        let arow = ft.row_of(a, i2);
        let rs = ft.inner_row_start(i2);
        let crow = &mut acc[rs..rs + (n - i2)];
        r0_row_reg(ft, arow, b, crow, i2);
    }
}

/// One row of the register-unrolled `R0` instance.
pub(crate) fn r0_row_reg(ft: &FTable, arow: &[f32], b: &[f32], crow: &mut [f32], i2: usize) {
    let n = ft.n();
    debug_assert!(i2 < n, "row {i2} outside triangle of {n} rows");
    debug_assert!(
        arow.len() >= n - i2 && crow.len() >= n - i2,
        "row slices shorter than the {} remaining columns of row {i2}",
        n - i2
    );
    {
        let mut k2 = i2;
        // Unrolled body: four consecutive k2 values share one pass over
        // the common column range [k2+4, n).
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
            // earlier k2 values of this group.
            for (lane, brow) in [b0, b1, b2].iter().enumerate() {
                let kk = k2 + lane;
                let hi = (k2 + 4).min(n);
                for j2 in kk + 1..hi {
                    crow[j2 - i2] = crow[j2 - i2].max(av[lane] + brow[j2 - (kk + 1)]);
                }
            }
            // Body: the shared range, one load/store of crow per 8 FLOPs.
            let lo = k2 + 4;
            for j2 in lo..n {
                let mut c = crow[j2 - i2];
                c = c.max(av[0] + b0[j2 - (k2 + 1)]);
                c = c.max(av[1] + b1[j2 - (k2 + 2)]);
                c = c.max(av[2] + b2[j2 - (k2 + 3)]);
                c = c.max(av[3] + b3[j2 - (k2 + 4)]);
                crow[j2 - i2] = c;
            }
            k2 += 4;
        }
        // Remainder k2 values: plain streaming updates.
        while k2 < n.saturating_sub(1) {
            let av = arow[k2 - i2];
            if av != f32::NEG_INFINITY {
                let brow = ft.row_of(b, k2 + 1);
                mp_axpy(av, brow, &mut crow[k2 + 1 - i2..]);
            }
            k2 += 1;
        }
    }
}

/// `R0` matrix instance with **SIMD register tiling** — the same 4× `k2`
/// unroll as [`r0_instance_reg`], but with the shared-range body routed
/// through the fused [`mp_axpy4`] and the streaming tail through
/// [`mp_axpy`], which join with the one-instruction compare-select
/// instead of the indexed `f32::max` loop. This is the
/// kernel [`R0Order::SimdReg`] selects, and the one the hybrid+tiled solve
/// runs by default ([`SimdMode::LaneArray`]).
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

/// One row of the SIMD register-tiled `R0` instance.
///
/// Structure mirrors [`r0_row_reg`] group for group; only the inner loops
/// differ: the shared range `[k2+4, n)` is one [`mp_axpy4`] over the four
/// `B`-row tails (`B` row `r` covers columns `[r, n)`, so lane `l`'s slice
/// starts at offset `3 − l`), and the `< 4` remainder `k2` values stream
/// through [`mp_axpy`]. Bit-identical to every other order: the
/// per-element expressions are the sequential `mp_axpy` updates.
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
// Certified-unchecked fast path
// ---------------------------------------------------------------------
//
// Every `unsafe` block below elides a slice bounds check that the
// polyhedral bounds certificates of [`crate::bounds`] prove can never
// fire: the *logical* access (row index, offset-in-row, triangle
// coordinate) is certified in-bounds for all `M`, `N` and tile sizes by
// exact Fourier–Motzkin elimination (tier 1), and the mapping from
// logical coordinates to storage offsets is covered by the layout
// lemmas recorded on those certificates (tier 2, exhaustively tested in
// `bounds::tests`). The one remaining *runtime* precondition — each
// block slice holds at least `layout().storage_len(n)` elements — is
// asserted unconditionally at the entry of every unchecked driver
// (`assert_block_shapes`), so the interior drops per-access checks
// without trusting its caller.
//
// Each unchecked kernel mirrors its safe twin's loop structure
// statement for statement — only the indexing changes — so the two
// paths are bit-identical (asserted by `unchecked_kernels_bit_identical`
// below, by the engine's cross-mode property test, and at runtime by
// `bench_batch_throughput`'s self-check).

/// Row `i2` of `blk` (columns `i2..n`) without the slice bounds check.
///
/// certified-by: `bounds::memmap_addr` (tier 1) + `ROW_LEMMA` (tier 2):
/// for every layout, `row_start(n, i2) + (n − i2) ≤ storage_len(n)`.
#[allow(unsafe_code)]
#[inline(always)]
fn row_of_unchecked<'a>(ft: &FTable, blk: &'a [f32], i2: usize) -> &'a [f32] {
    let s = ft.inner_row_start(i2);
    let e = s + (ft.n() - i2);
    debug_assert!(i2 < ft.n() && e <= blk.len());
    // SAFETY: the caller's entry assertion gives
    // `blk.len() ≥ storage_len(n)`, and the row lemma bounds `s..e`
    // inside `storage_len(n)` for every layout.
    unsafe { blk.get_unchecked(s..e) }
}

/// Mutable flavour of [`row_of_unchecked`], carved out of a full block.
///
/// certified-by: same facts as [`row_of_unchecked`].
#[allow(unsafe_code)]
#[inline(always)]
fn row_of_mut_unchecked<'a>(ft: &FTable, blk: &'a mut [f32], i2: usize) -> &'a mut [f32] {
    let s = ft.inner_row_start(i2);
    let e = s + (ft.n() - i2);
    debug_assert!(i2 < ft.n() && e <= blk.len());
    // SAFETY: see `row_of_unchecked`.
    unsafe { blk.get_unchecked_mut(s..e) }
}

/// [`r0_instance_permuted`] with certified-unchecked row slicing.
///
/// certified-by: `bounds::r0_instance_permuted`.
pub fn r0_instance_permuted_unchecked(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    for i2 in 0..n {
        let arow = row_of_unchecked(ft, a, i2);
        let crow = row_of_mut_unchecked(ft, acc, i2);
        r0_row_permuted_unchecked(ft, arow, b, crow, i2);
    }
}

/// One row of the unchecked permuted instance. `crow` must be exactly the
/// `n − i2` valid columns of row `i2`.
///
/// certified-by: `bounds::r0_instance_permuted` — the `A[i2][k2]` access
/// gives `k2 − i2 < n − i2`, the `acc`-row tail start gives
/// `k2 + 1 − i2 ≤ n − i2`.
#[allow(unsafe_code)]
fn r0_row_permuted_unchecked(ft: &FTable, arow: &[f32], b: &[f32], crow: &mut [f32], i2: usize) {
    let n = ft.n();
    debug_assert!(arow.len() >= n - i2 && crow.len() == n - i2);
    for k2 in i2..n.saturating_sub(1) {
        // SAFETY: `i2 ≤ k2 ≤ n − 2` ⇒ `k2 − i2 < n − i2 ≤ arow.len()`.
        let av = unsafe { *arow.get_unchecked(k2 - i2) };
        if av == f32::NEG_INFINITY {
            continue;
        }
        let brow = row_of_unchecked(ft, b, k2 + 1);
        // SAFETY: `k2 + 1 − i2 ≤ n − i2 = crow.len()`; the tail's length
        // `n − k2 − 1` equals `brow.len()`, as `mp_axpy` re-asserts.
        let dst = unsafe { crow.get_unchecked_mut(k2 + 1 - i2..) };
        mp_axpy(av, brow, dst);
    }
}

/// [`r0_instance_tiled`] with certified-unchecked row and segment
/// slicing.
///
/// certified-by: `bounds::r0_row_band_tiled`.
pub fn r0_instance_tiled_unchecked(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32], t: Tile) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    if n < 2 {
        return;
    }
    for (i2lo, i2hi) in polyhedral::tiling::tile_ranges(0, n, t.i2.max(1)) {
        r0_row_band_tiled_unchecked(ft, a, b, acc, i2lo, i2hi, t);
    }
}

/// [`r0_row_band_tiled`] with certified-unchecked indexing — identical
/// band/tile loop structure, unchecked row carving and segment slicing.
///
/// certified-by: `bounds::r0_row_band_tiled` — segment ends are bounded
/// by `j2hi ≤ n` for every tile origin, segment starts by
/// `lo ≥ k2 + 1 > i2`.
#[allow(unsafe_code)]
fn r0_row_band_tiled_unchecked(
    ft: &FTable,
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
    i2lo: usize,
    i2hi: usize,
    t: Tile,
) {
    let n = ft.n();
    debug_assert!(i2lo <= i2hi && i2hi <= n);
    for (k2lo, k2hi) in polyhedral::tiling::tile_ranges(i2lo, n - 1, t.k2.max(1)) {
        for (j2lo, j2hi) in polyhedral::tiling::tile_ranges(k2lo + 1, n, t.j2.max(1)) {
            for i2 in i2lo..i2hi {
                let arow = row_of_unchecked(ft, a, i2);
                let crow = row_of_mut_unchecked(ft, acc, i2);
                for k2 in k2lo.max(i2)..k2hi {
                    let lo = j2lo.max(k2 + 1);
                    if lo >= j2hi {
                        continue;
                    }
                    // SAFETY: `k2 < k2hi ≤ n − 1` ⇒ `k2 − i2 < n − i2`.
                    let av = unsafe { *arow.get_unchecked(k2 - i2) };
                    if av == f32::NEG_INFINITY {
                        continue;
                    }
                    let brow = row_of_unchecked(ft, b, k2 + 1);
                    // SAFETY: `k2 + 1 ≤ lo < j2hi ≤ n` bounds both
                    // segments inside their rows (`brow.len() = n − k2 − 1`,
                    // `crow.len() = n − i2`) — the certified segment
                    // accesses of `bounds::r0_row_band_tiled`.
                    let (xs, ys) = unsafe {
                        (
                            brow.get_unchecked(lo - (k2 + 1)..j2hi - (k2 + 1)),
                            crow.get_unchecked_mut(lo - i2..j2hi - i2),
                        )
                    };
                    mp_axpy(av, xs, ys);
                }
            }
        }
    }
}

/// [`r0_instance_reg`] with certified-unchecked indexing.
///
/// certified-by: `bounds::r0_row_reg/{head,body,tail}`.
pub fn r0_instance_reg_unchecked(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    if n < 2 {
        return;
    }
    for i2 in 0..n {
        let arow = row_of_unchecked(ft, a, i2);
        let crow = row_of_mut_unchecked(ft, acc, i2);
        r0_row_reg_unchecked(ft, arow, b, crow, i2);
    }
}

/// [`r0_row_reg`] with certified-unchecked indexing — same 4× unroll,
/// same head/body/tail split, unchecked element and row accesses.
/// `crow` must be exactly the `n − i2` valid columns of row `i2`.
///
/// certified-by: `bounds::r0_row_reg/head` (lane columns
/// `j2 ∈ (k2 + lane, k2 + 4)`), `bounds::r0_row_reg/body` (shared range
/// `j2 ∈ [k2 + 4, n)`), `bounds::r0_row_reg/tail` (remainder, same
/// shape as the permuted row).
#[allow(unsafe_code)]
fn r0_row_reg_unchecked(ft: &FTable, arow: &[f32], b: &[f32], crow: &mut [f32], i2: usize) {
    let n = ft.n();
    debug_assert!(i2 < n && arow.len() >= n - i2 && crow.len() == n - i2);
    let mut k2 = i2;
    while k2 + 4 <= n.saturating_sub(1) {
        // SAFETY: the unroll guard gives `k2 + 4 ≤ n − 1`, so all four
        // `A` lanes and `B` rows `k2+1..=k2+4` exist (certified lane
        // accesses of `bounds::r0_row_reg/head`).
        unsafe {
            let av = [
                *arow.get_unchecked(k2 - i2),
                *arow.get_unchecked(k2 + 1 - i2),
                *arow.get_unchecked(k2 + 2 - i2),
                *arow.get_unchecked(k2 + 3 - i2),
            ];
            let b0 = row_of_unchecked(ft, b, k2 + 1);
            let b1 = row_of_unchecked(ft, b, k2 + 2);
            let b2 = row_of_unchecked(ft, b, k2 + 3);
            let b3 = row_of_unchecked(ft, b, k2 + 4);
            // Head: columns j2 in (k2, k2+4) are only reachable by the
            // earlier k2 values of this group.
            for (lane, brow) in [b0, b1, b2].iter().enumerate() {
                let kk = k2 + lane;
                let hi = (k2 + 4).min(n);
                for j2 in kk + 1..hi {
                    // SAFETY: `j2 < k2 + 4 ≤ n` keeps `j2 − i2` inside
                    // `crow` and `j2 − kk − 1 < 3` inside `brow`
                    // (`bounds::r0_row_reg/head`).
                    let c = crow.get_unchecked_mut(j2 - i2);
                    *c = c.max(av[lane] + *brow.get_unchecked(j2 - (kk + 1)));
                }
            }
            // Body: the shared range, one load/store of crow per 8 FLOPs.
            let lo = k2 + 4;
            for j2 in lo..n {
                // SAFETY: `k2 + 4 ≤ j2 < n` keeps every lane offset
                // `j2 − (k2 + lane + 1)` inside its `B` row and
                // `j2 − i2` inside `crow` (`bounds::r0_row_reg/body`).
                let mut c = *crow.get_unchecked(j2 - i2);
                c = c.max(av[0] + *b0.get_unchecked(j2 - (k2 + 1)));
                c = c.max(av[1] + *b1.get_unchecked(j2 - (k2 + 2)));
                c = c.max(av[2] + *b2.get_unchecked(j2 - (k2 + 3)));
                c = c.max(av[3] + *b3.get_unchecked(j2 - (k2 + 4)));
                *crow.get_unchecked_mut(j2 - i2) = c;
            }
        }
        k2 += 4;
    }
    // Remainder k2 values: plain streaming updates.
    while k2 < n.saturating_sub(1) {
        // SAFETY: `k2 ≤ n − 2` ⇒ `k2 − i2 < n − i2` and the tail start
        // `k2 + 1 − i2 ≤ n − i2 = crow.len()` (`bounds::r0_row_reg/tail`).
        let av = unsafe { *arow.get_unchecked(k2 - i2) };
        if av != f32::NEG_INFINITY {
            let brow = row_of_unchecked(ft, b, k2 + 1);
            let dst = unsafe { crow.get_unchecked_mut(k2 + 1 - i2..) };
            mp_axpy(av, brow, dst);
        }
        k2 += 1;
    }
}

/// [`r0_instance_simd`] with certified-unchecked indexing.
///
/// certified-by: `bounds::r0_row_reg/{head,body,tail}` — the SIMD row
/// kernel touches exactly the access shapes of the register-unrolled
/// row, so the same certificates license it.
pub fn r0_instance_simd_unchecked(ft: &FTable, a: &[f32], b: &[f32], acc: &mut [f32]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    if n < 2 {
        return;
    }
    for i2 in 0..n {
        let arow = row_of_unchecked(ft, a, i2);
        let crow = row_of_mut_unchecked(ft, acc, i2);
        r0_row_simd_unchecked(ft, arow, b, crow, i2);
    }
}

/// [`r0_row_simd`] with certified-unchecked indexing — same 4× unroll,
/// same head/lane-body/tail split; the element and row accesses are
/// unchecked, while the fused body still flows through the safe
/// [`mp_axpy4`] (which re-asserts the five slice lengths it is handed).
/// `crow` must be exactly the `n − i2` valid columns of row `i2`.
///
/// certified-by: `bounds::r0_row_reg/head` (lane columns
/// `j2 ∈ (k2 + lane, k2 + 4)`), `bounds::r0_row_reg/body` (the body
/// slices `b{lane}[3 − lane..]` and `crow[k2 + 4 − i2..]` are exactly
/// the certified shared-range accesses `j2 ∈ [k2 + 4, n)`, re-expressed
/// as slices), `bounds::r0_row_reg/tail` (remainder, same shape as the
/// permuted row).
#[allow(unsafe_code)]
fn r0_row_simd_unchecked(ft: &FTable, arow: &[f32], b: &[f32], crow: &mut [f32], i2: usize) {
    let n = ft.n();
    debug_assert!(i2 < n && arow.len() >= n - i2 && crow.len() == n - i2);
    let mut k2 = i2;
    while k2 + 4 <= n.saturating_sub(1) {
        // SAFETY: the unroll guard gives `k2 + 4 ≤ n − 1`, so all four
        // `A` lanes and `B` rows `k2+1..=k2+4` exist (certified lane
        // accesses of `bounds::r0_row_reg/head`).
        unsafe {
            let av = [
                *arow.get_unchecked(k2 - i2),
                *arow.get_unchecked(k2 + 1 - i2),
                *arow.get_unchecked(k2 + 2 - i2),
                *arow.get_unchecked(k2 + 3 - i2),
            ];
            let b0 = row_of_unchecked(ft, b, k2 + 1);
            let b1 = row_of_unchecked(ft, b, k2 + 2);
            let b2 = row_of_unchecked(ft, b, k2 + 3);
            let b3 = row_of_unchecked(ft, b, k2 + 4);
            // Head: columns j2 in (k2, k2+4), at most 3 scalar updates.
            for (lane, brow) in [b0, b1, b2].iter().enumerate() {
                let kk = k2 + lane;
                let hi = (k2 + 4).min(n);
                for j2 in kk + 1..hi {
                    // SAFETY: `j2 < k2 + 4 ≤ n` keeps `j2 − i2` inside
                    // `crow` and `j2 − kk − 1 < 3` inside `brow`
                    // (`bounds::r0_row_reg/head`).
                    let c = crow.get_unchecked_mut(j2 - i2);
                    *c = (av[lane] + *brow.get_unchecked(j2 - (kk + 1))).max(*c);
                }
            }
            // Body: the shared range [k2+4, n) as one fused pass.
            // SAFETY: `B` row `k2+1+lane` has `n − (k2+1+lane)` columns
            // and `3 − lane ≤ n − (k2+1+lane)` under the unroll guard, so
            // every tail start is in range; `k2 + 4 − i2 ≤ n − i2` bounds
            // the `crow` tail (`bounds::r0_row_reg/body`). All five
            // slices have length `n − (k2+4)`, which `mp_axpy4` asserts.
            let lo = k2 + 4;
            mp_axpy4(
                av,
                [
                    b0.get_unchecked(3..),
                    b1.get_unchecked(2..),
                    b2.get_unchecked(1..),
                    b3,
                ],
                crow.get_unchecked_mut(lo - i2..),
            );
        }
        k2 += 4;
    }
    // Remainder k2 values: single-stream updates.
    while k2 < n.saturating_sub(1) {
        // SAFETY: `k2 ≤ n − 2` ⇒ `k2 − i2 < n − i2` and the tail start
        // `k2 + 1 − i2 ≤ n − i2 = crow.len()` (`bounds::r0_row_reg/tail`).
        let av = unsafe { *arow.get_unchecked(k2 - i2) };
        if av != f32::NEG_INFINITY {
            let brow = row_of_unchecked(ft, b, k2 + 1);
            let dst = unsafe { crow.get_unchecked_mut(k2 + 1 - i2..) };
            mp_axpy(av, brow, dst);
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
    /// Register-level `k2`-unrolled streaming (the paper's future work).
    RegTiled,
    /// Register-tiled streaming through the kernels of [`tropical::simd`]
    /// (same 4× unroll as [`R0Order::RegTiled`], joined with the
    /// one-instruction compare-select) — the default for hybrid+tiled.
    SimdReg,
}

/// Whether Phase A's hot loops keep Rust's slice bounds checks or run
/// the certified-unchecked fast path.
///
/// Both paths are always compiled; the `certified-unchecked` cargo
/// feature only moves the *default* (so a feature unified across a
/// workspace cannot silently change behaviour — results are
/// bit-identical either way, the mode is purely a performance knob).
/// [`R0Order::Naive`] has no unchecked variant — it is the baseline
/// order the speedups are measured against, never the perf path — and
/// silently runs checked under either mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundsMode {
    /// Safe indexing everywhere (every slice check stays).
    Checked,
    /// Unchecked row/segment slicing in the kernels whose access
    /// patterns carry an in-bounds certificate from [`crate::bounds`]
    /// (see `bpmax-cli verify --bounds`).
    CertifiedUnchecked,
}

impl BoundsMode {
    /// The build's default mode: [`BoundsMode::CertifiedUnchecked`] iff
    /// the crate was compiled with the `certified-unchecked` feature.
    pub fn build_default() -> Self {
        if cfg!(feature = "certified-unchecked") {
            BoundsMode::CertifiedUnchecked
        } else {
            BoundsMode::Checked
        }
    }
}

impl Default for BoundsMode {
    /// [`BoundsMode::build_default`].
    fn default() -> Self {
        Self::build_default()
    }
}

/// Which `R0` order the hybrid+tiled algorithm runs: the register-tiled
/// kernel (the default) or the paper's Phase III tiled order.
///
/// Results are bit-identical either way, pinned by the kernel property
/// suites, so the mode is purely a performance choice. The other
/// algorithms keep their own streaming order under both modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// The paper's Phase III order: [`R0Order::Tiled`] with the
    /// algorithm's tile shape.
    Scalar,
    /// [`R0Order::SimdReg`]: `k2` register-tiled through the kernels of
    /// [`tropical::simd`]; the tile shape does not apply.
    #[default]
    LaneArray,
}

/// The resolved per-run kernel selection the engine threads through the
/// wavefront driver: bounds-check elision and the hybrid+tiled `R0` order.
/// Both knobs are pure performance choices — every combination is
/// bit-identical, pinned by the kernel property suites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct KernelModes {
    pub(crate) bounds: BoundsMode,
    pub(crate) simd: SimdMode,
}

impl KernelModes {
    /// Both modes at their defaults: [`BoundsMode::build_default`] and
    /// [`SimdMode::LaneArray`].
    pub(crate) fn build_default() -> Self {
        Self::default()
    }
}

/// Serial Phase A for triangle `(i1, j1)`: accumulate `R0`, `R3`, `R4`
/// into `acc` across all splits `k1`, in the build's default
/// [`BoundsMode`].
pub fn accumulate_r034_serial(
    ctx: &Ctx,
    ft: &FTable,
    i1: usize,
    j1: usize,
    acc: &mut [f32],
    order: R0Order,
) {
    accumulate_r034_serial_mode(ctx, ft, i1, j1, acc, order, BoundsMode::build_default());
}

/// [`accumulate_r034_serial`] with an explicit [`BoundsMode`].
pub fn accumulate_r034_serial_mode(
    ctx: &Ctx,
    ft: &FTable,
    i1: usize,
    j1: usize,
    acc: &mut [f32],
    order: R0Order,
    mode: BoundsMode,
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
        match (order, mode) {
            (R0Order::Naive, _) => r0_instance_naive(ft, a, b, acc),
            (R0Order::Permuted, BoundsMode::Checked) => r0_instance_permuted(ft, a, b, acc),
            (R0Order::Permuted, BoundsMode::CertifiedUnchecked) => {
                r0_instance_permuted_unchecked(ft, a, b, acc);
            }
            (R0Order::Tiled(t), BoundsMode::Checked) => r0_instance_tiled(ft, a, b, acc, t),
            (R0Order::Tiled(t), BoundsMode::CertifiedUnchecked) => {
                r0_instance_tiled_unchecked(ft, a, b, acc, t);
            }
            (R0Order::RegTiled, BoundsMode::Checked) => r0_instance_reg(ft, a, b, acc),
            (R0Order::RegTiled, BoundsMode::CertifiedUnchecked) => {
                r0_instance_reg_unchecked(ft, a, b, acc);
            }
            (R0Order::SimdReg, BoundsMode::Checked) => r0_instance_simd(ft, a, b, acc),
            (R0Order::SimdReg, BoundsMode::CertifiedUnchecked) => {
                r0_instance_simd_unchecked(ft, a, b, acc);
            }
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
            for n in [1usize, 2, 3, 5, 9, 16] {
                let ft = FTable::new(2, n, layout);
                let a = random_block(&ft, &mut rng);
                let b = random_block(&ft, &mut rng);
                let mut c1 = random_block(&ft, &mut rng);
                let mut c2 = c1.clone();
                let mut c3 = c1.clone();
                let mut c4 = c1.clone();
                r0_instance_naive(&ft, &a, &b, &mut c1);
                r0_instance_permuted(&ft, &a, &b, &mut c2);
                r0_instance_tiled(&ft, &a, &b, &mut c3, Tile::default());
                r0_instance_tiled(&ft, &a, &b, &mut c4, Tile::cubic(3));
                for i2 in 0..n {
                    for j2 in i2..n {
                        let k = ft.inner(i2, j2);
                        assert_eq!(c1[k], c2[k], "{layout:?} n={n} permuted ({i2},{j2})");
                        assert_eq!(c1[k], c3[k], "{layout:?} n={n} tiled ({i2},{j2})");
                        assert_eq!(c1[k], c4[k], "{layout:?} n={n} cubic ({i2},{j2})");
                    }
                }
            }
        }
    }

    #[test]
    fn reg_tiled_r0_agrees_with_naive() {
        let mut rng = StdRng::seed_from_u64(21);
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in [1usize, 2, 4, 5, 7, 11, 16, 23] {
                let ft = FTable::new(2, n, layout);
                let a = random_block(&ft, &mut rng);
                let b = random_block(&ft, &mut rng);
                let mut c1 = random_block(&ft, &mut rng);
                let mut c2 = c1.clone();
                r0_instance_naive(&ft, &a, &b, &mut c1);
                r0_instance_reg(&ft, &a, &b, &mut c2);
                for i2 in 0..n {
                    for j2 in i2..n {
                        let k = ft.inner(i2, j2);
                        assert_eq!(c1[k], c2[k], "{layout:?} n={n} ({i2},{j2})");
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

    /// Bitwise block equality — the certified-unchecked contract is
    /// *bit*-identity, not approximate agreement.
    fn assert_bits_eq(checked: &[f32], unchecked: &[f32], what: &str) {
        assert_eq!(checked.len(), unchecked.len(), "{what}: length");
        for (i, (c, u)) in checked.iter().zip(unchecked).enumerate() {
            assert_eq!(c.to_bits(), u.to_bits(), "{what}: cell {i}");
        }
    }

    #[test]
    fn unchecked_instances_bit_identical() {
        let mut rng = StdRng::seed_from_u64(77);
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in [1usize, 2, 3, 5, 8, 13, 23] {
                let ft = FTable::new(2, n, layout);
                let a = random_block(&ft, &mut rng);
                let b = random_block(&ft, &mut rng);
                let base = random_block(&ft, &mut rng);

                let mut c = base.clone();
                let mut u = base.clone();
                r0_instance_permuted(&ft, &a, &b, &mut c);
                r0_instance_permuted_unchecked(&ft, &a, &b, &mut u);
                assert_bits_eq(&c, &u, &format!("{layout:?} n={n} permuted"));

                let mut c = base.clone();
                let mut u = base.clone();
                r0_instance_reg(&ft, &a, &b, &mut c);
                r0_instance_reg_unchecked(&ft, &a, &b, &mut u);
                assert_bits_eq(&c, &u, &format!("{layout:?} n={n} reg"));

                let mut c = base.clone();
                let mut u = base.clone();
                r0_instance_simd(&ft, &a, &b, &mut c);
                r0_instance_simd_unchecked(&ft, &a, &b, &mut u);
                assert_bits_eq(&c, &u, &format!("{layout:?} n={n} simd"));

                for t in [Tile::default(), Tile::cubic(3), Tile::small()] {
                    let mut c = base.clone();
                    let mut u = base.clone();
                    r0_instance_tiled(&ft, &a, &b, &mut c, t);
                    r0_instance_tiled_unchecked(&ft, &a, &b, &mut u, t);
                    assert_bits_eq(&c, &u, &format!("{layout:?} n={n} tiled {t:?}"));
                }
            }
        }
    }

    #[test]
    fn accumulate_modes_bit_identical() {
        let c = ctx("GGAUCGA", "CCGAU");
        let mut rng = StdRng::seed_from_u64(15);
        for order in [
            R0Order::Naive,
            R0Order::Permuted,
            R0Order::Tiled(Tile::cubic(2)),
            R0Order::Tiled(Tile::default()),
            R0Order::RegTiled,
            R0Order::SimdReg,
        ] {
            let mut ft = FTable::new(c.m(), c.n(), Layout::Packed);
            for i1 in 0..c.m() {
                for j1 in i1..c.m() {
                    let blk = random_block(&ft, &mut rng);
                    ft.block_mut(i1, j1).copy_from_slice(&blk);
                }
            }
            let (i1, j1) = (1, 5);
            let base = ft.block(i1, j1).to_vec();
            let mut serial_c = base.clone();
            let mut serial_u = base;
            accumulate_r034_serial_mode(&c, &ft, i1, j1, &mut serial_c, order, BoundsMode::Checked);
            accumulate_r034_serial_mode(
                &c,
                &ft,
                i1,
                j1,
                &mut serial_u,
                order,
                BoundsMode::CertifiedUnchecked,
            );
            assert_bits_eq(&serial_c, &serial_u, &format!("serial {order:?}"));
        }
    }

    #[test]
    fn bounds_mode_default_tracks_feature() {
        let want = if cfg!(feature = "certified-unchecked") {
            BoundsMode::CertifiedUnchecked
        } else {
            BoundsMode::Checked
        };
        assert_eq!(BoundsMode::build_default(), want);
        assert_eq!(BoundsMode::default(), want);
    }

    #[test]
    fn simd_mode_default_is_lane_array() {
        assert_eq!(SimdMode::default(), SimdMode::LaneArray);
        assert_eq!(KernelModes::build_default().simd, SimdMode::LaneArray);
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
