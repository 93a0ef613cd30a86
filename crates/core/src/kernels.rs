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
//! The default version runs a lone problem's Phase A eight split points
//! per vector (`accumulate_r034_lanes`): the `A` and `B` blocks of up to
//! eight consecutive `k1` are packed into one block of lane cells each,
//! and the same `R0`, `R3` and `R4` kernels run on all eight at once.
//!
//! **Phase B — finalize** (`finalize_triangle`): walk rows `i2` from the
//! bottom up (descending index, the `-i2` schedule dimension) and, within a
//! row, columns left to right; at `(i2, k2)` the cell's final value is
//! fixed (max of the accumulator, `S1+S2`, both pair-closing terms, and
//! the 1×1 `iscore` case), then its `R1`/`R2` contributions are pushed to
//! the longer intervals of the same row as two streaming axpys — exactly
//! the paper's "we ensure that F-table gets updated when k2 reaches j2"
//! interleave that keeps `R1`/`R2` vectorizable despite their reduction.
//!
//! The default version runs a lone problem's Phase B eight triangles per
//! vector (`finalize_lanes`): the triangles of one outer diagonal share
//! no data and run the same loop nest, so the accumulators and pair-1
//! blocks of up to eight consecutive ones are packed into lane cells, and
//! the same `finalize_triangle` runs on all eight at once, against terms
//! whose lane `l` is triangle `l`'s (`Terms::along_diagonal`). The
//! engine's wavefront hands a worker such a run of triangles: their
//! Phase A one by one, then one lane Phase B.
//!
//! Both lane drivers are generic over the lane cell
//! ([`tropical::scalar::LaneCell`]), and so are the lane terms. A problem
//! whose model and shape keep every value a small integer
//! (`exact_in_lanes16`, decided once when its [`Terms`] are built) runs
//! them on [`Lanes16`] cells, eight 16-bit lanes in one SSE register;
//! every other problem on [`Lanes`] cells, eight `f32` lanes in two. The
//! F-table stays `f32` either way: values are converted where the lanes
//! are packed, reduced and unpacked.
//!
//! [`Lanes16`]: tropical::scalar::Lanes16

use crate::ftable::FView;
use rna::base::BASES;
use rna::nussinov::{Fold, Nussinov};
use rna::{RnaSeq, ScoringModel};
use std::sync::Arc;
use tropical::scalar::{mp_axpy, LaneCell, Lanes, MaxPlus, LANES};
use tropical::simd::mp_axpy4;
use tropical::triangular::Triangular;

/// Shared per-problem context: sequences, model, `S⁽¹⁾`/`S⁽²⁾` tables and
/// the [`Terms`] the kernels read.
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
    /// The S-tables and pair weights, as the kernels read them.
    terms: Terms<f32>,
}

impl Ctx {
    /// Build the context (runs both Nussinov folds).
    pub fn new(s1: RnaSeq, s2: RnaSeq, model: ScoringModel) -> Self {
        let fold1 = Nussinov::fold(&s1, &model);
        let fold2 = Nussinov::fold(&s2, &model);
        let terms = Terms::new(&s1, &s2, &model, &fold1, &fold2);
        Ctx {
            s1,
            s2,
            model,
            fold1,
            fold2,
            terms,
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

    /// The S-tables and pair weights of this problem.
    #[inline(always)]
    pub fn terms(&self) -> &Terms<f32> {
        &self.terms
    }
}

/// Whether every value a solve of an `m × n` problem under `model` forms
/// is exact in `Lanes16` cells, with `−∞` held as `i16::MIN`: the gate
/// of the 16-bit lane kernels. It holds iff every intra- and
/// intermolecular weight is `NO_PAIR` or an integer in `[0, 127]` with its
/// sign bit clear (so `−0.0` is refused), and `w_max × (M + N) < 16,384`.
/// A score is then an integer of at most `w_max × (M + N) / 2 < 8,192`
/// (each pair takes two bases), and the sum of two of them fits an `i16`;
/// DESIGN.md §11 has the whole argument.
pub(crate) fn exact_in_lanes16(model: &ScoringModel, m: usize, n: usize) -> bool {
    let mut w_max = 0.0f32;
    for a in BASES {
        for b in BASES {
            for w in [model.intra(a, b), model.inter(a, b)] {
                if w == ScoringModel::NO_PAIR {
                    continue;
                }
                if w.is_sign_negative() || w > 127.0 || w.fract() != 0.0 {
                    return false;
                }
                w_max = w_max.max(w);
            }
        }
    }
    (m as u64 + n as u64).saturating_mul(w_max as u64) < 16_384
}

/// The score tables Phase A and Phase B read, over the cell element `E`:
/// `S⁽¹⁾`, `S⁽²⁾` and the pre-evaluated pair weights of one problem
/// (`f32`), or lane terms (a [`LaneCell`]): a lane group's problems
/// interleaved lane by lane, built by the batch engine, or one problem's
/// terms along its outer diagonals.
#[derive(Clone, Debug)]
pub struct Terms<E> {
    /// `S⁽¹⁾` over strand 1, packed (one problem's is its fold's table).
    s1: Arc<Triangular<E>>,
    /// `S⁽²⁾` over strand 2, packed.
    s2: Arc<Triangular<E>>,
    /// Positional intramolecular weights in strand 1, packed over
    /// `j1 ≥ i1`: `-∞` where the pair is illegal, and on the diagonal
    /// `j1 = i1`, where no pair can close.
    w1: Triangular<E>,
    /// Likewise for strand 2.
    w2: Triangular<E>,
    /// `wi[i1·N + i2]`: intermolecular weight.
    wi: Vec<E>,
    /// `exact_in_lanes16` of the problem (of every member, for lane
    /// terms): whether its lane kernels run on `Lanes16` cells.
    exact16: bool,
}

impl Terms<f32> {
    /// One problem's terms: the folds' S-tables and its weight tables.
    fn new(s1: &RnaSeq, s2: &RnaSeq, model: &ScoringModel, fold1: &Fold, fold2: &Fold) -> Self {
        let intra = |s: &RnaSeq| {
            Triangular::from_fn(s.len(), |i, j| {
                if j > i {
                    model.intra_pos(i, j, s[i], s[j])
                } else {
                    ScoringModel::NO_PAIR
                }
            })
        };
        let n = s2.len();
        let mut wi = vec![ScoringModel::NO_PAIR; s1.len() * n];
        for i in 0..s1.len() {
            for j in 0..n {
                wi[i * n + j] = model.inter(s1[i], s2[j]);
            }
        }
        Terms {
            s1: fold1.shared_table(),
            s2: fold2.shared_table(),
            w1: intra(s1),
            w2: intra(s2),
            wi,
            exact16: exact_in_lanes16(model, s1.len(), n),
        }
    }
}

impl<L: LaneCell> Terms<L> {
    /// The terms of up to [`LANES`] same-shape problems, lane `l` holding
    /// `members[l]`'s; lanes past the last member copy the first one, so
    /// a padded lane computes a real problem again. Panics on an empty or
    /// oversized group, or on members of different shapes.
    pub(crate) fn interleave(members: &[&Terms<f32>]) -> Self {
        assert!(
            (1..=LANES).contains(&members.len()),
            "a lane group holds 1..={LANES} problems, not {}",
            members.len()
        );
        let lead = members[0];
        let (m, n) = (lead.m(), lead.n());
        assert!(
            members.iter().all(|t| t.m() == m && t.n() == n),
            "lane group members must share the {m}x{n} shape"
        );
        let lane = |l: usize| members.get(l).copied().unwrap_or(lead);
        let triangle = |side: usize, get: &dyn Fn(&Terms<f32>, usize, usize) -> f32| {
            Triangular::from_fn(side, |i, j| {
                L::from_f32s(std::array::from_fn(|l| get(lane(l), i, j)))
            })
        };
        Terms {
            s1: Arc::new(triangle(m, &|t, i, j| t.s1.get(i, j))),
            s2: Arc::new(triangle(n, &|t, i, j| t.s2.get(i, j))),
            w1: triangle(m, &|t, i, j| t.w1.get(i, j)),
            w2: triangle(n, &|t, i, j| t.w2.get(i, j)),
            wi: (0..lead.wi.len())
                .map(|k| L::from_f32s(std::array::from_fn(|l| lane(l).wi[k])))
                .collect(),
            exact16: members.iter().all(|t| t.exact16),
        }
    }

    /// One problem's terms as [`finalize_lanes`] reads them for a run of
    /// consecutive triangles of one outer diagonal: lane `l` at
    /// `(i1, j1)` holds triangle `(i1 + l, j1 + l)`'s `S⁽¹⁾` and `w1`, and
    /// lane `l` of `wi` row `i1` holds row `i1 + l`; the strand-2 tables
    /// are the same in every lane. A lane past the end of the diagonal
    /// holds its last triangle's.
    pub(crate) fn along_diagonal(terms: &Terms<f32>) -> Self {
        let (m, n) = (terms.m(), terms.n());
        let along = |t: &Triangular<f32>| {
            // diagonal `d` of `t`, cell `(k, k + d)` at `k`, its last cell
            // repeated for the lanes that run past its end
            let diagonals: Vec<Vec<f32>> = (0..m)
                .map(|d| {
                    let mut cells = Vec::with_capacity(m - d + LANES - 1);
                    cells.extend((0..m - d).map(|k| t.get(k, k + d)));
                    cells.resize(m - d + LANES - 1, t.get(m - 1 - d, m - 1));
                    cells
                })
                .collect();
            Triangular::from_fn(m, |i, j| {
                L::from_f32s(std::array::from_fn(|l| diagonals[j - i][i + l]))
            })
        };
        let splat =
            |t: &Triangular<f32>| Triangular::from_fn(n, |i, j| L::from_f32s([t.get(i, j); LANES]));
        let mut wi = Vec::with_capacity(m * n);
        for i1 in 0..m {
            let rows: [&[f32]; LANES] = std::array::from_fn(|l| {
                let row = (i1 + l).min(m - 1);
                &terms.wi[row * n..(row + 1) * n]
            });
            wi.extend((0..n).map(|i2| L::from_f32s(std::array::from_fn(|l| rows[l][i2]))));
        }
        Terms {
            s1: Arc::new(along(&terms.s1)),
            s2: Arc::new(splat(&terms.s2)),
            w1: along(&terms.w1),
            w2: splat(&terms.w2),
            wi,
            exact16: terms.exact16,
        }
    }
}

impl<E: MaxPlus> Terms<E> {
    /// Strand-1 length.
    #[inline(always)]
    pub fn m(&self) -> usize {
        self.s1.n()
    }

    /// Strand-2 length.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.s2.n()
    }

    /// `S⁽¹⁾(i1, j1)` with the empty convention (`0` when `j1 < i1`).
    #[inline(always)]
    pub fn s1v(&self, i1: usize, j1: usize) -> E {
        if j1 < i1 {
            E::ZERO
        } else {
            self.s1.get(i1, j1)
        }
    }

    /// `S⁽²⁾(i2, j2)` with the empty convention.
    #[inline(always)]
    pub fn s2v(&self, i2: usize, j2: usize) -> E {
        if j2 < i2 {
            E::ZERO
        } else {
            self.s2.get(i2, j2)
        }
    }

    /// Row `i2` of `S⁽²⁾` over columns `i2..N` (`(i2, j2)` at `j2 − i2`).
    #[inline(always)]
    pub fn s2_row(&self, i2: usize) -> &[E] {
        self.s2.row(i2)
    }

    /// Intramolecular pair weight in strand 1, `i1 ≤ j1` (positional,
    /// `-∞` = illegal, and `-∞` when `j1 = i1`).
    #[inline(always)]
    pub fn w1(&self, i1: usize, j1: usize) -> E {
        self.w1.get(i1, j1)
    }

    /// Intramolecular pair weight in strand 2, `i2 ≤ j2`.
    #[inline(always)]
    pub fn w2(&self, i2: usize, j2: usize) -> E {
        self.w2.get(i2, j2)
    }

    /// Row `i2` of the strand-2 pair weights over columns `i2..N`
    /// (`(i2, j2)` at `j2 − i2`).
    #[inline(always)]
    pub fn w2_row(&self, i2: usize) -> &[E] {
        self.w2.row(i2)
    }

    /// Intermolecular pair weight.
    #[inline(always)]
    pub fn wi(&self, i1: usize, i2: usize) -> E {
        self.wi[i1 * self.n() + i2]
    }

    /// Whether this problem's lane kernels run on exact `Lanes16` cells
    /// (`exact_in_lanes16` of its model and shape).
    #[inline(always)]
    pub(crate) fn exact16(&self) -> bool {
        self.exact16
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
//
// Each `r0_instance_*` is `#[inline(never)]`. Generic, they would be
// inlined into `accumulate_r034_serial`, whose `f32` code then differs
// from the out-of-line calls the non-generic kernels compiled to, and
// the hot kernel's speed depends on LLVM's inlining order (see
// `r0_row_simd`). Out of line, the `f32` instances keep that code.
// ---------------------------------------------------------------------

/// Always-on check that every block slice is as long as the layout's
/// storage for an `n × n` triangle — the *one* runtime precondition of
/// the kernels. It is asserted unconditionally at the public compute
/// entry boundary (each `r0_instance_*`, [`accumulate_r034_serial`],
/// [`finalize_triangle`]) and nowhere in the interior: the hot loops
/// index blocks through `FView::inner`/`row_of` with Rust's slice
/// checks, and the [`crate::bounds`] certificates *plus* this entry
/// assertion prove that none of those checks can panic. The check is
/// `O(#blocks)` per call — noise against the `O(n²)`..`O(n³)` work
/// behind it.
#[inline]
fn assert_block_shapes<E: Copy>(ft: &FView<'_, E>, blocks: &[&[E]]) {
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
#[inline(never)]
pub fn r0_instance_naive<E: MaxPlus>(ft: &FView<'_, E>, a: &[E], b: &[E], acc: &mut [E]) {
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
                best = best.max_num(arow[k2 - i2].plus(bv));
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
#[inline(never)]
pub fn r0_instance_permuted<E: MaxPlus>(ft: &FView<'_, E>, a: &[E], b: &[E], acc: &mut [E]) {
    let n = ft.n();
    assert_block_shapes(ft, &[a, b, acc]);
    for i2 in 0..n {
        let arow = ft.row_of(a, i2);
        let crow = ft.row_of_mut(acc, i2);
        for k2 in i2..n.saturating_sub(1) {
            let av = arow[k2 - i2];
            if av.skips() {
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
#[inline(never)]
pub fn r0_instance_tiled<E: MaxPlus>(ft: &FView<'_, E>, a: &[E], b: &[E], acc: &mut [E], t: Tile) {
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
fn r0_row_band_tiled<E: MaxPlus>(
    ft: &FView<'_, E>,
    a: &[E],
    b: &[E],
    acc: &mut [E],
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
                    if av.skips() {
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
#[inline(never)]
pub fn r0_instance_simd<E: MaxPlus>(ft: &FView<'_, E>, a: &[E], b: &[E], acc: &mut [E]) {
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
pub(crate) fn r0_row_simd<E: MaxPlus>(
    ft: &FView<'_, E>,
    arow: &[E],
    b: &[E],
    crow: &mut [E],
    i2: usize,
) {
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
                crow[j2 - i2] = av[lane].plus(brow[j2 - (kk + 1)]).max_num(crow[j2 - i2]);
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
        if !av.skips() {
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
pub fn r3_block<E: MaxPlus>(s1_ik1: E, b: &[E], acc: &mut [E]) {
    if s1_ik1.skips() {
        return;
    }
    mp_axpy(s1_ik1, b, acc);
}

/// `R4` contribution of split `k1`: `acc ⊕= A + S1(k1+1, j1)`.
pub fn r4_block<E: MaxPlus>(s1_k1p1j: E, a: &[E], acc: &mut [E]) {
    if s1_k1p1j.skips() {
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
pub fn accumulate_r034_serial<E: MaxPlus>(
    terms: &Terms<E>,
    ft: &FView<'_, E>,
    i1: usize,
    j1: usize,
    acc: &mut [E],
    order: R0Order,
) {
    assert!(
        i1 <= j1 && j1 < terms.m(),
        "outer cell ({i1}, {j1}) outside the {0}×{0} upper triangle",
        terms.m()
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
        r3_block(terms.s1v(i1, k1), b, acc);
        r4_block(terms.s1v(k1 + 1, j1), a, acc);
    }
}

/// Fewest real members a lane group runs with; fewer run one at a time
/// in `f32`. A group computes all [`LANES`] lanes whatever its fill, so
/// it pays off only from about three members, in each of its uses:
/// - a batch wave's same-shape problems ([`crate::batch`]): a group
///   costs what 1.8 solves of 12×16, or 2.6 of 32×32, cost one at a
///   time (DESIGN.md §7);
/// - a triangle's split points ([`accumulate_r034_lanes`]): in three
///   interleaved runs of serial 40×40, 16×16 and 12×16 solves, a floor
///   of 3 was the fastest or within 6% of it at every shape, and 1 or 2
///   was slower at every shape but once (DESIGN.md §11);
/// - a run of a diagonal's triangles in Phase B ([`finalize_lanes`]): in
///   three interleaved runs of the same shapes, floors 1, 2 and 3 were
///   within 3% of each other in the 16×16 and 12×16 Phase B, and 4 and 5
///   were 7–35% slower.
///
/// In 16-bit lanes, 3 was the fastest floor of the whole serial solve in
/// 8 of 9 runs and shapes, and a 16-bit batch group of three beat three
/// lone solves in every run, where two lost (DESIGN.md §11).
pub(crate) const MIN_LANES: usize = 3;

/// One worker's lane scratch, three blocks of lane cells `L`: a split
/// point group's packed `A` and `B` blocks and the triangle's lane
/// accumulator in [`accumulate_r034_lanes`], then a run's packed pair-1
/// blocks (in `a`) and accumulators (in `acc`) in [`finalize_lanes`].
/// Empty until the worker's first lane group sizes it; the wavefront
/// keeps one per worker for a whole solve.
#[derive(Debug)]
pub(crate) struct SplitLanes<L = Lanes> {
    a: Vec<L>,
    b: Vec<L>,
    acc: Vec<L>,
}

impl<L> Default for SplitLanes<L> {
    fn default() -> Self {
        SplitLanes {
            a: Vec::new(),
            b: Vec::new(),
            acc: Vec::new(),
        }
    }
}

/// Serial Phase A for triangle `(i1, j1)` with the register-tiled `R0`,
/// eight split points per vector: bit for bit what
/// [`accumulate_r034_serial`] computes with [`R0Order::SimdReg`].
///
/// The split points `k1 ∈ [i1, j1)` go in groups of up to [`LANES`]
/// consecutive ones. Lane `l` of a group's packed blocks holds split
/// `k1 + l`'s `A = F(i1, k1 + l)` and `B = F(k1 + l + 1, j1)`, and the
/// lane kernels run `R0` ([`r0_instance_simd`]), `R3` and `R4` on all
/// eight at once, with per-lane `S⁽¹⁾` coefficients, into one lane
/// accumulator; the lanes are joined into `acc` at the end. A group of
/// fewer than eight repeats its last split point in the spare lanes, and
/// one of fewer than [`MIN_LANES`] runs the `f32` kernels instead.
///
/// Regrouping changes which order `acc` meets its candidates in, and a
/// repeat adds a candidate twice. Neither changes a bit: the max of a
/// candidate set is order-free unless a NaN or a `+0`/`−0` tie enters,
/// and no accumulator is ever NaN or `−0` (the domain argument of
/// [`tropical::scalar::MaxPlus`] and DESIGN.md §11). In `Lanes16` cells,
/// which a caller takes only for a problem `exact_in_lanes16` admits,
/// every value is the same integer as in `f32`. The pack and reduce
/// loops are certified by `bounds::accumulate_r034_lanes/{pack,reduce}`.
pub(crate) fn accumulate_r034_lanes<L: LaneCell>(
    terms: &Terms<f32>,
    ft: &FView<'_>,
    i1: usize,
    j1: usize,
    acc: &mut [f32],
    scratch: &mut SplitLanes<L>,
) {
    assert!(
        i1 <= j1 && j1 < terms.m(),
        "outer cell ({i1}, {j1}) outside the {0}×{0} upper triangle",
        terms.m()
    );
    assert_block_shapes(ft, &[acc]);
    let mut k1 = i1;
    if j1 - k1 >= MIN_LANES {
        let len = ft.layout().storage_len(ft.n());
        let lane_ft = ft.shape_of::<L>();
        let SplitLanes { a, b, acc: lanes } = scratch;
        a.resize(len, L::NEG_INF);
        b.resize(len, L::NEG_INF);
        lanes.clear();
        lanes.resize(len, L::NEG_INF);
        while j1 - k1 >= MIN_LANES {
            let real = (j1 - k1).min(LANES);
            let split: [usize; LANES] = std::array::from_fn(|l| k1 + l.min(real - 1));
            pack(a, split.map(|k| ft.block(i1, k)));
            pack(b, split.map(|k| ft.block(k + 1, j1)));
            r0_instance_simd(&lane_ft, a, b, lanes);
            r3_block(L::from_f32s(split.map(|k| terms.s1v(i1, k))), b, lanes);
            r4_block(L::from_f32s(split.map(|k| terms.s1v(k + 1, j1))), a, lanes);
            k1 += real;
        }
        reduce(lanes, acc);
    }
    for k1 in k1..j1 {
        let a = ft.block(i1, k1);
        let b = ft.block(k1 + 1, j1);
        r0_instance_simd(ft, a, b, acc);
        r3_block(terms.s1v(i1, k1), b, acc);
        r4_block(terms.s1v(k1 + 1, j1), a, acc);
    }
}

/// Lane `l` of every cell of `dst` from `blocks[l]`, cell by cell,
/// converted as it is gathered.
fn pack<L: LaneCell>(dst: &mut [L], blocks: [&[f32]; LANES]) {
    let blocks = blocks.map(|block| &block[..dst.len()]);
    for (c, cell) in dst.iter_mut().enumerate() {
        *cell = L::from_f32s(std::array::from_fn(|l| blocks[l][c]));
    }
}

/// Join the lanes of every cell of `lanes` into the same cell of `acc`.
fn reduce<L: LaneCell>(lanes: &[L], acc: &mut [f32]) {
    for (a, cell) in acc.iter_mut().zip(lanes) {
        *a = cell.join_into(*a);
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
///
/// The pair terms are guarded by [`MaxPlus::skips`] on their weight: the
/// `f32` instance skips a `NO_PAIR` (`-∞`) weight, the lane instance
/// adds it, which cannot move `val` (never NaN, see [`MaxPlus`]).
pub fn finalize_triangle<E: MaxPlus>(
    terms: &Terms<E>,
    i1: usize,
    j1: usize,
    ft: &FView<'_, E>,
    prev: Option<&[E]>,
    acc: &mut [E],
) {
    let n = ft.n();
    debug_assert!(
        i1 <= j1 && j1 < terms.m(),
        "outer cell ({i1}, {j1}) outside the {0}×{0} upper triangle",
        terms.m()
    );
    debug_assert!(
        prev.is_some() == (j1 >= i1 + 2),
        "prev block must be supplied exactly when (i1+1, j1-1) is a real cell"
    );
    assert_block_shapes(ft, &[acc]);
    if let Some(p) = prev {
        assert_block_shapes(ft, &[p]);
    }
    let s1ij = terms.s1v(i1, j1);
    // an illegal pair weighs NO_PAIR, which is -∞, and so does the
    // diagonal j1 = i1
    let w1 = terms.w1(i1, j1);
    for i2 in (0..n).rev() {
        let rs_i2 = ft.inner_row_start(i2);
        let w2_row = terms.w2_row(i2);
        for k2 in i2..n {
            // --- finalize F[i1, j1, i2, k2] ---
            let idx = ft.inner(i2, k2);
            let mut val = acc[idx];
            val = val.max_num(s1ij.plus(terms.s2v(i2, k2)));
            // pair i2–k2 (strand-2 closing; -∞ at k2 = i2)
            let w2 = w2_row[k2 - i2];
            if !w2.skips() {
                let inner = if k2 >= i2 + 2 {
                    acc[ft.inner(i2 + 1, k2 - 1)] // row i2+1 already final
                } else {
                    s1ij // empty strand-2 interval ⇒ F = S1
                };
                val = val.max_num(inner.plus(w2));
            }
            // pair i1–j1 (strand-1 closing)
            if !w1.skips() {
                let inner = match prev {
                    Some(p) => p[ft.inner(i2, k2)],
                    None => terms.s2v(i2, k2), // empty strand-1 interval
                };
                val = val.max_num(inner.plus(w1));
            }
            // 1×1 box: the intermolecular pair
            if i1 == j1 && i2 == k2 {
                let wi = terms.wi(i1, i2);
                if !wi.skips() {
                    val = val.max_num(wi);
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
            let s2ik = terms.s2v(i2, k2);
            mp_axpy(s2ik, frow_next, dst);
            // R2: F[i1, j1, i2, k2] + S2(k2+1, j2)
            mp_axpy(val, terms.s2_row(k2 + 1), dst);
        }
    }
}

/// The pair-1 source block `(i1+1, j1−1)`, when it exists.
pub(crate) fn prev_block<'a, E: Copy>(
    ft: &'a FView<'_, E>,
    i1: usize,
    j1: usize,
) -> Option<&'a [E]> {
    (j1 >= i1 + 2).then(|| ft.block(i1 + 1, j1 - 1))
}

/// Phase B of the run of triangles `(i1 + l, i1 + l + d1)` whose blocks
/// `blocks` holds, one [`finalize_triangle`] after another.
fn finalize_each<E: MaxPlus>(
    terms: &Terms<E>,
    ft: &FView<'_, E>,
    i1: usize,
    d1: usize,
    blocks: &mut [E],
) {
    for (l, acc) in blocks.chunks_exact_mut(ft.block_len()).enumerate() {
        let (i1, j1) = (i1 + l, i1 + l + d1);
        finalize_triangle(terms, i1, j1, ft, prev_block(ft, i1, j1), acc);
    }
}

/// Phase B of a run of up to [`LANES`] consecutive triangles
/// `(i1 + l, j1 + l)` of outer diagonal `d1 = j1 − i1`, eight per vector:
/// bit for bit what [`finalize_triangle`] computes for each in turn.
///
/// `blocks` holds the run's accumulators, their Phase A done, one block
/// per triangle. Lane `l` of one block of lane cells takes triangle
/// `l`'s accumulator, and lane `l` of a second its pair-1 block
/// `(i1 + l + 1, j1 + l − 1)` (those blocks sit side by side in diagonal
/// `d1 − 2`). The lane [`finalize_triangle`] runs all of them at
/// `(i1, j1)` against `diagonal` ([`Terms::along_diagonal`]), and lane
/// `l` goes back to triangle `l`'s block. A run of fewer than eight
/// repeats its last triangle in the spare lanes, whose results are
/// dropped; one of fewer than [`MIN_LANES`], or one without `diagonal`,
/// runs the `f32` [`finalize_triangle`] per triangle. The packed blocks
/// live in the worker's [`SplitLanes`], which the run's Phase A has
/// finished with.
///
/// The lane instance computes the `NO_PAIR` terms the `f32` instance
/// skips, which changes no bit, because no `val` is ever NaN
/// ([`MaxPlus`]; DESIGN.md §11), and in `Lanes16` cells every value is
/// the same integer as in `f32`. The pair-1 pack and the write-back are
/// certified by `bounds::finalize_lanes/{pair1,unpack}`.
pub(crate) fn finalize_lanes<L: LaneCell>(
    terms: &Terms<f32>,
    diagonal: Option<&Terms<L>>,
    ft: &FView<'_>,
    i1: usize,
    d1: usize,
    blocks: &mut [f32],
    scratch: &mut SplitLanes<L>,
) {
    let block_len = ft.block_len();
    let run = blocks.len() / block_len;
    let Some(diagonal) = diagonal.filter(|_| run >= MIN_LANES) else {
        finalize_each(terms, ft, i1, d1, blocks);
        return;
    };
    assert!(
        run <= LANES && blocks.len() == run * block_len,
        "a lane run holds 1..={LANES} blocks of {block_len} cells, not {} cells",
        blocks.len()
    );
    let j1 = i1 + d1;
    let member = |l: usize| l.min(run - 1);
    let SplitLanes {
        a: pair1,
        acc: lanes,
        ..
    } = scratch;
    lanes.resize(block_len, L::NEG_INF);
    let accs: &[f32] = blocks;
    pack(
        lanes,
        std::array::from_fn(|l| &accs[member(l) * block_len..]),
    );
    let prev = if d1 >= 2 {
        pair1.resize(block_len, L::NEG_INF);
        let pair1_of = |l: usize| ft.block(i1 + member(l) + 1, j1 + member(l) - 1);
        pack(pair1, std::array::from_fn(pair1_of));
        Some(&pair1[..])
    } else {
        None
    };
    finalize_triangle(diagonal, i1, j1, &ft.shape_of::<L>(), prev, lanes);
    unpack(lanes, blocks);
}

/// Lane `l` of every cell of `lanes` into block `l` of `blocks`, for each
/// of the (at most [`LANES`]) blocks `blocks` holds, converted to `f32`.
fn unpack<L: LaneCell>(lanes: &[L], blocks: &mut [f32]) {
    for (l, block) in blocks.chunks_exact_mut(lanes.len()).enumerate() {
        for (v, cell) in block.iter_mut().zip(lanes) {
            *v = cell.lane(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftable::{FTable, FView, Layout};
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
    fn random_block(ft: &FView<'_>, rng: &mut StdRng) -> Vec<f32> {
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
                let table = FTable::new(2, n, layout);
                let ft = table.view();
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
                let table = FTable::new(2, n, layout);
                let ft = table.view();
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
        let table = FTable::new(2, 7, Layout::Packed);
        let ft = table.view();
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
        let table = FTable::new(2, 6, Layout::Packed);
        let ft = table.view();
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
    fn lane_driver_is_bit_identical_to_the_serial_register_tiled_phase_a() {
        split_point_lanes_match_the_serial_phase_a::<Lanes>();
        split_point_lanes_match_the_serial_phase_a::<tropical::scalar::Lanes16>();
    }

    /// The split-point lane driver in cells `L` against the `f32` Phase A.
    /// Table values are integers in [-8, 8) or -inf, which 16 bits hold
    /// exactly.
    fn split_point_lanes_match_the_serial_phase_a<L: LaneCell>() {
        // m = 20: outer diagonals 0..19 give groups of every fill 1..=8,
        // alone and after a full group, and of fills 1..=3 after two
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = SplitLanes::<L>::default();
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in [1usize, 2, 5, 9] {
                let c = Ctx::new(
                    RnaSeq::random(&mut rng, 20),
                    RnaSeq::random(&mut rng, n),
                    ScoringModel::bpmax_default(),
                );
                let mut table = FTable::new(20, n, layout);
                for (i1, j1, i2, j2) in table.iter_cells().collect::<Vec<_>>() {
                    let v = match rng.gen_range(0..10) {
                        0 => f32::NEG_INFINITY,
                        _ => rng.gen_range(-8..8) as f32,
                    };
                    table.set(i1, j1, i2, j2, v);
                }
                let ft = table.view();
                for i1 in 0..20 {
                    for j1 in i1..20 {
                        let mut want = random_block(&ft, &mut rng);
                        let mut got = want.clone();
                        accumulate_r034_serial(c.terms(), &ft, i1, j1, &mut want, R0Order::SimdReg);
                        accumulate_r034_lanes(c.terms(), &ft, i1, j1, &mut got, &mut scratch);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert!(
                            bits(&got) == bits(&want),
                            "{layout:?} n={n} ({i1},{j1}): {got:?} != {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_runs_finalize_bit_identically_to_one_triangle_at_a_time() {
        triangle_lanes_match_one_triangle_at_a_time::<Lanes>();
        triangle_lanes_match_one_triangle_at_a_time::<tropical::scalar::Lanes16>();
    }

    /// The triangle lane driver in cells `L` against `f32` Phase B, one
    /// triangle at a time, on integer table values as above.
    fn triangle_lanes_match_one_triangle_at_a_time<L: LaneCell>() {
        // m = 12: outer diagonals 0 (the wi term), 1 (no pair-1 block) and
        // 2..=4 all hold at least eight triangles, so each takes runs of
        // every fill 1..=8, at its start and at its end (where the spare
        // lanes' terms repeat the diagonal's last triangle)
        let mut rng = StdRng::seed_from_u64(24);
        let mut scratch = SplitLanes::<L>::default();
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in [1usize, 2, 5, 9] {
                let c = Ctx::new(
                    RnaSeq::random(&mut rng, 12),
                    RnaSeq::random(&mut rng, n),
                    ScoringModel::bpmax_default(),
                );
                let diagonal = Terms::<L>::along_diagonal(c.terms());
                let mut table = FTable::new(12, n, layout);
                for (i1, j1, i2, j2) in table.iter_cells().collect::<Vec<_>>() {
                    let v = match rng.gen_range(0..10) {
                        0 => f32::NEG_INFINITY,
                        _ => rng.gen_range(-8..8) as f32,
                    };
                    table.set(i1, j1, i2, j2, v);
                }
                for d1 in 0..12 {
                    let (ft, blocks) = table.diagonal_mut(d1);
                    let block_len = ft.block_len();
                    let cells = 12 - d1;
                    for fill in 1..=cells.min(LANES) {
                        for i1 in [0, cells - fill] {
                            let run = &blocks[i1 * block_len..(i1 + fill) * block_len];
                            let mut want = run.to_vec();
                            finalize_each(c.terms(), &ft, i1, d1, &mut want);
                            let mut got = run.to_vec();
                            finalize_lanes(
                                c.terms(),
                                Some(&diagonal),
                                &ft,
                                i1,
                                d1,
                                &mut got,
                                &mut scratch,
                            );
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert!(
                                bits(&got) == bits(&want),
                                "{layout:?} n={n} d1={d1} run of {fill} from i1={i1}: \
                                 {got:?} != {want:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn finalize_smallest_triangles() {
        // Single-base strands: F = max(iscore, 0) — exercised through the
        // full finalize path with an all--inf accumulator.
        let c = ctx("G", "C");
        let table = FTable::new(1, 1, Layout::Packed);
        let ft = table.view();
        let mut acc = vec![f32::NEG_INFINITY; 1];
        finalize_triangle(c.terms(), 0, 0, &ft, None, &mut acc);
        assert_eq!(acc[0], 3.0); // G–C inter pair
        let c = ctx("A", "C");
        let mut acc = vec![f32::NEG_INFINITY; 1];
        finalize_triangle(c.terms(), 0, 0, &ft, None, &mut acc);
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
