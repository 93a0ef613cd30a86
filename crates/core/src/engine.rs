//! The `BPMax` program versions (Phases I–III) and the public solve API.
//!
//! All versions compute bit-identical F-tables (property-tested against
//! [`crate::spec`]); they differ in iteration order, parallelization and
//! tiling — the dimensions the paper explores:
//!
//! | [`Algorithm`] | paper version | paper's traversal | `R0` order run here |
//! |---|---|---|---|
//! | `Baseline` | original program | diagonal-by-diagonal, reductions innermost | — |
//! | `Permuted` | Phase I | per-triangle phases, streaming `j2` loops, serial | permuted |
//! | `CoarseGrain` | Phase II | whole triangles distributed over threads | permuted |
//! | `FineGrain` | Phase II | rows of one triangle distributed; `R1`/`R2` serial | permuted |
//! | `Hybrid` | Phase III | fine-grain `R0`/`R3`/`R4`, coarse-grain `F`/`R1`/`R2` | permuted |
//! | `HybridTiled` | Phase III + tiling | hybrid with the `(i2 × k2 × j2)`-tiled `R0` | tiled |
//! | `HybridReg` | register tiling (the paper's future work; the default) | hybrid with a `k2`-register-tiled `R0` | register-tiled |
//!
//! Every version but `Baseline` runs one serial wavefront traversal with
//! its own `R0` order: the workspace's `rayon` runs on the calling thread,
//! so distributing triangles or rows would only add dispatch. The
//! parallel versions' multi-thread behaviour is modelled by `simsched`,
//! and their schedules are verified by [`crate::schedules`].
//!
//! The wavefront invariant shared by all optimized versions: triangles are
//! produced in ascending outer diagonal `d1 = j1 − i1`; within a diagonal,
//! Phase A (accumulate `R0`/`R3`/`R4` from earlier diagonals) and Phase B
//! (finalize with `F`/`R1`/`R2`) touch disjoint blocks, so the paper's
//! parallelizations are race-free by construction (the `schedules` module
//! verifies this declaratively, on the paper's schedule encodings).

use crate::baseline::solve_baseline_watched_range;
use crate::error::BpMaxError;
use crate::ftable::{FTable, Layout};
use crate::kernels::{accumulate_r034_serial, finalize_triangle, Ctx, R0Order, Tile};
use crate::supervise::{
    CancelToken, Deadline, Interrupt, MemoryBudget, Outcome, Supervision, Watch,
};
use crate::windowed::{max_window_within, solve_windowed_watched};
use rna::{JointStructure, RnaSeq, ScoringModel};
use std::str::FromStr;

/// Which `BPMax` program version to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Original diagonal-by-diagonal program (the speedup reference).
    Baseline,
    /// Phase I: loop-permuted serial version (vectorizable inner loops).
    Permuted,
    /// Phase II coarse-grain: threads own whole inner triangles.
    CoarseGrain,
    /// Phase II fine-grain: threads share each triangle's rows.
    FineGrain,
    /// Phase III hybrid: fine-grain `R0`/`R3`/`R4` + coarse-grain
    /// finalization.
    Hybrid,
    /// Phase III hybrid with the tiled double max-plus.
    HybridTiled {
        /// Tile shape for the `R0` matrix instances.
        tile: Tile,
    },
    /// Phase III hybrid with the double max-plus register-tiled along
    /// `k2` — the paper's future-work register tiling, and the champion.
    HybridReg,
}

impl Algorithm {
    /// All versions, in the order the paper introduces them (with the
    /// default tile for the tiled version), the future-work register
    /// tiling last. The single source of truth shared by the CLI, the
    /// bench binaries, and the tests.
    pub const ALL: &'static [Algorithm] = &[
        Algorithm::Baseline,
        Algorithm::Permuted,
        Algorithm::CoarseGrain,
        Algorithm::FineGrain,
        Algorithm::Hybrid,
        Algorithm::HybridTiled {
            tile: Tile::DEFAULT,
        },
        Algorithm::HybridReg,
    ];

    /// Short label for tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Baseline => "base",
            Algorithm::Permuted => "permuted",
            Algorithm::CoarseGrain => "coarse",
            Algorithm::FineGrain => "fine",
            Algorithm::Hybrid => "hybrid",
            Algorithm::HybridTiled { .. } => "hybrid+tiled",
            Algorithm::HybridReg => "hybrid+reg",
        }
    }

    /// The `--alg` spelling: [`Algorithm::label`] with `-` for `+`.
    /// [`FromStr`] parses these, and the unknown-algorithm error lists
    /// them, both from [`Algorithm::ALL`].
    pub fn flag(&self) -> &'static str {
        match self {
            Algorithm::HybridTiled { .. } => "hybrid-tiled",
            Algorithm::HybridReg => "hybrid-reg",
            other => other.label(),
        }
    }

    /// The `R0` loop order this version runs (tile shape included).
    fn r0_order(self) -> R0Order {
        match self {
            Algorithm::HybridTiled { tile } => R0Order::Tiled(tile),
            Algorithm::HybridReg => R0Order::SimdReg,
            _ => R0Order::Permuted,
        }
    }

    /// The tile in play, if this is the tiled version.
    pub fn tile(self) -> Option<Tile> {
        match self {
            Algorithm::HybridTiled { tile } => Some(tile),
            _ => None,
        }
    }

    /// Check the version is runnable (currently: the tile has no zero
    /// dimension).
    pub fn validate(self) -> Result<(), BpMaxError> {
        match self.tile() {
            Some(tile) => tile.validate(),
            None => Ok(()),
        }
    }
}

impl FromStr for Algorithm {
    type Err = BpMaxError;

    /// Parse a version name as the CLI's `--alg` flag and the bench
    /// binaries spell them. Accepts both the flag spellings
    /// ([`Algorithm::flag`]) and the figure labels ([`Algorithm::label`]),
    /// plus a few long forms; the tiled version gets [`Tile::DEFAULT`].
    fn from_str(s: &str) -> Result<Algorithm, BpMaxError> {
        let name = match s {
            "baseline" => "base",
            "coarse-grain" => "coarse",
            "fine-grain" => "fine",
            "tiled" => "hybrid-tiled",
            other => other,
        };
        Algorithm::ALL
            .iter()
            .copied()
            .find(|alg| alg.flag() == name || alg.label() == name)
            .ok_or_else(|| BpMaxError::UnknownAlgorithm {
                name: s.to_string(),
            })
    }
}

/// The compute configuration shared by every consumer of "how to run a
/// solve": [`SolveOptions`] (solo solves), [`crate::batch::BatchOptions`]
/// (the engine), the checkpoint options fingerprint, and the serve wire
/// requests all embed this one type instead of hand-syncing copies of the
/// same knobs.
///
/// Holds the program version (its tile shape included) plus the layout
/// override. Everything *score-affecting* about the computation lives
/// here — deadlines and cancellation deliberately do not, which is why
/// the result cache can key on a profile fingerprint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ComputeProfile {
    algorithm: Algorithm,
    layout: Option<Layout>,
}

impl Default for ComputeProfile {
    /// The champion configuration: hybrid+reg on the problem's layout.
    fn default() -> Self {
        ComputeProfile {
            algorithm: Algorithm::HybridReg,
            layout: None,
        }
    }
}

impl ComputeProfile {
    /// Default profile (see [`ComputeProfile::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the program version.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Override the inner-triangle memory map (Fig 10 ablation). Default:
    /// the problem's own layout.
    #[must_use]
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// The program version, validated (a tile with a zero dimension is
    /// refused).
    pub(crate) fn validated_algorithm(&self) -> Result<Algorithm, BpMaxError> {
        self.algorithm.validate()?;
        Ok(self.algorithm)
    }

    /// The layout to solve with, given the problem's own.
    pub(crate) fn resolved_layout(&self, problem_layout: Layout) -> Layout {
        self.layout.unwrap_or(problem_layout)
    }

    /// The raw knobs, for the serve wire codec (which must round-trip the
    /// profile exactly, overrides-vs-defaults included) and the cost
    /// model (which prices a version whatever its tile).
    pub(crate) fn parts(&self) -> (Algorithm, Option<Layout>) {
        (self.algorithm, self.layout)
    }

    /// Rebuild from raw knobs (serve wire decode).
    pub(crate) fn from_parts(algorithm: Algorithm, layout: Option<Layout>) -> Self {
        ComputeProfile { algorithm, layout }
    }

    /// Hash the *score-affecting* knobs into `h`: the algorithm's label,
    /// its tile shape, the layout override (layout changes block order
    /// inside a snapshot). The one fingerprint rule
    /// shared by the checkpoint manifest
    /// ([`crate::batch::BatchOptions::fingerprint`]) and the serve
    /// result-cache key. The profile's own algorithm is hashed as is —
    /// valid or not — so an invalid profile never shares a key with a
    /// valid one.
    pub(crate) fn fingerprint_into(&self, h: &mut crate::checkpoint::Fnv64) {
        h.write(self.algorithm.label().as_bytes());
        if let Some(tile) = self.algorithm.tile() {
            h.write_u64(tile.i2 as u64);
            h.write_u64(tile.k2 as u64);
            h.write_u64(tile.j2 as u64);
        }
        match self.layout {
            None => h.write(&[0xFF]),
            Some(layout) => h.write(&[crate::checkpoint::layout_code(layout)]),
        }
    }
}

/// Options for [`BpMaxProblem::solve_opts`] — the one fallible solve
/// entry point.
///
/// A [`ComputeProfile`] (the score-affecting knobs, shared with the batch
/// engine and the serve wire API) plus a per-run [`Supervision`] layer.
///
/// ```
/// use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
/// use rna::{RnaSeq, ScoringModel};
///
/// let p = BpMaxProblem::new(
///     "GGGAAACC".parse().unwrap(),
///     "GGUUUCCC".parse().unwrap(),
///     ScoringModel::bpmax_default(),
/// );
/// let solution = p
///     .solve_opts(&SolveOptions::new().algorithm(Algorithm::Hybrid))
///     .unwrap();
/// assert!(solution.score() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SolveOptions {
    profile: ComputeProfile,
    supervision: Supervision,
}

impl SolveOptions {
    /// Default options: the default [`ComputeProfile`], no supervision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an existing compute profile (e.g. one decoded from a
    /// serve request).
    pub fn from_profile(profile: ComputeProfile) -> Self {
        SolveOptions {
            profile,
            supervision: Supervision::none(),
        }
    }

    /// The embedded compute profile.
    pub fn profile(&self) -> &ComputeProfile {
        &self.profile
    }

    /// Select the program version.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.profile = self.profile.algorithm(algorithm);
        self
    }

    /// Override the inner-triangle memory map (Fig 10 ablation). Default:
    /// the problem's own layout.
    #[must_use]
    pub fn layout(mut self, layout: Layout) -> Self {
        self.profile = self.profile.layout(layout);
        self
    }

    /// Watch a cancellation token: the solve stops with
    /// [`BpMaxError::Cancelled`] at the next per-diagonal checkpoint after
    /// the token fires.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.supervision.cancel = Some(token);
        self
    }

    /// Impose a wall-clock deadline: the solve stops with
    /// [`BpMaxError::DeadlineExceeded`] once it passes.
    #[must_use]
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.supervision.deadline = Some(deadline);
        self
    }

    /// Cap the F-table bytes. [`BpMaxProblem::solve_opts`] rejects
    /// oversized problems with [`BpMaxError::BudgetExceeded`];
    /// [`BpMaxProblem::solve_supervised`] can degrade them instead — see
    /// [`SolveOptions::degrade`].
    #[must_use]
    pub fn mem_budget(mut self, budget: MemoryBudget) -> Self {
        self.supervision.budget = Some(budget);
        self
    }

    /// Over-budget behaviour for [`BpMaxProblem::solve_supervised`]:
    /// `true` falls back to the windowed/banded algorithm at the widest
    /// in-budget window and reports [`Outcome::Degraded`] (the score is a
    /// valid lower bound); `false` (the default) rejects.
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.supervision.degrade = degrade;
        self
    }

    /// The supervision layer in effect.
    pub(crate) fn supervision(&self) -> &Supervision {
        &self.supervision
    }

    /// The program version, validated.
    pub(crate) fn validated_algorithm(&self) -> Result<Algorithm, BpMaxError> {
        self.profile.validated_algorithm()
    }

    /// The layout to solve with, given the problem's own.
    pub(crate) fn resolved_layout(&self, problem_layout: Layout) -> Layout {
        self.profile.resolved_layout(problem_layout)
    }
}

/// A `BPMax` problem instance: two strands and a scoring model.
pub struct BpMaxProblem {
    ctx: Ctx,
    layout: Layout,
}

impl BpMaxProblem {
    /// Build a problem (computes both Nussinov tables once; they are
    /// shared by every subsequent solve).
    pub fn new(s1: RnaSeq, s2: RnaSeq, model: ScoringModel) -> Self {
        BpMaxProblem {
            ctx: Ctx::new(s1, s2, model),
            layout: Layout::Packed,
        }
    }

    /// Select the inner-triangle memory map (Fig 10 ablation).
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// The inner-triangle memory map solves default to.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Strand 1.
    pub fn seq1(&self) -> &RnaSeq {
        &self.ctx.s1
    }

    /// Strand 2.
    pub fn seq2(&self) -> &RnaSeq {
        &self.ctx.s2
    }

    /// The scoring model.
    pub fn model(&self) -> &ScoringModel {
        &self.ctx.model
    }

    /// The shared kernel context (folds + weight tables).
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// Total max-plus FLOPs of the reductions at this problem size.
    pub fn flops(&self) -> u64 {
        machine::traffic::bpmax_flops(self.ctx.m(), self.ctx.n())
    }

    /// Solve with explicit options — **the** fallible entry point. Size
    /// overflow and bad tiles come back as [`BpMaxError`] instead of
    /// panics. Supervision is strict here: an
    /// over-budget problem is rejected, a cancelled/expired solve errs —
    /// the degrading flavour is [`BpMaxProblem::solve_supervised`].
    pub fn solve_opts(&self, opts: &SolveOptions) -> Result<Solution<'_>, BpMaxError> {
        let algorithm = opts.validated_algorithm()?;
        let layout = opts.resolved_layout(self.layout);
        let sup = opts.supervision();
        let watch = Watch::new(sup);
        // pre-expired deadlines and pre-fired tokens fail before any
        // allocation, deterministically even on empty problems
        watch.check_now().map_err(Interrupt::into_error)?;
        if let Some(budget) = sup.budget {
            let needed = FTable::estimate_bytes(self.ctx.m(), self.ctx.n(), layout)?;
            if !budget.allows(needed) {
                return Err(BpMaxError::BudgetExceeded {
                    needed_bytes: needed,
                    budget_bytes: budget.bytes,
                });
            }
        }
        let mut f = FTable::try_new(self.ctx.m(), self.ctx.n(), layout)?;
        let m = self.ctx.m();
        self.compute_watched_range(algorithm, &mut f, 0, m, &watch)
            .map_err(Interrupt::into_error)?;
        Ok(Solution { problem: self, f })
    }

    /// Solve under the full supervision contract, degrading instead of
    /// rejecting when the memory budget is too small for the exact table
    /// (and [`SolveOptions::degrade`] is on): the problem falls back to
    /// the windowed/banded algorithm at the widest window that fits, and
    /// the result is flagged [`Outcome::Degraded`] — never silently. The
    /// degraded score is the best window score, a valid lower bound of the
    /// exact score because `F` is monotone under strand-2 interval
    /// inclusion (extending an interval can only add unpaired bases).
    pub fn solve_supervised(&self, opts: &SolveOptions) -> Result<SupervisedSolve<'_>, BpMaxError> {
        let sup = opts.supervision();
        // a dead deadline or fired token beats any budget verdict
        Watch::new(sup).check_now().map_err(Interrupt::into_error)?;
        if let Some(budget) = sup.budget {
            let layout = opts.resolved_layout(self.layout);
            let needed = FTable::estimate_bytes(self.ctx.m(), self.ctx.n(), layout)?;
            if !budget.allows(needed) {
                if !sup.degrade {
                    return Err(BpMaxError::BudgetExceeded {
                        needed_bytes: needed,
                        budget_bytes: budget.bytes,
                    });
                }
                return self.solve_degraded(opts, needed, budget);
            }
        }
        let solution = self.solve_opts(opts)?;
        let score = solution.score();
        Ok(SupervisedSolve {
            outcome: Outcome::Ok,
            score,
            solution: Some(solution),
            window: None,
        })
    }

    /// The degraded arm of [`BpMaxProblem::solve_supervised`].
    fn solve_degraded(
        &self,
        opts: &SolveOptions,
        needed: u64,
        budget: MemoryBudget,
    ) -> Result<SupervisedSolve<'_>, BpMaxError> {
        // surface config errors (bad tile) identically to the exact path
        opts.validated_algorithm()?;
        let w = max_window_within(self.ctx.m(), self.ctx.n(), budget.bytes).ok_or(
            BpMaxError::BudgetExceeded {
                needed_bytes: needed,
                budget_bytes: budget.bytes,
            },
        )?;
        let watch = Watch::new(opts.supervision());
        watch.check_now().map_err(Interrupt::into_error)?;
        let t = solve_windowed_watched(&self.ctx, w, &watch).map_err(Interrupt::into_error)?;
        let score = t
            .window_scores()
            .into_iter()
            .fold(f32::NEG_INFINITY, f32::max);
        Ok(SupervisedSolve {
            outcome: Outcome::Degraded,
            score,
            solution: None,
            window: Some(w),
        })
    }

    /// Compute outer diagonals `start..end` into a caller-provided table
    /// under a supervision watch. On interrupt the table is left partially
    /// filled, never with blocks missing (every taken block is put back
    /// before the checkpoint that can fire). Diagonals `0..start` must
    /// already hold final values (a checkpoint snapshot restore);
    /// `end < m` computes a resumable prefix. By the wavefront invariant
    /// the cells produced are bit-identical to a full run's, whatever the
    /// split point.
    pub(crate) fn compute_watched_range(
        &self,
        algorithm: Algorithm,
        f: &mut FTable,
        start: usize,
        end: usize,
        watch: &Watch,
    ) -> Result<(), Interrupt> {
        match algorithm {
            Algorithm::Baseline => solve_baseline_watched_range(&self.ctx, f, start, end, watch),
            other => self.wavefront_range(other.r0_order(), f, start, end, watch),
        }
    }

    /// Compute only the first `upto` outer diagonals of the F-table —
    /// the prefix a diagonal-granular snapshot captures. Diagonals
    /// `upto..m` stay `-∞`-initialised, exactly the state
    /// [`BpMaxProblem::resume_from`] expects.
    pub fn compute_prefix(&self, algorithm: Algorithm, upto: usize) -> Result<FTable, BpMaxError> {
        algorithm.validate()?;
        let mut f = FTable::try_new(self.ctx.m(), self.ctx.n(), self.layout)?;
        self.compute_watched_range(algorithm, &mut f, 0, upto, &Watch::none())
            .map_err(Interrupt::into_error)?;
        Ok(f)
    }

    /// Finish a table whose outer diagonals `0..start` already hold final
    /// values (from [`BpMaxProblem::compute_prefix`] or a restored
    /// [`crate::checkpoint::TableSnapshot`]). After this, `f` is
    /// bit-identical to a from-scratch solve with `algorithm`.
    pub fn resume_from(
        &self,
        algorithm: Algorithm,
        f: &mut FTable,
        start: usize,
    ) -> Result<(), BpMaxError> {
        algorithm.validate()?;
        if f.m() != self.ctx.m() || f.n() != self.ctx.n() {
            return Err(BpMaxError::InvalidArgument {
                detail: format!(
                    "resume table is {}x{} but the problem is {}x{}",
                    f.m(),
                    f.n(),
                    self.ctx.m(),
                    self.ctx.n()
                ),
            });
        }
        self.compute_watched_range(algorithm, f, start, self.ctx.m(), &Watch::none())
            .map_err(Interrupt::into_error)
    }

    /// The wavefront driver: ascending outer diagonals `start..end`, and
    /// within a diagonal each triangle's Phase A (`R0` in `order`, then
    /// `R3`/`R4`) and Phase B in turn. The supervision checkpoint sits at
    /// the top of the `d1` loop — between diagonals every block is inside
    /// the table, so an interrupt always leaves `f` recyclable (and, via
    /// [`Watch::note_progress`], with a known-final diagonal prefix the
    /// checkpoint layer can snapshot).
    fn wavefront_range(
        &self,
        order: R0Order,
        f: &mut FTable,
        start: usize,
        end: usize,
        watch: &Watch,
    ) -> Result<(), Interrupt> {
        let ctx = &self.ctx;
        let m = ctx.m();
        let n = ctx.n();
        assert!(f.m() == m && f.n() == n, "table shape mismatch");
        if m == 0 || n == 0 {
            return Ok(());
        }
        let end = end.min(m);
        for d1 in start..end {
            watch.note_progress(d1);
            watch.check()?;
            for i1 in 0..m - d1 {
                let j1 = i1 + d1;
                let mut acc = f.take_block(i1, j1);
                accumulate_r034_serial(ctx, f, i1, j1, &mut acc, order);
                let prev = prev_block(f, i1, j1);
                finalize_triangle(ctx, i1, j1, f, prev, &mut acc);
                f.put_block(i1, j1, acc);
            }
        }
        watch.note_progress(end.max(start));
        Ok(())
    }
}

/// The result of [`BpMaxProblem::solve_supervised`]: the per-problem
/// verdict plus whatever score the outcome supports.
pub struct SupervisedSolve<'p> {
    outcome: Outcome,
    score: f32,
    solution: Option<Solution<'p>>,
    window: Option<usize>,
}

impl std::fmt::Debug for SupervisedSolve<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisedSolve")
            .field("outcome", &self.outcome)
            .field("score", &self.score)
            .field("window", &self.window)
            .field("has_solution", &self.solution.is_some())
            .finish()
    }
}

impl<'p> SupervisedSolve<'p> {
    /// How the solve ended ([`Outcome::Ok`] or [`Outcome::Degraded`] here;
    /// the other outcomes surface as errors from a single solve, or as
    /// batch items).
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// The exact score ([`Outcome::Ok`]) or the best-window lower bound
    /// ([`Outcome::Degraded`]).
    pub fn score(&self) -> f32 {
        self.score
    }

    /// The full solution — `None` when degraded (the exact table was
    /// never built; that is the point).
    pub fn solution(&self) -> Option<&Solution<'p>> {
        self.solution.as_ref()
    }

    /// The window width of a degraded solve.
    pub fn window(&self) -> Option<usize> {
        self.window
    }
}

/// The pair-1 source block `(i1+1, j1−1)`, when it exists.
fn prev_block(f: &FTable, i1: usize, j1: usize) -> Option<&[f32]> {
    (j1 >= i1 + 2).then(|| f.block(i1 + 1, j1 - 1))
}

/// A solved `BPMax` instance.
pub struct Solution<'p> {
    problem: &'p BpMaxProblem,
    f: FTable,
}

impl std::fmt::Debug for Solution<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solution")
            .field("m", &self.f.m())
            .field("n", &self.f.n())
            .field("score", &self.score())
            .finish()
    }
}

impl<'p> Solution<'p> {
    /// Wrap a computed table (batch engine's constructor).
    pub(crate) fn from_parts(problem: &'p BpMaxProblem, f: FTable) -> Solution<'p> {
        Solution { problem, f }
    }

    /// Consume the solution, yielding the F-table (e.g. to recycle its
    /// blocks into a [`crate::ftable::BlockPool`]).
    pub fn into_ftable(self) -> FTable {
        self.f
    }

    /// The optimal interaction score `F[0, M−1, 0, N−1]` (0 when either
    /// strand is empty — an empty structure).
    pub fn score(&self) -> f32 {
        match self.f.final_score() {
            Some(v) => v,
            None => {
                // one strand empty: the problem degenerates to Nussinov
                if self.problem.ctx().m() == 0 {
                    self.problem.ctx().fold2.best_score()
                } else {
                    self.problem.ctx().fold1.best_score()
                }
            }
        }
    }

    /// The full F-table.
    pub fn ftable(&self) -> &FTable {
        &self.f
    }

    /// The problem this solves.
    pub fn problem(&self) -> &BpMaxProblem {
        self.problem
    }

    /// Recover one optimal joint structure.
    pub fn traceback(&self) -> JointStructure {
        crate::traceback::traceback(self.problem.ctx(), &self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_score;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn problem(a: &str, b: &str) -> BpMaxProblem {
        BpMaxProblem::new(
            a.parse().unwrap(),
            b.parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    /// Score via the one entry point, with `alg`.
    fn score(p: &BpMaxProblem, alg: Algorithm) -> f32 {
        p.solve_opts(&SolveOptions::new().algorithm(alg))
            .unwrap()
            .score()
    }

    /// F-table via the one entry point, with `alg`.
    fn table(p: &BpMaxProblem, alg: Algorithm) -> FTable {
        p.solve_opts(&SolveOptions::new().algorithm(alg))
            .unwrap()
            .into_ftable()
    }

    #[test]
    fn all_algorithms_agree_with_baseline_small() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let reference = table(&p, Algorithm::Baseline);
        for &alg in Algorithm::ALL.iter().skip(1) {
            let f = table(&p, alg);
            for (i1, j1, i2, j2) in reference.iter_cells().collect::<Vec<_>>() {
                assert_eq!(
                    f.get(i1, j1, i2, j2),
                    reference.get(i1, j1, i2, j2),
                    "{alg:?} F[{i1},{j1},{i2},{j2}]"
                );
            }
        }
    }

    #[test]
    fn all_algorithms_match_spec_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(23);
        let model = ScoringModel::bpmax_default();
        for trial in 0..6 {
            let s1 = RnaSeq::random(&mut rng, 5 + trial % 3);
            let s2 = RnaSeq::random(&mut rng, 4 + trial % 4);
            let want = spec_score(&s1, &s2, &model);
            let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
            for &alg in Algorithm::ALL {
                assert_eq!(score(&p, alg), want, "{alg:?} on {s1} / {s2}");
            }
        }
    }

    #[test]
    fn all_layouts_agree() {
        let model = ScoringModel::bpmax_default();
        let s1: RnaSeq = "GGAUCGA".parse().unwrap();
        let s2: RnaSeq = "CAUGG".parse().unwrap();
        let want = spec_score(&s1, &s2, &model);
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone()).with_layout(layout);
            for alg in [
                Algorithm::Permuted,
                Algorithm::Hybrid,
                Algorithm::HybridTiled {
                    tile: Tile::cubic(2),
                },
            ] {
                assert_eq!(score(&p, alg), want, "{layout:?} {alg:?}");
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        // empty strand-2: score = Nussinov of strand 1
        let p = problem("GGGAAACCC", "");
        for &alg in Algorithm::ALL {
            assert_eq!(score(&p, alg), 9.0, "{alg:?}");
        }
        // both single bases
        let p = problem("G", "C");
        for &alg in Algorithm::ALL {
            assert_eq!(score(&p, alg), 3.0, "{alg:?}");
        }
    }

    #[test]
    fn tile_shapes_do_not_change_results() {
        let p = problem("GGAUCGACGG", "CCGAUGC");
        let want = score(&p, Algorithm::Permuted);
        for tile in [
            Tile::cubic(1),
            Tile::cubic(3),
            Tile::small(),
            Tile::default(),
            Tile {
                i2: 2,
                k2: 5,
                j2: 3,
            },
        ] {
            assert_eq!(score(&p, Algorithm::HybridTiled { tile }), want, "{tile:?}");
        }
    }

    #[test]
    fn solve_opts_agrees_across_algorithms() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let want = score(&p, Algorithm::Permuted);
        for &alg in Algorithm::ALL {
            let sol = p.solve_opts(&SolveOptions::new().algorithm(alg)).unwrap();
            assert_eq!(sol.score(), want, "{alg:?}");
        }
        let sol = p
            .solve_opts(
                &SolveOptions::new()
                    .algorithm(Algorithm::Hybrid)
                    .layout(Layout::Shifted),
            )
            .unwrap();
        assert_eq!(sol.score(), want);
        assert_eq!(sol.ftable().layout(), Layout::Shifted);
    }

    #[test]
    fn solve_opts_rejects_bad_tile() {
        let p = problem("GGAU", "CCA");
        let bad = Algorithm::HybridTiled {
            tile: Tile {
                i2: 0,
                k2: 4,
                j2: 4,
            },
        };
        let err = p
            .solve_opts(&SolveOptions::new().algorithm(bad))
            .expect_err("bad tile must fail");
        assert!(
            matches!(err, crate::error::BpMaxError::BadTile { .. }),
            "{err}"
        );
    }

    #[test]
    fn algorithm_const_all_lists_every_version_once() {
        assert_eq!(Algorithm::ALL.len(), 7);
        for (i, a) in Algorithm::ALL.iter().enumerate() {
            for b in Algorithm::ALL.iter().skip(i + 1) {
                assert_ne!(a, b, "duplicate entry in Algorithm::ALL");
            }
        }
    }

    #[test]
    fn solve_options_and_profile_share_one_core() {
        // every profile knob set through SolveOptions lands in the
        // embedded ComputeProfile — the single shared options core
        let profile = ComputeProfile::new()
            .algorithm(Algorithm::Hybrid)
            .layout(Layout::Shifted);
        let via_opts = SolveOptions::new()
            .algorithm(Algorithm::Hybrid)
            .layout(Layout::Shifted);
        assert_eq!(*via_opts.profile(), profile);
        assert_eq!(*SolveOptions::from_profile(profile).profile(), profile);
    }

    #[test]
    fn each_version_runs_its_own_r0_order() {
        let tile = Tile::cubic(3);
        assert_eq!(
            Algorithm::HybridTiled { tile }.r0_order(),
            R0Order::Tiled(tile)
        );
        assert_eq!(Algorithm::HybridReg.r0_order(), R0Order::SimdReg);
        for alg in [
            Algorithm::Permuted,
            Algorithm::CoarseGrain,
            Algorithm::FineGrain,
            Algorithm::Hybrid,
        ] {
            assert_eq!(alg.r0_order(), R0Order::Permuted, "{alg:?}");
        }
        assert_eq!(ComputeProfile::new().parts().0, Algorithm::HybridReg);
    }

    #[test]
    fn profile_fingerprint_tracks_every_profile_knob() {
        let base = ComputeProfile::new();
        let fp = |p: &ComputeProfile| {
            let mut h = crate::checkpoint::Fnv64::new();
            p.fingerprint_into(&mut h);
            h.finish()
        };
        let tiled = |tile| base.algorithm(Algorithm::HybridTiled { tile });
        assert_ne!(fp(&base), fp(&base.algorithm(Algorithm::Permuted)));
        assert_ne!(fp(&base), fp(&base.layout(Layout::Shifted)));
        assert_ne!(fp(&base), fp(&tiled(Tile::DEFAULT)));
        assert_ne!(fp(&tiled(Tile::DEFAULT)), fp(&tiled(Tile::cubic(2))));
        // an invalid tile hashes as itself, never as another version
        let bad = tiled(Tile {
            i2: 0,
            k2: 4,
            j2: 4,
        });
        for &alg in Algorithm::ALL {
            assert_ne!(fp(&bad), fp(&base.algorithm(alg)), "{alg:?}");
        }
    }

    #[test]
    fn algorithm_from_str_accepts_flags_and_labels() {
        for &alg in Algorithm::ALL {
            // every figure label and flag spelling parses back to its
            // algorithm
            assert_eq!(alg.label().parse::<Algorithm>().unwrap(), alg, "{alg:?}");
            assert_eq!(alg.flag().parse::<Algorithm>().unwrap(), alg, "{alg:?}");
        }
        assert_eq!(
            "baseline".parse::<Algorithm>().unwrap(),
            Algorithm::Baseline
        );
        assert_eq!(
            "hybrid-tiled".parse::<Algorithm>().unwrap(),
            Algorithm::HybridTiled {
                tile: Tile::DEFAULT
            }
        );
        assert_eq!(
            "tiled".parse::<Algorithm>().unwrap(),
            "hybrid+tiled".parse().unwrap()
        );
        assert_eq!(
            "hybrid-reg".parse::<Algorithm>().unwrap(),
            Algorithm::HybridReg
        );
        let err = "warp".parse::<Algorithm>().unwrap_err();
        assert!(err.to_string().contains("warp"), "{err}");
    }

    #[test]
    fn prefix_then_resume_is_bit_identical() {
        let p = problem("GGAUCGACGG", "CCGAUGC");
        let m = p.seq1().len();
        for &alg in Algorithm::ALL {
            let reference = table(&p, alg);
            for split in [0, 1, m / 2, m - 1, m] {
                let mut f = p.compute_prefix(alg, split).unwrap();
                p.resume_from(alg, &mut f, split).unwrap();
                for (i1, j1, i2, j2) in reference.iter_cells().collect::<Vec<_>>() {
                    assert_eq!(
                        f.get(i1, j1, i2, j2),
                        reference.get(i1, j1, i2, j2),
                        "{alg:?} split {split} F[{i1},{j1},{i2},{j2}]"
                    );
                }
            }
        }
    }

    #[test]
    fn resume_from_rejects_shape_mismatch() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let other = problem("GGAU", "CCA");
        let mut f = other.compute_prefix(Algorithm::Permuted, 2).unwrap();
        let err = p
            .resume_from(Algorithm::Permuted, &mut f, 2)
            .expect_err("shape mismatch must fail");
        assert!(matches!(err, BpMaxError::InvalidArgument { .. }), "{err}");
    }

    #[test]
    fn cancelled_token_stops_the_solve_before_work() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let token = crate::supervise::CancelToken::new();
        token.cancel();
        let err = p
            .solve_opts(&SolveOptions::new().cancel(token))
            .unwrap_err();
        assert_eq!(err, BpMaxError::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_the_solve() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let opts = SolveOptions::new().deadline(crate::supervise::Deadline::within(Duration::ZERO));
        let err = p.solve_opts(&opts).unwrap_err();
        assert!(matches!(err, BpMaxError::DeadlineExceeded { .. }), "{err}");
        // … and on the degraded path too
        let err = p
            .solve_supervised(
                &opts
                    .clone()
                    .mem_budget(crate::supervise::MemoryBudget::bytes(64))
                    .degrade(true),
            )
            .unwrap_err();
        assert!(matches!(err, BpMaxError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn generous_supervision_changes_nothing() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let want = p.solve_opts(&SolveOptions::new()).unwrap().score();
        let token = crate::supervise::CancelToken::new();
        let supervised = p
            .solve_opts(
                &SolveOptions::new()
                    .cancel(token)
                    .deadline(crate::supervise::Deadline::within(Duration::from_secs(
                        3600,
                    )))
                    .mem_budget(crate::supervise::MemoryBudget::bytes(u64::MAX)),
            )
            .unwrap();
        assert_eq!(supervised.score(), want);
    }

    #[test]
    fn strict_budget_rejects_oversized_problems() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let err = p
            .solve_opts(&SolveOptions::new().mem_budget(crate::supervise::MemoryBudget::bytes(8)))
            .unwrap_err();
        match err {
            BpMaxError::BudgetExceeded {
                needed_bytes,
                budget_bytes,
            } => {
                assert_eq!(budget_bytes, 8);
                assert_eq!(
                    needed_bytes,
                    FTable::estimate_bytes(8, 6, Layout::Packed).unwrap()
                );
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        // solve_supervised without degrade: same rejection
        let err = p
            .solve_supervised(
                &SolveOptions::new().mem_budget(crate::supervise::MemoryBudget::bytes(8)),
            )
            .unwrap_err();
        assert!(matches!(err, BpMaxError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn degraded_solve_reports_a_lower_bound() {
        let p = problem("GGGAAACC", "GGUUUCCCGG");
        let exact = p.solve_opts(&SolveOptions::new()).unwrap().score();
        let full_bytes = FTable::estimate_bytes(8, 10, Layout::Packed).unwrap();
        let got = p
            .solve_supervised(
                &SolveOptions::new()
                    .mem_budget(crate::supervise::MemoryBudget::bytes(full_bytes / 2))
                    .degrade(true),
            )
            .unwrap();
        assert_eq!(got.outcome(), crate::supervise::Outcome::Degraded);
        let w = got.window().expect("degraded solves report their window");
        assert!((1..10).contains(&w), "w={w}");
        assert!(got.score() <= exact, "{} vs {exact}", got.score());
        assert!(got.score() > f32::NEG_INFINITY);
        assert!(got.solution().is_none());

        // within budget: exact, Outcome::Ok, full solution attached
        let got = p
            .solve_supervised(
                &SolveOptions::new()
                    .mem_budget(crate::supervise::MemoryBudget::bytes(full_bytes))
                    .degrade(true),
            )
            .unwrap();
        assert_eq!(got.outcome(), crate::supervise::Outcome::Ok);
        assert_eq!(got.score(), exact);
        assert!(got.solution().is_some());
        assert_eq!(got.window(), None);
    }

    #[test]
    fn hopeless_budget_fails_even_with_degradation() {
        let p = problem("GGAUCGAC", "CCGAUG");
        let err = p
            .solve_supervised(
                &SolveOptions::new()
                    .mem_budget(crate::supervise::MemoryBudget::bytes(0))
                    .degrade(true),
            )
            .unwrap_err();
        assert!(matches!(err, BpMaxError::BudgetExceeded { .. }), "{err}");
    }

    #[test]
    fn flops_positive_and_growing() {
        let small = problem("GGAU", "CCA").flops();
        let large = problem("GGAUGGAU", "CCACCA").flops();
        assert!(small > 0);
        assert!(large > small);
    }
}
