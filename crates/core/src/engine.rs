//! The `BPMax` program versions (Phases I–III) and the public solve API.
//!
//! All versions compute bit-identical F-tables (property-tested against
//! [`crate::spec`]); they differ in iteration order, parallelization and
//! tiling — the dimensions the paper explores:
//!
//! | [`Algorithm`] | paper version | paper's traversal | `R0` order run here | threads here |
//! |---|---|---|---|---|
//! | `Baseline` | original program | diagonal-by-diagonal, reductions innermost | — | 1 |
//! | `Permuted` | Phase I | per-triangle phases, streaming `j2` loops, serial | permuted | 1 |
//! | `CoarseGrain` | Phase II | whole triangles distributed over threads | permuted | split diagonals |
//! | `HybridTiled` | Phase III + tiling | hybrid with the `(i2 × k2 × j2)`-tiled `R0` | tiled | split diagonals |
//! | `HybridReg` | register tiling (the paper's future work; the default) | hybrid with a `k2`-register-tiled `R0` | register-tiled, eight split points `k1` per vector; Phase B eight triangles per vector | split diagonals, in runs of triangles |
//!
//! Every version but `Baseline` runs one wavefront traversal with its own
//! `R0` order. `Permuted`, the paper's serial Phase I program, runs it on
//! the calling thread and is the one-thread reference. The other three
//! split each outer diagonal's triangles across `std::thread::scope`
//! workers, claimed one at a time: the paper's coarse-grain `parallel
//! for` with a dynamic schedule of chunk 1. A diagonal gets one worker
//! per core only while each worker's share is at least 0.7 MFLOP
//! (`MIN_FLOPS_PER_WORKER`, DESIGN.md §3). Below that cutoff the
//! triangles run in turn on the calling thread, so the 12×16 and 16×16
//! solves of scan and serve never spawn a thread; a batch wave splits
//! its many small problems across threads instead, by the same rule
//! ([`crate::batch`]).
//! So `HybridTiled` and `HybridReg` run the coarse-grain split with the
//! tiled or register-tiled `R0`. `HybridReg` runs a triangle's split
//! points `k1` eight at a time, packed into lane cells
//! (`kernels::accumulate_r034_lanes`), and its workers claim runs of up
//! to eight consecutive triangles of a diagonal, whose Phase B they run
//! in the lanes of one vector (`kernels::finalize_lanes`), both on a
//! scratch each worker keeps for the whole solve. Both lane kinds run in
//! exact 16-bit cells when the problem's model and shape allow
//! (`kernels::exact_in_lanes16`), in `f32` cells otherwise.
//! One worker cuts a diagonal into runs of eight; a split cuts it into a
//! multiple of its workers of runs as even as whole triangles allow
//! (`run_lengths`).
//! The paper's Phase II fine-grain and
//! Phase III hybrid schedules share one triangle's rows across threads;
//! that would only help diagonals with fewer triangles than cores. They
//! are verified by [`crate::schedules`] and priced by
//! [`crate::perfmodel::BpMaxVariant`], not run. Behaviour beyond this
//! host's cores is modelled by `simsched`.
//!
//! The wavefront invariant shared by all optimized versions: triangles are
//! produced in ascending outer diagonal `d1 = j1 − i1`; within a diagonal,
//! Phase A (accumulate `R0`/`R3`/`R4` from earlier diagonals) and Phase B
//! (finalize with `F`/`R1`/`R2`) touch disjoint blocks, so the paper's
//! parallelizations are race-free by construction (the `schedules` module
//! verifies this declaratively, on the paper's schedule encodings).

use crate::baseline::solve_baseline_watched_range;
use crate::error::BpMaxError;
use crate::ftable::{FTable, FView, Layout};
use crate::kernels::{
    accumulate_r034_lanes, accumulate_r034_serial, finalize_lanes, Ctx, R0Order, SplitLanes, Terms,
    Tile, MIN_LANES,
};
use crate::perfmodel::{triangle_r0_flops, triangle_r12_flops};
use crate::supervise::{CancelToken, Deadline, Interrupt, MemoryBudget, Supervision, Watch};
use rna::{JointStructure, RnaSeq, ScoringModel};
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock, PoisonError};
use tropical::scalar::{LaneCell, Lanes, Lanes16, MaxPlus, LANES};

/// The least max-plus work, in flops, that one worker of a split must
/// get, whether it splits an outer diagonal's triangles or a batch wave's
/// coarse problems. A second worker has to save at least twice the cost
/// of a scoped spawn and join at the one-thread solve rate; the
/// measurements behind the value are in DESIGN.md §3. Every diagonal of
/// a 12×16 or 16×16 solve stays below it, and every 40×40 diagonal but
/// the one-triangle top one splits on two cores; so does a 200-window
/// scan wave (143 MFLOP), and a batch of a few tiny problems does not.
pub(crate) const MIN_FLOPS_PER_WORKER: f64 = 0.7e6;

/// Which `BPMax` program version to run: the whole score-affecting
/// configuration of a solve. [`SolveOptions`], the batch engine's
/// options fingerprint and the serve wire request carry it as is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Algorithm {
    /// Original diagonal-by-diagonal program (the speedup reference).
    Baseline,
    /// Phase I: loop-permuted serial version (vectorizable inner loops).
    Permuted,
    /// Phase II coarse-grain: threads own whole inner triangles.
    CoarseGrain,
    /// The paper's Phase III tiled version, run here as the coarse-grain
    /// split with the tiled double max-plus `R0`.
    HybridTiled {
        /// Tile shape for the `R0` matrix instances.
        tile: Tile,
    },
    /// The coarse-grain split with the double max-plus register-tiled
    /// along `k2` — the paper's future-work register tiling, and the
    /// champion (the default).
    #[default]
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
    pub(crate) fn r0_order(self) -> R0Order {
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

    /// Hash this version into `h`: its label and its tile shape. The one
    /// fingerprint rule shared by the checkpoint manifest
    /// ([`crate::batch::BatchOptions::fingerprint`]) and the serve
    /// result-cache key. The version is hashed as is — valid or not — so
    /// an invalid tile never shares a key with a valid version. The
    /// closing `0xFF` byte once said "no layout override"; it stays so
    /// that every fingerprint keeps its value, and a checkpoint written
    /// before the override was removed still resumes.
    pub(crate) fn fingerprint_into(self, h: &mut crate::checkpoint::Fnv64) {
        h.write(self.label().as_bytes());
        if let Some(tile) = self.tile() {
            h.write_u64(tile.i2 as u64);
            h.write_u64(tile.k2 as u64);
            h.write_u64(tile.j2 as u64);
        }
        h.write(&[0xFF]);
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

/// Options for [`BpMaxProblem::solve_opts`] — the one fallible solve
/// entry point.
///
/// An [`Algorithm`] (everything score-affecting, shared with the batch
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
///     .solve_opts(&SolveOptions::new().algorithm(Algorithm::CoarseGrain))
///     .unwrap();
/// assert!(solution.score() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SolveOptions {
    algorithm: Algorithm,
    supervision: Supervision,
}

impl SolveOptions {
    /// Default options: the default [`Algorithm`], no supervision.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the program version.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
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
    /// [`crate::batch::BatchEngine::solve_pooled`] can degrade them
    /// instead — see [`SolveOptions::degrade`].
    #[must_use]
    pub fn mem_budget(mut self, budget: MemoryBudget) -> Self {
        self.supervision.budget = Some(budget);
        self
    }

    /// Over-budget behaviour for
    /// [`crate::batch::BatchEngine::solve_pooled`] and the batch waves:
    /// `true` falls back to the windowed/banded algorithm at the widest
    /// in-budget window and reports [`crate::supervise::Outcome::Degraded`]
    /// (the score is a valid lower bound); `false` (the default) rejects.
    /// [`BpMaxProblem::solve_opts`] always rejects.
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.supervision.degrade = degrade;
        self
    }

    /// The supervision layer in effect.
    pub(crate) fn supervision(&self) -> &Supervision {
        &self.supervision
    }

    /// The program version as set, unvalidated: the options fingerprint
    /// hashes it and the cost model prices it (whatever its tile).
    pub(crate) fn raw_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The program version, validated (a tile with a zero dimension is
    /// refused).
    pub(crate) fn validated_algorithm(&self) -> Result<Algorithm, BpMaxError> {
        self.algorithm.validate()?;
        Ok(self.algorithm)
    }
}

/// A `BPMax` problem instance: two strands and a scoring model.
pub struct BpMaxProblem {
    ctx: Ctx,
}

impl BpMaxProblem {
    /// Build a problem (computes both Nussinov tables once; they are
    /// shared by every subsequent solve).
    pub fn new(s1: RnaSeq, s2: RnaSeq, model: ScoringModel) -> Self {
        BpMaxProblem {
            ctx: Ctx::new(s1, s2, model),
        }
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
    /// the degrading flavour is [`crate::batch::BatchEngine::solve_pooled`].
    pub fn solve_opts(&self, opts: &SolveOptions) -> Result<Solution<'_>, BpMaxError> {
        let algorithm = opts.validated_algorithm()?;
        let sup = opts.supervision();
        let watch = Watch::new(sup);
        // pre-expired deadlines and pre-fired tokens fail before any
        // allocation, deterministically even on empty problems
        watch.check_now().map_err(Interrupt::into_error)?;
        if let Some(budget) = sup.budget {
            let needed = FTable::estimate_bytes(self.ctx.m(), self.ctx.n(), Layout::Packed)?;
            if !budget.allows(needed) {
                return Err(BpMaxError::BudgetExceeded {
                    needed_bytes: needed,
                    budget_bytes: budget.bytes,
                });
            }
        }
        let mut f = FTable::try_new(self.ctx.m(), self.ctx.n(), Layout::Packed)?;
        let m = self.ctx.m();
        self.compute_watched_range(algorithm, &mut f, 0, m, &watch)
            .map_err(Interrupt::into_error)?;
        Ok(Solution { problem: self, f })
    }

    /// Compute outer diagonals `start..end` into a caller-provided table
    /// under a supervision watch. On interrupt the table is left partially
    /// filled. Diagonals `0..start` must already hold final values (a
    /// checkpoint snapshot restore); `end < m` computes a resumable
    /// prefix. By the wavefront invariant the cells produced are
    /// bit-identical to a full run's, whatever the split point.
    pub(crate) fn compute_watched_range(
        &self,
        algorithm: Algorithm,
        f: &mut FTable,
        start: usize,
        end: usize,
        watch: &Watch,
    ) -> Result<(), Interrupt> {
        let terms = self.ctx.terms();
        match algorithm {
            Algorithm::Baseline => solve_baseline_watched_range(&self.ctx, f, start, end, watch),
            Algorithm::Permuted => solve_range(
                terms,
                R0Order::Permuted,
                f,
                start,
                end,
                watch,
                Split::SERIAL,
            ),
            other => solve_range(terms, other.r0_order(), f, start, end, watch, Split::host()),
        }
    }

    /// Compute only the first `upto` outer diagonals of the F-table —
    /// the prefix a diagonal-granular snapshot captures. Diagonals
    /// `upto..m` stay `-∞`-initialised, exactly the state
    /// [`BpMaxProblem::resume_from`] expects.
    pub fn compute_prefix(&self, algorithm: Algorithm, upto: usize) -> Result<FTable, BpMaxError> {
        algorithm.validate()?;
        let mut f = FTable::try_new(self.ctx.m(), self.ctx.n(), Layout::Packed)?;
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
}

/// One problem's wavefront in `order` on `split`: the kernels its runs
/// of triangles take. Under [`R0Order::SimdReg`] (`hybrid+reg`) a run
/// holds up to [`LANES`] triangles of a diagonal: each one's Phase A in
/// split-point lanes ([`accumulate_r034_lanes`]), then the run's Phase B
/// in triangle lanes ([`finalize_lanes`]), against lane terms built once
/// here ([`Terms::along_diagonal`]). The lanes are [`Lanes16`] cells when
/// the problem's terms say 16 bits are exact (`Terms::exact16`), and
/// [`Lanes`] cells otherwise. Every other order takes runs of one
/// triangle: [`accumulate_r034_serial`], then [`finalize_lanes`], which
/// finalizes a run that short one triangle at a time.
pub(crate) fn solve_range(
    terms: &Terms<f32>,
    order: R0Order,
    f: &mut FTable,
    start: usize,
    end: usize,
    watch: &Watch,
    split: Split,
) -> Result<(), Interrupt> {
    assert!(
        f.m() == terms.m() && f.n() == terms.n(),
        "table shape mismatch"
    );
    if order == R0Order::SimdReg && terms.exact16() {
        solve_range_in::<Lanes16>(terms, order, f, start, end, watch, split)
    } else {
        solve_range_in::<Lanes>(terms, order, f, start, end, watch, split)
    }
}

/// [`solve_range`] with its lanes, if any, in cells `L`.
fn solve_range_in<L: LaneCell>(
    terms: &Terms<f32>,
    order: R0Order,
    f: &mut FTable,
    start: usize,
    end: usize,
    watch: &Watch,
    split: Split,
) -> Result<(), Interrupt> {
    let lanes = order == R0Order::SimdReg;
    let diagonal = (lanes && terms.m() >= MIN_LANES).then(|| Terms::<L>::along_diagonal(terms));
    let longest = if diagonal.is_some() { LANES } else { 1 };
    let run = |scratch: &mut SplitLanes<L>, done: &FView<'_>, i1, d1, blocks: &mut [f32]| {
        for (l, acc) in blocks.chunks_exact_mut(done.block_len()).enumerate() {
            let (i1, j1) = (i1 + l, i1 + l + d1);
            if lanes {
                accumulate_r034_lanes(terms, done, i1, j1, acc, scratch);
            } else {
                accumulate_r034_serial(terms, done, i1, j1, acc, order);
            }
        }
        finalize_lanes(terms, diagonal.as_ref(), done, i1, d1, blocks, scratch);
    };
    wavefront(f, start, end, watch, split, longest, run)
}

/// The coarse-grain schedule (the paper's Phase II) over any table:
/// ascending outer diagonals `start..end`, each cut into runs of up to
/// `longest` consecutive triangles ([`run_lengths`]) that as many
/// threads as `split` gives the diagonal claim one at a time
/// ([`run_split`]). A worker calls `run` with its own state, the
/// finished diagonals, the run's first triangle `(i1, i1 + d1)` as `i1`
/// and `d1`, and the run's blocks, which `run` computes in place. Each
/// worker keeps its state for the whole range: split helpers are spawned
/// anew for every diagonal. The supervision checkpoint sits at the top
/// of the `d1` loop, so an interrupt leaves, via
/// [`Watch::note_progress`], a known-final diagonal prefix the
/// checkpoint layer can snapshot.
pub(crate) fn wavefront<E: MaxPlus, S: Default + Send>(
    f: &mut FTable<E>,
    start: usize,
    end: usize,
    watch: &Watch,
    split: Split,
    longest: usize,
    run: impl Fn(&mut S, &FView<'_, E>, usize, usize, &mut [E]) + Sync,
) -> Result<(), Interrupt> {
    let (m, n) = (f.m(), f.n());
    if m == 0 || n == 0 {
        return Ok(());
    }
    let end = end.min(m);
    let mut states: Vec<S> = (0..split.cores.max(1)).map(|_| S::default()).collect();
    for d1 in start..end {
        watch.note_progress(d1);
        watch.check()?;
        let workers = split.diagonal_workers(d1, m, n);
        let (done, diagonal) = f.diagonal_mut(d1);
        let block_len = done.block_len();
        let runs = cut(diagonal, block_len, run_lengths(m - d1, workers, longest));
        run_split(runs, &mut states[..workers], |state, (i1, blocks)| {
            run(state, &done, i1, d1, blocks);
        });
    }
    watch.note_progress(end.max(start));
    Ok(())
}

/// The lengths of the runs a diagonal of `cells` triangles is cut into,
/// in order, for `workers` workers and runs of at most `longest`. One
/// worker takes runs of `longest`, the last one shorter. A split takes
/// as few runs as a multiple of the workers allows, as even as whole
/// triangles allow (the first `cells % count` one longer), so every
/// worker gets the same share of the diagonal; runs of one triangle stay
/// one triangle each.
fn run_lengths(cells: usize, workers: usize, longest: usize) -> impl Iterator<Item = usize> {
    let fewest = cells.div_ceil(longest);
    let count = if workers > 1 {
        fewest.next_multiple_of(workers).min(cells)
    } else {
        fewest
    };
    (0..count).map(move |r| {
        if workers > 1 {
            cells / count + usize::from(r < cells % count)
        } else {
            longest.min(cells - r * longest)
        }
    })
}

/// Cut a diagonal's blocks, `block_len` cells each, into runs of the
/// given lengths: `(i1, blocks)` per run, `i1` its first triangle's.
fn cut<E>(
    mut diagonal: &mut [E],
    block_len: usize,
    lengths: impl Iterator<Item = usize>,
) -> impl Iterator<Item = (usize, &mut [E])> {
    let mut i1 = 0;
    lengths.map(move |len| {
        let (run, rest) = std::mem::take(&mut diagonal).split_at_mut(len * block_len);
        diagonal = rest;
        i1 += len;
        (i1 - len, run)
    })
}

/// How many threads one split may run on: an outer diagonal's triangles
/// in the wavefront, or a batch wave's coarse problems
/// ([`crate::batch`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Split {
    /// Threads at most: the host's cores, or 1 for the serial versions.
    pub(crate) cores: usize,
    /// Flops each worker must get ([`MIN_FLOPS_PER_WORKER`]; 0 lifts the
    /// floor, which only tests do).
    pub(crate) min_flops: f64,
}

impl Split {
    /// The serial programs: one worker on every diagonal.
    pub(crate) const SERIAL: Split = Split {
        cores: 1,
        min_flops: MIN_FLOPS_PER_WORKER,
    };

    /// The split versions, and batch waves, on this host.
    pub(crate) fn host() -> Split {
        Split {
            cores: host_cores(),
            min_flops: MIN_FLOPS_PER_WORKER,
        }
    }

    /// Workers for `items` independent pieces of work that total `flops`
    /// max-plus operations: `min(cores, items, ⌊flops / min_flops⌋)`, at
    /// least 1.
    pub(crate) fn workers(self, items: usize, flops: f64) -> usize {
        let by_work = if self.min_flops > 0.0 {
            (flops / self.min_flops) as usize
        } else {
            usize::MAX
        };
        self.cores.min(items).min(by_work).max(1)
    }

    /// [`Split::workers`] for outer diagonal `d1` of an `m × n` problem:
    /// its triangles, priced by their `R0`, `R1` and `R2` work.
    fn diagonal_workers(self, d1: usize, m: usize, n: usize) -> usize {
        let cells = m - d1;
        self.workers(
            cells,
            cells as f64 * (triangle_r0_flops(d1, n) + triangle_r12_flops(n)),
        )
    }
}

/// The cores this process may run on, read once: a call to
/// `available_parallelism` costs about 19 µs.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Run `work` on every item, with one worker per element of `states`:
/// the calling thread, on `states[0]`, and a scoped helper on each of the
/// others; each claims items one at a time in order (OpenMP's
/// `schedule(dynamic, 1)`) and hands `work` its own state with each.
/// One state runs the items in turn, with no scope and no lock, and a
/// split without state passes `&mut vec![(); workers]`. A helper the OS
/// refuses to start leaves its share to the others. A panic in any
/// worker reaches the caller with its own payload, after every other
/// worker has stopped. Panics if `states` is empty.
pub(crate) fn run_split<I, S>(items: I, states: &mut [S], work: impl Fn(&mut S, I::Item) + Sync)
where
    I: Iterator + Send,
    I::Item: Send,
    S: Send,
{
    assert!(!states.is_empty(), "a split runs on at least one worker");
    let (mine, theirs) = states.split_at_mut(1);
    let mine = &mut mine[0];
    if theirs.is_empty() {
        items.for_each(|item| work(mine, item));
        return;
    }
    let claims = Mutex::new(items);
    let drain = |state: &mut S| loop {
        // the guard drops at the end of this statement: `work` runs unlocked
        let claimed = claims.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(item) = claimed else {
            return;
        };
        work(state, item);
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = theirs
            .iter_mut()
            .filter_map(|state| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, move || drain(state))
                    .ok()
            })
            .collect();
        drain(mine);
        for helper in helpers {
            if let Err(payload) = helper.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
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
    /// buffer into a [`crate::ftable::BlockPool`]).
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
    use crate::spec::{spec_score, SpecEval};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model);
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for alg in [
                Algorithm::Permuted,
                Algorithm::CoarseGrain,
                Algorithm::HybridTiled {
                    tile: Tile::cubic(2),
                },
            ] {
                let mut f = FTable::new(s1.len(), s2.len(), layout);
                p.compute_watched_range(alg, &mut f, 0, s1.len(), &Watch::none())
                    .unwrap();
                assert_eq!(f.final_score(), Some(want), "{layout:?} {alg:?}");
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
            // every solve packs its inner triangles
            assert_eq!(sol.ftable().layout(), Layout::Packed, "{alg:?}");
        }
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
        assert_eq!(Algorithm::ALL.len(), 5);
        for (i, a) in Algorithm::ALL.iter().enumerate() {
            for b in Algorithm::ALL.iter().skip(i + 1) {
                assert_ne!(a, b, "duplicate entry in Algorithm::ALL");
            }
        }
    }

    #[test]
    fn each_version_runs_its_own_r0_order() {
        let tile = Tile::cubic(3);
        assert_eq!(
            Algorithm::HybridTiled { tile }.r0_order(),
            R0Order::Tiled(tile)
        );
        assert_eq!(Algorithm::HybridReg.r0_order(), R0Order::SimdReg);
        for alg in [Algorithm::Permuted, Algorithm::CoarseGrain] {
            assert_eq!(alg.r0_order(), R0Order::Permuted, "{alg:?}");
        }
        assert_eq!(SolveOptions::new().raw_algorithm(), Algorithm::HybridReg);
    }

    #[test]
    fn algorithm_fingerprint_tracks_version_and_tile() {
        let base = Algorithm::default();
        let fp = |alg: Algorithm| {
            let mut h = crate::checkpoint::Fnv64::new();
            alg.fingerprint_into(&mut h);
            h.finish()
        };
        let tiled = |tile| Algorithm::HybridTiled { tile };
        assert_ne!(fp(base), fp(Algorithm::Permuted));
        assert_ne!(fp(base), fp(tiled(Tile::DEFAULT)));
        assert_ne!(fp(tiled(Tile::DEFAULT)), fp(tiled(Tile::cubic(2))));
        // an invalid tile hashes as itself, never as another version
        let bad = tiled(Tile {
            i2: 0,
            k2: 4,
            j2: 4,
        });
        for &alg in Algorithm::ALL {
            assert_ne!(fp(bad), fp(alg), "{alg:?}");
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

    /// Fill diagonals `range` of `f` through the wavefront with `split`.
    fn split_range(
        p: &BpMaxProblem,
        order: R0Order,
        f: &mut FTable,
        range: (usize, usize),
        split: Split,
    ) {
        solve_range(
            p.ctx().terms(),
            order,
            f,
            range.0,
            range.1,
            &Watch::none(),
            split,
        )
        .unwrap();
    }

    fn bits(f: &FTable) -> Vec<u32> {
        f.iter_cells()
            .map(|(i1, j1, i2, j2)| f.get(i1, j1, i2, j2).to_bits())
            .collect()
    }

    /// Every worker count, forced past the cutoff (`min_flops` 0).
    fn forced() -> [Split; 4] {
        [1, 2, 3, 8].map(|cores| Split {
            cores,
            min_flops: 0.0,
        })
    }

    /// A model whose weights include the values that could break the
    /// lanes' bit identity: signed zeros, NaN, `+∞`, `±f32::MAX` and
    /// `NO_PAIR`, with small finite weights so real structures still form.
    fn adversarial_model(rng: &mut StdRng) -> ScoringModel {
        const WEIGHTS: [f32; 10] = [
            -0.0,
            0.0,
            f32::NAN,
            f32::INFINITY,
            f32::MAX,
            -f32::MAX,
            ScoringModel::NO_PAIR,
            1.0,
            2.5,
            -1.5,
        ];
        let mut table = || {
            let mut t = [[0.0f32; 4]; 4];
            for w in t.iter_mut().flatten() {
                *w = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
            }
            t
        };
        let (intra, inter) = (table(), table());
        ScoringModel::from_tables(intra, inter, 1)
    }

    #[test]
    fn split_diagonals_are_bit_identical_to_one_worker() {
        let mut rng = StdRng::seed_from_u64(16);
        // m = 20 under the default version, every cell against the oracle
        // under an adversarial model: forced splits cut the diagonals into
        // the balanced runs one worker never takes (at d1 = 0, four runs
        // of 5 on two workers, 7-7-6 on three, and 3s and 2s on eight)
        let (s1, s2) = (RnaSeq::random(&mut rng, 20), RnaSeq::random(&mut rng, 5));
        let model = adversarial_model(&mut rng);
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        let mut spec = SpecEval::new(&s1, &s2, &model);
        for split in forced() {
            let mut f = FTable::new(20, 5, Layout::Packed);
            split_range(&p, R0Order::SimdReg, &mut f, (0, 20), split);
            for (i1, j1, i2, j2) in f.iter_cells().collect::<Vec<_>>() {
                let want = spec.f(i1 as isize, j1 as isize, i2 as isize, j2 as isize);
                let got = f.get(i1, j1, i2, j2);
                assert!(
                    got.to_bits() == want.to_bits(),
                    "{split:?} under {model:?}: F[{i1},{j1},{i2},{j2}] = {got}, oracle {want}"
                );
            }
        }
        let model = ScoringModel::bpmax_default();
        // m = 20: `hybrid+reg` runs split-point lane groups and Phase B
        // runs of every fill, each worker packing into its own scratch
        for m in [1, 2, 3, 7, 20] {
            let s1 = RnaSeq::random(&mut rng, m);
            let s2 = RnaSeq::random(&mut rng, 5);
            let want = spec_score(&s1, &s2, &model);
            let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
            for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
                for &alg in &Algorithm::ALL[1..] {
                    let order = alg.r0_order();
                    let mut one = FTable::new(m, 5, layout);
                    split_range(&p, order, &mut one, (0, m), forced()[0]);
                    for split in forced() {
                        let mut f = FTable::new(m, 5, layout);
                        split_range(&p, order, &mut f, (0, m), split);
                        let tag = format!("{alg:?} {layout:?} m={m} {split:?}");
                        assert!(bits(&f) == bits(&one), "{tag}: table differs");
                        assert_eq!(f.final_score(), Some(want), "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn split_prefix_then_resume_is_bit_identical() {
        let p = problem("GGAUCGACGG", "CCGAUGC");
        let (m, n) = (p.seq1().len(), p.seq2().len());
        for &alg in &Algorithm::ALL[1..] {
            let reference = bits(&table(&p, alg));
            for split in forced() {
                for cut in [0, 1, m / 2, m - 1, m] {
                    let mut f = FTable::new(m, n, Layout::Packed);
                    split_range(&p, alg.r0_order(), &mut f, (0, cut), split);
                    split_range(&p, alg.r0_order(), &mut f, (cut, m), split);
                    assert!(bits(&f) == reference, "{alg:?} {split:?} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn split_hands_each_worker_its_own_state() {
        for split in forced() {
            let mut states = vec![Vec::new(); split.cores];
            run_split(0..64, &mut states, |seen: &mut Vec<_>, item| {
                seen.push((std::thread::current().id(), item));
            });
            let mut items: Vec<i32> = states.iter().flatten().map(|&(_, i)| i).collect();
            items.sort_unstable();
            assert!(items == (0..64).collect::<Vec<_>>(), "{split:?}: {items:?}");
            for seen in &states {
                assert!(
                    seen.iter().all(|&(id, _)| id == seen[0].0),
                    "{split:?}: one state reached two threads"
                );
            }
        }
    }

    #[test]
    fn runs_hold_each_triangle_once_and_split_into_a_multiple_of_the_workers() {
        for cells in 1..=40 {
            for workers in 1..=cells.min(8) {
                for longest in [1, LANES] {
                    let tag = format!("{cells} triangles, {workers} workers, runs of {longest}");
                    let lengths: Vec<usize> = run_lengths(cells, workers, longest).collect();
                    assert!(
                        lengths.iter().all(|&len| (1..=longest).contains(&len)),
                        "{tag}: {lengths:?}"
                    );
                    if workers == 1 {
                        let (last, full) = lengths.split_last().expect("a run");
                        assert!(full.iter().all(|&len| len == longest), "{tag}: {lengths:?}");
                        assert_eq!(*last, cells - full.len() * longest, "{tag}");
                    } else if longest == LANES {
                        assert_eq!(lengths.len() % workers, 0, "{tag}: {lengths:?}");
                    }
                    // block b of the diagonal holds b in both of its cells
                    let mut diagonal: Vec<usize> = (0..2 * cells).map(|c| c / 2).collect();
                    let mut seen = vec![0; cells];
                    for (i1, run) in cut(&mut diagonal, 2, lengths.into_iter()) {
                        for (l, block) in run.chunks_exact(2).enumerate() {
                            assert_eq!(block, [i1 + l; 2], "{tag}: run from {i1}");
                            seen[i1 + l] += 1;
                        }
                    }
                    assert!(seen.iter().all(|&s| s == 1), "{tag}: {seen:?}");
                }
            }
        }
    }

    #[test]
    fn split_rule_keeps_serve_and_scan_shapes_serial_on_two_cores() {
        let two = Split {
            cores: 2,
            min_flops: MIN_FLOPS_PER_WORKER,
        };
        for (m, n) in [(16, 16), (12, 16)] {
            for d1 in 0..m {
                assert_eq!(two.diagonal_workers(d1, m, n), 1, "{m}x{n} d1={d1}");
            }
        }
        for d1 in 0..39 {
            assert_eq!(two.diagonal_workers(d1, 40, 40), 2, "40x40 d1={d1}");
        }
        assert_eq!(
            two.diagonal_workers(39, 40, 40),
            1,
            "the one-triangle top diagonal"
        );
        for d1 in 0..40 {
            assert_eq!(
                Split::SERIAL.diagonal_workers(d1, 40, 40),
                1,
                "serial d1={d1}"
            );
        }
    }

    #[test]
    fn split_claims_every_item_exactly_once() {
        for split in forced() {
            let mut counts = vec![0u32; 50];
            run_split(counts.iter_mut(), &mut vec![(); split.cores], |_, c| {
                *c += 1;
            });
            assert!(counts.iter().all(|&c| c == 1), "{split:?}: {counts:?}");
        }
        run_split(std::iter::empty::<u32>(), &mut [(), ()], |_, _| {
            unreachable!("no items")
        });
    }

    #[test]
    fn split_reraises_each_workers_own_panic() {
        /// Two items on two workers: each takes one, tells the other, and
        /// waits to hear the same back, so neither can take both (a helper
        /// that started first once took both, and the caller never
        /// failed); then the caller or the helper panics.
        fn payload(caller_fails: bool) -> &'static str {
            let caller = std::thread::current().id();
            let (to_caller, caller_hears) = std::sync::mpsc::channel();
            let (to_helper, helper_hears) = std::sync::mpsc::channel();
            let caller_hears = std::sync::Mutex::new(caller_hears);
            let helper_hears = std::sync::Mutex::new(helper_hears);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_split(0..2, &mut [(), ()], |_, _| {
                    let on_caller = std::thread::current().id() == caller;
                    let (tell, hear) = if on_caller {
                        (&to_helper, &caller_hears)
                    } else {
                        (&to_caller, &helper_hears)
                    };
                    tell.send(()).expect("both receivers outlive the split");
                    hear.lock()
                        .expect("one worker receives on each channel")
                        .recv_timeout(Duration::from_secs(10))
                        .expect("the other worker takes the other item");
                    match (on_caller, caller_fails) {
                        (true, true) => panic!("caller failed"),
                        (false, false) => panic!("helper failed"),
                        _ => {}
                    }
                });
            }))
            .expect_err("the split must re-raise the panic");
            err.downcast_ref::<&'static str>()
                .copied()
                .unwrap_or("not the original payload")
        }
        assert_eq!(payload(false), "helper failed");
        assert_eq!(payload(true), "caller failed");
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
    }

    #[test]
    fn flops_positive_and_growing() {
        let small = problem("GGAU", "CCA").flops();
        let large = problem("GGAUGGAU", "CCACCA").flops();
        assert!(small > 0);
        assert!(large > small);
    }
}
