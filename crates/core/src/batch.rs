//! The batch solving engine: throughput across many `BPMax` problems.
//!
//! The paper accelerates one instance; the workload that motivates `BPMax`
//! (and the ROADMAP's production north star) is *scanning* — thousands of
//! candidate strand pairs, most of them small, a few large. Three things
//! make a batch qualitatively different from a loop over
//! [`BpMaxProblem::solve_opts`]:
//!
//! 1. **Allocation.** Every solve builds a `Θ(M²N²)` [`FTable`] buffer.
//!    Across a batch that is one large transient allocation per problem;
//!    the engine routes them through one [`BlockPool`] arena so the
//!    steady state allocates **nothing** ([`PoolStats`] is the receipt —
//!    see `bench_batch_throughput`). That holds when threads share the
//!    arena too: before a split group starts, the pool is topped up to
//!    one spare per worker, each as long as the group's longest table, so
//!    no interleaving of its workers allocates.
//! 2. **Two levels of threads, resumable large problems.**
//!    [`BatchEngine::classify_coarse`] prices each problem with the
//!    nominal [`perfmodel`](crate::perfmodel) cost model. The small
//!    (*coarse*) problems run first, under the paper's coarse-grain
//!    schedule one level up: up to one thread per core claims whole
//!    problems one at a time in index order, by the same split rule the
//!    wavefront applies to an outer diagonal's triangles (at least
//!    0.7 MFLOP per thread, see [`crate::engine`]). The rest run one at a
//!    time, and each may split its own diagonals. Only such a large
//!    problem snapshots its finished diagonals when it is interrupted, for
//!    [`BatchEngine::resume`]; a coarse problem never does, so the single
//!    snapshot file has one writer at a time.
//! 3. **Lanes.** Within the coarse group, same-shape problems (a scan's
//!    windows) run in lane groups: one lane table holds their F-tables
//!    cell by cell (lane `l` = member `l`), and one wavefront of the
//!    element-generic kernels over it solves them all, lane `l` running
//!    exactly member `l`'s scalar update sequence. When 16 bits are
//!    exact for the members' model and shape
//!    (`kernels::exact_in_lanes16`), a group holds up to sixteen
//!    problems, on `[i16; 8]` cells ([`tropical::scalar::Lanes16`]) up
//!    to eight and on `[i16; 16]` ([`tropical::scalar::Wide16`]) from
//!    nine; otherwise it holds four to eight, on `[f32; 8]`. Problems
//!    are grouped by shape and element, so one `f32` member never
//!    demotes a group.
//!    Each member keeps its own entry check, budget admission, fault
//!    sites, journal record and [`BatchItem`]; the group shares one watch,
//!    so a deadline or cancellation stops it as a unit, and a panic
//!    re-runs its members one at a time. Lane tables live for one wave,
//!    one per worker for each cell its groups use
//!    ([`BatchReport::lane_tables`]).
//! 4. **Telemetry.** A service needs per-problem latency and aggregate
//!    throughput, not a bare score: [`BatchReport`] carries both and
//!    feeds the `bench::report` JSON schema.
//!
//! Results are **bit-identical** to per-problem [`BpMaxProblem::solve_opts`]
//! calls (property-tested in `tests/batch_identical.rs`): a pooled,
//! supervised or resumed solve computes the same F-table by the
//! wavefront invariant.
//!
//! **Bounded failure.** One bad problem never poisons the wave: each
//! solve runs under the [`supervise`](crate::supervise) layer of its
//! [`SolveOptions`] (a wave under [`BatchOptions::solve`]'s
//! [`Deadline`](crate::supervise::Deadline),
//! [`CancelToken`](crate::supervise::CancelToken) and
//! [`MemoryBudget`](crate::supervise::MemoryBudget), a pooled solve under
//! the options it is given), panics are isolated with `catch_unwind`, and every
//! [`BatchItem`] records an [`Outcome`] instead of aborting
//! [`BatchEngine::solve_all`]. The buffer of a panicked solve is
//! quarantined, never recycled ([`PoolStats::quarantined`] counts it).

use crate::checkpoint::{
    self, problem_id, CheckpointSink, Fnv64, JournalRecord, RunManifest, TableSnapshot,
};
use crate::engine::{run_split, wavefront, Algorithm, BpMaxProblem, Solution, SolveOptions, Split};
use crate::error::BpMaxError;
use crate::ftable::{BlockPool, FTable, FView, Layout, PoolStats};
use crate::kernels::{accumulate_r034_serial, finalize_triangle, prev_block, Terms, MIN_LANES};
use crate::perfmodel::{predict_bpmax_seconds, BpMaxVariant, CostModel};
use crate::supervise::{fault, Interrupt, Outcome, OutcomeCounts, Supervision, Watch};
use crate::windowed::{max_window_within, solve_windowed_watched};
use machine::spec::MachineSpec;
use simsched::speedup::HtModel;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use tropical::scalar::{LaneCell, Lanes, Lanes16, Wide16};

/// Predicted serial seconds below which [`BatchEngine::classify_coarse`]
/// marks a problem coarse: it runs in the batch's first group, and an
/// interrupt does not snapshot its table.
const COARSE_CUTOFF_S: f64 = 0.01;

/// Configuration of a [`BatchEngine`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchOptions {
    /// Per-problem solve configuration: the program version plus the
    /// supervision every problem of a wave runs under. Its deadline is
    /// an instant, so it bounds every wave the engine runs, and its
    /// over-budget problems degrade unless
    /// [`SolveOptions::degrade`] turned that off.
    pub solve: SolveOptions,
    /// Keep each problem's full F-table in its [`BatchItem`] (disables
    /// buffer recycling for those tables; a lane group copies each lane
    /// into its member's own pooled table; default `false`).
    pub keep_tables: bool,
}

impl BatchOptions {
    /// Defaults: the champion algorithm, no supervision, degrade over
    /// budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-problem solve configuration.
    #[must_use]
    pub fn solve(mut self, solve: SolveOptions) -> Self {
        self.solve = solve;
        self
    }

    /// Keep each problem's F-table in the result.
    #[must_use]
    pub fn keep_tables(mut self, keep: bool) -> Self {
        self.keep_tables = keep;
        self
    }

    /// FNV-1a fingerprint of every *score-affecting* option — the
    /// checkpoint manifest's compatibility rule. Two configurations with
    /// the same fingerprint produce bit-identical scores, so their
    /// checkpoints are interchangeable. Deadlines and cancellation change
    /// wall clock, never scores, and are deliberately excluded: a resumed
    /// run may get a fresh deadline.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        // algorithm (with its tile): the shared Algorithm rule, the same
        // bytes the serve result-cache key hashes
        self.solve.raw_algorithm().fingerprint_into(&mut h);
        // memory budgets and degradation decide exact-vs-windowed scores
        let sup = self.solve.supervision();
        h.write_u64(sup.budget.map_or(u64::MAX, |b| b.bytes));
        h.write(&[u8::from(sup.degrade)]);
        // a retired second supervision layer, hashed as "none" so every
        // fingerprint, and so every checkpoint on disk, keeps its value
        h.write_u64(u64::MAX);
        h.write(&[0]);
        h.finish()
    }
}

/// One problem of a batch — solved, degraded, or failed; never missing.
#[derive(Debug)]
pub struct BatchItem {
    /// Position in the input slice.
    pub index: usize,
    /// Strand-1 length.
    pub m: usize,
    /// Strand-2 length.
    pub n: usize,
    /// The optimal interaction score ([`Outcome::Ok`]), a valid lower
    /// bound ([`Outcome::Degraded`]), or `-∞` for unscored outcomes.
    pub score: f32,
    /// Wall-clock latency of this solve, seconds. A lane group's members
    /// each report the group's wall time divided by its members.
    pub seconds: f64,
    /// Max-plus FLOPs of the instance.
    pub flops: u64,
    /// `true` when [`BatchEngine::classify_coarse`] found the problem
    /// small: it ran in the first group, and an interrupt would not
    /// snapshot its table. An item of [`BatchEngine::solve_pooled`] is
    /// never priced, and reports `false`.
    pub coarse: bool,
    /// How this problem ended.
    pub outcome: Outcome,
    /// The failure, for outcomes other than `Ok`/`Degraded`.
    pub error: Option<BpMaxError>,
    /// The full F-table, when [`BatchOptions::keep_tables`] was set (and
    /// the solve completed exactly).
    pub table: Option<FTable>,
}

/// Outcome of [`BatchEngine::solve_all`]: per-problem latency plus
/// aggregate throughput and arena statistics.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-problem results, in input order.
    pub items: Vec<BatchItem>,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
    /// Arena counters at completion (cumulative across the engine's
    /// lifetime — diff two snapshots for per-wave numbers).
    pub pool: PoolStats,
    /// Problems whose results were replayed from a checkpoint journal
    /// instead of recomputed (0 for fresh runs). Replayed items carry
    /// their original score, outcome and latency, but never a table.
    pub replayed: usize,
    /// Threads the coarse group ran on: 1 for a serial wave.
    pub workers: usize,
    /// Problems this wave solved in lane groups, up to sixteen
    /// same-shape problems per cell.
    pub lane_problems: usize,
    /// Lane tables this wave allocated: at most one per worker for each
    /// lane cell its groups use, dropped when the wave ends.
    pub lane_tables: usize,
}

impl BatchReport {
    /// Problems solved.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Aggregate throughput, problems per second.
    pub fn problems_per_s(&self) -> f64 {
        self.items.len() as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    /// Total max-plus FLOPs across the batch.
    pub fn total_flops(&self) -> u64 {
        self.items.iter().map(|i| i.flops).sum()
    }

    /// Aggregate throughput in GFLOPS.
    pub fn gflops(&self) -> f64 {
        self.total_flops() as f64 / self.wall_s.max(f64::MIN_POSITIVE) / 1e9
    }

    /// Per-problem latency summary `(min, median, max)` in seconds
    /// (zeros for an empty batch).
    pub fn latency_s(&self) -> (f64, f64, f64) {
        if self.items.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut lat: Vec<f64> = self.items.iter().map(|i| i.seconds).collect();
        lat.sort_by(f64::total_cmp);
        (lat[0], lat[lat.len() / 2], lat[lat.len() - 1])
    }

    /// Fraction of problems classified coarse (small enough that an
    /// interrupt does not snapshot them).
    pub fn coarse_fraction(&self) -> f64 {
        if self.items.is_empty() {
            return 0.0;
        }
        self.items.iter().filter(|i| i.coarse).count() as f64 / self.items.len() as f64
    }

    /// Aggregate per-outcome tally of the wave.
    pub fn outcomes(&self) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for item in &self.items {
            counts.record(item.outcome);
        }
        counts
    }
}

/// The throughput engine: a table arena reused across
/// [`BatchEngine::solve_all`] waves so it stays warm, plus the cost model
/// that classifies problems.
pub struct BatchEngine {
    opts: BatchOptions,
    pool: BlockPool,
    cost: CostModel,
    spec: MachineSpec,
    ht: HtModel,
}

impl BatchEngine {
    /// Build an engine (validates the solve configuration once, so a bad
    /// tile fails here rather than per problem).
    pub fn new(opts: BatchOptions) -> Result<BatchEngine, BpMaxError> {
        opts.solve.validated_algorithm()?;
        let spec = MachineSpec::xeon_e5_1650v4();
        let ht = HtModel {
            physical: spec.cores,
            smt_efficiency: 0.15,
        };
        Ok(BatchEngine {
            opts,
            pool: BlockPool::new(),
            cost: CostModel::nominal(),
            spec,
            ht,
        })
    }

    /// The engine's configuration.
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// Current arena counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// `true` when the cost model predicts this problem below a 10 ms
    /// cutoff: it runs in the batch's first group, and an interrupt does
    /// not snapshot its table (only large problems are worth the bytes).
    pub fn classify_coarse(&self, problem: &BpMaxProblem) -> bool {
        self.predict_seconds(problem, &self.opts.solve) < COARSE_CUTOFF_S
    }

    /// Predicted single-thread solve seconds for `problem` under `solve` —
    /// the perfmodel number the serve daemon's admission control compares
    /// against its `max_predicted_s` cap.
    pub fn predict_seconds(&self, problem: &BpMaxProblem, solve: &SolveOptions) -> f64 {
        let variant = BpMaxVariant::of(solve.raw_algorithm());
        let (m, n) = (problem.ctx().m(), problem.ctx().n());
        predict_bpmax_seconds(variant, m, n, 1, &self.cost, &self.spec, self.ht)
    }

    /// Solve one problem on the engine's warm table arena with
    /// *per-request* solve options — the serve daemon's entry point. It
    /// runs under `solve`'s supervision alone, never the engine's, and
    /// writes no checkpoint, so it is not priced: its item reports
    /// `coarse = false`. Infallible like the batch waves: every failure
    /// mode folds into the returned item's [`Outcome`] + error.
    pub fn solve_pooled(&self, problem: &BpMaxProblem, solve: &SolveOptions) -> BatchItem {
        self.solve_one(problem, 0, false, None, None, solve)
    }

    /// Solve every problem; results come back in input order,
    /// bit-identical to per-problem [`BpMaxProblem::solve_opts`] calls.
    ///
    /// The coarse-classified problems run first, on up to one thread per
    /// core ([`BatchReport::workers`]) that claim them one at a time in
    /// input order — same-shape ones up to sixteen at a time, as lane
    /// groups;
    /// then the rest run one at a time in input order. Each item's
    /// `seconds` is its own latency (a lane group's wall time divided by
    /// its members), so with two threads the items overlap and their sum
    /// can exceed the wave's `wall_s`.
    ///
    /// Supervision is per-problem, never per-wave: a problem that is
    /// cancelled, times out, blows its memory budget, or panics becomes a
    /// [`BatchItem`] with the matching [`Outcome`] (and its buffer is
    /// recycled or quarantined), while every other problem completes
    /// normally. The deadline is [`BatchOptions::solve`]'s instant, not a
    /// clock this call starts.
    pub fn solve_all(&self, problems: &[BpMaxProblem]) -> Result<BatchReport, BpMaxError> {
        self.run_batch(
            problems,
            None,
            empty_slots(problems),
            None,
            0,
            Split::host(),
        )
    }

    /// [`BatchEngine::solve_all`] with durable progress: a fresh
    /// crash-safe checkpoint is written under `dir` (manifest + journal,
    /// one record per completed problem, plus the partial F-table of an
    /// interrupted large problem). A killed or cancelled run can be
    /// picked up by [`BatchEngine::resume`] without recomputing anything
    /// that finished. Any previous checkpoint in `dir` is replaced.
    ///
    /// Records land in completion order, which on a split wave can differ
    /// from input order; [`BatchEngine::resume`] keys on the index.
    pub fn solve_all_checkpointed(
        &self,
        problems: &[BpMaxProblem],
        dir: &Path,
    ) -> Result<BatchReport, BpMaxError> {
        let sink = self.fresh_checkpoint(problems, dir)?;
        self.run_batch(
            problems,
            Some(&sink),
            empty_slots(problems),
            None,
            0,
            Split::host(),
        )
    }

    /// A new checkpoint for `problems` under `dir`: this engine's
    /// manifest and an empty journal.
    fn fresh_checkpoint(
        &self,
        problems: &[BpMaxProblem],
        dir: &Path,
    ) -> Result<CheckpointSink, BpMaxError> {
        let manifest = RunManifest {
            options_hash: self.opts.fingerprint(),
            seed: 0,
            problem_ids: problems.iter().map(problem_id).collect(),
        };
        CheckpointSink::create(dir, &manifest)
    }

    /// Resume an interrupted [`BatchEngine::solve_all_checkpointed`] run
    /// from `dir`: replay journaled results (skipping those problems
    /// entirely), restore the in-flight table snapshot if one was
    /// flushed, and solve the rest. Output is bit-identical to an
    /// uninterrupted run by the wavefront invariant.
    ///
    /// Refuses with [`BpMaxError::CheckpointMismatch`] when the
    /// checkpoint was written under different score-affecting options
    /// ([`BatchOptions::fingerprint`]) or for a different problem set,
    /// and with [`BpMaxError::CorruptCheckpoint`] when any file fails
    /// its integrity checks.
    pub fn resume(&self, problems: &[BpMaxProblem], dir: &Path) -> Result<BatchReport, BpMaxError> {
        let (sink, (manifest, records, snapshot)) = CheckpointSink::open(dir)?;
        let want_hash = self.opts.fingerprint();
        if manifest.options_hash != want_hash {
            return Err(BpMaxError::CheckpointMismatch {
                detail: format!(
                    "checkpoint was written under options {:#018x} but this engine is \
                     configured as {want_hash:#018x} — refusing to mix configurations",
                    manifest.options_hash
                ),
            });
        }
        let ids: Vec<u64> = problems.iter().map(problem_id).collect();
        if manifest.problem_ids != ids {
            let detail = if manifest.problem_ids.len() != ids.len() {
                format!(
                    "checkpoint covers {} problems but the batch has {}",
                    manifest.problem_ids.len(),
                    ids.len()
                )
            } else {
                let at = ids
                    .iter()
                    .zip(&manifest.problem_ids)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                format!("problem {at} differs from the one the checkpoint was written for")
            };
            return Err(BpMaxError::CheckpointMismatch { detail });
        }

        let jpath = checkpoint::journal_path(dir).display().to_string();
        let mut slots = empty_slots(problems);
        let mut replayed = 0usize;
        for rec in &records {
            let i = rec.index as usize;
            if i >= problems.len() {
                return Err(BpMaxError::CorruptCheckpoint {
                    path: jpath.clone(),
                    detail: format!(
                        "record index {i} out of range for a {}-problem batch",
                        problems.len()
                    ),
                });
            }
            if slots[i].is_some() {
                return Err(BpMaxError::CorruptCheckpoint {
                    path: jpath.clone(),
                    detail: format!("duplicate journal record for problem {i}"),
                });
            }
            if !rec.outcome.has_score() {
                return Err(BpMaxError::CorruptCheckpoint {
                    path: jpath.clone(),
                    detail: format!(
                        "journaled outcome {:?} for problem {i} carries no score",
                        rec.outcome
                    ),
                });
            }
            let problem = &problems[i];
            slots[i] = Some(BatchItem {
                index: i,
                m: problem.ctx().m(),
                n: problem.ctx().n(),
                score: rec.score,
                seconds: rec.seconds,
                flops: problem.flops(),
                coarse: rec.coarse,
                outcome: rec.outcome,
                error: None,
                table: None,
            });
            replayed += 1;
        }

        let snapshot = match snapshot {
            Some(snap) => {
                let i = snap.index as usize;
                if i >= problems.len() {
                    return Err(BpMaxError::CorruptCheckpoint {
                        path: checkpoint::snapshot_path(dir).display().to_string(),
                        detail: format!(
                            "snapshot index {i} out of range for a {}-problem batch",
                            problems.len()
                        ),
                    });
                }
                if snap.problem_id != ids[i] {
                    return Err(BpMaxError::CheckpointMismatch {
                        detail: format!(
                            "table snapshot belongs to a different problem {i} than the batch's"
                        ),
                    });
                }
                if slots[i].is_some() {
                    // already journaled: the snapshot is stale, retire it
                    sink.complete(snap.index);
                    None
                } else {
                    Some(snap)
                }
            }
            None => None,
        };

        self.run_batch(
            problems,
            Some(&sink),
            slots,
            snapshot.as_ref(),
            replayed,
            Split::host(),
        )
    }

    /// The shared wave driver behind every `solve_all*` flavour. Slots
    /// already filled (journal replays) are skipped; `snapshot`, when it
    /// targets a still-pending problem, seeds that problem's table.
    /// `split` decides how many threads the coarse group runs on
    /// ([`Split::host`] outside tests).
    ///
    /// The coarse group's same-shape problems run in lane groups
    /// ([`plan_units`]): one lane table holds the group's F-tables cell
    /// by cell, and one wavefront over it solves them all, lane `l`
    /// bit-identical to problem `l`'s own solve. A group runs on the
    /// narrowest cell of its element that holds it ([`UnitCell`]).
    pub(crate) fn run_batch(
        &self,
        problems: &[BpMaxProblem],
        ckpt: Option<&CheckpointSink>,
        mut slots: Vec<Option<BatchItem>>,
        snapshot: Option<&TableSnapshot>,
        replayed: usize,
        split: Split,
    ) -> Result<BatchReport, BpMaxError> {
        let start = Instant::now();
        let sup = self.opts.solve.supervision();
        // a price depends on the shape alone, and a scan wave has few
        let mut priced = HashMap::new();
        let coarse_class: Vec<bool> = problems
            .iter()
            .map(|p| {
                let shape = (p.ctx().m(), p.ctx().n());
                *priced
                    .entry(shape)
                    .or_insert_with(|| self.classify_coarse(p))
            })
            .collect();
        let solve = |i: usize| {
            let snap = snapshot.filter(|s| s.index as usize == i);
            let coarse = coarse_class[i];
            self.solve_one(&problems[i], i, coarse, ckpt, snap, &self.opts.solve)
        };

        // The coarse group first: `workers` threads claim its units, a
        // problem or a lane group, one at a time in input order, each
        // solving on its own thread under its members' own supervision.
        let pending: Vec<usize> = (0..problems.len())
            .filter(|&i| coarse_class[i] && slots[i].is_none())
            .collect();
        let flops = pending.iter().map(|&i| problems[i].flops() as f64).sum();
        let plan = self.plan(problems, &pending, sup, snapshot);
        let workers = split.workers(plan.len(), flops);
        // a unit's element is its first member's (a group shares it)
        let cell = |first: usize, members: usize| {
            UnitCell::of(problems[first].ctx().terms().exact16(), members)
        };
        let mut lanes = WaveLanes::default();
        // a wave that is over before it starts allocates nothing
        if Watch::new(sup).check_now().is_ok() {
            if workers > 1 {
                self.top_up(pending.iter().map(|&i| &problems[i]), workers, sup);
            }
            lanes = WaveLanes::for_wave(problems, &plan, |unit| cell(unit[0], unit.len()), workers);
        }
        let mut open: Vec<Option<&mut Option<BatchItem>>> = slots.iter_mut().map(Some).collect();
        let units: Vec<Vec<(usize, &mut Option<BatchItem>)>> = plan
            .iter()
            .map(|unit| {
                unit.iter()
                    .map(|&i| (i, open[i].take().expect("each problem in one unit"))) // lint: allow(expect): plan_units puts each pending index in exactly one unit
                    .collect()
            })
            .collect();
        drop(open);
        run_split(units.into_iter(), &mut vec![(); workers], |_, mut unit| {
            // a group that could not run leaves its members' slots empty
            match cell(unit[0].0, unit.len()) {
                UnitCell::Alone => {}
                UnitCell::F32 => self.solve_lanes(problems, &mut unit, sup, ckpt, &lanes.f32),
                UnitCell::I16 => self.solve_lanes(problems, &mut unit, sup, ckpt, &lanes.i16),
                UnitCell::Wide16 => self.solve_lanes(problems, &mut unit, sup, ckpt, &lanes.wide16),
            }
            for (i, slot) in unit {
                if slot.is_none() {
                    *slot = Some(solve(i));
                }
            }
        });

        // then the rest, one at a time in input order; each may split
        // its own outer diagonals
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(solve(i));
            }
        }

        // a checkpoint that could not be written must fail loudly: the
        // caller would otherwise trust durability it does not have
        if let Some(sink) = ckpt {
            if let Some(e) = sink.take_error() {
                return Err(e);
            }
        }

        let (lane_problems, lane_tables) = lanes.counts();
        Ok(BatchReport {
            items: slots
                .into_iter()
                .map(|s| s.expect("every slot filled")) // lint: allow(expect): the dispatch loop filled every slot
                .collect(),
            wall_s: start.elapsed().as_secs_f64(),
            pool: self.pool.stats(),
            replayed,
            workers,
            lane_problems,
            lane_tables,
        })
    }

    /// The units the coarse group's workers claim ([`plan_units`]). A
    /// pending problem may join a lane group when this engine's version
    /// runs the wavefront (every version but `Baseline`), both strands
    /// are non-empty, the memory budget admits its own table, and no
    /// snapshot resumes it. It joins the groups of its shape and lane
    /// element (`Terms::exact16`).
    fn plan(
        &self,
        problems: &[BpMaxProblem],
        pending: &[usize],
        sup: &Supervision,
        snapshot: Option<&TableSnapshot>,
    ) -> Vec<Vec<usize>> {
        let wavefront = self.opts.solve.raw_algorithm() != Algorithm::Baseline;
        plan_units(pending, |i| {
            let problem = &problems[i];
            let (m, n) = (problem.ctx().m(), problem.ctx().n());
            let admitted = FTable::estimate_bytes(m, n, Layout::Packed)
                .is_ok_and(|bytes| sup.budget.is_none_or(|b| b.allows(bytes)));
            let resumes = snapshot.is_some_and(|s| s.index as usize == i);
            let exact16 = problem.ctx().terms().exact16();
            (wavefront && m > 0 && n > 0 && admitted && !resumes).then_some((m, n, exact16))
        })
    }

    /// Solve the lane group `unit` (same-shape coarse problems) in one
    /// wavefront over a lane table of cells `L` from `lanes`, filling
    /// each member's slot. Each member keeps its own entry check and fault
    /// sites, and gets its own journal record and item; the group's
    /// records take one journal append, and the group runs under one
    /// watch, so a deadline or cancellation stops it as a unit. When the
    /// group cannot run as one — its compute panicked, or its lane table
    /// could not be shaped — its live members' slots stay empty, for the
    /// caller to solve one at a time, where only a faulty member fails.
    fn solve_lanes<L: LaneCell>(
        &self,
        problems: &[BpMaxProblem],
        unit: &mut [(usize, &mut Option<BatchItem>)],
        sup: &Supervision,
        ckpt: Option<&CheckpointSink>,
        lanes: &LaneTables<L>,
    ) {
        let t = Instant::now();
        // positions in `unit` of the members that passed admission
        let mut live = Vec::with_capacity(L::WIDTH);
        let mut slow = None;
        for (pos, (i, slot)) in unit.iter_mut().enumerate() {
            let problem = &problems[*i];
            let (m, n) = (problem.ctx().m(), problem.ctx().n());
            let admitted = match Watch::new(sup).check_now() {
                Err(interrupt) => Err(interrupt.into_error()),
                Ok(()) if fault::active(fault::SITE_ALLOC, *i) == Some(fault::Fault::AllocFail) => {
                    Err(BpMaxError::SizeOverflow { m, n })
                }
                Ok(()) => Ok(()),
            };
            match admitted {
                Ok(()) => {
                    if let Some(fault::Fault::Slow { millis }) = fault::active(fault::SITE_SLOW, *i)
                    {
                        slow = slow.max(Some(millis));
                    }
                    live.push(pos);
                }
                Err(err) => {
                    let seconds = t.elapsed().as_secs_f64();
                    **slot = Some(batch_item(problem, *i, true, seconds, Err(err)));
                }
            }
        }
        if live.is_empty() {
            return;
        }
        let members: Vec<&Terms<f32>> = live
            .iter()
            .map(|&pos| problems[unit[pos].0].ctx().terms())
            .collect();
        let terms = Terms::<L>::interleave(&members);
        let (m, n) = (terms.m(), terms.n());
        let mut table = lanes.take(m, n);
        if table.reset(m, n, Layout::Packed).is_err() {
            lanes.put(table);
            return;
        }
        let mut watch = Watch::new(sup);
        if let Some(millis) = slow {
            watch = watch.with_slow(Duration::from_millis(millis));
        }
        let inject_panic = live.iter().any(|&pos| {
            fault::active(fault::SITE_COMPUTE, unit[pos].0) == Some(fault::Fault::Panic)
        });
        // one triangle per run: both phases of the lane kernels
        let order = self.opts.solve.raw_algorithm().r0_order();
        let triangle = |_: &mut (), done: &FView<'_, L>, i1, d1, acc: &mut [L]| {
            let j1 = i1 + d1;
            accumulate_r034_serial(&terms, done, i1, j1, acc, order);
            finalize_triangle(&terms, i1, j1, done, prev_block(done, i1, j1), acc);
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: compute panic in a lane group"); // lint: allow(panic): deliberate injected fault (fault-inject harness)
            }
            wavefront(&mut table, 0, m, &watch, Split::SERIAL, 1, triangle)
        }));
        let Ok(result) = run else {
            // a panic may leave any values in the table: the next group
            // resets it before reading a cell
            lanes.put(table);
            return;
        };
        let result = result.map_err(Interrupt::into_error);
        let seconds = t.elapsed().as_secs_f64() / live.len() as f64;
        let items: Vec<BatchItem> = live
            .iter()
            .enumerate()
            .map(|(lane, &pos)| {
                let i = unit[pos].0;
                let result = match &result {
                    Err(err) => Err(err.clone()),
                    Ok(()) => {
                        let score = table.get(0, m - 1, 0, n - 1).lane(lane);
                        let kept = self
                            .opts
                            .keep_tables
                            .then(|| lane_copy(&table, lane, &self.pool));
                        kept.transpose().map(|kept| (Outcome::Ok, score, kept))
                    }
                };
                batch_item(&problems[i], i, true, seconds, result)
            })
            .collect();
        if result.is_ok() {
            lanes.solved.fetch_add(items.len(), Ordering::Relaxed); // ordering: a count read after the wave's threads have joined
        }
        lanes.put(table);
        journal(ckpt, &items);
        for (&pos, item) in live.iter().zip(items) {
            *unit[pos].1 = Some(item);
        }
    }

    /// Top the arena up before `workers` threads share it on `group`:
    /// with at most `workers` tables in flight, `workers` spares, each as
    /// long as the longest table, mean that best-fit never allocates,
    /// however the threads interleave. Problems the memory budget refuses
    /// never take a table.
    fn top_up<'p>(
        &self,
        group: impl Iterator<Item = &'p BpMaxProblem>,
        workers: usize,
        sup: &Supervision,
    ) {
        let longest = group
            .filter_map(|problem| {
                let (m, n) = (problem.ctx().m(), problem.ctx().n());
                FTable::estimate_bytes(m, n, Layout::Packed).ok()
            })
            .filter(|&bytes| sup.budget.is_none_or(|b| b.allows(bytes)))
            .max()
            .unwrap_or(0);
        let cells = longest / std::mem::size_of::<f32>() as u64;
        self.pool.top_up(workers, cells as usize);
    }

    /// Solve one problem on a pooled table. Infallible by design: every
    /// failure mode folds into the item's [`Outcome`] + error. Completed
    /// results (any outcome with a score) are journaled before the item
    /// is returned, so a crash after this point loses nothing.
    fn solve_one(
        &self,
        problem: &BpMaxProblem,
        index: usize,
        coarse: bool,
        ckpt: Option<&CheckpointSink>,
        snap: Option<&TableSnapshot>,
        solve: &SolveOptions,
    ) -> BatchItem {
        let t = Instant::now();
        let result = self.solve_inner(problem, index, coarse, ckpt, snap, solve);
        let item = batch_item(problem, index, coarse, t.elapsed().as_secs_f64(), result);
        journal(ckpt, std::slice::from_ref(&item));
        item
    }

    /// The supervised solve pipeline of one problem, under `solve`'s
    /// supervision: entry check → budget admission (degrading if allowed)
    /// → pooled allocation → panic-isolated compute →
    /// recycle-or-quarantine.
    fn solve_inner(
        &self,
        problem: &BpMaxProblem,
        index: usize,
        coarse: bool,
        ckpt: Option<&CheckpointSink>,
        snap: Option<&TableSnapshot>,
        solve: &SolveOptions,
    ) -> Result<(Outcome, f32, Option<FTable>), BpMaxError> {
        let algorithm = solve.validated_algorithm()?;
        let sup = solve.supervision();
        let (m, n) = (problem.ctx().m(), problem.ctx().n());
        let mut watch = Watch::new(sup);
        if let Some(fault::Fault::Slow { millis }) = fault::active(fault::SITE_SLOW, index) {
            watch = watch.with_slow(Duration::from_millis(millis));
        }
        // entry check: once the wave deadline passes (or the token fires),
        // every remaining problem resolves deterministically, before any
        // allocation — even empty ones
        watch.check_now().map_err(Interrupt::into_error)?;
        if let Some(budget) = sup.budget {
            let needed = FTable::estimate_bytes(m, n, Layout::Packed)?;
            if !budget.allows(needed) {
                let over = BpMaxError::BudgetExceeded {
                    needed_bytes: needed,
                    budget_bytes: budget.bytes,
                };
                if !sup.degrade {
                    return Err(over);
                }
                let w = max_window_within(m, n, budget.bytes).ok_or(over)?;
                let banded = solve_windowed_watched(problem.ctx(), w, &watch)
                    .map_err(Interrupt::into_error)?;
                let score = banded
                    .window_scores()
                    .into_iter()
                    .fold(f32::NEG_INFINITY, f32::max);
                return Ok((Outcome::Degraded, score, None));
            }
        }
        if fault::active(fault::SITE_ALLOC, index) == Some(fault::Fault::AllocFail) {
            return Err(BpMaxError::SizeOverflow { m, n });
        }
        let mut f = FTable::try_new_in(m, n, Layout::Packed, &self.pool)?;
        // seed the table from a checkpoint snapshot when one targets this
        // problem; a snapshot that no longer fits (layout/shape drift
        // beyond the fingerprint) is simply ignored — recomputing from
        // scratch is always correct, only slower
        let start_diag = match snap {
            Some(snap) if snap.restore_into(&mut f).is_ok() => snap.done,
            _ => 0,
        };
        let inject_panic = fault::active(fault::SITE_COMPUTE, index) == Some(fault::Fault::Panic);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: compute panic at problem {index}"); // lint: allow(panic): deliberate injected fault (fault-inject harness)
            }
            problem.compute_watched_range(algorithm, &mut f, start_diag, m, &watch)
        }));
        match run {
            Ok(Ok(())) => {
                let solution = Solution::from_parts(problem, f);
                let score = solution.score();
                let table = if self.opts.keep_tables {
                    Some(solution.into_ftable())
                } else {
                    solution.into_ftable().recycle(&self.pool);
                    None
                };
                Ok((Outcome::Ok, score, table))
            }
            Ok(Err(interrupt)) => {
                // flush the resumable prefix before giving the table up:
                // diagonals 0..progress are final by the wavefront
                // invariant. Only non-coarse problems snapshot — there
                // is a single snapshot file, and only large problems are
                // worth the bytes.
                if let Some(sink) = ckpt {
                    let done = watch.progress();
                    if !coarse && done > 0 {
                        sink.snapshot(&TableSnapshot::capture(
                            index as u64,
                            problem_id(problem),
                            &f,
                            done,
                        ));
                    }
                }
                f.recycle(&self.pool);
                Err(interrupt.into_error())
            }
            Err(payload) => {
                // whatever the panic left in the buffer never reaches
                // another problem
                f.quarantine(&self.pool);
                Err(BpMaxError::Panicked {
                    detail: panic_detail(payload.as_ref()),
                })
            }
        }
    }
}

/// The item of problem `index`, whose solve took `seconds` and ended
/// with `result`.
fn batch_item(
    problem: &BpMaxProblem,
    index: usize,
    coarse: bool,
    seconds: f64,
    result: Result<(Outcome, f32, Option<FTable>), BpMaxError>,
) -> BatchItem {
    let (outcome, score, table, error) = match result {
        Ok((outcome, score, table)) => (outcome, score, table, None),
        Err(err) => {
            let outcome = match err {
                BpMaxError::Cancelled => Outcome::Cancelled,
                BpMaxError::DeadlineExceeded { .. } => Outcome::TimedOut,
                _ => Outcome::Failed,
            };
            (outcome, f32::NEG_INFINITY, None, Some(err))
        }
    };
    BatchItem {
        index,
        m: problem.ctx().m(),
        n: problem.ctx().n(),
        score,
        seconds,
        flops: problem.flops(),
        coarse,
        outcome,
        error,
        table,
    }
}

/// Journal the scored items of one solved unit, a problem or a lane
/// group, in one append, then retire any snapshot they owned: once this
/// returns, a crash loses none of them. Unscored outcomes are not
/// journaled: failures are deterministic and cheap to reproduce, and
/// resume should retry cancelled/timed-out problems, not trust stale
/// errors.
fn journal(ckpt: Option<&CheckpointSink>, items: &[BatchItem]) {
    let Some(sink) = ckpt else {
        return;
    };
    let records: Vec<JournalRecord> = items
        .iter()
        .filter(|item| item.outcome.has_score())
        .map(|item| JournalRecord {
            index: item.index as u64,
            outcome: item.outcome,
            score: item.score,
            seconds: item.seconds,
            coarse: item.coarse,
        })
        .collect();
    sink.record(&records);
    for rec in &records {
        sink.complete(rec.index);
    }
}

/// Fewest members an `[f32; 8]` lane group runs with; fewer run one at
/// a time. A lone solve runs its own split-point and triangle lanes, so
/// an `f32` group of three took 1.15–1.30× the time of three lone
/// solves, and one of four 0.87–0.97× that of four (12×16 and 16×16;
/// DESIGN.md §7). Its 16-bit counterpart is [`MIN_LANES`].
const MIN_F32_LANES: usize = 4;

/// The cell a unit of the coarse group runs on: none for a problem
/// alone, else the narrowest lane cell of its members' element that
/// holds them all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnitCell {
    /// One problem, on its own `f32` table.
    Alone,
    /// An `[f32; 8]` group of four to eight.
    F32,
    /// A 16-bit group of three to eight, on `[i16; 8]`.
    I16,
    /// A 16-bit group of nine to sixteen, on `[i16; 16]`.
    Wide16,
}

impl UnitCell {
    /// The fewest and the most members of a lane group whose members are
    /// exact in 16 bits (`exact16`) or not.
    fn group_sizes(exact16: bool) -> (usize, usize) {
        if exact16 {
            (MIN_LANES, Wide16::WIDTH)
        } else {
            (MIN_F32_LANES, Lanes::WIDTH)
        }
    }

    /// The cell of a [`plan_units`] unit of `members` problems, exact in
    /// 16 bits or not.
    fn of(exact16: bool, members: usize) -> UnitCell {
        if members < Self::group_sizes(exact16).0 {
            UnitCell::Alone
        } else if !exact16 {
            UnitCell::F32
        } else if members <= Lanes16::WIDTH {
            UnitCell::I16
        } else {
            UnitCell::Wide16
        }
    }
}

/// Split the coarse group's pending problems (input order) into the
/// units its workers claim, ordered by their first problem. Problems
/// that `lane_key` gives the same `(m, n, exact16)` key are cut, in input
/// order, into lane groups of at most [`UnitCell::group_sizes`]' most;
/// a group below its fewest, and every problem without a key, is a unit
/// of one.
fn plan_units(
    pending: &[usize],
    lane_key: impl Fn(usize) -> Option<(usize, usize, bool)>,
) -> Vec<Vec<usize>> {
    let mut units = Vec::new();
    let mut keyed: HashMap<_, Vec<usize>> = HashMap::new();
    for &i in pending {
        match lane_key(i) {
            Some(key) => keyed.entry(key).or_default().push(i),
            None => units.push(vec![i]),
        }
    }
    for ((_, _, exact16), members) in keyed {
        let (fewest, most) = UnitCell::group_sizes(exact16);
        for group in members.chunks(most) {
            if group.len() >= fewest {
                units.push(group.to_vec());
            } else {
                units.extend(group.iter().map(|&i| vec![i]));
            }
        }
    }
    units.sort_unstable_by_key(|unit| unit[0]);
    units
}

/// One wave's lane tables, a set for each lane cell its groups use.
#[derive(Default)]
struct WaveLanes {
    f32: LaneTables<Lanes>,
    i16: LaneTables<Lanes16>,
    wide16: LaneTables<Wide16>,
}

impl WaveLanes {
    /// The tables for the groups of `plan`, each on its `cell`.
    fn for_wave(
        problems: &[BpMaxProblem],
        plan: &[Vec<usize>],
        cell: impl Fn(&[usize]) -> UnitCell,
        workers: usize,
    ) -> Self {
        let cell = &cell;
        let on = |want: UnitCell| plan.iter().filter(move |unit| cell(unit) == want);
        WaveLanes {
            f32: LaneTables::for_wave(problems, on(UnitCell::F32), workers),
            i16: LaneTables::for_wave(problems, on(UnitCell::I16), workers),
            wide16: LaneTables::for_wave(problems, on(UnitCell::Wide16), workers),
        }
    }

    /// Problems solved in lanes, and lane tables allocated.
    fn counts(self) -> (usize, usize) {
        [self.f32.counts(), self.i16.counts(), self.wide16.counts()]
            .into_iter()
            .fold((0, 0), |(p, t), (dp, dt)| (p + dp, t + dt))
    }
}

/// The lane tables of cells `L` of one wave: allocated before its split,
/// one per worker, and handed to whichever worker claims a lane group of
/// that cell. They are dropped with the wave, so an idle engine holds
/// none. A [`Lanes16`] table is half the size of a [`Lanes`] one, and a
/// [`Wide16`] table the same size.
struct LaneTables<L> {
    spare: Mutex<Vec<FTable<L>>>,
    /// Tables allocated.
    allocated: AtomicUsize,
    /// Problems solved in lanes.
    solved: AtomicUsize,
}

impl<L> Default for LaneTables<L> {
    fn default() -> Self {
        LaneTables {
            spare: Mutex::new(Vec::new()),
            allocated: AtomicUsize::new(0),
            solved: AtomicUsize::new(0),
        }
    }
}

impl<L: LaneCell> LaneTables<L> {
    /// One table per worker that can hold one of `groups` at once (at
    /// most one per group), each shaped for the largest group.
    fn for_wave<'p>(
        problems: &[BpMaxProblem],
        groups: impl Iterator<Item = &'p Vec<usize>> + Clone,
        workers: usize,
    ) -> Self {
        let largest = groups
            .clone()
            .map(|unit| (problems[unit[0]].ctx().m(), problems[unit[0]].ctx().n()))
            .max_by_key(|&(m, n)| FTable::estimate_bytes(m, n, Layout::Packed).unwrap_or(0));
        let lanes = LaneTables::default();
        if let Some((m, n)) = largest {
            for _ in 0..workers.min(groups.count()) {
                lanes.put(lanes.fresh(m, n));
            }
        }
        lanes
    }

    /// A new table with room for `m × n`, counted in `allocated`.
    fn fresh(&self, m: usize, n: usize) -> FTable<L> {
        self.allocated.fetch_add(1, Ordering::Relaxed); // ordering: a count read after the wave's threads have joined
        let mut table = FTable::empty();
        // a shape the arithmetic refuses leaves the table empty, and the
        // group's own reset refuses it again
        let _ = table.reset(m, n, Layout::Packed);
        table
    }

    /// A spare table, or a fresh one when none is left.
    fn take(&self, m: usize, n: usize) -> FTable<L> {
        let spare = self
            .spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        spare.unwrap_or_else(|| self.fresh(m, n))
    }

    /// Hand a table back for the next group.
    fn put(&self, table: FTable<L>) {
        self.spare
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(table);
    }

    /// Problems solved in lanes, and tables allocated.
    fn counts(self) -> (usize, usize) {
        (self.solved.into_inner(), self.allocated.into_inner())
    }
}

/// Lane `lane` of a solved lane table, copied into a pooled F-table.
fn lane_copy<L: LaneCell>(
    lanes: &FTable<L>,
    lane: usize,
    pool: &BlockPool,
) -> Result<FTable, BpMaxError> {
    let mut f = FTable::try_new_in(lanes.m(), lanes.n(), Layout::Packed, pool)?;
    for (i1, j1, i2, j2) in lanes.iter_cells() {
        f.set(i1, j1, i2, j2, lanes.get(i1, j1, i2, j2).lane(lane));
    }
    Ok(f)
}

/// One empty result slot per problem.
pub(crate) fn empty_slots(problems: &[BpMaxProblem]) -> Vec<Option<BatchItem>> {
    problems.iter().map(|_| None).collect()
}

/// Best-effort text of a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::supervise::{CancelToken, Deadline, MemoryBudget};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rna::{RnaSeq, ScoringModel};
    use std::time::Duration;

    fn mixed_problems(count: usize, seed: u64) -> Vec<BpMaxProblem> {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = ScoringModel::bpmax_default();
        (0..count)
            .map(|i| {
                let s1 = RnaSeq::random(&mut rng, 3 + i % 5);
                let s2 = RnaSeq::random(&mut rng, 2 + (i * 3) % 7);
                BpMaxProblem::new(s1, s2, model.clone())
            })
            .collect()
    }

    /// Score via the one entry point, with `alg`.
    fn score(p: &BpMaxProblem, alg: Algorithm) -> f32 {
        p.solve_opts(&SolveOptions::new().algorithm(alg))
            .unwrap()
            .score()
    }

    #[test]
    fn batch_scores_match_sequential_solves() {
        let problems = mixed_problems(12, 41);
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let report = engine.solve_all(&problems).unwrap();
        assert_eq!(report.len(), problems.len());
        for (i, item) in report.items.iter().enumerate() {
            assert_eq!(item.index, i);
            let want = score(
                &problems[i],
                Algorithm::HybridTiled {
                    tile: crate::kernels::Tile::DEFAULT,
                },
            );
            assert_eq!(item.score, want, "problem {i}");
            assert!(item.seconds >= 0.0);
            assert!(item.table.is_none(), "tables recycled by default");
        }
        assert!(report.wall_s > 0.0);
        assert!(report.problems_per_s() > 0.0);
        assert!(report.gflops() >= 0.0);
    }

    #[test]
    fn keep_tables_returns_full_tables() {
        let problems = mixed_problems(4, 43);
        let engine = BatchEngine::new(
            BatchOptions::new()
                .solve(SolveOptions::new().algorithm(Algorithm::Permuted))
                .keep_tables(true),
        )
        .unwrap();
        let report = engine.solve_all(&problems).unwrap();
        for (item, p) in report.items.iter().zip(&problems) {
            let table = item.table.as_ref().expect("table kept");
            let reference = p
                .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
                .unwrap()
                .into_ftable();
            for (i1, j1, i2, j2) in reference.iter_cells().collect::<Vec<_>>() {
                assert_eq!(table.get(i1, j1, i2, j2), reference.get(i1, j1, i2, j2));
            }
        }
    }

    #[test]
    fn warm_pool_allocates_nothing_on_the_second_wave() {
        let problems = mixed_problems(10, 44);
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let first = engine.solve_all(&problems).unwrap();
        assert!(first.pool.allocated > 0, "cold start allocates");
        let second = engine.solve_all(&problems).unwrap();
        assert_eq!(
            second.pool.allocated_since(&first.pool),
            0,
            "steady state must be allocation-free: {:?} -> {:?}",
            first.pool,
            second.pool
        );
        assert!(second.pool.reused > first.pool.reused);
    }

    #[test]
    fn classify_coarse_uses_the_predicted_cost() {
        let model = ScoringModel::bpmax_default();
        let mut rng = StdRng::seed_from_u64(45);
        let small = BpMaxProblem::new(
            RnaSeq::random(&mut rng, 4),
            RnaSeq::random(&mut rng, 4),
            model.clone(),
        );
        let large = BpMaxProblem::new(
            RnaSeq::random(&mut rng, 64),
            RnaSeq::random(&mut rng, 64),
            model,
        );
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        assert!(engine.classify_coarse(&small), "tiny problem goes coarse");
        assert!(
            !engine.classify_coarse(&large),
            "large problem is not coarse"
        );
        // the 10 ms cutoff falls between the 35×35 and 36×36 squares
        let mut square = |n| {
            BpMaxProblem::new(
                RnaSeq::random(&mut rng, n),
                RnaSeq::random(&mut rng, n),
                ScoringModel::bpmax_default(),
            )
        };
        assert!(engine.classify_coarse(&square(35)));
        assert!(!engine.classify_coarse(&square(36)));
    }

    /// A wave prices each shape once: every item's `coarse` flag must
    /// still be its own problem's [`BatchEngine::classify_coarse`].
    #[test]
    fn each_items_coarse_flag_is_its_own_problems_price() {
        let mut rng = StdRng::seed_from_u64(62);
        let model = ScoringModel::bpmax_default();
        let mut of_shapes = |shapes: &[(usize, usize)]| -> Vec<BpMaxProblem> {
            shapes
                .iter()
                .map(|&(m, n)| {
                    let s1 = RnaSeq::random(&mut rng, m);
                    BpMaxProblem::new(s1, RnaSeq::random(&mut rng, n), model.clone())
                })
                .collect()
        };
        let check = |engine: &BatchEngine, problems: &[BpMaxProblem]| {
            let report = engine.solve_all(problems).unwrap();
            for (item, p) in report.items.iter().zip(problems) {
                assert_eq!(
                    item.coarse,
                    engine.classify_coarse(p),
                    "{}x{}",
                    item.m,
                    item.n
                );
            }
            report.coarse_fraction()
        };
        // shapes either side of the 10 ms cutoff, repeated and transposed,
        // under a cancelled token, so that none is solved
        let token = CancelToken::new();
        token.cancel();
        let cancelled =
            BatchEngine::new(BatchOptions::new().solve(SolveOptions::new().cancel(token))).unwrap();
        let around = of_shapes(&[
            (35, 36),
            (36, 36),
            (4, 9),
            (36, 35),
            (35, 35),
            (36, 36),
            (9, 4),
            (35, 36),
        ]);
        let fraction = check(&cancelled, &around);
        assert!(0.0 < fraction && fraction < 1.0, "both classes: {fraction}");
        // and a solved wave of small mixed shapes, some in lane groups
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let small = of_shapes(&[
            (5, 7),
            (7, 5),
            (5, 7),
            (3, 3),
            (5, 7),
            (7, 5),
            (3, 4),
            (5, 7),
        ]);
        assert_eq!(check(&engine, &small), 1.0);
    }

    #[test]
    fn empty_batch_and_empty_strands_are_fine() {
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let report = engine.solve_all(&[]).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.latency_s(), (0.0, 0.0, 0.0));
        // degenerate strand: empty strand-2 degenerates to Nussinov
        let p = BpMaxProblem::new(
            "GGGAAACCC".parse().unwrap(),
            "".parse().unwrap(),
            ScoringModel::bpmax_default(),
        );
        let want = score(&p, Algorithm::Baseline);
        let report = engine.solve_all(std::slice::from_ref(&p)).unwrap();
        assert_eq!(report.items[0].score, want);
    }

    #[test]
    fn clean_waves_report_all_ok() {
        let problems = mixed_problems(6, 46);
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let report = engine.solve_all(&problems).unwrap();
        let counts = report.outcomes();
        assert!(counts.all_ok(), "{counts}");
        assert_eq!(counts.total(), 6);
        assert_eq!(report.pool.quarantined, 0);
        for item in &report.items {
            assert_eq!(item.outcome, crate::supervise::Outcome::Ok);
            assert!(item.error.is_none());
        }
    }

    #[test]
    fn cancelled_token_marks_every_item_cancelled() {
        let problems = mixed_problems(5, 47);
        let token = CancelToken::new();
        token.cancel();
        let engine =
            BatchEngine::new(BatchOptions::new().solve(SolveOptions::new().cancel(token.clone())))
                .unwrap();
        let report = engine.solve_all(&problems).unwrap();
        let counts = report.outcomes();
        assert_eq!(counts.cancelled, 5, "{counts}");
        for item in &report.items {
            assert_eq!(item.outcome, crate::supervise::Outcome::Cancelled);
            assert_eq!(item.error, Some(BpMaxError::Cancelled));
            assert_eq!(item.score, f32::NEG_INFINITY);
        }
        // nothing was allocated for cancelled problems, nothing quarantined
        assert_eq!(report.pool.allocated, 0);
        assert_eq!(report.pool.quarantined, 0);
    }

    #[test]
    fn zero_deadline_marks_every_item_timed_out() {
        let problems = mixed_problems(4, 48);
        let engine = BatchEngine::new(
            BatchOptions::new()
                .solve(SolveOptions::new().deadline(Deadline::within(Duration::ZERO))),
        )
        .unwrap();
        let report = engine.solve_all(&problems).unwrap();
        assert_eq!(report.outcomes().timed_out, 4);
        for item in &report.items {
            assert!(
                matches!(item.error, Some(BpMaxError::DeadlineExceeded { .. })),
                "{:?}",
                item.error
            );
        }
    }

    #[test]
    fn tight_budget_degrades_but_never_silently() {
        let model = ScoringModel::bpmax_default();
        let mut rng = StdRng::seed_from_u64(49);
        let small = BpMaxProblem::new(
            RnaSeq::random(&mut rng, 3),
            RnaSeq::random(&mut rng, 3),
            model.clone(),
        );
        let large = BpMaxProblem::new(
            RnaSeq::random(&mut rng, 12),
            RnaSeq::random(&mut rng, 14),
            model,
        );
        let small_exact = score(&small, Algorithm::Permuted);
        let large_exact = score(&large, Algorithm::Permuted);
        // budget chosen between the two table sizes: small fits, large not
        let budget = FTable::estimate_bytes(12, 14, crate::ftable::Layout::Packed).unwrap() / 2;
        assert!(budget > FTable::estimate_bytes(3, 3, crate::ftable::Layout::Packed).unwrap());
        let within = || SolveOptions::new().mem_budget(MemoryBudget::bytes(budget));
        let engine = BatchEngine::new(BatchOptions::new().solve(within())).unwrap();
        let report = engine.solve_all(&[small, large]).unwrap();
        let counts = report.outcomes();
        assert_eq!((counts.ok, counts.degraded), (1, 1), "{counts}");
        assert_eq!(report.items[0].outcome, crate::supervise::Outcome::Ok);
        assert_eq!(report.items[0].score, small_exact);
        assert_eq!(report.items[1].outcome, crate::supervise::Outcome::Degraded);
        assert!(
            report.items[1].score <= large_exact && report.items[1].score > f32::NEG_INFINITY,
            "degraded score {} must lower-bound {large_exact}",
            report.items[1].score
        );
        // strict mode: the same oversize problem fails instead
        let mut rng = StdRng::seed_from_u64(49);
        let _ = RnaSeq::random(&mut rng, 3);
        let _ = RnaSeq::random(&mut rng, 3);
        let large = BpMaxProblem::new(
            RnaSeq::random(&mut rng, 12),
            RnaSeq::random(&mut rng, 14),
            ScoringModel::bpmax_default(),
        );
        let engine = BatchEngine::new(BatchOptions::new().solve(within().degrade(false))).unwrap();
        let report = engine.solve_all(std::slice::from_ref(&large)).unwrap();
        assert_eq!(report.outcomes().failed, 1);
        assert!(
            matches!(
                report.items[0].error,
                Some(BpMaxError::BudgetExceeded { .. })
            ),
            "{:?}",
            report.items[0].error
        );
    }

    fn pair(a: &str, b: &str) -> BpMaxProblem {
        BpMaxProblem::new(
            a.parse().unwrap(),
            b.parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    #[test]
    fn degraded_solve_reports_a_lower_bound() {
        let p = pair("GGGAAACC", "GGUUUCCCGG");
        let exact = p.solve_opts(&SolveOptions::new()).unwrap().score();
        let full_bytes = FTable::estimate_bytes(8, 10, Layout::Packed).unwrap();
        let engine = BatchEngine::new(BatchOptions::new().keep_tables(true)).unwrap();
        let within = |bytes| {
            SolveOptions::new()
                .mem_budget(MemoryBudget::bytes(bytes))
                .degrade(true)
        };
        let got = engine.solve_pooled(&p, &within(full_bytes / 2));
        assert_eq!(got.outcome, Outcome::Degraded);
        assert_eq!(got.error, None);
        let w = max_window_within(8, 10, full_bytes / 2).expect("half the table fits a window");
        assert!((1..10).contains(&w), "w={w}");
        let best = crate::windowed::solve_windowed(p.ctx(), w)
            .window_scores()
            .into_iter()
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(got.score, best, "the best window at width {w}");
        assert!(got.score <= exact, "{} vs {exact}", got.score);
        assert!(got.score > f32::NEG_INFINITY);
        assert!(got.table.is_none());

        // within budget: exact, Outcome::Ok, full table attached
        let got = engine.solve_pooled(&p, &within(full_bytes));
        assert_eq!(got.outcome, Outcome::Ok);
        assert_eq!(got.score, exact);
        assert!(got.table.is_some());
    }

    #[test]
    fn expired_deadline_beats_the_budget() {
        let p = pair("GGAUCGAC", "CCGAUG");
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let opts = SolveOptions::new()
            .deadline(Deadline::within(Duration::ZERO))
            .mem_budget(MemoryBudget::bytes(64))
            .degrade(true);
        let got = engine.solve_pooled(&p, &opts);
        assert_eq!(got.outcome, Outcome::TimedOut);
        assert!(
            matches!(got.error, Some(BpMaxError::DeadlineExceeded { .. })),
            "{:?}",
            got.error
        );
    }

    #[test]
    fn strict_pooled_solve_rejects_oversized_problems() {
        let p = pair("GGAUCGAC", "CCGAUG");
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let strict = SolveOptions::new()
            .mem_budget(MemoryBudget::bytes(8))
            .degrade(false);
        let got = engine.solve_pooled(&p, &strict);
        assert_eq!(got.outcome, Outcome::Failed);
        assert!(
            matches!(got.error, Some(BpMaxError::BudgetExceeded { .. })),
            "{:?}",
            got.error
        );
    }

    #[test]
    fn hopeless_budget_fails_even_with_degradation() {
        let p = pair("GGAUCGAC", "CCGAUG");
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let opts = SolveOptions::new()
            .mem_budget(MemoryBudget::bytes(0))
            .degrade(true);
        let got = engine.solve_pooled(&p, &opts);
        assert_eq!(got.outcome, Outcome::Failed);
        assert!(
            matches!(got.error, Some(BpMaxError::BudgetExceeded { .. })),
            "{:?}",
            got.error
        );
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
        let p =
            std::env::temp_dir().join(format!("bpmax-batch-ckpt-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn fingerprint_tracks_scores_not_scheduling() {
        let base = BatchOptions::new();
        let fp = base.fingerprint();
        assert_eq!(fp, BatchOptions::new().fingerprint(), "deterministic");
        let with = |solve: SolveOptions| base.clone().solve(solve).fingerprint();
        // wall-clock knobs do not move the fingerprint
        assert_eq!(
            fp,
            with(SolveOptions::new().deadline(Deadline::within(Duration::from_secs(1))))
        );
        // score-affecting knobs do
        assert_ne!(fp, with(SolveOptions::new().algorithm(Algorithm::Permuted)));
        assert_ne!(
            fp,
            with(SolveOptions::new().mem_budget(MemoryBudget::bytes(1 << 20)))
        );
        assert_ne!(fp, with(SolveOptions::new().degrade(false)));
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Every checkpoint manifest stores this value, and a resume
        // refuses a mismatch: a new value for an old configuration would
        // orphan every checkpoint already on disk.
        let with_alg = |alg| BatchOptions::new().solve(SolveOptions::new().algorithm(alg));
        let pins = [
            (BatchOptions::new(), 0xef7d_c2a0_d95a_ae66_u64),
            (with_alg(Algorithm::Permuted), 0x9524_508c_cf9c_f4d5),
            (
                with_alg(Algorithm::HybridTiled {
                    tile: crate::kernels::Tile::cubic(2),
                }),
                0x21d8_5677_909d_4bee,
            ),
            (
                BatchOptions::new()
                    .solve(SolveOptions::new().mem_budget(MemoryBudget::bytes(1 << 20))),
                0x8be1_26a2_0afe_0e3e,
            ),
        ];
        for (opts, want) in pins {
            let got = opts.fingerprint();
            assert_eq!(got, want, "{opts:?}: {got:#018x}");
        }
    }

    #[test]
    fn checkpoint_resume_replays_completed_work() {
        let problems = mixed_problems(8, 50);
        let dir = tmpdir("replay");
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let full = engine.solve_all_checkpointed(&problems, &dir).unwrap();
        assert_eq!(full.replayed, 0);
        let (manifest, records, snapshot) = checkpoint::load(&dir).unwrap();
        assert_eq!(records.len(), 8, "every completed problem journaled");
        assert_eq!(snapshot, None, "nothing was interrupted");

        // simulate a crash after the first 4 completions: rebuild the
        // journal with only that prefix
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        sink.record(&records[..4]);
        drop(sink);

        let resumed = engine.resume(&problems, &dir).unwrap();
        assert_eq!(resumed.replayed, 4, "journaled problems not recomputed");
        assert_eq!(resumed.len(), full.len());
        for (a, b) in full.items.iter().zip(&resumed.items) {
            assert_eq!(a.score, b.score, "problem {}", a.index);
            assert_eq!(a.outcome, b.outcome);
        }
        // a second resume replays everything
        let again = engine.resume(&problems, &dir).unwrap();
        assert_eq!(again.replayed, 8);
        for (a, b) in full.items.iter().zip(&again.items) {
            assert_eq!(a.score, b.score);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_mismatched_options_and_problems() {
        let problems = mixed_problems(4, 51);
        let dir = tmpdir("mismatch");
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        engine.solve_all_checkpointed(&problems, &dir).unwrap();

        // different algorithm: options hash differs
        let other = BatchEngine::new(
            BatchOptions::new().solve(SolveOptions::new().algorithm(Algorithm::Permuted)),
        )
        .unwrap();
        let err = other.resume(&problems, &dir).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CheckpointMismatch { .. }),
            "{err}"
        );

        // different problem set: id list differs
        let others = mixed_problems(4, 52);
        let err = engine.resume(&others, &dir).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CheckpointMismatch { .. }),
            "{err}"
        );

        // different batch length
        let err = engine.resume(&problems[..2], &dir).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CheckpointMismatch { .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_corrupt_journal() {
        let problems = mixed_problems(3, 53);
        let dir = tmpdir("corrupt");
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        engine.solve_all_checkpointed(&problems, &dir).unwrap();
        let jpath = checkpoint::journal_path(&dir);
        let mut bytes = std::fs::read(&jpath).unwrap();
        let at = bytes.len() - 3; // inside the last record's payload
        bytes[at] ^= 0x20;
        std::fs::write(&jpath, &bytes).unwrap();
        let err = engine.resume(&problems, &dir).unwrap_err();
        assert!(matches!(err, BpMaxError::CorruptCheckpoint { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_picks_up_a_table_snapshot_mid_problem() {
        let model = ScoringModel::bpmax_default();
        let mut rng = StdRng::seed_from_u64(54);
        let p = BpMaxProblem::new(
            RnaSeq::random(&mut rng, 16),
            RnaSeq::random(&mut rng, 12),
            model,
        );
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let want = engine.solve_all(std::slice::from_ref(&p)).unwrap().items[0].score;

        // hand-build a checkpoint holding diagonals 0..9 of the table,
        // as if the original run was killed mid-problem
        let dir = tmpdir("snapresume");
        let manifest = RunManifest {
            options_hash: engine.options().fingerprint(),
            seed: 0,
            problem_ids: vec![problem_id(&p)],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        let alg = engine.options().solve.validated_algorithm().unwrap();
        let prefix = p.compute_prefix(alg, 9).unwrap();
        sink.snapshot(&TableSnapshot::capture(0, problem_id(&p), &prefix, 9));
        assert_eq!(sink.take_error(), None);
        drop(sink);

        let resumed = engine.resume(std::slice::from_ref(&p), &dir).unwrap();
        assert_eq!(resumed.replayed, 0, "the snapshot problem was in flight");
        assert_eq!(resumed.items[0].outcome, Outcome::Ok);
        assert_eq!(resumed.items[0].score, want, "bit-identical to scratch");
        // the finished problem retired its snapshot and journaled itself
        assert!(!checkpoint::snapshot_path(&dir).exists());
        let (_, records, _) = checkpoint::load(&dir).unwrap();
        assert_eq!(records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every worker count, forced past the cutoff (`min_flops` 0).
    fn forced() -> [Split; 4] {
        [1, 2, 3, 8].map(|cores| Split {
            cores,
            min_flops: 0.0,
        })
    }

    /// One uncheckpointed wave with its coarse group split by `split`.
    fn split_wave(engine: &BatchEngine, problems: &[BpMaxProblem], split: Split) -> BatchReport {
        engine
            .run_batch(problems, None, empty_slots(problems), None, 0, split)
            .unwrap()
    }

    fn score_bits(report: &BatchReport) -> Vec<u32> {
        report.items.iter().map(|i| i.score.to_bits()).collect()
    }

    #[test]
    fn split_waves_are_bit_identical_to_serial_waves_and_solve_opts() {
        // 5 problems: 8 workers are more threads than problems
        for count in [5, 12] {
            let problems = mixed_problems(count, 60);
            let want: Vec<u32> = problems
                .iter()
                .map(|p| {
                    p.solve_opts(&SolveOptions::new())
                        .unwrap()
                        .score()
                        .to_bits()
                })
                .collect();
            let engine = BatchEngine::new(BatchOptions::new()).unwrap();
            let serial = split_wave(&engine, &problems, Split::SERIAL);
            assert_eq!(serial.workers, 1);
            assert_eq!(score_bits(&serial), want, "serial wave");
            for split in forced() {
                let report = split_wave(&engine, &problems, split);
                assert_eq!(report.workers, split.cores.min(count), "{split:?}");
                assert_eq!(score_bits(&report), want, "{split:?}");
                for (i, item) in report.items.iter().enumerate() {
                    assert_eq!(item.index, i, "{split:?}: input order");
                    assert_eq!(item.outcome, Outcome::Ok, "{split:?}");
                    assert!(item.coarse && item.seconds >= 0.0, "{split:?}");
                }
            }
        }
    }

    #[test]
    fn split_checkpointed_waves_journal_every_index_once_and_resume_replays_them() {
        let problems = mixed_problems(5, 61);
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let want = score_bits(&split_wave(&engine, &problems, Split::SERIAL));
        let every: Vec<u64> = (0..problems.len() as u64).collect();
        for split in forced() {
            let dir = tmpdir("split");
            let sink = engine.fresh_checkpoint(&problems, &dir).unwrap();
            let report = engine
                .run_batch(
                    &problems,
                    Some(&sink),
                    empty_slots(&problems),
                    None,
                    0,
                    split,
                )
                .unwrap();
            drop(sink);
            assert_eq!(score_bits(&report), want, "{split:?}");
            // records land in completion order; each index exactly once
            let (_, records, snapshot) = checkpoint::load(&dir).unwrap();
            let mut journaled: Vec<u64> = records.iter().map(|r| r.index).collect();
            journaled.sort_unstable();
            assert_eq!(journaled, every, "{split:?}");
            assert_eq!(snapshot, None, "{split:?}");
            let resumed = engine.resume(&problems, &dir).unwrap();
            assert_eq!(resumed.replayed, problems.len(), "{split:?}");
            assert_eq!(score_bits(&resumed), want, "{split:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn split_warm_pool_allocates_nothing_on_the_second_wave() {
        let problems = mixed_problems(10, 44);
        for split in forced() {
            let engine = BatchEngine::new(BatchOptions::new()).unwrap();
            let first = split_wave(&engine, &problems, split);
            assert!(first.pool.allocated > 0, "cold start allocates");
            let second = split_wave(&engine, &problems, split);
            assert_eq!(
                second.pool.allocated_since(&first.pool),
                0,
                "{split:?}: steady state must be allocation-free: {:?} -> {:?}",
                first.pool,
                second.pool
            );
            assert!(second.pool.reused > first.pool.reused);
        }
    }

    #[test]
    fn split_cancelled_wave_allocates_nothing() {
        let problems = mixed_problems(5, 47);
        let token = CancelToken::new();
        token.cancel();
        for split in forced() {
            let engine = BatchEngine::new(
                BatchOptions::new().solve(SolveOptions::new().cancel(token.clone())),
            )
            .unwrap();
            let report = split_wave(&engine, &problems, split);
            assert_eq!(report.outcomes().cancelled, 5, "{split:?}");
            assert_eq!(report.pool.allocated, 0, "{split:?}");
            assert_eq!(report.pool.quarantined, 0, "{split:?}");
        }
    }

    #[test]
    fn split_rule_keeps_small_batches_serial_and_splits_a_scan_wave_on_two_cores() {
        let two = Split {
            cores: 2,
            min_flops: crate::engine::MIN_FLOPS_PER_WORKER,
        };
        let flops = |ps: &[BpMaxProblem]| ps.iter().map(|p| p.flops() as f64).sum::<f64>();
        let small = mixed_problems(10, 44);
        assert_eq!(two.workers(small.len(), flops(&small)), 1);
        // the `scan` shape: a 12-nt query against each 16-nt
        // window start of a 200-nt target, every window coarse
        let mut rng = StdRng::seed_from_u64(62);
        let query = RnaSeq::random(&mut rng, 12);
        let target = RnaSeq::random(&mut rng, 200);
        let windows: Vec<BpMaxProblem> = (0..200)
            .map(|s| {
                let window = target.slice(s, (s + 16).min(200));
                BpMaxProblem::new(query.clone(), window, ScoringModel::bpmax_default())
            })
            .collect();
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        assert!(windows.iter().all(|p| engine.classify_coarse(p)));
        assert_eq!(two.workers(windows.len(), flops(&windows)), 2);
    }

    /// `count` problems of one `m × n` shape, random strands.
    fn same_shape(count: usize, m: usize, n: usize, seed: u64) -> Vec<BpMaxProblem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                BpMaxProblem::new(
                    RnaSeq::random(&mut rng, m),
                    RnaSeq::random(&mut rng, n),
                    ScoringModel::bpmax_default(),
                )
            })
            .collect()
    }

    fn table_bits(f: &FTable) -> Vec<u32> {
        f.iter_cells()
            .map(|(i1, j1, i2, j2)| f.get(i1, j1, i2, j2).to_bits())
            .collect()
    }

    /// Each unit of `engine`'s plan for `problems`: its members and the
    /// cell it runs on.
    fn planned(engine: &BatchEngine, problems: &[BpMaxProblem]) -> Vec<(usize, UnitCell)> {
        let every: Vec<usize> = (0..problems.len()).collect();
        let plan = engine.plan(problems, &every, &Supervision::none(), None);
        let mut claimed: Vec<usize> = plan.concat();
        claimed.sort_unstable();
        assert_eq!(claimed, every, "each problem in exactly one unit");
        assert!(plan.windows(2).all(|w| w[0][0] < w[1][0]), "input order");
        plan.iter()
            .map(|unit| {
                let exact16 = problems[unit[0]].ctx().terms().exact16();
                (unit.len(), UnitCell::of(exact16, unit.len()))
            })
            .collect()
    }

    /// `problems` again under the default model with GU at 1.5, which
    /// the 16-bit gate refuses, so their lane groups run in `f32`.
    fn refused_by_the_gate(problems: Vec<BpMaxProblem>) -> Vec<BpMaxProblem> {
        let model = ScoringModel::from_weights(3.0, 2.0, 1.5, 0);
        problems
            .iter()
            .map(|p| BpMaxProblem::new(p.seq1().clone(), p.seq2().clone(), model.clone()))
            .collect()
    }

    #[test]
    fn lanes_plan_a_scan_wave_into_12_groups_of_up_to_16_and_k_problems_on_the_narrowest_cell() {
        use UnitCell::{Alone, Wide16, F32, I16};
        let mut rng = StdRng::seed_from_u64(62);
        let query = RnaSeq::random(&mut rng, 12);
        let target = RnaSeq::random(&mut rng, 200);
        let windows: Vec<BpMaxProblem> = (0..200)
            .map(|s| {
                let window = target.slice(s, (s + 16).min(200));
                BpMaxProblem::new(query.clone(), window, ScoringModel::bpmax_default())
            })
            .collect();
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let plan = planned(&engine, &windows);
        let groups: Vec<&(usize, UnitCell)> =
            plan.iter().filter(|(_, cell)| *cell != Alone).collect();
        // the 185 12x16 windows: 11 groups of 16, then one of 9, every
        // one on [i16; 16] cells
        assert_eq!(groups.len(), 12);
        assert!(groups[..11].iter().all(|&&g| g == (16, Wide16)));
        assert_eq!(*groups[11], (9, Wide16));
        let in_lanes: usize = groups.iter().map(|(members, _)| members).sum();
        assert_eq!(in_lanes, 185, "every full-width window");
        // the 15 shorter tail windows run alone
        assert_eq!(plan.len(), 12 + 15, "units, each journaled in one append");

        // k same-shape problems, cut in input order
        let alone = |count: usize| vec![(1, Alone); count];
        let cases: [(usize, Vec<(usize, UnitCell)>); 7] = [
            (2, alone(2)),
            (3, vec![(3, I16)]),
            (8, vec![(8, I16)]),
            (9, vec![(9, Wide16)]),
            (16, vec![(16, Wide16)]),
            (17, [vec![(16, Wide16)], alone(1)].concat()),
            (25, vec![(16, Wide16), (9, Wide16)]),
        ];
        for (k, want) in cases {
            let problems = same_shape(k, 4, 5, 90 + k as u64);
            assert_eq!(planned(&engine, &problems), want, "{k} 16-bit problems");
        }
        // under a model the gate refuses: [f32; 8] groups of four to eight
        let f32_cases: [(usize, Vec<(usize, UnitCell)>); 5] = [
            (3, alone(3)),
            (4, vec![(4, F32)]),
            (8, vec![(8, F32)]),
            (11, [vec![(8, F32)], alone(3)].concat()),
            (12, vec![(8, F32), (4, F32)]),
        ];
        for (k, want) in f32_cases {
            let problems = refused_by_the_gate(same_shape(k, 4, 5, 110 + k as u64));
            assert_eq!(planned(&engine, &problems), want, "{k} f32 problems");
        }

        let mixed = mixed_problems(12, 41);
        assert!(planned(&engine, &mixed).iter().all(|&u| u == (1, Alone)));
        // the baseline program has no wavefront to run in lanes
        let baseline = BatchEngine::new(
            BatchOptions::new().solve(SolveOptions::new().algorithm(Algorithm::Baseline)),
        )
        .unwrap();
        assert_eq!(planned(&baseline, &windows).len(), 200);
    }

    #[test]
    fn lanes_waves_are_bit_identical_to_solve_opts_on_every_split() {
        // Same-shape groups of 1, 2, 3, 4, 5, 7, 8 and 12 members (below
        // MIN_LANES they run alone; from nine they run on [i16; 16]
        // cells), and f32 groups of 3 (run alone) and 4, each wave at
        // most 12 problems long, with the problems lane groups count.
        let shapes = |groups: &[(usize, usize, usize)]| -> Vec<BpMaxProblem> {
            (groups.iter().zip(70..))
                .flat_map(|(&(count, m, n), seed)| same_shape(count, m, n, seed))
                .collect()
        };
        let waves = [
            (shapes(&[(8, 4, 5), (2, 3, 3), (1, 1, 1), (1, 5, 2)]), 8),
            (shapes(&[(3, 2, 6), (4, 6, 3), (5, 3, 4)]), 12),
            (shapes(&[(7, 4, 4), (2, 2, 2), (3, 3, 6)]), 10),
            (shapes(&[(12, 3, 5)]), 12),
            (refused_by_the_gate(shapes(&[(3, 5, 6), (4, 4, 6)])), 4),
        ];
        for &alg in &Algorithm::ALL[1..] {
            let solve = SolveOptions::new().algorithm(alg);
            let engine =
                BatchEngine::new(BatchOptions::new().solve(solve.clone()).keep_tables(true))
                    .unwrap();
            for (problems, grouped) in &waves {
                let want: Vec<FTable> = problems
                    .iter()
                    .map(|p| p.solve_opts(&solve).unwrap().into_ftable())
                    .collect();
                for split in forced() {
                    let report = split_wave(&engine, problems, split);
                    let tag = format!("{alg:?} {split:?}");
                    assert!(report.outcomes().all_ok(), "{tag}: {}", report.outcomes());
                    for (item, want) in report.items.iter().zip(&want) {
                        let table = item.table.as_ref().expect("keep_tables");
                        assert_eq!(table.layout(), want.layout(), "{tag}");
                        assert!(
                            table_bits(table) == table_bits(want),
                            "{tag}: problem {}",
                            item.index
                        );
                        assert_eq!(item.score.to_bits(), want.final_score().unwrap().to_bits());
                    }
                    assert_eq!(report.lane_problems, *grouped, "{tag}");
                    assert!((1..=split.cores).contains(&report.lane_tables), "{tag}");
                }
            }
        }
    }

    #[test]
    fn lanes_tables_live_for_one_wave_and_the_pool_stays_allocation_free() {
        // one group of 12, on [i16; 16] cells
        let problems = same_shape(12, 6, 7, 82);
        for split in forced() {
            let engine = BatchEngine::new(BatchOptions::new()).unwrap();
            let first = split_wave(&engine, &problems, split);
            let second = split_wave(&engine, &problems, split);
            assert_eq!(second.lane_problems, 12, "{split:?}");
            // each wave allocates its own lane tables, one per worker at
            // most, and takes nothing from the F-table pool
            assert_eq!(first.lane_tables, second.lane_tables, "{split:?}");
            assert!((1..=split.cores.min(2)).contains(&second.lane_tables));
            assert_eq!(second.pool.allocated_since(&first.pool), 0, "{split:?}");
            assert_eq!(second.pool.reused, first.pool.reused, "{split:?}");
        }
    }

    #[test]
    fn lanes_pre_cancelled_wave_allocates_no_lane_table() {
        let problems = same_shape(8, 4, 4, 83);
        let token = CancelToken::new();
        token.cancel();
        for split in forced() {
            let engine = BatchEngine::new(
                BatchOptions::new().solve(SolveOptions::new().cancel(token.clone())),
            )
            .unwrap();
            let report = split_wave(&engine, &problems, split);
            assert_eq!(report.outcomes().cancelled, 8, "{split:?}");
            assert_eq!(
                (report.lane_tables, report.lane_problems),
                (0, 0),
                "{split:?}"
            );
            assert_eq!(report.pool.allocated, 0, "{split:?}");
        }
    }

    #[test]
    fn lanes_members_share_the_group_time_and_journal_one_record_each() {
        let problems = same_shape(8, 5, 5, 84);
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let dir = tmpdir("lanes");
        let report = engine.solve_all_checkpointed(&problems, &dir).unwrap();
        assert_eq!(report.lane_problems, 8);
        let seconds = report.items[0].seconds;
        assert!(seconds > 0.0);
        assert!(report
            .items
            .iter()
            .all(|i| i.seconds == seconds && i.coarse));
        let (_, records, _) = checkpoint::load(&dir).unwrap();
        let mut journaled: Vec<u64> = records.iter().map(|r| r.index).collect();
        journaled.sort_unstable();
        assert_eq!(journaled, (0..8).collect::<Vec<u64>>());
        let resumed = engine.resume(&problems, &dir).unwrap();
        assert_eq!(resumed.replayed, 8);
        assert_eq!(score_bits(&resumed), score_bits(&report));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fault registry is process-global and other unit tests' waves
    /// consult it, so the fault sits at index 20: past the end of every
    /// other wave in this crate's unit tests (20 problems at most, in
    /// `lanes16_tests`).
    #[cfg(feature = "fault-inject")]
    #[test]
    fn split_group_isolates_an_injected_panic() {
        use crate::supervise::fault::{self, Fault, FaultPlan};
        struct Disarm;
        impl Drop for Disarm {
            fn drop(&mut self) {
                fault::disarm();
            }
        }
        const AT: usize = 20;
        let problems = mixed_problems(23, 63);
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let want = score_bits(&split_wave(&engine, &problems, Split::SERIAL));
        let _disarm = Disarm;
        fault::arm(FaultPlan::new().fail(fault::SITE_COMPUTE, AT, Fault::Panic));
        for split in forced() {
            let engine = BatchEngine::new(BatchOptions::new()).unwrap();
            let report = split_wave(&engine, &problems, split);
            for (i, item) in report.items.iter().enumerate() {
                if i == AT {
                    assert_eq!(item.outcome, Outcome::Failed, "{split:?}");
                    assert!(
                        matches!(&item.error, Some(BpMaxError::Panicked { detail })
                            if detail.contains("injected fault")),
                        "{split:?}: {:?}",
                        item.error
                    );
                } else {
                    assert_eq!(item.outcome, Outcome::Ok, "{split:?}: survivor {i}");
                    assert_eq!(item.score.to_bits(), want[i], "{split:?}: survivor {i}");
                }
            }
            assert_eq!(report.pool.quarantined, 1, "{split:?}: {:?}", report.pool);
        }
    }

    #[test]
    fn bad_tile_fails_at_engine_construction() {
        let bad = Algorithm::HybridTiled {
            tile: crate::kernels::Tile {
                i2: 0,
                k2: 1,
                j2: 1,
            },
        };
        let err = BatchEngine::new(BatchOptions::new().solve(SolveOptions::new().algorithm(bad)))
            .err()
            .expect("bad tile must fail");
        assert!(matches!(err, BpMaxError::BadTile { .. }), "{err}");
    }
}
