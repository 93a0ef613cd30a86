//! The batch solving engine: throughput across many `BPMax` problems.
//!
//! The paper accelerates one instance; the workload that motivates `BPMax`
//! (and the ROADMAP's production north star) is *scanning* — thousands of
//! candidate strand pairs, most of them small, a few large. Three things
//! make a batch qualitatively different from a loop over
//! [`BpMaxProblem::solve_opts`]:
//!
//! 1. **Allocation.** Every solve builds a `Θ(M²N²)` [`FTable`] out of
//!    `M(M+1)/2` block buffers. Across a batch that is millions of
//!    transient allocations; the engine routes them through one
//!    [`BlockPool`] arena so the steady state allocates **nothing**
//!    ([`PoolStats`] is the receipt — see `bench_batch_throughput`).
//! 2. **Resumable large problems.** Every problem runs the same serial
//!    wavefront traversal (see [`crate::engine`]), one at a time.
//!    [`BatchEngine::classify_coarse`] prices each problem with the
//!    calibratable [`perfmodel`](crate::perfmodel) cost model: small
//!    (*coarse*) problems run first, and only a large problem that is
//!    interrupted snapshots its finished diagonals for
//!    [`BatchEngine::resume`].
//! 3. **Telemetry.** A service needs per-problem latency and aggregate
//!    throughput, not a bare score: [`BatchReport`] carries both and
//!    feeds the `bench::report` JSON schema.
//!
//! Results are **bit-identical** to per-problem [`BpMaxProblem::solve_opts`]
//! calls (property-tested in `tests/batch_identical.rs`): a pooled,
//! supervised or resumed solve computes the same F-table by the
//! wavefront invariant.
//!
//! **Bounded failure.** One bad problem never poisons the wave: each
//! solve runs under the [`supervise`](crate::supervise) layer (batch-wide
//! [`Deadline`]/[`CancelToken`]/[`MemoryBudget`] merged with any per-solve
//! supervision), panics are isolated with `catch_unwind`, and every
//! [`BatchItem`] records an [`Outcome`] instead of aborting
//! [`BatchEngine::solve_all`]. Buffers touched by a panicked solve are
//! quarantined, never recycled ([`PoolStats::quarantined`] counts them).

use crate::checkpoint::{
    self, problem_id, CheckpointSink, Fnv64, JournalRecord, RunManifest, TableSnapshot,
};
use crate::engine::{BpMaxProblem, Solution, SolveOptions};
use crate::error::BpMaxError;
use crate::ftable::{BlockPool, FTable, PoolStats};
use crate::perfmodel::{predict_bpmax_seconds, CostModel};
use crate::supervise::{
    fault, CancelToken, Deadline, Interrupt, MemoryBudget, Outcome, OutcomeCounts, Supervision,
    Watch,
};
use crate::windowed::{max_window_within, solve_windowed_watched};
use machine::spec::MachineSpec;
use simsched::speedup::HtModel;
use std::path::Path;
use std::time::{Duration, Instant};

/// Predicted serial seconds below which [`BatchEngine::classify_coarse`]
/// marks a problem coarse: it runs in the batch's first group, and an
/// interrupt does not snapshot its table.
const COARSE_CUTOFF_S: f64 = 0.01;

/// Configuration of a [`BatchEngine`].
#[derive(Clone, Debug, PartialEq)]
pub struct BatchOptions {
    /// Per-problem solve configuration: the compute profile (program
    /// version, layout) plus per-solve supervision.
    pub solve: SolveOptions,
    /// Keep each problem's full F-table in its [`BatchItem`] (disables
    /// block recycling for those tables; default `false`).
    pub keep_tables: bool,
    /// Wall-clock budget for the whole wave, anchored when
    /// [`BatchEngine::solve_all`] starts. Problems running (or queued)
    /// past it finish as [`Outcome::TimedOut`].
    pub deadline: Option<Duration>,
    /// Per-problem F-table byte cap. Oversized problems degrade to the
    /// windowed algorithm ([`Outcome::Degraded`]) when
    /// [`BatchOptions::degrade`] is on, else fail with
    /// [`BpMaxError::BudgetExceeded`].
    pub mem_budget: Option<u64>,
    /// Over-budget behaviour (default `true`: degrade, never silently).
    pub degrade: bool,
    /// Cancellation token observed by every solve of the wave.
    pub cancel: Option<CancelToken>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            solve: SolveOptions::new(),
            keep_tables: false,
            deadline: None,
            mem_budget: None,
            degrade: true,
            cancel: None,
        }
    }
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

    /// Set the wave's wall-clock budget.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Set the per-problem F-table byte cap.
    #[must_use]
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Set the over-budget behaviour (degrade vs fail).
    #[must_use]
    pub fn degrade(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Watch a cancellation token for the whole wave.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
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
        // algorithm (with its tile) / layout: the shared ComputeProfile rule, the
        // same bytes the serve result-cache key hashes
        self.solve.profile().fingerprint_into(&mut h);
        // memory budgets and degradation decide exact-vs-windowed scores
        h.write_u64(self.mem_budget.unwrap_or(u64::MAX));
        h.write(&[u8::from(self.degrade)]);
        let sup = self.solve.supervision();
        h.write_u64(sup.budget.map_or(u64::MAX, |b| b.bytes));
        h.write(&[u8::from(sup.degrade)]);
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
    /// Wall-clock latency of this solve, seconds.
    pub seconds: f64,
    /// Max-plus FLOPs of the instance.
    pub flops: u64,
    /// `true` when [`BatchEngine::classify_coarse`] found the problem
    /// small: it ran in the first group, and an interrupt would not
    /// snapshot its table.
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

/// The throughput engine: a block arena reused across
/// [`BatchEngine::solve_all`] waves so it stays warm, plus the cost model
/// that classifies problems.
pub struct BatchEngine {
    opts: BatchOptions,
    blocks: BlockPool,
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
            blocks: BlockPool::new(),
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
        self.blocks.stats()
    }

    /// `true` when the cost model predicts this problem below a 10 ms
    /// cutoff: it runs in the batch's first group, and an interrupt does
    /// not snapshot its table (only large problems are worth the bytes).
    pub fn classify_coarse(&self, problem: &BpMaxProblem) -> bool {
        self.classify_coarse_with(problem, &self.opts.solve)
    }

    /// [`BatchEngine::classify_coarse`] against explicit solve options
    /// (the daemon classifies per request, not per engine).
    fn classify_coarse_with(&self, problem: &BpMaxProblem, solve: &SolveOptions) -> bool {
        self.predict_seconds(problem, solve) < COARSE_CUTOFF_S
    }

    /// Predicted single-thread solve seconds for `problem` under `solve` —
    /// the perfmodel number the serve daemon's admission control compares
    /// against its `max_predicted_s` cap.
    pub fn predict_seconds(&self, problem: &BpMaxProblem, solve: &SolveOptions) -> f64 {
        let (alg, _) = solve.profile().parts();
        let (m, n) = (problem.ctx().m(), problem.ctx().n());
        predict_bpmax_seconds(alg, m, n, 1, &self.cost, &self.spec, self.ht)
    }

    /// Solve one problem on the engine's warm block arena with
    /// *per-request* solve options — the serve daemon's entry point. The
    /// request is classified like a batch problem
    /// ([`BatchEngine::classify_coarse`]); supervision merges the
    /// engine-wide layer with the request's own. Infallible like the
    /// batch waves: every failure mode folds into the returned item's
    /// [`Outcome`] + error.
    pub fn solve_pooled(&self, problem: &BpMaxProblem, solve: &SolveOptions) -> BatchItem {
        let batch_sup = Supervision {
            cancel: self.opts.cancel.clone(),
            deadline: self.opts.deadline.map(Deadline::within),
            budget: self.opts.mem_budget.map(MemoryBudget::bytes),
            degrade: self.opts.degrade,
        };
        let sup = Supervision::merged(&batch_sup, solve.supervision());
        let coarse = self.classify_coarse_with(problem, solve);
        self.solve_one(problem, 0, coarse, &sup, None, None, solve)
    }

    /// Solve every problem; results come back in input order,
    /// bit-identical to per-problem [`BpMaxProblem::solve_opts`] calls.
    ///
    /// Problems run one at a time: the coarse-classified ones first, then
    /// the rest, each group in input order.
    ///
    /// Supervision is per-problem, never per-wave: a problem that is
    /// cancelled, times out, blows its memory budget, or panics becomes a
    /// [`BatchItem`] with the matching [`Outcome`] (and its buffers are
    /// recycled or quarantined), while every other problem completes
    /// normally. The wave-wide deadline clock starts here.
    pub fn solve_all(&self, problems: &[BpMaxProblem]) -> Result<BatchReport, BpMaxError> {
        let mut slots: Vec<Option<BatchItem>> = Vec::new();
        slots.resize_with(problems.len(), || None);
        self.run_batch(problems, None, slots, None, 0)
    }

    /// [`BatchEngine::solve_all`] with durable progress: a fresh
    /// crash-safe checkpoint is written under `dir` (manifest + journal,
    /// one record per completed problem, plus the partial F-table of an
    /// interrupted large problem). A killed or cancelled run can be
    /// picked up by [`BatchEngine::resume`] without recomputing anything
    /// that finished. Any previous checkpoint in `dir` is replaced.
    pub fn solve_all_checkpointed(
        &self,
        problems: &[BpMaxProblem],
        dir: &Path,
    ) -> Result<BatchReport, BpMaxError> {
        let manifest = RunManifest {
            options_hash: self.opts.fingerprint(),
            seed: 0,
            problem_ids: problems.iter().map(problem_id).collect(),
        };
        let sink = CheckpointSink::create(dir, &manifest)?;
        let mut slots: Vec<Option<BatchItem>> = Vec::new();
        slots.resize_with(problems.len(), || None);
        self.run_batch(problems, Some(&sink), slots, None, 0)
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
        let mut slots: Vec<Option<BatchItem>> = Vec::new();
        slots.resize_with(problems.len(), || None);
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

        self.run_batch(problems, Some(&sink), slots, snapshot.as_ref(), replayed)
    }

    /// The shared wave driver behind every `solve_all*` flavour. Slots
    /// already filled (journal replays) are skipped; `snapshot`, when it
    /// targets a still-pending problem, seeds that problem's table.
    fn run_batch(
        &self,
        problems: &[BpMaxProblem],
        ckpt: Option<&CheckpointSink>,
        mut slots: Vec<Option<BatchItem>>,
        snapshot: Option<&TableSnapshot>,
        replayed: usize,
    ) -> Result<BatchReport, BpMaxError> {
        let start = Instant::now();
        let batch_sup = Supervision {
            cancel: self.opts.cancel.clone(),
            deadline: self.opts.deadline.map(Deadline::within),
            budget: self.opts.mem_budget.map(MemoryBudget::bytes),
            degrade: self.opts.degrade,
        };
        let sup = Supervision::merged(&batch_sup, self.opts.solve.supervision());
        let coarse_class: Vec<bool> = problems.iter().map(|p| self.classify_coarse(p)).collect();

        // the coarse class first, then the rest, each in input order
        for coarse in [true, false] {
            for (i, problem) in problems.iter().enumerate() {
                if coarse_class[i] == coarse && slots[i].is_none() {
                    let snap = snapshot.filter(|s| s.index as usize == i);
                    let item =
                        self.solve_one(problem, i, coarse, &sup, ckpt, snap, &self.opts.solve);
                    slots[i] = Some(item);
                }
            }
        }

        // a checkpoint that could not be written must fail loudly: the
        // caller would otherwise trust durability it does not have
        if let Some(sink) = ckpt {
            if let Some(e) = sink.take_error() {
                return Err(e);
            }
        }

        Ok(BatchReport {
            items: slots
                .into_iter()
                .map(|s| s.expect("every slot filled")) // lint: allow(expect): the dispatch loop filled every slot
                .collect(),
            wall_s: start.elapsed().as_secs_f64(),
            pool: self.blocks.stats(),
            replayed,
        })
    }

    /// Solve one problem on a pooled table. Infallible by design: every
    /// failure mode folds into the item's [`Outcome`] + error. Completed
    /// results (any outcome with a score) are journaled before the item
    /// is returned, so a crash after this point loses nothing.
    #[allow(clippy::too_many_arguments)]
    fn solve_one(
        &self,
        problem: &BpMaxProblem,
        index: usize,
        coarse: bool,
        sup: &Supervision,
        ckpt: Option<&CheckpointSink>,
        snap: Option<&TableSnapshot>,
        solve: &SolveOptions,
    ) -> BatchItem {
        let (m, n) = (problem.ctx().m(), problem.ctx().n());
        let t = Instant::now();
        let (outcome, score, table, error) =
            match self.solve_inner(problem, index, coarse, sup, ckpt, snap, solve) {
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
        let seconds = t.elapsed().as_secs_f64();
        if let Some(sink) = ckpt {
            if outcome.has_score() {
                sink.record(&JournalRecord {
                    index: index as u64,
                    outcome,
                    score,
                    seconds,
                    coarse,
                });
                sink.complete(index as u64);
            }
            // unscored outcomes are NOT journaled: failures are
            // deterministic and cheap to reproduce, and resume should
            // retry cancelled/timed-out problems, not trust stale errors
        }
        BatchItem {
            index,
            m,
            n,
            score,
            seconds,
            flops: problem.flops(),
            coarse,
            outcome,
            error,
            table,
        }
    }

    /// The supervised solve pipeline of one problem: entry check → budget
    /// admission (degrading if allowed) → pooled allocation → panic-
    /// isolated compute → recycle-or-quarantine.
    #[allow(clippy::too_many_arguments)]
    fn solve_inner(
        &self,
        problem: &BpMaxProblem,
        index: usize,
        coarse: bool,
        sup: &Supervision,
        ckpt: Option<&CheckpointSink>,
        snap: Option<&TableSnapshot>,
        solve: &SolveOptions,
    ) -> Result<(Outcome, f32, Option<FTable>), BpMaxError> {
        let algorithm = solve.validated_algorithm()?;
        let layout = solve.resolved_layout(problem.layout());
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
            let needed = FTable::estimate_bytes(m, n, layout)?;
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
        let mut f = FTable::try_new_in(m, n, layout, &self.blocks)?;
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
                if m > 0 && n > 0 {
                    // die exactly like a worker mid-triangle: a taken
                    // block is dropped on the unwind path
                    let _hostage = f.take_block(0, 0);
                }
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
                    solution.into_ftable().recycle(&self.blocks);
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
                // interrupted between diagonals: every block is in the
                // table, so the recycle is clean
                f.recycle(&self.blocks);
                Err(interrupt.into_error())
            }
            Err(payload) => {
                // recycle validates: blocks lost to the unwind are empty
                // placeholders and get quarantined, never reused
                f.recycle(&self.blocks);
                Err(BpMaxError::Panicked {
                    detail: panic_detail(payload.as_ref()),
                })
            }
        }
    }
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
        let engine = BatchEngine::new(BatchOptions::new().cancel(token.clone())).unwrap();
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
        let engine = BatchEngine::new(BatchOptions::new().deadline(Duration::ZERO)).unwrap();
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
        let engine = BatchEngine::new(BatchOptions::new().mem_budget(budget)).unwrap();
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
        let engine =
            BatchEngine::new(BatchOptions::new().mem_budget(budget).degrade(false)).unwrap();
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
        // wall-clock knobs do not move the fingerprint
        assert_eq!(
            fp,
            base.clone().deadline(Duration::from_secs(1)).fingerprint()
        );
        // score-affecting knobs do
        assert_ne!(
            fp,
            base.clone()
                .solve(SolveOptions::new().algorithm(Algorithm::Permuted))
                .fingerprint()
        );
        assert_ne!(fp, base.clone().mem_budget(1 << 20).fingerprint());
        assert_ne!(fp, base.clone().degrade(false).fingerprint());
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
        for rec in &records[..4] {
            sink.record(rec);
        }
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
