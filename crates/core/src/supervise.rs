//! Supervised solving: cancellation, deadlines, memory budgets — and a
//! deterministic fault-injection harness to prove the failure paths.
//!
//! A production batch service solving `Θ(M³N³)` problems needs a *bounded
//! failure story*: one runaway instance, one oversized F-table, or one
//! panicking worker must cost exactly one problem, never the wave. This
//! module is that contract, threaded through
//! [`SolveOptions`](crate::SolveOptions), the solver drivers
//! ([`engine`](crate::engine), [`baseline`](crate::baseline),
//! [`windowed`](crate::windowed)), and the
//! [`BatchEngine`](crate::batch::BatchEngine):
//!
//! * [`CancelToken`] — a shared atomic flag; flipping it stops every solve
//!   watching it at the next checkpoint.
//! * [`Deadline`] — an absolute wall-clock bound. Expiry surfaces as
//!   [`Outcome::TimedOut`] / [`BpMaxError::DeadlineExceeded`].
//! * [`MemoryBudget`] — a byte cap on the F-table. Oversized problems are
//!   either rejected ([`BpMaxError::BudgetExceeded`]) or *gracefully
//!   degraded* to the windowed/banded algorithm, reported as
//!   [`Outcome::Degraded`] — never silently.
//! * `Watch` (crate-internal) — the cooperative checkpoint the solvers
//!   poll at per-diagonal / per-block granularity. Cancellation is one
//!   relaxed atomic load per checkpoint; the deadline clock is only read
//!   every `Watch::PERIOD` checkpoints, so supervision overhead on the
//!   champion kernel stays far below the bench gate's noise floor (a
//!   checkpoint guards `Θ(M²N³)` of work on the largest diagonal).
//! * [`Outcome`] — the per-problem verdict the batch engine aggregates
//!   (`Ok | Degraded | Failed | Cancelled | TimedOut`).
//!
//! A solve's token, deadline, budget and degrade flag live in one
//! [`Supervision`], the one its [`SolveOptions`](crate::SolveOptions)
//! carries: a batch wave runs under its engine's options, a pooled solve
//! under the options it is given.
//!
//! The [`fault`] submodule (compiled under the `fault-inject` feature) is
//! the proof harness: a deterministic plan injects panics, allocation
//! failures, and artificial slowness at named sites, and the
//! `fault_injection` test suite asserts every fault maps to the right
//! outcome while co-scheduled problems stay bit-identical.

use crate::error::BpMaxError;
use std::cell::Cell;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Clones observe the same flag; cancelling
/// is a release store, checking an acquire load — cheap enough to poll at
/// every checkpoint.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation: every solve watching this token (or a clone
    /// of it) stops at its next checkpoint.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release); // ordering: Release pairs with the Acquire load in is_cancelled
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) // ordering: Acquire pairs with the Release store in cancel
    }
}

impl PartialEq for CancelToken {
    /// Tokens are equal when they share the same underlying flag.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// An absolute wall-clock deadline (construction-time anchored, so the
/// elapsed time reported on expiry covers queueing as well as solving).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    started: Instant,
    /// `None` when the budget reaches past what an [`Instant`] can hold:
    /// such a deadline never expires.
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        let started = Instant::now();
        Deadline {
            started,
            at: started.checked_add(budget),
        }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Seconds since the deadline was created.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Time left before the deadline passes (zero once it has). The
    /// serve daemon caps a request's queue wait by this, so queue time
    /// counts against the same clock as solve time.
    pub fn remaining(&self) -> Duration {
        self.at.map_or(Duration::MAX, |at| {
            at.saturating_duration_since(Instant::now())
        })
    }
}

/// A byte cap on per-problem table storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Maximum F-table bytes a single problem may allocate.
    pub bytes: u64,
}

impl MemoryBudget {
    /// A budget of `bytes` bytes.
    pub fn bytes(bytes: u64) -> Self {
        MemoryBudget { bytes }
    }

    /// Does a table of `needed` bytes fit?
    pub fn allows(&self, needed: u64) -> bool {
        needed <= self.bytes
    }
}

/// Per-problem verdict of a supervised solve — what the batch engine
/// records for every input instead of aborting the wave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Solved exactly.
    #[default]
    Ok,
    /// Over the memory budget; solved with the windowed/banded algorithm
    /// instead — the reported score is a valid *lower bound* of the exact
    /// score.
    Degraded,
    /// The solve failed (allocation failure, panic, domain error); see the
    /// item's error for the cause.
    Failed,
    /// Stopped by a [`CancelToken`].
    Cancelled,
    /// Stopped by a [`Deadline`].
    TimedOut,
}

impl Outcome {
    /// All outcomes, in severity order.
    pub const ALL: &'static [Outcome] = &[
        Outcome::Ok,
        Outcome::Degraded,
        Outcome::Failed,
        Outcome::Cancelled,
        Outcome::TimedOut,
    ];

    /// Stable machine-readable label (round-trips through [`FromStr`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Failed => "failed",
            Outcome::Cancelled => "cancelled",
            Outcome::TimedOut => "timed-out",
        }
    }

    /// Did this problem produce a usable score (exact or lower-bound)?
    pub fn has_score(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Degraded)
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Outcome {
    type Err = BpMaxError;

    fn from_str(s: &str) -> Result<Outcome, BpMaxError> {
        Outcome::ALL
            .iter()
            .copied()
            .find(|o| o.as_str() == s)
            .ok_or_else(|| BpMaxError::InvalidArgument {
                detail: format!("unknown outcome {s:?}"),
            })
    }
}

/// Aggregate outcome tally of a batch wave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Problems solved exactly.
    pub ok: u64,
    /// Problems degraded to the windowed algorithm.
    pub degraded: u64,
    /// Problems that failed outright.
    pub failed: u64,
    /// Problems cancelled.
    pub cancelled: u64,
    /// Problems stopped by the deadline.
    pub timed_out: u64,
}

impl OutcomeCounts {
    /// Record one outcome.
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Failed => self.failed += 1,
            Outcome::Cancelled => self.cancelled += 1,
            Outcome::TimedOut => self.timed_out += 1,
        }
    }

    /// Count for one outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Ok => self.ok,
            Outcome::Degraded => self.degraded,
            Outcome::Failed => self.failed,
            Outcome::Cancelled => self.cancelled,
            Outcome::TimedOut => self.timed_out,
        }
    }

    /// Total problems recorded.
    pub fn total(&self) -> u64 {
        Outcome::ALL.iter().map(|&o| self.count(o)).sum()
    }

    /// `true` when every problem solved exactly.
    pub fn all_ok(&self) -> bool {
        self.ok == self.total()
    }
}

impl std::fmt::Display for OutcomeCounts {
    /// `ok 5 / degraded 1 / failed 0 / cancelled 0 / timed-out 2`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for &o in Outcome::ALL {
            if !first {
                f.write_str(" / ")?;
            }
            write!(f, "{o} {}", self.count(o))?;
            first = false;
        }
        Ok(())
    }
}

/// The supervision configuration a [`SolveOptions`](crate::SolveOptions)
/// carries, the only one: which token, deadline and budget apply, and
/// whether oversized problems degrade or fail. A batch wave runs under
/// its engine's options' supervision, a pooled solve under the options
/// it is given.
#[derive(Clone, Debug, PartialEq)]
pub struct Supervision {
    /// Cooperative cancellation flag, if any.
    pub cancel: Option<CancelToken>,
    /// Absolute wall-clock deadline, if any.
    pub deadline: Option<Deadline>,
    /// Per-problem F-table byte cap, if any.
    pub budget: Option<MemoryBudget>,
    /// Over-budget behaviour of the batch engine: `true` (the default)
    /// degrades to the windowed algorithm ([`Outcome::Degraded`]),
    /// `false` rejects with [`BpMaxError::BudgetExceeded`].
    pub degrade: bool,
}

impl Default for Supervision {
    fn default() -> Self {
        Supervision {
            cancel: None,
            deadline: None,
            budget: None,
            degrade: true,
        }
    }
}

impl Supervision {
    /// No supervision at all (the unsupervised fast path).
    pub fn none() -> Self {
        Supervision::default()
    }
}

/// Why a supervised solve stopped early. Internal: the public surface is
/// [`BpMaxError`] (single solves) and [`Outcome`] (batch items).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Interrupt {
    /// The watched [`CancelToken`] fired.
    Cancelled,
    /// The watched [`Deadline`] expired after `elapsed_s` seconds.
    DeadlineExceeded {
        /// Seconds since the deadline was created.
        elapsed_s: f64,
    },
}

impl Interrupt {
    /// The error this interrupt surfaces as from `solve_opts`.
    pub(crate) fn into_error(self) -> BpMaxError {
        match self {
            Interrupt::Cancelled => BpMaxError::Cancelled,
            Interrupt::DeadlineExceeded { elapsed_s } => BpMaxError::DeadlineExceeded { elapsed_s },
        }
    }
}

/// The cooperative checkpoint polled by the solver drivers.
///
/// Granularity: the wavefront drivers call [`Watch::check`] once per
/// outer diagonal; the baseline/windowed drivers once per `(d1, d2)`
/// diagonal block. Each checkpoint guards at least `Θ(M·N²)` reduction
/// work, so even the cheap per-checkpoint cost (one relaxed atomic load;
/// a clock read every [`Watch::PERIOD`] checkpoints) amortizes to well
/// under the ~2% overhead budget — see `bench_batch_throughput`'s
/// `supervised_overhead` metric and the `supervised_nest` checkpoint-count
/// model in [`crate::nests`].
#[derive(Debug)]
pub(crate) struct Watch {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    /// Checkpoints between deadline clock reads.
    tick: Cell<u32>,
    /// Artificial per-checkpoint delay (fault injection only).
    slow: Option<Duration>,
    /// Completed outer diagonals, maintained by the solver drivers via
    /// [`Watch::note_progress`]. When an interrupt fires, the table's
    /// diagonals `0..progress` hold final values — the granularity at
    /// which [`crate::checkpoint`] snapshots an in-flight problem.
    progress: Cell<usize>,
}

impl Watch {
    /// Deadline clock reads happen every `PERIOD` checkpoints (the
    /// cancellation flag is checked at every checkpoint).
    pub(crate) const PERIOD: u32 = 8;

    /// A watch that never fires — the unsupervised path. All checks
    /// reduce to two `None` tests.
    pub(crate) fn none() -> Watch {
        Watch {
            cancel: None,
            deadline: None,
            tick: Cell::new(0),
            slow: None,
            progress: Cell::new(0),
        }
    }

    /// A watch over a supervision config (budget is handled before the
    /// solve starts, not at checkpoints).
    pub(crate) fn new(sup: &Supervision) -> Watch {
        Watch {
            cancel: sup.cancel.clone(),
            deadline: sup.deadline,
            tick: Cell::new(0),
            slow: None,
            progress: Cell::new(0),
        }
    }

    /// Inject an artificial delay at every checkpoint (the `Slow` fault).
    pub(crate) fn with_slow(mut self, delay: Duration) -> Watch {
        self.slow = Some(delay);
        self
    }

    /// Record that outer diagonals `0..done` of the table in flight hold
    /// final values. Called by the solver drivers just before each
    /// diagonal's checkpoint, so on interrupt [`Watch::progress`] names
    /// exactly the resumable prefix.
    #[inline]
    pub(crate) fn note_progress(&self, done: usize) {
        self.progress.set(done);
    }

    /// Completed outer diagonals of the solve this watch supervised.
    pub(crate) fn progress(&self) -> usize {
        self.progress.get()
    }

    /// The amortized checkpoint: cancellation every call, deadline every
    /// [`Watch::PERIOD`] calls.
    #[inline]
    pub(crate) fn check(&self) -> Result<(), Interrupt> {
        if let Some(delay) = self.slow {
            std::thread::sleep(delay);
        }
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        if self.deadline.is_some() {
            let tick = self.tick.get();
            if tick == 0 {
                self.tick.set(Watch::PERIOD - 1);
                return self.check_deadline();
            }
            self.tick.set(tick - 1);
        }
        Ok(())
    }

    /// Unamortized check — used once at solve entry so a pre-cancelled
    /// token or pre-expired deadline is detected before any work (and
    /// before any allocation).
    pub(crate) fn check_now(&self) -> Result<(), Interrupt> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        self.check_deadline()
    }

    fn check_deadline(&self) -> Result<(), Interrupt> {
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Err(Interrupt::DeadlineExceeded {
                    elapsed_s: deadline.elapsed_s(),
                });
            }
        }
        Ok(())
    }
}

/// Deterministic fault injection at named sites (the `fault-inject`
/// feature). Without the feature every lookup is a compile-time `None`,
/// so the production binary carries no registry, no locks, no branches
/// beyond the inlined constant.
pub mod fault {
    /// Site: pooled F-table block acquisition in the batch engine.
    pub const SITE_ALLOC: &str = "batch.alloc";
    /// Site: the compute kernel of one batch problem (panic isolation).
    pub const SITE_COMPUTE: &str = "batch.compute";
    /// Site: per-checkpoint artificial slowness inside the solve.
    pub const SITE_SLOW: &str = "batch.slow";
    /// Site: one accepted serve-daemon connection (index = accept
    /// ordinal). Any fault drops the connection before a handler thread
    /// exists — the deterministic stand-in for an accept-time failure
    /// that the retrying client must survive.
    pub const SITE_SERVE_ACCEPT: &str = "serve.accept";
    /// Site: one serve-daemon request handler (index = request
    /// ordinal). `Panic` unwinds inside the handler, exercising the
    /// daemon's `catch_unwind` isolation + `panicked` counter.
    pub const SITE_SERVE_HANDLER: &str = "serve.handler";
    /// Site: one admitted serve-daemon solve (index = request ordinal).
    /// `Slow { millis }` holds the admission slot that long before the
    /// solve runs, deterministically driving queue overflow and drain
    /// windows in the overload tests.
    pub const SITE_SERVE_QUEUE: &str = "serve.queue";

    /// One injected fault.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Fault {
        /// Panic at the site (exercises `catch_unwind` + quarantine).
        Panic,
        /// Report an allocation failure at the site.
        AllocFail,
        /// Sleep `millis` at every supervision checkpoint (drives
        /// deadline expiry mid-solve).
        Slow {
            /// Milliseconds of injected delay per checkpoint.
            millis: u64,
        },
    }

    /// A deterministic fault plan: `(site, problem index) → fault`.
    /// Armed globally with `arm` (a `fault-inject`-only function);
    /// construction is pure data, so the
    /// same plan always injects the same faults.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        entries: Vec<(String, usize, Fault)>,
    }

    impl FaultPlan {
        /// An empty plan (injects nothing).
        pub fn new() -> Self {
            FaultPlan::default()
        }

        /// Add one injection: `fault` fires when `site` is reached for
        /// problem `index`.
        #[must_use]
        pub fn fail(mut self, site: &str, index: usize, fault: Fault) -> Self {
            self.entries.push((site.to_string(), index, fault));
            self
        }

        /// A seeded pseudo-random plan over `n` problems: roughly
        /// `density · n` faults, cycling through the three fault kinds.
        /// Same seed → same plan, bit for bit.
        #[must_use]
        pub fn seeded(seed: u64, n: usize, density: f64) -> Self {
            let mut plan = FaultPlan::new();
            let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
            if state == 0 {
                state = 1;
            }
            let mut kind = 0usize;
            for index in 0..n {
                // xorshift64* — deterministic, no external RNG needed.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let roll = (state >> 11) as f64 / (1u64 << 53) as f64;
                if roll < density {
                    let (site, fault) = match kind % 3 {
                        0 => (SITE_COMPUTE, Fault::Panic),
                        1 => (SITE_ALLOC, Fault::AllocFail),
                        _ => (SITE_SLOW, Fault::Slow { millis: 50 }),
                    };
                    plan = plan.fail(site, index, fault);
                    kind += 1;
                }
            }
            plan
        }

        /// The fault (if any) planned for `site` at problem `index`.
        pub fn lookup(&self, site: &str, index: usize) -> Option<Fault> {
            self.entries
                .iter()
                .find(|(s, i, _)| s == site && *i == index)
                .map(|&(_, _, fault)| fault)
        }

        /// Number of planned injections.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// `true` when the plan injects nothing.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }
    }

    #[cfg(feature = "fault-inject")]
    mod registry {
        use super::FaultPlan;
        use std::sync::{Mutex, PoisonError};

        static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

        pub(super) fn set(plan: Option<FaultPlan>) {
            *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = plan;
        }

        pub(super) fn get(site: &str, index: usize) -> Option<super::Fault> {
            PLAN.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .as_ref()
                .and_then(|plan| plan.lookup(site, index))
        }
    }

    /// Arm a plan globally: subsequent solves consult it at every site.
    /// Test-only by design — pair with [`disarm`] (or an RAII guard) so
    /// plans never leak between tests.
    #[cfg(feature = "fault-inject")]
    pub fn arm(plan: FaultPlan) {
        registry::set(Some(plan));
    }

    /// Clear the armed plan.
    #[cfg(feature = "fault-inject")]
    pub fn disarm() {
        registry::set(None);
    }

    /// The armed fault for `site` at problem `index`, if any.
    #[cfg(feature = "fault-inject")]
    #[inline]
    pub(crate) fn active(site: &str, index: usize) -> Option<Fault> {
        registry::get(site, index)
    }

    /// Without the `fault-inject` feature, no site ever fires.
    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    pub(crate) fn active(_site: &str, _index: usize) -> Option<Fault> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(token, clone);
        assert_ne!(token, CancelToken::new());
    }

    #[test]
    fn deadline_expires_and_reports_elapsed() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        let zero = Deadline::within(Duration::ZERO);
        assert!(zero.expired());
        assert!(zero.elapsed_s() >= 0.0);
    }

    #[test]
    fn deadline_past_what_an_instant_holds_never_expires() {
        let d = Deadline::within(Duration::MAX);
        assert!(!d.expired());
        assert_eq!(d.remaining(), Duration::MAX);
        let watch = Watch::new(&Supervision {
            deadline: Some(d),
            ..Supervision::none()
        });
        assert_eq!(watch.check_now(), Ok(()));
    }

    #[test]
    fn memory_budget_allows_and_tightens() {
        let b = MemoryBudget::bytes(1000);
        assert!(b.allows(1000));
        assert!(!b.allows(1001));
    }

    #[test]
    fn outcome_labels_round_trip() {
        for &o in Outcome::ALL {
            assert_eq!(o.as_str().parse::<Outcome>().unwrap(), o);
            assert_eq!(o.to_string(), o.as_str());
        }
        assert!("bogus".parse::<Outcome>().is_err());
        assert!(Outcome::Ok.has_score());
        assert!(Outcome::Degraded.has_score());
        assert!(!Outcome::Failed.has_score());
    }

    #[test]
    fn outcome_counts_tally_and_display() {
        let mut c = OutcomeCounts::default();
        for &o in Outcome::ALL {
            c.record(o);
        }
        c.record(Outcome::Ok);
        assert_eq!(c.total(), 6);
        assert_eq!(c.ok, 2);
        assert!(!c.all_ok());
        assert_eq!(
            c.to_string(),
            "ok 2 / degraded 1 / failed 1 / cancelled 1 / timed-out 1"
        );
        let mut clean = OutcomeCounts::default();
        clean.record(Outcome::Ok);
        assert!(clean.all_ok());
    }

    #[test]
    fn watch_fires_on_cancel_and_deadline() {
        let sup = Supervision {
            cancel: Some(CancelToken::new()),
            deadline: None,
            budget: None,
            degrade: false,
        };
        let watch = Watch::new(&sup);
        assert_eq!(watch.check(), Ok(()));
        sup.cancel.as_ref().unwrap().cancel();
        assert_eq!(watch.check(), Err(Interrupt::Cancelled));
        assert_eq!(watch.check_now(), Err(Interrupt::Cancelled));

        let expired = Supervision {
            cancel: None,
            deadline: Some(Deadline::within(Duration::ZERO)),
            budget: None,
            degrade: false,
        };
        let watch = Watch::new(&expired);
        assert!(matches!(
            watch.check_now(),
            Err(Interrupt::DeadlineExceeded { .. })
        ));
        // the amortized path fires on the first (tick == 0) call too
        assert!(matches!(
            watch.check(),
            Err(Interrupt::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn watch_amortizes_deadline_reads() {
        let sup = Supervision {
            cancel: None,
            deadline: Some(Deadline::within(Duration::ZERO)),
            budget: None,
            degrade: false,
        };
        let watch = Watch::new(&sup);
        // first call reads the clock and fires…
        assert!(watch.check().is_err());
        // …then PERIOD − 1 calls are clock-free (tick countdown)…
        for _ in 0..Watch::PERIOD - 1 {
            assert_eq!(watch.check(), Ok(()));
        }
        // …and the next one reads the clock again.
        assert!(watch.check().is_err());
    }

    #[test]
    fn watch_progress_tracks_noted_diagonals() {
        let watch = Watch::none();
        assert_eq!(watch.progress(), 0);
        watch.note_progress(3);
        assert_eq!(watch.progress(), 3);
        watch.note_progress(7);
        assert_eq!(watch.progress(), 7);
    }

    #[test]
    fn unsupervised_watch_never_fires() {
        let watch = Watch::none();
        for _ in 0..100 {
            assert_eq!(watch.check(), Ok(()));
        }
        assert_eq!(watch.check_now(), Ok(()));
    }

    #[test]
    fn interrupt_maps_to_error() {
        assert_eq!(Interrupt::Cancelled.into_error(), BpMaxError::Cancelled);
        let timeout = Interrupt::DeadlineExceeded { elapsed_s: 1.5 };
        assert!(matches!(
            timeout.into_error(),
            BpMaxError::DeadlineExceeded { elapsed_s } if elapsed_s == 1.5
        ));
    }

    #[test]
    fn fault_plan_is_deterministic() {
        use fault::{Fault, FaultPlan, SITE_COMPUTE};
        let plan = FaultPlan::new().fail(SITE_COMPUTE, 3, Fault::Panic);
        assert_eq!(plan.lookup(SITE_COMPUTE, 3), Some(Fault::Panic));
        assert_eq!(plan.lookup(SITE_COMPUTE, 4), None);
        assert_eq!(plan.lookup(fault::SITE_ALLOC, 3), None);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());

        let a = FaultPlan::seeded(42, 100, 0.2);
        let b = FaultPlan::seeded(42, 100, 0.2);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty(), "density 0.2 over 100 problems injects");
        let c = FaultPlan::seeded(43, 100, 0.2);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[cfg(not(feature = "fault-inject"))]
    #[test]
    fn fault_sites_are_inert_without_the_feature() {
        assert_eq!(fault::active(fault::SITE_COMPUTE, 0), None);
    }
}
