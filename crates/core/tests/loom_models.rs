//! Loom models for the two cross-thread protocols in the core crate:
//! cancellation (`CancelToken` → the solver's `Watch` checkpoints) and
//! the `BlockPool` quarantine handoff.
//!
//! Under the offline `shims/loom` these run as bounded stress
//! exploration (each body re-runs with perturbed thread timing — see
//! the shim's docs); against the real loom the same source performs an
//! exhaustive interleaving search. Either way the asserted properties
//! are the ones the batch engine's crash story depends on:
//!
//! * a cancel is *eventually visible* to every clone of the token
//!   (Release store / Acquire load pairing), and a solve racing a
//!   cancel finishes in exactly one of two states — a complete,
//!   bit-correct solution or a clean `Interrupted` error, never a
//!   torn score;
//! * a buffer quarantined by a failing worker is *never* handed to a
//!   concurrent `acquire`, no matter how the two threads interleave —
//!   a short recycled buffer would fail the kernels' entry assertion
//!   at best and corrupt a neighbouring solve at worst.

use bpmax::{Algorithm, BlockPool, BpMaxProblem, CancelToken, SolveOptions};
use loom::sync::Arc;
use rna::{RnaSeq, ScoringModel};

#[test]
fn cancel_is_visible_across_threads() {
    loom::model(|| {
        let token = CancelToken::new();
        let clone = token.clone();
        let t = loom::thread::spawn(move || {
            clone.cancel();
        });
        // The model requires eventual visibility, not immediacy: spin
        // until the Acquire load observes the Release store.
        t.join().expect("canceller panicked");
        assert!(
            token.is_cancelled(),
            "cancel must be visible after the cancelling thread joins"
        );
    });
}

#[test]
fn solve_racing_a_cancel_is_complete_or_cleanly_interrupted() {
    let s1: RnaSeq = "GGAUCGAUCG".parse().expect("seq");
    let s2: RnaSeq = "CCGAUAGC".parse().expect("seq");
    let problem = Arc::new(BpMaxProblem::new(s1, s2, ScoringModel::bpmax_default()));
    let want = problem
        .solve_opts(&SolveOptions::new().algorithm(Algorithm::CoarseGrain))
        .expect("unsupervised reference solve")
        .score();
    loom::model(move || {
        let token = CancelToken::new();
        let p = Arc::clone(&problem);
        let watched = token.clone();
        let solver = loom::thread::spawn(move || {
            p.solve_opts(
                &SolveOptions::new()
                    .algorithm(Algorithm::CoarseGrain)
                    .cancel(watched),
            )
            .map(|sol| sol.score())
        });
        token.cancel();
        match solver.join().expect("solver panicked") {
            // Won the race: the solution must be the full, correct one.
            Ok(score) => assert_eq!(score.to_bits(), want.to_bits()),
            // Lost the race: a clean interruption, nothing else.
            Err(e) => assert!(
                matches!(e, bpmax::BpMaxError::Cancelled),
                "unexpected error from cancelled solve: {e:?}"
            ),
        }
    });
}

#[test]
fn quarantined_buffer_never_reaches_a_concurrent_acquire() {
    const GOOD: usize = 64;
    const BAD: usize = 3; // too short for any real block
    loom::model(|| {
        let pool = Arc::new(BlockPool::new());
        // Seed one healthy spare so acquire has something to recycle.
        pool.release(Vec::with_capacity(GOOD));

        let quarantiner = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || {
                // A worker died mid-solve: its block is suspect and must
                // be withdrawn, racing the acquirer below.
                pool.quarantine(Vec::with_capacity(BAD));
            })
        };
        let acquirer = {
            let pool = Arc::clone(&pool);
            loom::thread::spawn(move || pool.acquire(GOOD))
        };

        let buf = acquirer.join().expect("acquirer panicked");
        quarantiner.join().expect("quarantiner panicked");

        // The acquired buffer is full-length and initialised regardless
        // of interleaving — a quarantined buffer never leaks out.
        assert_eq!(buf.len(), GOOD);
        let stats = pool.stats();
        assert_eq!(stats.quarantined, 1, "quarantine must always be counted");
        // The bad capacity-3 allocation is gone for good: nothing in the
        // spare list is shorter than a fresh allocation would be.
        assert!(
            pool.spare_count() <= 1,
            "only the healthy spare (if unclaimed) may remain"
        );
    });
}
