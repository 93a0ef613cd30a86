//! The deterministic fault-injection suite (`--features fault-inject`).
//!
//! Proves the batch engine's bounded-failure contract: every injected
//! panic / allocation failure / slow problem maps to exactly the right
//! per-problem [`Outcome`], the co-scheduled non-faulted problems stay
//! bit-identical to unsupervised solves, quarantined buffers never
//! re-enter the arena, the zero-steady-state-allocation invariant
//! survives faulted waves, an interrupted large problem snapshots a
//! prefix that resumes bit-identically, and a fault in one member of a
//! lane group touches only that member (or, for a deadline, the group
//! as a unit).
//!
//! The fault registry is process-global, so every test serializes on one
//! mutex and disarms through an RAII guard — a panicking assertion can
//! never leak an armed plan into the next test.
#![cfg(feature = "fault-inject")]

use bpmax::checkpoint;
use bpmax::supervise::fault::{self, Fault, FaultPlan};
use bpmax::{
    Algorithm, BatchEngine, BatchOptions, BpMaxError, BpMaxProblem, Deadline, Outcome, SolveOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rna::{RnaSeq, ScoringModel};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The lock every test holds while it touches the registry or runs a
/// wave that consults it. Each holder leaves the registry disarmed.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes tests (the registry is global) and disarms on drop.
struct Armed {
    _lock: MutexGuard<'static, ()>,
}

impl Armed {
    fn new(plan: FaultPlan) -> Armed {
        let lock = gate();
        fault::arm(plan);
        Armed { _lock: lock }
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        fault::disarm();
    }
}

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

/// Reference scores from plain unsupervised solves.
fn exact_scores(problems: &[BpMaxProblem]) -> Vec<f32> {
    problems
        .iter()
        .map(|p| p.solve_opts(&SolveOptions::new()).unwrap().score())
        .collect()
}

fn engine() -> BatchEngine {
    BatchEngine::new(BatchOptions::new()).unwrap()
}

/// Engine options whose waves must finish within `millis` of now.
fn wave_deadline(millis: u64) -> BatchOptions {
    BatchOptions::new()
        .solve(SolveOptions::new().deadline(Deadline::within(Duration::from_millis(millis))))
}

#[test]
fn injected_panic_maps_to_failed_and_survivors_are_bit_identical() {
    let problems = mixed_problems(8, 101);
    let want = exact_scores(&problems);
    let _armed = Armed::new(
        FaultPlan::new()
            .fail(fault::SITE_COMPUTE, 2, Fault::Panic)
            .fail(fault::SITE_COMPUTE, 5, Fault::Panic),
    );
    let engine = engine();
    let report = engine
        .solve_all(&problems)
        .expect("a panicked problem must not abort the wave");
    let counts = report.outcomes();
    assert_eq!((counts.failed, counts.ok), (2, 6), "{counts}");
    for (i, item) in report.items.iter().enumerate() {
        if i == 2 || i == 5 {
            assert_eq!(item.outcome, Outcome::Failed, "problem {i}");
            assert!(
                matches!(&item.error, Some(BpMaxError::Panicked { detail })
                    if detail.contains("injected fault")),
                "problem {i}: {:?}",
                item.error
            );
            assert_eq!(item.score, f32::NEG_INFINITY);
        } else {
            assert_eq!(item.outcome, Outcome::Ok, "problem {i}");
            assert_eq!(item.score, want[i], "survivor {i} must be bit-identical");
        }
    }
    // each injected panic quarantined its table's one buffer
    assert_eq!(report.pool.quarantined, 2, "{:?}", report.pool);
}

#[test]
fn injected_alloc_failure_maps_to_failed() {
    let problems = mixed_problems(5, 102);
    let want = exact_scores(&problems);
    let _armed = Armed::new(FaultPlan::new().fail(fault::SITE_ALLOC, 1, Fault::AllocFail));
    let report = engine().solve_all(&problems).unwrap();
    assert_eq!(report.outcomes().failed, 1);
    assert_eq!(report.items[1].outcome, Outcome::Failed);
    assert!(
        matches!(report.items[1].error, Some(BpMaxError::SizeOverflow { .. })),
        "{:?}",
        report.items[1].error
    );
    for (i, item) in report.items.iter().enumerate() {
        if i != 1 {
            assert_eq!((item.outcome, item.score), (Outcome::Ok, want[i]));
        }
    }
    assert_eq!(report.pool.quarantined, 0, "no buffers were ever acquired");
}

#[test]
fn injected_slowness_trips_the_deadline_mid_solve() {
    let problems = mixed_problems(4, 103);
    let want = exact_scores(&problems);
    // problem 3 sleeps 200 ms per checkpoint against a 150 ms wave
    // deadline: its entry check passes (problems 0..3 are microseconds of
    // work), then the first amortized clock read inside the wavefront —
    // after one sleep — finds the deadline blown.
    let _armed =
        Armed::new(FaultPlan::new().fail(fault::SITE_SLOW, 3, Fault::Slow { millis: 200 }));
    let report = BatchEngine::new(wave_deadline(150))
        .unwrap()
        .solve_all(&problems)
        .unwrap();
    assert_eq!(report.items[3].outcome, Outcome::TimedOut, "slow problem");
    assert!(
        matches!(
            report.items[3].error,
            Some(BpMaxError::DeadlineExceeded { elapsed_s }) if elapsed_s > 0.0
        ),
        "{:?}",
        report.items[3].error
    );
    for (i, item) in report.items.iter().enumerate().take(3) {
        assert_eq!(
            (item.outcome, item.score),
            (Outcome::Ok, want[i]),
            "fast problem {i}"
        );
    }
    // the interrupted table was recycled cleanly: nothing quarantined
    assert_eq!(report.pool.quarantined, 0, "{:?}", report.pool);
}

#[test]
fn zero_steady_state_allocation_holds_across_faulted_waves() {
    let problems = mixed_problems(10, 104);
    let engine = engine();
    // each clean wave holds the gate, so no other test's fault plan is
    // armed while it runs
    let clean_wave = || {
        let _gate = gate();
        engine.solve_all(&problems).unwrap()
    };
    // wave 1 (clean): warms the arena
    let warm = clean_wave();
    assert!(warm.outcomes().all_ok());

    // wave 2 (faulted): one panic quarantines exactly one buffer
    let faulted = {
        let _armed = Armed::new(FaultPlan::new().fail(fault::SITE_COMPUTE, 4, Fault::Panic));
        engine.solve_all(&problems).unwrap()
    };
    assert_eq!(faulted.outcomes().failed, 1);
    let quarantined_by_wave2 = faulted.pool.quarantined - warm.pool.quarantined;
    assert_eq!(quarantined_by_wave2, 1);
    // replacing the quarantined buffer is the only allocation allowed
    assert!(
        faulted.pool.allocated_since(&warm.pool) <= quarantined_by_wave2,
        "{:?} -> {:?}",
        warm.pool,
        faulted.pool
    );

    // wave 3 (clean): the arena re-warms, steady state is allocation-free
    // again and scores are still bit-identical
    let recovered = clean_wave();
    assert!(recovered.outcomes().all_ok());
    let wave4 = clean_wave();
    assert_eq!(
        wave4.pool.allocated_since(&recovered.pool),
        0,
        "steady state must recover after a faulted wave: {:?} -> {:?}",
        recovered.pool,
        wave4.pool
    );
    let want = exact_scores(&problems);
    for (item, want) in wave4.items.iter().zip(&want) {
        assert_eq!(item.score, *want);
    }
}

/// Ten mixed-shape problems, then `size` 8×8 problems: one lane group at
/// indices `10..10 + size`.
fn with_lane_group(seed: u64, size: usize) -> Vec<BpMaxProblem> {
    let mut problems = mixed_problems(10, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    problems.extend((0..size).map(|_| {
        BpMaxProblem::new(
            RnaSeq::random(&mut rng, 8),
            RnaSeq::random(&mut rng, 8),
            ScoringModel::bpmax_default(),
        )
    }));
    problems
}

/// The lane group sizes each lane-group fault runs on: eight members on
/// `[i16; 8]` cells, and twelve on `[i16; 16]`.
const GROUP_SIZES: [usize; 2] = [8, 12];

#[test]
fn lane_group_panic_fails_only_its_member() {
    for size in GROUP_SIZES {
        let problems = with_lane_group(110, size);
        let want = exact_scores(&problems);
        let _armed = Armed::new(FaultPlan::new().fail(fault::SITE_COMPUTE, 13, Fault::Panic));
        let report = engine().solve_all(&problems).unwrap();
        for (i, item) in report.items.iter().enumerate() {
            if i == 13 {
                assert_eq!(item.outcome, Outcome::Failed, "group of {size}");
                assert!(
                    matches!(&item.error, Some(BpMaxError::Panicked { detail })
                        if detail.contains("injected fault")),
                    "group of {size}: {:?}",
                    item.error
                );
            } else {
                assert_eq!(item.outcome, Outcome::Ok, "group of {size}: problem {i}");
                assert_eq!(
                    item.score.to_bits(),
                    want[i].to_bits(),
                    "group of {size}: problem {i}"
                );
            }
        }
        // the group re-ran one problem at a time: only the faulty
        // member's own table was quarantined
        assert_eq!(report.lane_problems, 0, "group of {size}");
        assert_eq!(
            report.pool.quarantined, 1,
            "group of {size}: {:?}",
            report.pool
        );
    }
}

#[test]
fn lane_group_alloc_fault_drops_only_its_member() {
    for size in GROUP_SIZES {
        let problems = with_lane_group(111, size);
        let want = exact_scores(&problems);
        let _armed = Armed::new(FaultPlan::new().fail(fault::SITE_ALLOC, 16, Fault::AllocFail));
        let report = engine().solve_all(&problems).unwrap();
        assert!(
            matches!(
                report.items[16].error,
                Some(BpMaxError::SizeOverflow { .. })
            ),
            "group of {size}: {:?}",
            report.items[16].error
        );
        for (i, item) in report.items.iter().enumerate().filter(|&(i, _)| i != 16) {
            assert_eq!(
                (item.outcome, item.score),
                (Outcome::Ok, want[i]),
                "group of {size}: problem {i}"
            );
        }
        assert_eq!(
            report.lane_problems,
            size - 1,
            "the other members ran in lanes"
        );
        assert_eq!(report.pool.quarantined, 0, "group of {size}");
    }
}

#[test]
fn lane_group_slow_member_times_the_group_out_as_a_unit() {
    for size in GROUP_SIZES {
        let problems = with_lane_group(112, size);
        let want = exact_scores(&problems);
        // member 12 sleeps 200 ms per checkpoint against a 150 ms wave
        // deadline; the ten problems before the group take
        // microseconds, and the group shares one watch, so every member
        // times out
        let _armed =
            Armed::new(FaultPlan::new().fail(fault::SITE_SLOW, 12, Fault::Slow { millis: 200 }));
        let report = BatchEngine::new(wave_deadline(150))
            .unwrap()
            .solve_all(&problems)
            .unwrap();
        for (i, item) in report.items.iter().enumerate() {
            if i < 10 {
                assert_eq!(
                    (item.outcome, item.score),
                    (Outcome::Ok, want[i]),
                    "group of {size}: problem {i}"
                );
            } else {
                assert!(
                    matches!(item.error, Some(BpMaxError::DeadlineExceeded { .. })),
                    "group of {size}: member {i}: {:?}",
                    item.error
                );
            }
        }
        assert_eq!(
            report.outcomes().timed_out,
            size as u64,
            "{}",
            report.outcomes()
        );
        assert_eq!(report.lane_problems, 0, "group of {size}");
        assert_eq!(report.pool.quarantined, 0, "group of {size}");
    }
}

#[test]
fn seeded_plans_fault_deterministically() {
    let problems = mixed_problems(12, 105);
    let plan = FaultPlan::seeded(7, problems.len(), 0.3);
    assert!(!plan.is_empty(), "density 0.3 over 12 problems injects");
    assert_eq!(plan, FaultPlan::seeded(7, problems.len(), 0.3));

    let run = |plan: FaultPlan| {
        let _armed = Armed::new(plan);
        let report = engine().solve_all(&problems).unwrap();
        report
            .items
            .iter()
            .map(|i| (i.outcome, i.score.to_bits()))
            .collect::<Vec<_>>()
    };
    let first = run(plan.clone());
    let second = run(plan);
    assert_eq!(first, second, "same plan, same outcomes, same bits");
    // the plan really did break something
    assert!(
        first.iter().any(|&(o, _)| o != Outcome::Ok),
        "seeded plan must inject at least one fault into this batch"
    );
}

#[test]
fn interrupted_large_problem_snapshots_and_resumes_bit_identically() {
    // 36×36 is the smallest square the cost model does not class coarse
    // (10.8 ms predicted), so an interrupt mid-solve snapshots it.
    let mut rng = StdRng::seed_from_u64(107);
    let p = BpMaxProblem::new(
        RnaSeq::random(&mut rng, 36),
        RnaSeq::random(&mut rng, 36),
        ScoringModel::bpmax_default(),
    );
    let want = p.solve_opts(&SolveOptions::new()).unwrap().score();
    let problems = std::slice::from_ref(&p);
    let dir = std::env::temp_dir().join(format!("bpmax-fault-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Every checkpoint sleeps 100 ms against a 400 ms wave deadline. The
    // watch reads the clock at diagonal 0 (in time) and next at diagonal
    // 8, at least 900 ms in, where the deadline fires with diagonals
    // 0..8 final.
    let interrupted = {
        let _armed =
            Armed::new(FaultPlan::new().fail(fault::SITE_SLOW, 0, Fault::Slow { millis: 100 }));
        let engine = BatchEngine::new(wave_deadline(400)).unwrap();
        assert!(!engine.classify_coarse(&p), "36x36 must not be coarse");
        engine.solve_all_checkpointed(problems, &dir).unwrap()
    };
    assert_eq!(interrupted.items[0].outcome, Outcome::TimedOut);
    assert!(!interrupted.items[0].coarse);
    let (_, records, snapshot) = checkpoint::load(&dir).unwrap();
    assert!(records.is_empty(), "a timed-out problem is not journaled");
    let snapshot = snapshot.expect("the interrupted problem snapshots its prefix");
    assert_eq!(snapshot.index, 0);
    assert!(
        snapshot.done >= 1,
        "snapshot holds {} diagonals",
        snapshot.done
    );

    // Resume with neither the fault nor the deadline (deadlines are not
    // in the fingerprint); the empty plan only serializes the registry.
    let resumed = {
        let _armed = Armed::new(FaultPlan::new());
        engine().resume(problems, &dir).unwrap()
    };
    assert_eq!(resumed.replayed, 0, "the snapshot problem was in flight");
    assert_eq!(resumed.items[0].outcome, Outcome::Ok);
    assert_eq!(resumed.items[0].score.to_bits(), want.to_bits());
    assert!(
        !checkpoint::snapshot_path(&dir).exists(),
        "the finished problem retires its snapshot"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

mod serve_faults {
    //! Injected faults inside the solve daemon: a panicking request
    //! handler must be contained by the connection loop's `catch_unwind`
    //! (typed error reply, counter, daemon keeps serving), and a
    //! connection dropped at accept must be recovered by the client's
    //! retry loop. Same global registry, same [`Armed`] serialization.

    use super::Armed;
    use bpmax::serve::{Client, Response, RetryPolicy, Server, ServerConfig, SolveRequest};
    use bpmax::supervise::fault::{self, Fault, FaultPlan};
    use bpmax::{BpMaxProblem, SolveOptions};
    use rna::ScoringModel;
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A daemon's socket directory under the temp dir, removed with all
    /// it holds when the guard drops: when its test ends, pass or fail.
    struct SocketDir(PathBuf);

    impl SocketDir {
        fn new(tag: &str) -> SocketDir {
            let dir =
                std::env::temp_dir().join(format!("bpmax-fault-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            SocketDir(dir)
        }

        fn socket(&self) -> PathBuf {
            self.0.join("bpmax.sock")
        }
    }

    impl Drop for SocketDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Start a daemon and wait for the socket. The readiness probe is
    /// exactly one successful connect, so it consumes accept ordinal 0
    /// and no request ordinal — fault indices stay deterministic.
    fn start(cfg: ServerConfig) -> (Arc<Server>, std::thread::JoinHandle<()>) {
        let server = Arc::new(Server::new(cfg).unwrap());
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run().unwrap());
        let socket = server.cfg().socket.clone();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Client::connect(&socket).is_err() {
            assert!(Instant::now() < deadline, "daemon never came up");
            std::thread::sleep(Duration::from_millis(5));
        }
        (server, handle)
    }

    fn req() -> SolveRequest {
        SolveRequest::new(
            "GGGAAACCC".parse().unwrap(),
            "UUUGG".parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
    }

    fn reference() -> f32 {
        BpMaxProblem::new(
            "GGGAAACCC".parse().unwrap(),
            "UUUGG".parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
        .solve_opts(&SolveOptions::new())
        .unwrap()
        .score()
    }

    #[test]
    fn handler_panic_is_contained_and_the_daemon_keeps_serving() {
        // request ordinal 0 is the first solve (the readiness probe
        // sends no request)
        let _armed = Armed::new(FaultPlan::new().fail(fault::SITE_SERVE_HANDLER, 0, Fault::Panic));
        let dir = SocketDir::new("handler-panic");
        let (server, handle) = start(ServerConfig {
            socket: dir.socket(),
            ..ServerConfig::default()
        });
        let socket = server.cfg().socket.clone();

        // the faulted request gets a typed error, not a dead socket
        let mut client = Client::connect(&socket).unwrap();
        match client.solve(&req()).unwrap() {
            Response::Error { detail } => {
                assert!(detail.contains("panicked"), "{detail}");
            }
            other => panic!("expected a panic-isolation error, got {other:?}"),
        }

        // the daemon recovered: the next solve (ordinal 1) is correct
        let mut client = Client::connect(&socket).unwrap();
        match client.solve(&req()).unwrap() {
            Response::Solved { score, .. } => {
                assert_eq!(score.to_bits(), reference().to_bits());
            }
            other => panic!("expected Solved after recovery, got {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!(stats.panicked, 1, "{stats:?}");
        assert_eq!(stats.solves, 1, "{stats:?}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn connections_dropped_at_accept_are_recovered_by_retry() {
        // accept ordinal 0 is the readiness probe; drop the next two
        // connections before a byte is read
        let _armed = Armed::new(
            FaultPlan::new()
                .fail(fault::SITE_SERVE_ACCEPT, 1, Fault::Panic)
                .fail(fault::SITE_SERVE_ACCEPT, 2, Fault::Panic),
        );
        let dir = SocketDir::new("accept-drop");
        let (server, handle) = start(ServerConfig {
            socket: dir.socket(),
            ..ServerConfig::default()
        });
        let socket = server.cfg().socket.clone();

        // attempts 1 and 2 land on dropped connections; attempt 3 wins
        let policy = RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        match Client::solve_with_retry(&socket, &req(), policy).unwrap() {
            Response::Solved { score, .. } => {
                assert_eq!(score.to_bits(), reference().to_bits());
            }
            other => panic!("expected Solved via retry, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.solves, 1, "{stats:?}");
        assert_eq!(stats.panicked, 0, "an accept drop is not a panic");
        Client::connect(&socket).unwrap().shutdown().unwrap();
        handle.join().unwrap();
    }
}

#[test]
fn disarmed_registry_is_clean() {
    // Armed's Drop must leave nothing behind for later tests/waves.
    {
        let _armed = Armed::new(FaultPlan::new().fail(fault::SITE_COMPUTE, 0, Fault::Panic));
    }
    let problems = mixed_problems(3, 106);
    // the wave holds the gate, so no other test can arm a plan while it
    // runs; the registry is as the last guard's Drop left it
    let report = {
        let _gate = gate();
        engine().solve_all(&problems).unwrap()
    };
    assert!(report.outcomes().all_ok(), "{}", report.outcomes());
    let want: Vec<f32> = problems
        .iter()
        .map(|p| {
            p.solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
                .unwrap()
                .score()
        })
        .collect();
    for (item, want) in report.items.iter().zip(&want) {
        assert_eq!(item.score, *want);
    }
}
