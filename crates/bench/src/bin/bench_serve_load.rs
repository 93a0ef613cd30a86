//! Solve-daemon saturation: aggregate throughput under concurrent
//! clients, and overload behaviour at a deliberately tiny capacity.
//!
//! Three measured phases against an in-process [`Server`] on a real
//! Unix socket:
//!
//! 1. **Serial baseline** — one persistent client solves a pass of
//!    fresh problems back to back. This is the throughput of the
//!    pre-concurrency daemon, which handled one connection at a time.
//! 2. **Concurrent** — the same pass shape split across 4 client
//!    threads. The daemon admits them in parallel (bounded only by its
//!    in-flight ledger, unbounded here), so aggregate throughput should
//!    beat the serial baseline wherever more than one core exists.
//!    Phases 1 and 2 are interleaved, one pass each per repetition, and
//!    the headline is the median of the per-repetition ratios, so a host
//!    that changes speed mid-run moves both sides. The headline ratio is
//!    asserted with a core-count-aware floor: >=2x
//!    with 4+ cores, >=1.2x with 2-3, and a permissive sanity floor on
//!    a single core, where concurrency can only add scheduling overhead.
//!    Cores count only as far as the host delivers them: before and
//!    after its passes, each repetition times a fixed spin on one thread
//!    against the same spin on every core, and the floor is capped at
//!    0.6x that measured capacity. A virtual machine whose second vCPU is lent to a
//!    neighbour (capacity ~1) is held to the single-core floor.
//!    Every concurrent score is asserted bit-identical to a direct
//!    in-process solve — concurrency must change wall-clock, never bits.
//! 3. **Overload** — a daemon squeezed to `max_inflight = 1` with no
//!    queue, hammered by 4 clients using [`Client::solve_with_retry`].
//!    Requests are shed with the typed overloaded rejection and the
//!    clients' capped jittered backoff recovers every one of them:
//!    all answers arrive, all bit-identical. Shedding plus retry must
//!    degrade latency, never correctness.
//!
//! Both the floor and the overload phase's "must shed" need solves long
//! enough for requests to overlap, so the problem sizes are keyed on a
//! measured solve time: the requested `--sizes` grow in steps of 2 until
//! a direct solve takes at least [`MIN_SOLVE_S`] (up to
//! [`MAX_CALIBRATED`]). Below that, the per-request socket and codec
//! work dominates and the ratio measures wake-up latency, not solves.
//!
//! Cold timing note: the daemon memoizes every solve, so each timed
//! repetition consumes a fresh slice of a pregenerated problem pool
//! (cache hits would measure the cache, not the solver).

use bench::report::Reporter;
use bench::{banner, f2, model, workload, Opts, Table, TimeStats};
use bpmax::serve::{
    Client, RejectReason, Response, RetryPolicy, Server, ServerConfig, SolveRequest,
};
use bpmax::{BpMaxProblem, SolveOptions};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;

/// Median direct solve time the calibrated problem sizes must reach.
const MIN_SOLVE_S: f64 = 2e-3;

/// Calibration stops growing the sizes here: the overload phase's retry
/// budget (16 attempts, at most 50 ms apart) assumes solves of a few
/// milliseconds.
const MAX_CALIBRATED: usize = 24;

fn solved(resp: Response) -> f32 {
    match resp {
        Response::Solved { score, .. } => score,
        other => panic!("expected Solved, got {other:?}"),
    }
}

/// Start a daemon on its own thread and wait until the socket accepts.
fn start(cfg: ServerConfig) -> (Arc<Server>, std::thread::JoinHandle<()>) {
    let server = Arc::new(Server::new(cfg).expect("server"));
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run().expect("daemon"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while Client::connect(&server.cfg().socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(5));
    }
    (server, handle)
}

/// Fresh, distinct problems: one per request of every timed repetition.
fn pool(sizes: &[usize], seed: u64, tag: u64, count: usize) -> Vec<SolveRequest> {
    (0..count)
        .map(|i| {
            let m = sizes[i % sizes.len()];
            let n = sizes[(i / sizes.len() + i) % sizes.len()];
            let (s1, s2) = workload(seed ^ tag ^ (i as u64) << 32, m, n);
            SolveRequest::new(s1, s2, model())
        })
        .collect()
}

/// Median wall time of one direct in-process solve over `reqs`.
fn direct_solve_s(reqs: &[SolveRequest]) -> f64 {
    let mut times: Vec<f64> = reqs
        .iter()
        .map(|r| {
            let t0 = Instant::now();
            std::hint::black_box(reference(r));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

/// The requested sizes, all grown in steps of 2 until a direct solve of
/// the pool they cycle through takes at least [`MIN_SOLVE_S`] (median),
/// or the largest reaches [`MAX_CALIBRATED`]. Returns the sizes and that
/// median.
fn calibrated_sizes(opts: &Opts) -> (Vec<usize>, f64) {
    let mut sizes = opts.sizes.clone();
    loop {
        let probe = pool(&sizes, opts.seed, 0xCA11B, 2 * CLIENTS);
        direct_solve_s(&probe[..1]); // warm-up
        let solve_s = direct_solve_s(&probe);
        let largest = sizes.iter().copied().max().unwrap_or(0);
        if solve_s >= MIN_SOLVE_S || largest >= MAX_CALIBRATED {
            return (sizes, solve_s);
        }
        for s in &mut sizes {
            *s += 2;
        }
    }
}

/// Direct in-process reference solve — the bits the daemon must match.
fn reference(req: &SolveRequest) -> f32 {
    BpMaxProblem::new(req.seq1.clone(), req.seq2.clone(), req.model.clone())
        .solve_opts(&SolveOptions::new())
        .expect("direct solve")
        .score()
}

/// How many cores' worth of CPU the host delivers right now, up to
/// `threads`: a fixed dependent-multiply spin (~4 ms) timed on one
/// thread, then on `threads` threads at once.
fn host_capacity(threads: usize) -> f64 {
    fn spin(seed: u64) -> u64 {
        let mut x = seed | 1;
        for _ in 0..1u32 << 21 {
            x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1 | 1);
        }
        x
    }
    let t0 = Instant::now();
    std::hint::black_box(spin(1));
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || std::hint::black_box(spin(t as u64 + 2)));
        }
    });
    threads as f64 * one / t0.elapsed().as_secs_f64()
}

/// Median of `xs` (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median and median absolute deviation of per-pass seconds, as
/// [`bench::time_stats`] reports them.
fn stats(samples: &mut [f64]) -> TimeStats {
    let median_s = median(samples);
    let mut devs: Vec<f64> = samples.iter().map(|&t| (t - median_s).abs()).collect();
    TimeStats {
        reps: samples.len(),
        median_s,
        mad_s: median(&mut devs),
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[at]
}

fn main() {
    let opts = Opts::parse(&[12, 16], &[CLIENTS]);
    let mut rep = Reporter::new("bench_serve_load", &opts);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    banner(
        "ServeLoad",
        "daemon throughput under concurrent clients + overload shedding",
        "concurrent aggregate throughput beats one-at-a-time serving",
    );

    let per_pass = if opts.smoke {
        8
    } else if opts.full {
        48
    } else {
        24
    };
    let reps = opts.reps(5);
    let (sizes, solve_s) = calibrated_sizes(&opts);
    println!(
        "\n{per_pass} requests per pass, {CLIENTS} clients in the concurrent phase, \
         {cores} core(s), sizes cycled from {sizes:?} (requested {:?}; direct solve \
         median {:.0} us)",
        opts.sizes,
        1e6 * solve_s
    );

    // ---- phases 1 + 2: serial vs concurrent, interleaved ---------------
    // Each repetition measures the host's capacity, then times one serial
    // pass and one concurrent pass back to back. The ratio is taken per
    // repetition, so a host that changes speed between repetitions moves
    // both sides.
    let serial_pool = pool(&sizes, opts.seed, 0x5E71A1, per_pass * (reps + 1));
    let conc_pool = Arc::new(pool(&sizes, opts.seed, 0xC0C0A, per_pass * (reps + 1)));
    let dir = std::env::temp_dir().join(format!("bpmax-bench-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (serial_server, serial_daemon) = start(ServerConfig {
        socket: dir.join("serial.sock"),
        ..ServerConfig::default()
    });
    let (server, daemon) = start(ServerConfig {
        socket: dir.join("concurrent.sock"),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&serial_server.cfg().socket).expect("connect");
    let socket: Arc<PathBuf> = Arc::new(server.cfg().socket.clone());
    // (pool index, score, seconds) per request; verified bit-identical
    // against direct solves *after* the timed passes — the reference
    // solver must not run inside the measurement.
    let answers: Arc<Mutex<Vec<(usize, f32, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut serial_s = Vec::with_capacity(reps);
    let mut conc_s = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    let mut capacities = Vec::with_capacity(reps);
    // pass 0 warms both daemons, untimed
    for k in 0..=reps {
        let base = k * per_pass;
        let capacity_before = host_capacity(cores.min(CLIENTS));
        let t0 = Instant::now();
        for r in &serial_pool[base..base + per_pass] {
            std::hint::black_box(solved(client.solve(r).expect("serial solve")));
        }
        let serial = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let (pool, socket, answers) = (&conc_pool, &socket, &answers);
                scope.spawn(move || {
                    let mut client = Client::connect(socket.as_path()).expect("connect");
                    // client c takes every CLIENTS-th problem of the pass
                    let mut got = Vec::new();
                    for i in (c..per_pass).step_by(CLIENTS) {
                        let req = &pool[base + i];
                        let t0 = Instant::now();
                        let score = solved(client.solve(req).expect("concurrent solve"));
                        got.push((base + i, score, t0.elapsed().as_secs_f64()));
                    }
                    answers.lock().expect("answers lock").extend(got);
                });
            }
        });
        let conc = t0.elapsed().as_secs_f64();
        if k > 0 {
            serial_s.push(serial);
            conc_s.push(conc);
            ratios.push(serial / conc);
            capacities.push((capacity_before + host_capacity(cores.min(CLIENTS))) / 2.0);
        }
    }
    client.shutdown().expect("shutdown");
    serial_daemon.join().expect("daemon thread");
    let serial_stats = stats(&mut serial_s);
    let conc_stats = stats(&mut conc_s);
    let speedup = median(&mut ratios);
    let capacity = median(&mut capacities);
    rep.measured("measured/serve-load-serial/t=1", serial_stats, None);
    rep.annotate(&[
        ("requests", per_pass as f64),
        ("rps", per_pass as f64 / serial_stats.median_s),
        ("solve_us", 1e6 * solve_s),
    ]);
    let conc_server_stats = server.stats();
    for &(i, score, _) in answers.lock().expect("answers lock").iter() {
        assert_eq!(
            score.to_bits(),
            reference(&conc_pool[i]).to_bits(),
            "concurrent answer diverged from the lib"
        );
    }
    Client::connect(socket.as_path())
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread");

    let mut lat: Vec<f64> = answers
        .lock()
        .expect("answers lock")
        .iter()
        .map(|&(_, _, s)| s)
        .collect();
    lat.sort_by(f64::total_cmp);
    let (p50_us, p99_us) = (1e6 * percentile(&lat, 0.50), 1e6 * percentile(&lat, 0.99));
    rep.measured(
        format!("measured/serve-load-concurrent/t={CLIENTS}"),
        conc_stats,
        None,
    );
    rep.annotate(&[
        ("requests", per_pass as f64),
        ("rps", per_pass as f64 / conc_stats.median_s),
        ("speedup_vs_serial", speedup),
        ("cores", cores as f64),
        ("capacity", capacity),
        ("latency_p50_us", p50_us),
        ("latency_p99_us", p99_us),
        ("shed", conc_server_stats.shed as f64),
    ]);
    assert_eq!(
        conc_server_stats.shed, 0,
        "an unbounded ledger must not shed"
    );

    // ---- phase 3: overload — shed, retry, recover ---------------------
    let over_pool = pool(&sizes, opts.seed, 0x0BAD, CLIENTS * per_pass.min(8));
    let each = over_pool.len() / CLIENTS;
    let (server, daemon) = start(ServerConfig {
        socket: dir.join("overload.sock"),
        max_inflight: Some(1),
        queue_depth: Some(0),
        queue_wait: Some(Duration::from_millis(5)),
        ..ServerConfig::default()
    });
    let socket: Arc<PathBuf> = Arc::new(server.cfg().socket.clone());
    let over_pool = Arc::new(over_pool);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (pool, socket) = (&over_pool, &socket);
            scope.spawn(move || {
                let policy = RetryPolicy {
                    attempts: 16,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                    seed: 0xB0FF + c as u64,
                };
                for req in &pool[c * each..(c + 1) * each] {
                    let resp = Client::solve_with_retry(socket.as_path(), req, policy)
                        .expect("retry budget exhausted under overload");
                    if let Response::Rejected(RejectReason::Overloaded { .. }) = resp {
                        panic!("solve_with_retry returned a shed as Ok");
                    }
                    assert_eq!(
                        solved(resp).to_bits(),
                        reference(req).to_bits(),
                        "retried answer diverged from the lib"
                    );
                }
            });
        }
    });
    let over_wall = t0.elapsed().as_secs_f64();
    let over_server_stats = server.stats();
    Client::connect(socket.as_path())
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
    rep.annotate(&[
        ("overload_requests", over_pool.len() as f64),
        ("overload_wall_s", over_wall),
        ("overload_shed", over_server_stats.shed as f64),
    ]);
    if cores >= 2 {
        assert!(
            over_server_stats.shed >= 1,
            "4 clients against a 1-slot, 0-queue daemon must shed at least once"
        );
    }

    // ---- verdict ------------------------------------------------------
    let mut t = Table::new(&["phase", "median s / pass", "requests / s"]);
    for (name, s) in [
        ("serial (1 client)", serial_stats),
        ("concurrent (4 clients)", conc_stats),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.6}", s.median_s),
            f2(per_pass as f64 / s.median_s),
        ]);
    }
    t.print();
    println!(
        "\nconcurrent aggregate throughput: {speedup:.2}x the serial baseline \
         on {cores} core(s) delivering {capacity:.2} cores' worth; p50 {p50_us:.0} us, \
         p99 {p99_us:.0} us per request; overload phase shed {} request(s), every \
         one recovered by retry with bit-identical answers",
        over_server_stats.shed
    );
    // The floor scales with what the machine can actually deliver: real
    // parallel speedup needs real cores, and only the capacity the host
    // measurably delivers counts; on one core the assertion only guards
    // against pathological serialization overhead.
    let core_floor = if cores >= 4 {
        2.0
    } else if cores >= 2 {
        1.2
    } else {
        0.6
    };
    let floor = f64::min(core_floor, 0.6 * capacity.max(1.0));
    assert!(
        speedup >= floor,
        "aggregate throughput at {CLIENTS} clients must be >={floor:.2}x the \
         serial baseline on {cores} core(s) delivering {capacity:.2} cores' worth, \
         got {speedup:.2}x"
    );
    rep.finish();
}
