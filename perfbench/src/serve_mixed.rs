//! `serve-mixed`: an in-process `Server` with the CLI defaults
//! (memory-only cache, unbounded in-flight) behind a real Unix socket.
//! Two client connections run a closed loop; a seeded draw makes each
//! request a replay from a 64-problem hot set warmed during set-up (80%)
//! or a fresh problem (20%). Every problem is 16 × 16.

use crate::host::{self, Witness};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Config, RunResult, Timings, RUN_DIR};
use bpmax::serve::{decode_request, decode_response, encode_request, encode_response};
use bpmax::{
    BatchEngine, BatchOptions, BpMaxProblem, Client, Outcome, Request, Response, Server,
    ServerConfig, ServerStats, SolveOptions, SolveRequest,
};
use rna::ScoringModel;
use std::collections::HashSet;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

const LEN: usize = 16;
const HOT: usize = 64;
const HIT_SHARE: f64 = 0.8;
const CONNS: usize = 2;
/// Requests (over both connections) per second of `--seconds`.
const OPS_PER_S: f64 = 1600.0;
/// Set-up probes per run (the median is reported).
const PROBES: usize = 7;
/// Blocks a run's requests are cut into; each end-to-end figure is the
/// median of its per-block values.
const BLOCKS: usize = 15;
/// Requests replayed by the traced run's side passes.
const SIDE_PASS: usize = 1000;

/// One request of the mix: a replay of hot-set entry `hot`, or a fresh
/// problem.
struct Req {
    req: SolveRequest,
    hot: Option<usize>,
}

/// The seeded traffic: the hot set and each connection's requests.
struct Mix {
    hot: Vec<SolveRequest>,
    conns: Vec<Vec<Req>>,
}

impl Mix {
    fn new(seed: u64, requests: usize) -> Mix {
        let mut rng = Rng::new(seed, 3);
        let model = ScoringModel::bpmax_default();
        let mut seen = HashSet::new();
        let mut fresh = |rng: &mut Rng| loop {
            let (a, b) = (rng.seq(LEN), rng.seq(LEN));
            if seen.insert(format!("{a}/{b}")) {
                return SolveRequest::new(a, b, model.clone());
            }
        };
        let hot: Vec<SolveRequest> = (0..HOT).map(|_| fresh(&mut rng)).collect();
        let conns = (0..CONNS)
            .map(|_| {
                (0..requests.div_ceil(CONNS))
                    .map(|_| {
                        if rng.unit() < HIT_SHARE {
                            let i = rng.below(HOT);
                            Req {
                                req: hot[i].clone(),
                                hot: Some(i),
                            }
                        } else {
                            Req {
                                req: fresh(&mut rng),
                                hot: None,
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        Mix { hot, conns }
    }

    /// The first `n` requests, alternating between connections.
    fn sample(&self, n: usize) -> Vec<&Req> {
        (0..n)
            .filter_map(|i| self.conns[i % CONNS].get(i / CONNS))
            .collect()
    }
}

/// Connect to `sock`, retrying at once (no sleep) until the server has
/// bound it or `gave_up` says it never will.
fn connect(sock: &Path, gave_up: impl Fn() -> bool) -> Result<Client, String> {
    loop {
        match Client::connect(sock) {
            Ok(client) => return Ok(client),
            Err(e) if gave_up() => return Err(format!("server never listened: {e}")),
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// Run a server on a fresh socket, do the set-up users pay once per
/// process — bind, the first accepted connection, warming the hot set,
/// the second connection — hand both clients and the warm scores to
/// `body`, then shut the server down and join it.
fn serve<R>(
    hot: &[SolveRequest],
    body: impl FnOnce(&Server, Vec<Client>, Vec<f32>) -> Result<R, String>,
) -> Result<R, String> {
    let sock = PathBuf::from(format!("{RUN_DIR}/serve-{}.sock", std::process::id()));
    let server = Server::new(ServerConfig {
        socket: sock.clone(),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let result = (|| {
            let mut first = connect(&sock, || runner.is_finished())?;
            let mut warm = Vec::with_capacity(hot.len());
            for req in hot {
                match first.solve(req) {
                    Ok(Response::Solved {
                        score,
                        cache_hit: false,
                        outcome: Outcome::Ok,
                        ..
                    }) => warm.push(score),
                    other => return Err(format!("warming the hot set: {other:?}")),
                }
            }
            let second = connect(&sock, || runner.is_finished())?;
            body(&server, vec![first, second], warm)
        })();
        // Stop the server even after a failure, then join it.
        let stopped = Client::connect(&sock).and_then(|mut c| c.shutdown());
        let ran = runner.join();
        let out = result?;
        stopped.map_err(|e| format!("shutting the server down: {e}"))?;
        match ran {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    })
}

/// Probe mode: the program's once-per-process set-up of this workload.
pub fn probe(cfg: &Config) -> Result<(), String> {
    let mix = Mix::new(cfg.seed, 0);
    serve(&mix.hot, |_, _, _| {
        println!("ready");
        Ok(())
    })
}

/// One answered request: when it was sent and answered, the reply, and
/// the block of the run it belongs to.
struct Answer {
    start: Instant,
    end: Instant,
    reply: Result<Response, String>,
    block: usize,
}

/// What the timed loop hands back.
struct Load {
    /// Answers, per connection.
    answers: Vec<Vec<Answer>>,
    /// Wall time of each block, seconds.
    walls: Vec<f64>,
    /// Witness factor of each block.
    factors: Vec<f64>,
    /// Every witness sample of the loop.
    witness: Witness,
}

/// One connection's share of the timed loop: its answers, the wall time
/// of each block, its witness sample at each block boundary, and its
/// witness record.
struct ConnRun {
    answers: Vec<Answer>,
    walls: Vec<f64>,
    samples: Vec<f64>,
    witness: Witness,
}

/// Both connections run their requests in closed loops, in [`BLOCKS`]
/// blocks that start together. Before the first block and after each
/// one, with every connection idle, both client threads time the
/// witness at once — the load runs on both vCPUs, so both are sampled —
/// and a block's factor comes from the mean samples on either side of it.
fn timed_loop(clients: Vec<Client>, mix: &Mix) -> Load {
    let barrier = Barrier::new(CONNS);
    let tids: Vec<OnceLock<Option<OsString>>> = (0..CONNS).map(|_| OnceLock::new()).collect();
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&mix.conns)
            .enumerate()
            .map(|(c, (mut client, reqs))| {
                let (barrier, tids) = (&barrier, &tids);
                s.spawn(move || {
                    let _ = tids[c].set(host::thread_id());
                    barrier.wait();
                    let partner = tids[(c + 1) % CONNS].get().and_then(Option::as_deref);
                    let mut witness = Witness::default();
                    let (mut out, mut walls, mut samples) =
                        (Vec::with_capacity(reqs.len()), Vec::new(), Vec::new());
                    let mut blocks = reqs.chunks(reqs.len().div_ceil(BLOCKS)).enumerate();
                    loop {
                        barrier.wait();
                        samples.push(witness.sample_beside(partner));
                        barrier.wait();
                        let Some((block, chunk)) = blocks.next() else {
                            break;
                        };
                        let t0 = Instant::now();
                        for r in chunk {
                            let start = Instant::now();
                            let reply = client.solve(&r.req).map_err(|e| e.to_string());
                            out.push(Answer {
                                start,
                                end: Instant::now(),
                                reply,
                                block,
                            });
                        }
                        barrier.wait();
                        walls.push(t0.elapsed().as_secs_f64());
                    }
                    ConnRun {
                        answers: out,
                        walls,
                        samples,
                        witness,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let blocks = runs[0].walls.len();
    let walls = (0..blocks)
        .map(|b| runs.iter().map(|r| r.walls[b]).fold(0.0, f64::max))
        .collect();
    let boundary: Vec<f64> = (0..=blocks)
        .map(|k| runs.iter().map(|r| r.samples[k]).sum::<f64>() / CONNS as f64)
        .collect();
    let factors = boundary
        .windows(2)
        // Unraised: two threads timing the witness at once already feel
        // the contention between the vCPUs that slows serve, and raised
        // to ALPHA it over-corrected inside a slow phase (README).
        .map(|w| host::factor(w[0], w[1], 1.0))
        .collect();
    let mut witness = Witness::default();
    let mut answers = Vec::new();
    for run in runs {
        answers.push(run.answers);
        witness.merge(run.witness);
    }
    Load {
        answers,
        walls,
        factors,
        witness,
    }
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut witness = Witness::default();
    let (setup_raw, setup_adj) = crate::probe_setup(cfg, PROBES)?;
    let mix = Mix::new(cfg.seed, cfg.ops(OPS_PER_S));
    let mut tracer = Tracer::new();
    tracer.on = cfg.trace;
    let (load, warm, stats) = serve(&mix.hot, |server, clients, warm| {
        let before = server.stats();
        let load = timed_loop(clients, &mix);
        Ok((load, warm, (before, server.stats())))
    })?;
    let answers = &load.answers;

    // Checks, outside the timed region.
    let model = ScoringModel::bpmax_default();
    let mut misses = Vec::new();
    let mut errors = 0u64;
    for (c, conn) in answers.iter().enumerate() {
        for (i, (a, r)) in conn.iter().zip(&mix.conns[c]).enumerate() {
            res.attempted += 1;
            let (score, hit, seconds) = match &a.reply {
                Ok(Response::Solved {
                    score,
                    cache_hit,
                    outcome: Outcome::Ok,
                    seconds,
                }) => (*score, *cache_hit, *seconds),
                other => {
                    errors += 1;
                    res.fail(format!("conn {c} request {i}: {other:?}"));
                    continue;
                }
            };
            let score = if cfg.flip && c == 0 && i == 0 {
                f32::from_bits(score.to_bits() ^ 1)
            } else {
                score
            };
            match r.hot {
                Some(h) if !hit || score.to_bits() != warm[h].to_bits() => {
                    res.fail(format!("conn {c} request {i}: hot entry {h} answered {score} (hit {hit}), warm-up said {}", warm[h]));
                }
                None if hit => res.fail(format!(
                    "conn {c} request {i}: a fresh problem was a cache hit"
                )),
                None => misses.push((&r.req, score, seconds)),
                Some(_) => {}
            }
        }
    }
    for (req, score, _) in &misses {
        let direct = BpMaxProblem::new(req.seq1.clone(), req.seq2.clone(), model.clone())
            .solve_opts(&SolveOptions::new())
            .map(|s| s.score().to_bits());
        if direct != Ok(score.to_bits()) {
            res.fail(format!(
                "a miss answered {score}, a direct solve_opts says {direct:?}"
            ));
        }
    }
    witness.merge(load.witness);
    crate::check_witness(&witness)?;
    crate::host_record(&mut res, &witness);
    if !cfg.trace {
        let n = load.walls.len();
        let (mut raw, mut adj) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for a in answers.iter().flatten() {
            let dt = (a.end - a.start).as_secs_f64();
            raw[a.block].push(dt);
            adj[a.block].push(dt * load.factors[a.block]);
        }
        let walls_adj = load
            .walls
            .iter()
            .zip(&load.factors)
            .map(|(w, f)| w * f)
            .collect();
        Timings {
            blocks: raw,
            walls: load.walls.clone(),
            tail: 99.0,
        }
        .report(&mut res, "raw", false);
        Timings {
            blocks: adj,
            walls: walls_adj,
            tail: 99.0,
        }
        .report(&mut res, "adjusted", true);
        res.line(format!(
            "setup_s: raw {setup_raw:.6}  adjusted {setup_adj:.6}  (median of {PROBES} probes)"
        ));
        res.set("setup_s", setup_adj);
        res.set("peak_rss_mib", crate::host::peak_rss_mib());
        return Ok(res);
    }
    layers(&mut res, &mut tracer, &mix, answers, &misses, stats, errors)?;
    crate::finish_trace(cfg, &mut res, &tracer);
    Ok(res)
}

/// Per-layer metrics: server counters and reply fields from the socket
/// loop, plus side passes over the same request mix for the layers a
/// socket round trip hides (S-table builds, the codec, in-process
/// `Server::handle`).
fn layers(
    res: &mut RunResult,
    tracer: &mut Tracer,
    mix: &Mix,
    answers: &[Vec<Answer>],
    misses: &[(&SolveRequest, f32, f64)],
    (before, after): (ServerStats, ServerStats),
    errors: u64,
) -> Result<(), String> {
    let model = ScoringModel::bpmax_default();
    // The socket exchanges, as spans, split into hits and misses.
    let mut hit_rtt = Vec::new();
    let mut op = 0;
    for (c, conn) in answers.iter().enumerate() {
        for (a, r) in conn.iter().zip(&mix.conns[c]) {
            let name = if r.hot.is_some() {
                "exchange.hit"
            } else {
                "exchange.miss"
            };
            tracer.record(name, op, a.start, a.end);
            if r.hot.is_some() {
                hit_rtt.push((a.end - a.start).as_secs_f64());
            }
            op += 1;
        }
    }
    let latency: Vec<f64> = answers
        .iter()
        .flatten()
        .map(|a| (a.end - a.start).as_secs_f64())
        .collect();
    let mean_latency = latency.iter().sum::<f64>() / latency.len() as f64;
    let sample = mix.sample(SIDE_PASS);

    // S-table builds of the request mix.
    let mut build = Vec::new();
    for (i, r) in sample.iter().enumerate() {
        let t = Instant::now();
        let problem = tracer.time("rna", i, None, || {
            BpMaxProblem::new(r.req.seq1.clone(), r.req.seq2.clone(), model.clone())
        });
        build.push(t.elapsed().as_secs_f64());
        std::hint::black_box(problem);
    }
    // The codec: one request and one reply encoded and decoded.
    let reply = Response::Solved {
        score: 1.0,
        outcome: Outcome::Ok,
        seconds: 0.0,
        cache_hit: true,
    };
    let mut codec = Vec::new();
    for (i, r) in sample.iter().enumerate() {
        let t = Instant::now();
        tracer.time("codec", i, None, || -> Result<(), String> {
            let req = Request::Solve(r.req.clone());
            decode_request(&encode_request(&req)).map_err(|e| e.to_string())?;
            decode_response(&encode_response(&reply)).map_err(|e| e.to_string())?;
            Ok(())
        })?;
        codec.push(t.elapsed().as_secs_f64());
    }
    // A second server, driven in-process through `Server::handle`.
    let local = Server::new(ServerConfig {
        socket: PathBuf::from(format!("{RUN_DIR}/unused-{}.sock", std::process::id())),
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    for req in &mix.hot {
        local.handle(&Request::Solve(req.clone()));
    }
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    for (i, r) in sample.iter().enumerate() {
        let req = Request::Solve(r.req.clone());
        let t = Instant::now();
        let name = if r.hot.is_some() {
            "handle.hit"
        } else {
            "handle.miss"
        };
        tracer.time(name, i, None, || local.handle(&req));
        let us = t.elapsed().as_secs_f64() * 1e6;
        if r.hot.is_some() {
            hit_us.push(us);
        } else {
            miss_us.push(us);
        }
    }

    let engine = BatchEngine::new(BatchOptions::new()).map_err(|e| e.to_string())?;
    let probe_problem =
        |req: &SolveRequest| BpMaxProblem::new(req.seq1.clone(), req.seq2.clone(), model.clone());
    let miss_s: Vec<f64> = misses.iter().map(|m| m.2).collect();
    let flops = misses
        .first()
        .map_or(0.0, |m| probe_problem(m.0).flops() as f64);
    let gflops = flops * miss_s.len() as f64 / miss_s.iter().sum::<f64>() / 1e9;
    let coarse = misses
        .iter()
        .filter(|m| engine.classify_coarse(&probe_problem(m.0)))
        .count();
    let pred: Vec<f64> = misses
        .iter()
        .map(|m| engine.predict_seconds(&probe_problem(m.0), &SolveOptions::new()) / m.2)
        .collect();
    let ceiling = crate::kernel_ceiling_gflops(None);
    let (hit, miss) = (stats::median(&hit_us), stats::median(&miss_us));
    let requests = (after.requests - before.requests) as f64;
    let allocated = after.pool.allocated - before.pool.allocated;
    let reused = after.pool.reused - before.pool.reused;
    res.set("rna.build_us", stats::median(&build) * 1e6);
    res.set(
        "rna.share",
        build.iter().sum::<f64>() / build.len() as f64 / mean_latency,
    );
    res.set("engine.solve_gflops", gflops);
    res.set(
        "engine.solve_share",
        miss_s.iter().sum::<f64>() / latency.iter().sum::<f64>(),
    );
    res.set("kernels.ceiling_gflops", ceiling);
    res.set("kernels.gap_x", ceiling / gflops);
    res.set("batch.item_us_p50", stats::median(&miss_s) * 1e6);
    res.set(
        "batch.coarse_fraction",
        coarse as f64 / misses.len().max(1) as f64,
    );
    res.set("ftable.allocs_per_op", allocated as f64 / requests);
    res.set(
        "ftable.reuse_ratio",
        reused as f64 / ((allocated + reused) as f64).max(1.0),
    );
    res.set("serve.hit_us", hit);
    res.set("serve.miss_us", miss);
    res.set("serve.transport_us", stats::median(&hit_rtt) * 1e6 - hit);
    res.set("serve.codec_us", stats::median(&codec) * 1e6);
    res.set(
        "serve.hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / requests,
    );
    res.set(
        "serve.refused",
        (after.rejects - before.rejects + after.shed - before.shed + after.panicked
            - before.panicked
            + errors) as f64,
    );
    res.set("perfmodel.pred_over_meas", stats::median(&pred));
    res.line(format!(
        "server counters over the loop: {} requests, {} hits, {} solves, {} rejects, {} shed, {} panics; \
         pool {} allocated / {} reused",
        after.requests - before.requests,
        after.cache_hits - before.cache_hits,
        after.solves - before.solves,
        after.rejects - before.rejects,
        after.shed - before.shed,
        after.panicked - before.panicked,
        allocated,
        reused
    ));
    crate::trace_overhead(res, &latency, CONNS as f64);
    Ok(())
}
