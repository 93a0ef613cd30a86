//! The repository benchmark: three workloads that drive the public
//! `bpmax` API in-process, check every answer, and print end-to-end
//! metrics (or, with `--trace 1`, per-layer metrics) as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-large --seed 1 --seconds 25 --trace 0
//! ```
//!
//! See README.md for the workloads, the metrics and the witness rule.

mod host;
mod scan_journaled;
mod serve_mixed;
mod solve_large;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The end-to-end metrics every workload prints with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A
/// layer a workload never calls reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("rna.build_us", "us"),
    ("rna.share", "ratio"),
    ("engine.solve_gflops", "GFLOP/s"),
    ("engine.solve_share", "ratio"),
    ("kernels.ceiling_gflops", "GFLOP/s"),
    ("kernels.gap_x", "x"),
    ("traceback.share", "ratio"),
    ("batch.item_us_p50", "us"),
    ("batch.overhead_share", "ratio"),
    ("batch.coarse_fraction", "ratio"),
    ("ftable.allocs_per_op", "count"),
    ("ftable.reuse_ratio", "ratio"),
    ("checkpoint.tax_x", "x"),
    ("checkpoint.bytes_per_window", "B"),
    ("checkpoint.writes_per_window", "count"),
    ("checkpoint.disk_tax_x", "x"),
    ("serve.hit_us", "us"),
    ("serve.miss_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("perfmodel.pred_over_meas", "x"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_throughput_per_s", "1/s"),
];

/// Directory (relative to this package) for journals, sockets and span
/// logs; ignored by git.
pub const RUN_DIR: &str = "runs";

/// One run's settings, from the command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test: corrupt one answer so the checks must catch it.
    pub flip: bool,
}

impl Config {
    /// Ops in a run: a fixed count per second of `--seconds`, so the
    /// same settings always do the same work.
    pub fn ops(&self, per_second: f64) -> usize {
        (self.seconds * per_second).round().max(1.0) as usize
    }
}

/// What a workload hands back: counts, metrics by name, and the
/// human-readable report printed above the JSON line.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub report: String,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, text: impl AsRef<str>) {
        self.report.push_str(text.as_ref());
        self.report.push('\n');
    }

    /// Record a failed check with its reason.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        if self.failed <= 5 {
            self.line(format!("FAILED: {}", why.as_ref()));
        }
    }
}

/// Op latencies of a run and what the end-to-end metrics are made of.
/// A run may be cut into blocks; each metric is then the median of its
/// per-block values, so a slow stretch of the host moves at most a
/// minority of the blocks.
pub struct Timings {
    /// Per-op latency, seconds, per block.
    pub blocks: Vec<Vec<f64>>,
    /// Wall time of each block, seconds.
    pub walls: Vec<f64>,
    /// Percentile reported as `latency_tail_ms`.
    pub tail: f64,
}

impl Timings {
    /// Fill the latency and throughput metrics (when `gated`) and
    /// describe them under `label`.
    pub fn report(&self, res: &mut RunResult, label: &str, gated: bool) {
        let (mut tput, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
        for (lat, wall) in self.blocks.iter().zip(&self.walls) {
            let ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
            tput.push(lat.len() as f64 / wall);
            p50.push(stats::median(&ms));
            tail.push(stats::percentile(&ms, self.tail));
        }
        let (tput, p50, tail) = (
            stats::median(&tput),
            stats::median(&p50),
            stats::median(&tail),
        );
        let n: usize = self.blocks.iter().map(Vec::len).sum();
        let beyond = self
            .blocks
            .iter()
            .map(|b| stats::beyond(b, self.tail))
            .min()
            .unwrap_or(0);
        res.line(format!(
            "{label}: throughput_per_s {tput:.4}  latency_p50_ms {p50:.4}  latency_p{}_ms {tail:.4}  \
             ({n} ops in {} block(s), >= {beyond} beyond p{} per block)",
            self.tail,
            self.blocks.len(),
            self.tail,
        ));
        if self.blocks.len() > 1 {
            let per: Vec<String> = self
                .blocks
                .iter()
                .zip(&self.walls)
                .map(|(lat, wall)| format!("{:.1}", lat.len() as f64 / wall))
                .collect();
            res.line(format!("  per-block throughput_per_s: {}", per.join(" ")));
        }
        if gated {
            res.set("throughput_per_s", tput);
            res.set("latency_p50_ms", p50);
            res.set("latency_tail_ms", tail);
        }
    }
}

/// `E₀`: the bare process start, in seconds, that set-up times are
/// scaled to (about what a `--noop` spawn takes on the reference host).
const E0_S: f64 = 1.0e-3;

/// Seconds from spawning this binary with `args` to its "ready" line;
/// then waits for the child to exit.
fn spawn_until_ready(exe: &Path, args: &[&str]) -> Result<f64, String> {
    let t = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| std::io::BufReader::new(out).read_line(&mut line));
    let dt = t.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {args:?}: {e}"))?;
    if !status.success() || !matches!(read, Some(Ok(_))) || line.trim() != "ready" {
        return Err(format!("{args:?} failed ({status}, said {line:?})"));
    }
    Ok(dt)
}

/// Median seconds from spawning a fresh copy of this benchmark in probe
/// mode to its "ready" line — process start plus the workload's one-off
/// program set-up — raw and adjusted. Process start moves with the
/// host's phases more than the compute witness does, so each probe is
/// bracketed by spawns of this binary with `--noop` (which prints "ready"
/// before doing anything) and counts as `raw × E₀ ÷ e`, with `e` the
/// mean of the two.
pub fn probe_setup(cfg: &Config, probes: usize) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let seed = cfg.seed.to_string();
    let args = ["--probe", "--workload", &cfg.workload, "--seed", &seed];
    let (mut raw, mut adj) = (Vec::new(), Vec::new());
    let mut before = spawn_until_ready(&exe, &["--noop"])?;
    for _ in 0..probes {
        let dt = spawn_until_ready(&exe, &args)?;
        let after = spawn_until_ready(&exe, &["--noop"])?;
        raw.push(dt);
        adj.push(dt * E0_S / ((before + after) / 2.0));
        before = after;
    }
    Ok((stats::median(&raw), stats::median(&adj)))
}

/// Print the host record shared by every workload.
pub fn host_record(res: &mut RunResult, w: &host::Witness) {
    res.line(format!(
        "host: nproc {}  cpu {:?}",
        host::nproc(),
        host::cpu_model()
    ));
    let (med, min, max) = w.summary_ms();
    res.line(format!(
        "host_ref_ms: median {med:.4}  min {min:.4}  max {max:.4}  ({} samples, {} dropped; W0 {} ms)",
        w.samples.len(),
        w.dropped,
        host::W0_S * 1e3
    ));
    let series: Vec<String> = w
        .samples
        .iter()
        .map(|s| format!("{:.3}", s * 1e3))
        .collect();
    res.line(format!("witness_ms: {}", series.join(" ")));
}

/// Fail the run when the witness had to drop too many samples.
pub fn check_witness(w: &host::Witness) -> Result<(), String> {
    if w.dropped_share() > host::MAX_DROPPED_SHARE {
        return Err(format!(
            "{} of {} witness samples overlapped another thread of this process; \
             the adjustment would hide that contention",
            w.dropped,
            w.dropped + w.samples.len()
        ));
    }
    Ok(())
}

/// The kernel ceiling: `tropical::simd::mp_axpy4` streaming rows of 40
/// (the solve-large strand length), GFLOP/s with 8 flops per element.
/// With a witness the rate is adjusted like the workload's times.
pub fn kernel_ceiling_gflops(witness: Option<&mut host::Witness>) -> f64 {
    use std::hint::black_box;
    const LEN: usize = 40;
    const ITERS: usize = 200_000;
    let x: Vec<Vec<f32>> = (0..4)
        .map(|k| (0..LEN).map(|i| ((i * 7 + k) % 13) as f32).collect())
        .collect();
    let mut y = vec![0.0f32; LEN];
    let mut witness = witness;
    let before = witness.as_deref_mut().map(host::Witness::sample);
    let t = Instant::now();
    for it in 0..ITERS {
        let a = [(it % 5) as f32, 1.0, 2.0, 0.5];
        tropical::simd::mp_axpy4(
            black_box(a),
            [&x[0], &x[1], &x[2], &x[3]],
            black_box(&mut y),
        );
    }
    black_box(&y);
    let dt = t.elapsed().as_secs_f64();
    let after = witness.map(host::Witness::sample);
    let factor = before
        .zip(after)
        .map_or(1.0, |(b, a)| host::factor(b, a, host::ALPHA));
    (8 * LEN * ITERS) as f64 / (dt * factor) / 1e9
}

/// Print the self-time table of a traced run and write its span log.
pub fn finish_trace(cfg: &Config, res: &mut RunResult, tracer: &trace::Tracer) {
    res.line(tracer.table());
    let path = format!("{RUN_DIR}/spans-{}-seed{}.tsv", cfg.workload, cfg.seed);
    if let Err(e) = tracer.write(Path::new(&path)) {
        res.line(format!("could not write spans to {path}: {e}"));
    }
}

/// Tracing overhead from one traced run whose even ops were traced and
/// odd ops ran bare: traced minus untraced `latency_p50_ms` and
/// throughput (`conns` closed-loop callers).
pub fn trace_overhead(res: &mut RunResult, latency_s: &[f64], conns: f64) {
    let group = |parity: usize| -> (f64, f64) {
        let ms: Vec<f64> = latency_s
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, s)| s * 1e3)
            .collect();
        let tput = conns * ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
        (stats::median(&ms), tput)
    };
    let ((p50_on, tput_on), (p50_off, tput_off)) = (group(0), group(1));
    res.line(format!(
        "tracing overhead: latency_p50_ms {p50_on:.4} traced vs {p50_off:.4} bare; \
         throughput_per_s {tput_on:.4} traced vs {tput_off:.4} bare"
    ));
    res.set("trace.overhead_p50_ms", p50_on - p50_off);
    res.set("trace.overhead_throughput_per_s", tput_on - tput_off);
}

fn parse_args() -> Result<(Config, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut probe, mut flip) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--probe" => probe = true,
            "--flip-answer" => flip = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(
        workload.as_str(),
        "solve-large" | "scan-journaled" | "serve-mixed"
    ) {
        return Err(format!(
            "unknown workload {workload} (solve-large, scan-journaled, serve-mixed)"
        ));
    }
    let cfg = Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(25.0),
        trace,
        flip,
    };
    Ok((cfg, probe))
}

fn json_result(res: &RunResult, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = res.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.failed == 0,
        res.attempted,
        res.failed,
        metrics.join(", ")
    ))
}

fn run(cfg: &Config) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "solve-large" => solve_large::run(cfg),
        "scan-journaled" => scan_journaled::run(cfg),
        _ => serve_mixed::run(cfg),
    }
}

fn main() -> ExitCode {
    // The bare process start that set-up probes are measured against.
    if std::env::args().nth(1).as_deref() == Some("--noop") {
        println!("ready");
        return ExitCode::SUCCESS;
    }
    let (cfg, probe) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals, sockets and span logs live inside this package, with
    // short relative paths (a Unix socket path is capped at 108 bytes).
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    if let Err(e) = std::env::set_current_dir(here).and_then(|()| std::fs::create_dir_all(RUN_DIR))
    {
        eprintln!("perfbench: preparing {}/{RUN_DIR}: {e}", here.display());
        return ExitCode::from(2);
    }
    if probe {
        let ready = match cfg.workload.as_str() {
            "solve-large" => {
                println!("ready");
                Ok(())
            }
            "scan-journaled" => scan_journaled::probe(),
            _ => serve_mixed::probe(&cfg),
        };
        return match ready {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench probe: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut res = match run(&cfg) {
        Ok(res) => res,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", cfg.workload, cfg.seed);
            return ExitCode::from(2);
        }
    };
    let failed_ratio = res.failed as f64 / res.attempted.max(1) as f64;
    res.line(format!(
        "failed_ratio {failed_ratio} ({} of {} ops)",
        res.failed, res.attempted
    ));
    let mut out = format!(
        "# perfbench {} seed {} trace {}\n",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    out.push_str(&res.report);
    match json_result(&res, cfg.trace) {
        Ok(json) => {
            let _ = writeln!(out, "{json}");
            print!("{out}");
        }
        Err(e) => {
            print!("{out}");
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if res.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
