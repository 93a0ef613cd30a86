//! Structured benchmark telemetry: machine-readable reports next to the
//! human tables.
//!
//! Every figure/table binary builds a [`Report`] through a [`Reporter`]
//! and writes it as `results/json/<artifact>.json` (schema below). The
//! `bench_compare` binary diffs two report directories with noise-aware
//! thresholds, and `bench_aggregate` folds a directory into the repo-root
//! `BENCH_SUMMARY.json` — see README.md "Benchmark telemetry".
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "artifact": "fig13_dmp_perf",
//!   "meta": {
//!     "git_sha": "…", "rustc": "rustc 1.95.0 …", "host_cores": 1,
//!     "seed": 760337, "threads": [6], "full": false, "smoke": false,
//!     "unix_time_s": 1754500000
//!   },
//!   "measurements": [
//!     { "id": "measured/tiled 64x16xN/m=24,n=24", "kind": "measured",
//!       "reps": 3, "median_s": 0.00012, "mad_s": 0.000003,
//!       "gflops": 4.51, "metrics": { "m": 24, "n": 24 } }
//!   ]
//! }
//! ```
//!
//! `median_s`/`mad_s`/`gflops` are optional per record; `kind` says how a
//! number was produced so the regression gate only applies wall-clock
//! thresholds where wall-clock exists.

use crate::json::{self, Json};
use crate::{Opts, TimeStats};
use std::path::{Path, PathBuf};

/// Version stamp written into every report.
pub const SCHEMA_VERSION: u64 = 1;

/// How a measurement was produced. Only [`Kind::Measured`] entries carry
/// wall-clock statistics the regression gate thresholds against; the
/// other kinds are deterministic outputs (models, cache simulation,
/// static program properties) that are compared for drift only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock measured on this host.
    Measured,
    /// Predicted by the calibrated cost model (`perfmodel`/`simsched`).
    Modeled,
    /// Produced by a deterministic simulator (cache, OMP scheduler).
    Simulated,
    /// A static property of the program (LOC, legality, instance counts).
    Static,
}

impl Kind {
    /// The JSON string for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Simulated => "simulated",
            Kind::Static => "static",
        }
    }

    /// Inverse of [`Kind::as_str`].
    pub fn parse(s: &str) -> Result<Kind, String> {
        match s {
            "measured" => Ok(Kind::Measured),
            "modeled" => Ok(Kind::Modeled),
            "simulated" => Ok(Kind::Simulated),
            "static" => Ok(Kind::Static),
            other => Err(format!("unknown measurement kind '{other}'")),
        }
    }
}

/// One record of a report: a named quantity with optional wall-clock
/// statistics, optional GFLOPS, and free-form scalar metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Stable identifier, unique within the artifact (e.g.
    /// `measured/permuted/m=24,n=24`). The compare gate matches records
    /// across runs by this id.
    pub id: String,
    /// How the numbers were produced.
    pub kind: Kind,
    /// Timed repetitions behind `median_s`/`mad_s` (0 when untimed).
    pub reps: u64,
    /// Median wall time in seconds over `reps` runs.
    pub median_s: Option<f64>,
    /// Median absolute deviation of the wall times, in seconds.
    pub mad_s: Option<f64>,
    /// Throughput in GFLOPS (measured or modeled).
    pub gflops: Option<f64>,
    /// Additional named scalars (problem sizes, speedups, miss ratios…).
    pub metrics: Vec<(String, f64)>,
}

impl Measurement {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("id", Json::str(&self.id)),
            ("kind", Json::str(self.kind.as_str())),
            ("reps", Json::num(self.reps as f64)),
        ];
        if let Some(x) = self.median_s {
            pairs.push(("median_s", Json::num(x)));
        }
        if let Some(x) = self.mad_s {
            pairs.push(("mad_s", Json::num(x)));
        }
        if let Some(x) = self.gflops {
            pairs.push(("gflops", Json::num(x)));
        }
        if !self.metrics.is_empty() {
            pairs.push((
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::num(*v)))
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Measurement, String> {
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or("measurement missing 'id'")?
            .to_string();
        let kind = Kind::parse(
            v.get("kind")
                .and_then(Json::as_str)
                .ok_or("measurement missing 'kind'")?,
        )?;
        let mut metrics = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("metrics") {
            for (k, val) in pairs {
                metrics.push((
                    k.clone(),
                    val.as_f64()
                        .ok_or_else(|| format!("metric '{k}' not a number"))?,
                ));
            }
        }
        Ok(Measurement {
            id,
            kind,
            reps: v.get("reps").and_then(Json::as_u64).unwrap_or(0),
            median_s: v.get("median_s").and_then(Json::as_f64),
            mad_s: v.get("mad_s").and_then(Json::as_f64),
            gflops: v.get("gflops").and_then(Json::as_f64),
            metrics,
        })
    }
}

/// Run metadata stamped into every report, for provenance and for the
/// compare gate's cross-host warning.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// `git rev-parse --short=12 HEAD`, or `"unknown"` outside a repo.
    pub git_sha: String,
    /// `rustc --version` of the toolchain on the PATH.
    pub rustc: String,
    /// Host logical core count.
    pub host_cores: u64,
    /// Workload RNG seed (`--seed`).
    pub seed: u64,
    /// Thread counts of interest (`--threads`; used by the models).
    pub threads: Vec<u64>,
    /// `--full` configuration.
    pub full: bool,
    /// `--smoke` configuration (the fast CI gate).
    pub smoke: bool,
    /// Seconds since the Unix epoch at report creation.
    pub unix_time_s: u64,
}

impl RunMeta {
    /// Capture metadata for the current process and parsed options.
    pub fn capture(opts: &Opts) -> RunMeta {
        RunMeta {
            git_sha: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            host_cores: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1) as u64,
            seed: opts.seed,
            threads: opts.threads.iter().map(|&t| t as u64).collect(),
            full: opts.full,
            smoke: opts.smoke,
            unix_time_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("git_sha", Json::str(&self.git_sha)),
            ("rustc", Json::str(&self.rustc)),
            ("host_cores", Json::num(self.host_cores as f64)),
            ("seed", Json::num(self.seed as f64)),
            (
                "threads",
                Json::Arr(self.threads.iter().map(|&t| Json::num(t as f64)).collect()),
            ),
            ("full", Json::Bool(self.full)),
            ("smoke", Json::Bool(self.smoke)),
            ("unix_time_s", Json::num(self.unix_time_s as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<RunMeta, String> {
        let threads = match v.get("threads") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|t| t.as_u64().ok_or("non-numeric thread count"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(RunMeta {
            git_sha: v
                .get("git_sha")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            rustc: v
                .get("rustc")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            host_cores: v.get("host_cores").and_then(Json::as_u64).unwrap_or(0),
            seed: v.get("seed").and_then(Json::as_u64).unwrap_or(0),
            threads,
            full: v.get("full").and_then(Json::as_bool).unwrap_or(false),
            smoke: v.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            unix_time_s: v.get("unix_time_s").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A complete telemetry report for one artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Artifact name — the binary name, also the JSON file stem.
    pub artifact: String,
    /// Run provenance.
    pub meta: RunMeta,
    /// All recorded measurements, in recording order.
    pub measurements: Vec<Measurement>,
}

impl Report {
    /// Serialize to the schema-versioned JSON tree.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::num(SCHEMA_VERSION as f64)),
            ("artifact", Json::str(&self.artifact)),
            ("meta", self.meta.to_json()),
            (
                "measurements",
                Json::Arr(self.measurements.iter().map(Measurement::to_json).collect()),
            ),
        ])
    }

    /// Deserialize from a parsed JSON tree.
    pub fn from_json(v: &Json) -> Result<Report, String> {
        let version = v
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let artifact = v
            .get("artifact")
            .and_then(Json::as_str)
            .ok_or("missing artifact")?
            .to_string();
        let meta = RunMeta::from_json(v.get("meta").ok_or("missing meta")?)?;
        let measurements = v
            .get("measurements")
            .and_then(Json::as_arr)
            .ok_or("missing measurements")?
            .iter()
            .map(Measurement::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Report {
            artifact,
            meta,
            measurements,
        })
    }

    /// Load a report from a JSON file.
    pub fn load(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        Report::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Load every `*.json` report in a directory, sorted by artifact.
    pub fn load_dir(dir: &Path) -> Result<Vec<Report>, String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let mut reports = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                reports.push(Report::load(&path)?);
            }
        }
        reports.sort_by(|a, b| a.artifact.cmp(&b.artifact));
        Ok(reports)
    }

    /// Find a measurement by exact id.
    pub fn find(&self, id: &str) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.id == id)
    }

    /// Largest GFLOPS among measurements of `kind`, if any carry one.
    pub fn best_gflops(&self, kind: Kind) -> Option<f64> {
        self.measurements
            .iter()
            .filter(|m| m.kind == kind)
            .filter_map(|m| m.gflops)
            .fold(None, |acc, g| Some(acc.map_or(g, |a: f64| a.max(g))))
    }

    /// Largest GFLOPS among measurements of `kind` whose id starts with
    /// `prefix`.
    pub fn best_gflops_with_prefix(&self, kind: Kind, prefix: &str) -> Option<f64> {
        self.measurements
            .iter()
            .filter(|m| m.kind == kind && m.id.starts_with(prefix))
            .filter_map(|m| m.gflops)
            .fold(None, |acc, g| Some(acc.map_or(g, |a: f64| a.max(g))))
    }
}

/// Builds a [`Report`] incrementally and writes it on
/// [`Reporter::finish`]. Construct one per binary right after
/// [`Opts::parse`].
pub struct Reporter {
    report: Report,
    dir: PathBuf,
}

impl Reporter {
    /// New reporter for `artifact` (the binary name); the output
    /// directory comes from `--json-dir` (default `results/json`,
    /// relative to the working directory).
    pub fn new(artifact: &str, opts: &Opts) -> Reporter {
        Reporter {
            report: Report {
                artifact: artifact.to_string(),
                meta: RunMeta::capture(opts),
                measurements: Vec::new(),
            },
            dir: PathBuf::from(opts.json_dir.as_deref().unwrap_or("results/json")),
        }
    }

    /// Record a raw measurement.
    pub fn add(&mut self, m: Measurement) {
        debug_assert!(
            self.report.find(&m.id).is_none(),
            "duplicate measurement id {:?}",
            m.id
        );
        self.report.measurements.push(m);
    }

    /// Record a wall-clock measurement from [`TimeStats`]; `flops`, when
    /// known, also derives a GFLOPS figure from the median.
    pub fn measured(&mut self, id: impl Into<String>, stats: TimeStats, flops: Option<u64>) {
        self.add(Measurement {
            id: id.into(),
            kind: Kind::Measured,
            reps: stats.reps as u64,
            median_s: Some(stats.median_s),
            mad_s: Some(stats.mad_s),
            gflops: flops.map(|f| f as f64 / stats.median_s / 1e9),
            metrics: Vec::new(),
        });
    }

    /// Record a measured throughput where only the rate is known (e.g.
    /// the streaming micro-benchmark, which times itself internally).
    pub fn measured_gflops(&mut self, id: impl Into<String>, gflops: f64) {
        self.add(Measurement {
            id: id.into(),
            kind: Kind::Measured,
            reps: 1,
            median_s: None,
            mad_s: None,
            gflops: Some(gflops),
            metrics: Vec::new(),
        });
    }

    /// Record a model-predicted throughput.
    pub fn modeled_gflops(&mut self, id: impl Into<String>, gflops: f64) {
        self.add(Measurement {
            id: id.into(),
            kind: Kind::Modeled,
            reps: 0,
            median_s: None,
            mad_s: None,
            gflops: Some(gflops),
            metrics: Vec::new(),
        });
    }

    /// Record an untimed record of `kind` carrying named scalar metrics.
    pub fn values(&mut self, id: impl Into<String>, kind: Kind, metrics: &[(&str, f64)]) {
        self.add(Measurement {
            id: id.into(),
            kind,
            reps: 0,
            median_s: None,
            mad_s: None,
            gflops: None,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Attach extra named scalars to the most recently added measurement.
    pub fn annotate(&mut self, metrics: &[(&str, f64)]) {
        if let Some(last) = self.report.measurements.last_mut() {
            last.metrics
                .extend(metrics.iter().map(|&(k, v)| (k.to_string(), v)));
        }
    }

    /// Number of measurements recorded so far.
    pub fn len(&self) -> usize {
        self.report.measurements.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.report.measurements.is_empty()
    }

    /// Write `<json-dir>/<artifact>.json` and return its path. Exits the
    /// process with an error on I/O failure — a benchmark run without its
    /// telemetry artifact should never look successful.
    pub fn finish(self) -> PathBuf {
        let path = self.dir.join(format!("{}.json", self.report.artifact));
        if let Err(e) = std::fs::create_dir_all(&self.dir)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                std::fs::write(&path, self.report.to_json().render()).map_err(|e| e.to_string())
            })
        {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[bench] wrote {}", path.display());
        path
    }
}

/// Fold a set of reports into the `BENCH_SUMMARY.json` tree: per-artifact
/// roll-ups plus the cross-artifact performance-trajectory headline
/// (base → permuted → tiled, measured and modeled).
pub fn summarize(reports: &[Report]) -> Json {
    let mut artifacts = Vec::new();
    for r in reports {
        let count = |k: Kind| r.measurements.iter().filter(|m| m.kind == k).count() as f64;
        let mut pairs = vec![
            ("artifact", Json::str(&r.artifact)),
            ("measurements", Json::num(r.measurements.len() as f64)),
            ("measured", Json::num(count(Kind::Measured))),
            ("modeled", Json::num(count(Kind::Modeled))),
            ("simulated", Json::num(count(Kind::Simulated))),
            ("static", Json::num(count(Kind::Static))),
        ];
        if let Some(g) = r.best_gflops(Kind::Measured) {
            pairs.push(("best_measured_gflops", Json::num(g)));
        }
        if let Some(g) = r.best_gflops(Kind::Modeled) {
            pairs.push(("best_modeled_gflops", Json::num(g)));
        }
        artifacts.push(Json::obj(pairs));
    }

    let by_name = |name: &str| reports.iter().find(|r| r.artifact == name);
    let mut trajectory = Vec::new();
    let mut dmp_tiled_pin = None;
    // Serial double max-plus: loop order + tiling, measured on this host
    // (Fig 13's measured half; the paper's Phase I story).
    if let Some(fig13) = by_name("fig13_dmp_perf") {
        let naive = fig13.best_gflops_with_prefix(Kind::Measured, "measured/naive");
        let tiled = fig13.best_gflops_with_prefix(Kind::Measured, "measured/tiled");
        if let (Some(naive), Some(tiled)) = (naive, tiled) {
            trajectory.push(("dmp_measured_naive_gflops", Json::num(naive)));
            trajectory.push(("dmp_measured_tiled_gflops", Json::num(tiled)));
            trajectory.push(("dmp_measured_tiled_vs_naive", Json::num(tiled / naive)));
            dmp_tiled_pin = Some(tiled);
        }
        if let Some(g) = fig13.best_gflops_with_prefix(Kind::Modeled, "modeled/fine + tiled") {
            // paper: 117 GFLOPS for the tiled kernel at 6 threads
            trajectory.push(("dmp_modeled_tiled_gflops", Json::num(g)));
        }
    }
    // Full BPMax: original program → hybrid+tiled (Fig 15/16 story).
    if let Some(fig15) = by_name("fig15_bpmax_perf") {
        let base = fig15.best_gflops_with_prefix(Kind::Measured, "measured/base");
        let tiled = fig15.best_gflops_with_prefix(Kind::Measured, "measured/hybrid+tiled");
        if let (Some(base), Some(tiled)) = (base, tiled) {
            trajectory.push(("bpmax_measured_base_gflops", Json::num(base)));
            trajectory.push(("bpmax_measured_hybrid_tiled_gflops", Json::num(tiled)));
            trajectory.push((
                "bpmax_measured_hybrid_tiled_vs_base",
                Json::num(tiled / base),
            ));
        }
    }
    // Register-level SIMD kernel: the "future work" tiling implemented —
    // the fused mp_axpy4 stream rate and the in-solve SimdReg point,
    // pinned against the cache-tiled dmp rate above.
    if let Some(simd) = by_name("bench_simd_kernel") {
        let axpy4 = simd.best_gflops_with_prefix(Kind::Measured, "measured/simd-axpy4");
        let solve = simd.best_gflops_with_prefix(Kind::Measured, "measured/dmp-simd");
        if let Some(g) = axpy4 {
            trajectory.push(("simd_measured_axpy4_gflops", Json::num(g)));
            if let Some(tiled) = dmp_tiled_pin {
                trajectory.push(("simd_axpy4_vs_dmp_tiled", Json::num(g / tiled)));
            }
        }
        if let Some(g) = solve {
            trajectory.push(("simd_measured_dmp_gflops", Json::num(g)));
        }
    }
    if let Some(fig16) = by_name("fig16_bpmax_speedup") {
        // paper: >100x at scale — the largest modeled speedup metric
        let best = fig16
            .measurements
            .iter()
            .filter(|m| m.kind == Kind::Modeled)
            .flat_map(|m| m.metrics.iter())
            .filter(|(k, _)| k == "speedup_vs_base")
            .map(|&(_, v)| v)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            });
        if let Some(best) = best {
            trajectory.push(("bpmax_modeled_best_speedup_vs_base", Json::num(best)));
        }
    }

    let meta = reports
        .first()
        .map(|r| r.meta.to_json())
        .unwrap_or(Json::Null);
    Json::obj(vec![
        ("schema_version", Json::num(SCHEMA_VERSION as f64)),
        ("generated_by", Json::str("bench_aggregate")),
        ("meta", meta),
        ("artifacts", Json::Arr(artifacts)),
        (
            "trajectory",
            Json::Obj(
                trajectory
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            git_sha: "abc123def456".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            host_cores: 4,
            seed: 761361,
            threads: vec![1, 6, 12],
            full: false,
            smoke: true,
            unix_time_s: 1_754_500_000,
        }
    }

    fn sample_report() -> Report {
        Report {
            artifact: "fig13_dmp_perf".to_string(),
            meta: meta(),
            measurements: vec![
                Measurement {
                    id: "measured/naive/m=16,n=16".to_string(),
                    kind: Kind::Measured,
                    reps: 3,
                    median_s: Some(1.25e-4),
                    mad_s: Some(3.0e-6),
                    gflops: Some(1.1),
                    metrics: vec![("m".to_string(), 16.0), ("n".to_string(), 16.0)],
                },
                Measurement {
                    id: "measured/tiled 64x16xN/m=16,n=16".to_string(),
                    kind: Kind::Measured,
                    reps: 3,
                    median_s: Some(0.5e-4),
                    mad_s: Some(1.0e-6),
                    gflops: Some(2.75),
                    metrics: vec![],
                },
                Measurement {
                    id: "modeled/fine + tiled/t=6/n=1024".to_string(),
                    kind: Kind::Modeled,
                    reps: 0,
                    median_s: None,
                    mad_s: None,
                    gflops: Some(117.0),
                    metrics: vec![],
                },
            ],
        }
    }

    #[test]
    fn report_roundtrips_through_json_text() {
        let r = sample_report();
        let text = r.to_json().render();
        let back = Report::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn report_load_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bench-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let r = sample_report();
        std::fs::write(dir.join("fig13_dmp_perf.json"), r.to_json().render()).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let loaded = Report::load_dir(&dir).unwrap();
        assert_eq!(loaded, vec![r]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_version_is_checked() {
        let mut v = sample_report().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::Num(99.0);
        }
        let err = Report::from_json(&v).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn best_gflops_filters_by_kind_and_prefix() {
        let r = sample_report();
        assert_eq!(r.best_gflops(Kind::Measured), Some(2.75));
        assert_eq!(r.best_gflops(Kind::Modeled), Some(117.0));
        assert_eq!(r.best_gflops(Kind::Static), None);
        assert_eq!(
            r.best_gflops_with_prefix(Kind::Measured, "measured/naive"),
            Some(1.1)
        );
    }

    #[test]
    fn summarize_computes_trajectory() {
        let mut fig15 = sample_report();
        fig15.artifact = "fig15_bpmax_perf".to_string();
        fig15.measurements = vec![
            Measurement {
                id: "measured/base/n=14".to_string(),
                kind: Kind::Measured,
                reps: 3,
                median_s: Some(1.0e-3),
                mad_s: Some(1.0e-5),
                gflops: Some(0.5),
                metrics: vec![],
            },
            Measurement {
                id: "measured/hybrid+tiled/n=14".to_string(),
                kind: Kind::Measured,
                reps: 3,
                median_s: Some(2.0e-4),
                mad_s: Some(1.0e-5),
                gflops: Some(2.5),
                metrics: vec![],
            },
        ];
        let summary = summarize(&[sample_report(), fig15]);
        let traj = summary.get("trajectory").unwrap();
        assert_eq!(
            traj.get("dmp_measured_tiled_vs_naive").unwrap().as_f64(),
            Some(2.75 / 1.1)
        );
        assert_eq!(
            traj.get("bpmax_measured_hybrid_tiled_vs_base")
                .unwrap()
                .as_f64(),
            Some(5.0)
        );
        assert_eq!(
            traj.get("dmp_modeled_tiled_gflops").unwrap().as_f64(),
            Some(117.0)
        );
        let arts = summary.get("artifacts").unwrap().as_arr().unwrap();
        assert_eq!(arts.len(), 2);
        assert_eq!(
            arts[0].get("best_measured_gflops").unwrap().as_f64(),
            Some(2.75)
        );
    }

    #[test]
    fn summarize_pins_simd_kernel_against_dmp_tiled() {
        let mut simd = sample_report();
        simd.artifact = "bench_simd_kernel".to_string();
        simd.measurements = vec![
            Measurement {
                id: "measured/simd-axpy4/len=1024".to_string(),
                kind: Kind::Measured,
                reps: 1,
                median_s: None,
                mad_s: None,
                gflops: Some(11.0),
                metrics: vec![],
            },
            Measurement {
                id: "measured/dmp-simd/m=32,n=32".to_string(),
                kind: Kind::Measured,
                reps: 3,
                median_s: Some(1.0e-3),
                mad_s: Some(1.0e-5),
                gflops: Some(2.2),
                metrics: vec![],
            },
        ];
        let summary = summarize(&[sample_report(), simd]);
        let traj = summary.get("trajectory").unwrap();
        assert_eq!(
            traj.get("simd_measured_axpy4_gflops").unwrap().as_f64(),
            Some(11.0)
        );
        assert_eq!(
            traj.get("simd_measured_dmp_gflops").unwrap().as_f64(),
            Some(2.2)
        );
        // pinned against fig13's best tiled rate (2.75 in the sample)
        assert_eq!(
            traj.get("simd_axpy4_vs_dmp_tiled").unwrap().as_f64(),
            Some(11.0 / 2.75)
        );
    }

    #[test]
    fn summarize_empty_is_valid() {
        let summary = summarize(&[]);
        assert_eq!(summary.get("artifacts").unwrap().as_arr().unwrap().len(), 0);
        // still parseable after render
        crate::json::parse(&summary.render()).unwrap();
    }
}
