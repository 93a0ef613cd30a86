//! Shared harness utilities for the figure/table binaries.
//!
//! Every evaluation artifact of the paper has a binary in `src/bin/`
//! (`fig01_summary` … `table06_codegen_loc`). They share: seeded workload
//! generation, wall-clock measurement with warm-up, GFLOPS accounting,
//! aligned-table printing, structured JSON telemetry ([`report`]), and a
//! tiny CLI parser (`--sizes 16,32,48`, `--threads 6`, `--full`,
//! `--seed 7`, `--reps 5`, `--smoke`, `--json-dir DIR`).
//!
//! Run everything with `./run_all_figures.sh` or individually:
//!
//! ```text
//! cargo run -p bench --release --bin fig15_bpmax_perf -- --sizes 16,24,32
//! ```
//!
//! Alongside its text table, every binary writes
//! `results/json/<name>.json` (see [`report`] for the schema); the
//! `bench_compare` binary gates CI on those reports and
//! `bench_aggregate` folds them into `BENCH_SUMMARY.json`.
#![forbid(unsafe_code)]

pub mod dmp;
pub mod json;
pub mod report;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rna::{RnaSeq, ScoringModel};
use std::time::Instant;

/// Parsed common CLI options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Opts {
    /// Sequence sizes to sweep.
    pub sizes: Vec<usize>,
    /// Thread counts of interest (for model predictions).
    pub threads: Vec<usize>,
    /// Larger, slower, closer-to-paper configuration.
    pub full: bool,
    /// Fast small-size configuration for the CI regression gate; tags
    /// the telemetry report and shrinks self-calibrating workloads.
    pub smoke: bool,
    /// RNG seed for workloads.
    pub seed: u64,
    /// Repetition-count override for timed measurements (`--reps`).
    pub reps_override: Option<usize>,
    /// Output directory for the JSON report (`--json-dir`); default
    /// `results/json`.
    pub json_dir: Option<String>,
}

const USAGE: &str = "options: --sizes a,b,c  --threads a,b  --seed N  --reps N  \
--json-dir DIR  --smoke  --full";

impl Opts {
    /// Parse from `std::env::args`, with per-binary defaults. Prints
    /// usage and exits 0 on `--help`, or exits 2 on a malformed command
    /// line.
    pub fn parse(default_sizes: &[usize], default_threads: &[usize]) -> Opts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        match Opts::try_parse(&args, default_sizes, default_threads) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Fallible parser behind [`Opts::parse`]; `args` excludes the
    /// program name.
    pub fn try_parse(
        args: &[String],
        default_sizes: &[usize],
        default_threads: &[usize],
    ) -> Result<Opts, String> {
        let mut opts = Opts {
            sizes: default_sizes.to_vec(),
            threads: default_threads.to_vec(),
            full: false,
            smoke: false,
            seed: 0xB9A11,
            reps_override: None,
            json_dir: None,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .ok_or_else(|| format!("missing value after {flag}"))
            };
            match flag.as_str() {
                "--sizes" => opts.sizes = parse_list(value()?, "--sizes")?,
                "--threads" => opts.threads = parse_list(value()?, "--threads")?,
                "--seed" => {
                    let v = value()?;
                    opts.seed = v
                        .parse()
                        .map_err(|e| format!("invalid --seed '{v}': {e}"))?;
                }
                "--reps" => {
                    let v = value()?;
                    let reps: usize = v
                        .parse()
                        .map_err(|e| format!("invalid --reps '{v}': {e}"))?;
                    if reps == 0 {
                        return Err("--reps must be at least 1".to_string());
                    }
                    opts.reps_override = Some(reps);
                }
                "--json-dir" => opts.json_dir = Some(value()?.clone()),
                "--full" => opts.full = true,
                "--smoke" => opts.smoke = true,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(opts)
    }

    /// Repetitions for a timed measurement: the `--reps` override if
    /// given, else the binary's size-dependent default.
    pub fn reps(&self, default: usize) -> usize {
        self.reps_override.unwrap_or(default).max(1)
    }
}

fn parse_list(text: &str, flag: &str) -> Result<Vec<usize>, String> {
    let items = text
        .split(',')
        .map(|s| {
            let s = s.trim();
            s.parse::<usize>()
                .map_err(|e| format!("invalid {flag} item '{s}': {e}"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    if items.is_empty() || items.contains(&0) {
        return Err(format!("{flag} items must be positive integers"));
    }
    Ok(items)
}

/// Deterministic random sequence pair of lengths `(m, n)`.
pub fn workload(seed: u64, m: usize, n: usize) -> (RnaSeq, RnaSeq) {
    let mut rng = StdRng::seed_from_u64(seed ^ ((m as u64) << 24) ^ n as u64);
    (RnaSeq::random(&mut rng, m), RnaSeq::random(&mut rng, n))
}

/// The scoring model every harness binary uses.
pub fn model() -> ScoringModel {
    ScoringModel::bpmax_default()
}

/// Wall-clock statistics of a repeated measurement: the median and the
/// median absolute deviation (MAD) — the robust noise estimate the
/// `bench_compare` regression gate thresholds against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeStats {
    /// Number of timed repetitions.
    pub reps: usize,
    /// Median wall time in seconds.
    pub median_s: f64,
    /// Median absolute deviation from the median, in seconds (0 when
    /// `reps == 1`).
    pub mad_s: f64,
}

impl TimeStats {
    /// Median + MAD of wall times already taken, in seconds (at least one).
    pub fn from_samples(mut times: Vec<f64>) -> TimeStats {
        times.sort_by(f64::total_cmp);
        let median_s = times[times.len() / 2];
        let mut devs: Vec<f64> = times.iter().map(|&t| (t - median_s).abs()).collect();
        devs.sort_by(f64::total_cmp);
        TimeStats {
            reps: times.len(),
            median_s,
            mad_s: devs[devs.len() / 2],
        }
    }
}

/// Wall time of one call, in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64()
}

/// Time a closure: one warm-up call, then `reps` timed calls summarized
/// as median + MAD.
pub fn time_stats<T>(reps: usize, mut f: impl FnMut() -> T) -> TimeStats {
    std::hint::black_box(f());
    TimeStats::from_samples((0..reps.max(1)).map(|_| time_once(&mut f)).collect())
}

/// Time a closure: one warm-up call, then the median of `reps` timed
/// calls. Returns seconds. (See [`time_stats`] for the full statistics.)
pub fn time_median<T>(reps: usize, f: impl FnMut() -> T) -> f64 {
    time_stats(reps, f).median_s
}

/// GFLOPS from FLOP count and seconds.
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    flops as f64 / seconds / 1e9
}

/// Column-aligned table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (k, cell) in row.iter().enumerate() {
                widths[k] = widths[k].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for k in 0..ncol {
                if k > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[k], width = widths[k]));
            }
            line
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(out.len().saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Standard banner: figure id + paper reference + substitution note.
pub fn banner(id: &str, what: &str, paper_claim: &str) {
    println!("==================================================================");
    println!("{id}: {what}");
    println!("paper: {paper_claim}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let (a1, b1) = workload(7, 10, 12);
        let (a2, b2) = workload(7, 10, 12);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(a1.len(), 10);
        assert_eq!(b1.len(), 12);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "GFLOPS"]);
        t.row(vec!["16".into(), "1.25".into()]);
        t.row(vec!["2048".into(), "117.00".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("GFLOPS"));
        assert!(lines[3].contains("117.00"));
    }

    #[test]
    fn gflops_math() {
        assert_eq!(gflops(2_000_000_000, 2.0), 1.0);
    }

    #[test]
    fn time_median_is_positive() {
        let t = time_median(3, || {
            let mut s = 0u64;
            for i in 0..1000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(t > 0.0);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_checks_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn opts_defaults_when_no_args() {
        let o = Opts::try_parse(&[], &[16, 32], &[6]).unwrap();
        assert_eq!(o.sizes, vec![16, 32]);
        assert_eq!(o.threads, vec![6]);
        assert!(!o.full && !o.smoke);
        assert_eq!(o.seed, 0xB9A11);
        assert_eq!(o.reps_override, None);
        assert_eq!(o.json_dir, None);
    }

    #[test]
    fn opts_good_flags() {
        let o = Opts::try_parse(
            &args(&[
                "--sizes",
                "8, 12,16",
                "--threads",
                "1,6",
                "--seed",
                "42",
                "--reps",
                "5",
                "--json-dir",
                "/tmp/x",
                "--smoke",
                "--full",
            ]),
            &[99],
            &[99],
        )
        .unwrap();
        assert_eq!(o.sizes, vec![8, 12, 16]);
        assert_eq!(o.threads, vec![1, 6]);
        assert_eq!(o.seed, 42);
        assert_eq!(o.reps_override, Some(5));
        assert_eq!(o.json_dir.as_deref(), Some("/tmp/x"));
        assert!(o.smoke && o.full);
    }

    #[test]
    fn opts_bad_sizes() {
        for bad in ["abc", "8,x", "8,,12", "-3", "0", ""] {
            let err = Opts::try_parse(&args(&["--sizes", bad]), &[16], &[]).unwrap_err();
            assert!(err.contains("--sizes"), "{bad:?}: {err}");
        }
        let err = Opts::try_parse(&args(&["--sizes"]), &[16], &[]).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
    }

    #[test]
    fn opts_bad_threads_and_seed_and_reps() {
        assert!(Opts::try_parse(&args(&["--threads", "1,zero"]), &[], &[])
            .unwrap_err()
            .contains("--threads"));
        assert!(
            Opts::try_parse(&args(&["--seed", "not-a-number"]), &[], &[])
                .unwrap_err()
                .contains("--seed")
        );
        assert!(Opts::try_parse(&args(&["--seed"]), &[], &[])
            .unwrap_err()
            .contains("missing value"));
        assert!(Opts::try_parse(&args(&["--reps", "0"]), &[], &[])
            .unwrap_err()
            .contains("--reps"));
    }

    #[test]
    fn opts_unknown_flag() {
        let err = Opts::try_parse(&args(&["--frobnicate"]), &[], &[]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn opts_reps_helper() {
        let o = Opts::try_parse(&[], &[], &[]).unwrap();
        assert_eq!(o.reps(3), 3);
        let o = Opts::try_parse(&args(&["--reps", "7"]), &[], &[]).unwrap();
        assert_eq!(o.reps(3), 7);
    }

    #[test]
    fn time_stats_median_and_mad() {
        let mut calls = 0u32;
        let stats = time_stats(5, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(100));
        });
        assert_eq!(calls, 6, "warm-up + 5 timed");
        assert_eq!(stats.reps, 5);
        assert!(stats.median_s >= 100e-6);
        assert!(stats.mad_s >= 0.0 && stats.mad_s <= stats.median_s);
    }
}
