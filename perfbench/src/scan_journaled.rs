//! `scan-journaled`: one caller; each op is one `scan --batch
//! --checkpoint-dir` wave — a fresh seeded 12-nt query against a 200-nt
//! target with window 16, i.e. 200 small problems solved through
//! `BatchEngine::solve_all_checkpointed` into a fresh checkpoint
//! directory on a memory-backed filesystem.

use crate::host::{self, Witness};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Config, RunResult, Timings};
use bpmax::kernels::Ctx;
use bpmax::{BatchEngine, BatchOptions, BatchReport, BpMaxProblem, Outcome};
use rna::{RnaSeq, ScoringModel};
use std::path::{Path, PathBuf};
use std::time::Instant;

const QUERY: usize = 12;
const TARGET: usize = 200;
const WINDOW: usize = 16;
/// Ops (waves) per second of `--seconds`.
const OPS_PER_S: f64 = 4.0;
/// Set-up probes per run (the median is reported).
const PROBES: usize = 15;
/// Journal root: a tmpfs, so disk latency cannot swamp the journal's
/// own cost (on the ext4 disk, waves jumped 2× for 10–30 s at a time).
const JOURNAL_DIR: &str = "runs/journal";
/// Disk-backed journal root for the traced `checkpoint.disk_tax_x` only.
const DISK_DIR: &str = "runs/disk-journal";
/// Disk-journaled waves behind `checkpoint.disk_tax_x`.
const DISK_WAVES: usize = 3;

/// Probe mode: the program's once-per-process set-up of this workload.
pub fn probe() -> Result<(), String> {
    BatchEngine::new(BatchOptions::new()).map_err(|e| e.to_string())?;
    println!("ready");
    Ok(())
}

/// One window problem per start position, as `scan --batch` builds them.
fn windows(query: &RnaSeq, target: &RnaSeq, model: &ScoringModel) -> Vec<BpMaxProblem> {
    (0..target.len())
        .map(|s| {
            let e = (s + WINDOW).min(target.len());
            BpMaxProblem::new(query.clone(), target.slice(s, e), model.clone())
        })
        .collect()
}

/// Windows ranked as `scan --batch` ranks them: score descending, then
/// start ascending.
fn rank(report: &BatchReport) -> Vec<(usize, f32)> {
    let mut ranked: Vec<(usize, f32)> = report
        .items
        .iter()
        .filter(|i| i.outcome.has_score())
        .map(|i| (i.index, i.score))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(i, s)| (i, s.to_bits())).collect()
}

/// Per-wave layer readings of a traced run (times already adjusted).
#[derive(Default)]
struct Layers {
    item_s: Vec<f64>,
    items_total_s: f64,
    batch_s: f64,
    coarse: Vec<f64>,
    flops: f64,
    tax: Vec<f64>,
    pred_over_meas: Vec<f64>,
}

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    // Before any thread exists: a private tmpfs for the journals.
    let journal = Path::new(JOURNAL_DIR);
    let fstype = host::private_tmpfs(journal)
        .map_err(|e| format!("mounting a tmpfs on {JOURNAL_DIR}: {e}"))?;
    if !host::memory_backed(&fstype) {
        return Err(format!(
            "refusing to run: journal dir {JOURNAL_DIR} is on {fstype}, not a memory-backed filesystem"
        ));
    }
    res.line(format!("journal dir: {JOURNAL_DIR} ({fstype})"));
    let mut witness = Witness::default();
    let (setup_raw, setup_adj) = crate::probe_setup(cfg, PROBES)?;
    let engine = BatchEngine::new(BatchOptions::new()).map_err(|e| e.to_string())?;
    let model = ScoringModel::bpmax_default();
    let mut rng = Rng::new(cfg.seed, 2);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut raw, mut adj, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut allocated, mut reused, mut wchar, mut syscw) = (0, 0, 0, 0);
    let mut last = Vec::new();
    let ops = cfg.ops(OPS_PER_S);
    for op in 0..ops {
        let (query, target) = (rng.seq(QUERY), rng.seq(TARGET));
        let dir = journal.join(format!("wave-{op}"));
        tracer.on = cfg.trace && op % 2 == 0;
        let pool0 = engine.pool_stats();
        let io0 = host::io_counters();
        let before = witness.sample();
        let t = Instant::now();
        let root = tracer.open("op", op);
        let problems = tracer.time("rna", op, root, || windows(&query, &target, &model));
        let t_batch = Instant::now();
        let report = tracer.time("batch", op, root, || {
            engine.solve_all_checkpointed(&problems, &dir)
        });
        let batch_raw = t_batch.elapsed().as_secs_f64();
        let ranked = report.as_ref().ok().map(rank);
        tracer.close(root);
        let dt = t.elapsed().as_secs_f64();
        let factor = host::factor(before, witness.sample(), host::ALPHA);
        let batch_s = batch_raw * factor;
        let (io1, pool1) = (host::io_counters(), engine.pool_stats());
        raw.push(dt);
        adj.push(dt * factor);
        factors.push(factor);
        res.attempted += 1;
        if op > 0 {
            allocated += pool1.allocated - pool0.allocated;
            reused += pool1.reused - pool0.reused;
        }
        wchar += io1.0 - io0.0;
        syscw += io1.1 - io0.1;

        // Checks, outside the timed region.
        let _ = std::fs::remove_dir_all(&dir);
        let (Ok(report), Some(mut ranked)) = (report, ranked) else {
            res.fail(format!("op {op}: batch failed"));
            continue;
        };
        if cfg.flip && op == 0 {
            ranked[0].1 = f32::from_bits(ranked[0].1.to_bits() ^ 1);
        }
        let expected = bpmax::windowed::scan_ranked(
            &Ctx::new(query.clone(), target.clone(), model.clone()),
            WINDOW,
        );
        if report.replayed != 0 {
            res.fail(format!(
                "op {op}: {} windows replayed from a fresh checkpoint",
                report.replayed
            ));
        } else if report.items.iter().any(|i| i.outcome != Outcome::Ok) {
            res.fail(format!("op {op}: outcomes {}", report.outcomes()));
        } else if bits(&ranked) != bits(&expected) {
            res.fail(format!(
                "op {op}: ranking differs from windowed::scan_ranked"
            ));
        }
        if tracer.on {
            let items: f64 = report.items.iter().map(|i| i.seconds * factor).sum();
            layers
                .item_s
                .extend(report.items.iter().map(|i| i.seconds * factor));
            layers.items_total_s += items;
            layers.batch_s += batch_s;
            layers.coarse.push(report.coarse_fraction());
            layers.flops += report.total_flops() as f64;
            let predicted: f64 = problems
                .iter()
                .map(|p| engine.predict_seconds(p, &engine.options().solve))
                .sum();
            layers.pred_over_meas.push(predicted / items);
            let plain = plain_wave(&engine, &problems, &mut witness)?;
            layers.tax.push(batch_s / plain);
        }
        last = problems;
    }
    crate::check_witness(&witness)?;
    crate::host_record(&mut res, &witness);
    if !cfg.trace {
        let (wall_raw, wall_adj) = (raw.iter().sum(), adj.iter().sum());
        Timings {
            blocks: vec![raw],
            walls: vec![wall_raw],
            tail: 90.0,
        }
        .report(&mut res, "raw", false);
        Timings {
            blocks: vec![adj],
            walls: vec![wall_adj],
            tail: 90.0,
        }
        .report(&mut res, "adjusted", true);
        res.line(format!(
            "setup_s: raw {setup_raw:.6}  adjusted {setup_adj:.6}  (median of {PROBES} probes)"
        ));
        res.set("setup_s", setup_adj);
        res.set("peak_rss_mib", host::peak_rss_mib());
        return Ok(res);
    }

    // The journal on the disk, for scale only.
    let disk = Path::new(DISK_DIR);
    std::fs::create_dir_all(disk).map_err(|e| format!("creating {DISK_DIR}: {e}"))?;
    res.line(format!(
        "disk journal dir: {DISK_DIR} ({})",
        host::fs_type(disk)
    ));
    let mut disk_tax = Vec::new();
    for wave in 0..DISK_WAVES {
        let dir: PathBuf = disk.join(format!("wave-{wave}"));
        let before = witness.sample();
        let t = Instant::now();
        engine
            .solve_all_checkpointed(&last, &dir)
            .map_err(|e| format!("disk-journaled wave: {e}"))?;
        let dt = t.elapsed().as_secs_f64();
        let journaled = dt * host::factor(before, witness.sample(), host::ALPHA);
        let _ = std::fs::remove_dir_all(&dir);
        disk_tax.push(journaled / plain_wave(&engine, &last, &mut witness)?);
    }

    let scaled = |name: &str| -> Vec<f64> {
        tracer
            .durations(name)
            .into_iter()
            .map(|(op, d)| d * factors[op])
            .collect()
    };
    let (rna, op_s) = (scaled("rna"), scaled("op"));
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let waves = ops as f64;
    let gflops = layers.flops / layers.items_total_s / 1e9;
    let ceiling = crate::kernel_ceiling_gflops(Some(&mut witness));
    res.set("rna.build_us", stats::median(&rna) / TARGET as f64 * 1e6);
    res.set("rna.share", sum(&rna) / sum(&op_s));
    res.set("engine.solve_gflops", gflops);
    res.set("engine.solve_share", layers.items_total_s / sum(&op_s));
    res.set("kernels.ceiling_gflops", ceiling);
    res.set("kernels.gap_x", ceiling / gflops);
    res.set("batch.item_us_p50", stats::median(&layers.item_s) * 1e6);
    res.set(
        "batch.overhead_share",
        1.0 - layers.items_total_s / layers.batch_s,
    );
    res.set("batch.coarse_fraction", stats::median(&layers.coarse));
    res.set(
        "ftable.allocs_per_op",
        allocated as f64 / (waves - 1.0).max(1.0),
    );
    res.set(
        "ftable.reuse_ratio",
        reused as f64 / ((allocated + reused) as f64).max(1.0),
    );
    res.set("checkpoint.tax_x", stats::median(&layers.tax));
    res.set(
        "checkpoint.bytes_per_window",
        wchar as f64 / (waves * TARGET as f64),
    );
    res.set(
        "checkpoint.writes_per_window",
        syscw as f64 / (waves * TARGET as f64),
    );
    res.set("checkpoint.disk_tax_x", stats::median(&disk_tax));
    res.set(
        "perfmodel.pred_over_meas",
        stats::median(&layers.pred_over_meas),
    );
    crate::trace_overhead(&mut res, &adj, 1.0);
    crate::finish_trace(cfg, &mut res, &tracer);
    Ok(res)
}

/// Adjusted seconds of a plain `solve_all` wave over `problems`.
fn plain_wave(
    engine: &BatchEngine,
    problems: &[BpMaxProblem],
    witness: &mut Witness,
) -> Result<f64, String> {
    let before = witness.sample();
    let t = Instant::now();
    engine
        .solve_all(problems)
        .map_err(|e| format!("plain wave: {e}"))?;
    let dt = t.elapsed().as_secs_f64();
    Ok(dt * host::factor(before, witness.sample(), host::ALPHA))
}
