//! `solve-large`: the paper's workload. One caller in a closed loop;
//! each op takes a fresh seeded 40 × 40 pair through
//! `BpMaxProblem::new` → `solve_opts(&SolveOptions::new())` →
//! `traceback()`, which is what `bpmax-cli interact` does.

use crate::host::{self, Witness};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Config, RunResult, Timings};
use bpmax::{Algorithm, BatchEngine, BatchOptions, BpMaxProblem, SolveOptions};
use rna::ScoringModel;
use std::time::Instant;

/// Strand length of both strands: the 2.6 MiB F-table outgrows the
/// 2 MiB per-core L2, and R0 carries most of the flops.
const LEN: usize = 40;
/// Ops per second of `--seconds`.
const OPS_PER_S: f64 = 4.0;
/// Set-up probes per run (the median is reported).
const PROBES: usize = 15;

pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut witness = Witness::default();
    let (setup_raw, setup_adj) = crate::probe_setup(cfg, PROBES)?;
    let model = ScoringModel::bpmax_default();
    let mut rng = Rng::new(cfg.seed, 1);
    let mut tracer = Tracer::new();
    // The cost model is read only in traced runs, one call per op.
    let engine = BatchEngine::new(BatchOptions::new()).map_err(|e| e.to_string())?;
    let mut predicted = Vec::new();
    let mut flops = 0.0;
    let (mut raw, mut adj, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let ops = cfg.ops(OPS_PER_S);
    for op in 0..ops {
        let (s1, s2) = (rng.seq(LEN), rng.seq(LEN));
        tracer.on = cfg.trace && op % 2 == 0;
        let before = witness.sample();
        let t = Instant::now();
        let root = tracer.open("op", op);
        let problem = tracer.time("rna", op, root, || BpMaxProblem::new(s1, s2, model.clone()));
        let solution = tracer.time("engine", op, root, || {
            problem.solve_opts(&SolveOptions::new())
        });
        let structure = solution
            .as_ref()
            .ok()
            .map(|s| tracer.time("traceback", op, root, || s.traceback()));
        tracer.close(root);
        let dt = t.elapsed().as_secs_f64();
        let factor = host::factor(before, witness.sample(), host::ALPHA);
        raw.push(dt);
        adj.push(dt * factor);
        factors.push(factor);
        res.attempted += 1;

        // Checks, outside the timed region.
        let (Ok(solution), Some(structure)) = (solution, structure) else {
            res.fail(format!("op {op}: solve failed"));
            continue;
        };
        let mut score = solution.score();
        if cfg.flip && op == 0 {
            score = f32::from_bits(score.to_bits() ^ 1);
        }
        if let Err(e) = structure.validate(LEN, LEN) {
            res.fail(format!("op {op}: invalid traceback: {e}"));
        } else if structure.score(problem.seq1(), problem.seq2(), problem.model()) != score {
            res.fail(format!(
                "op {op}: traceback re-scores differently from {score}"
            ));
        } else if op == 0 {
            let reference = problem
                .solve_opts(&SolveOptions::new().algorithm(Algorithm::Baseline))
                .map(|s| s.score().to_bits());
            if reference != Ok(score.to_bits()) {
                res.fail(format!("op 0: baseline algorithm disagrees with {score}"));
            }
        }
        flops = problem.flops() as f64;
        if tracer.on {
            predicted.push(engine.predict_seconds(&problem, &SolveOptions::new()));
        }
    }
    crate::check_witness(&witness)?;
    crate::host_record(&mut res, &witness);
    if !cfg.trace {
        let wall_raw: f64 = raw.iter().sum();
        let wall_adj: f64 = adj.iter().sum();
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
    layers(
        &mut res,
        &tracer,
        &mut witness,
        &adj,
        &factors,
        &predicted,
        flops,
    );
    crate::finish_trace(cfg, &mut res, &tracer);
    Ok(res)
}

/// Per-layer metrics of a traced run. Even ops were traced, odd ops ran
/// bare; span times are scaled by their op's witness factor.
fn layers(
    res: &mut RunResult,
    tracer: &Tracer,
    witness: &mut Witness,
    adj: &[f64],
    factors: &[f64],
    predicted: &[f64],
    flops: f64,
) {
    let scaled = |name: &str| -> Vec<f64> {
        tracer
            .durations(name)
            .into_iter()
            .map(|(op, d)| d * factors[op])
            .collect()
    };
    let (rna, engine, traceback, ops) = (
        scaled("rna"),
        scaled("engine"),
        scaled("traceback"),
        scaled("op"),
    );
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let gflops = flops * engine.len() as f64 / sum(&engine) / 1e9;
    let ceiling = crate::kernel_ceiling_gflops(Some(witness));
    res.set("rna.build_us", stats::median(&rna) * 1e6);
    res.set("rna.share", sum(&rna) / sum(&ops));
    res.set("engine.solve_gflops", gflops);
    res.set("engine.solve_share", sum(&engine) / sum(&ops));
    res.set("kernels.ceiling_gflops", ceiling);
    res.set("kernels.gap_x", ceiling / gflops);
    res.set("traceback.share", sum(&traceback) / sum(&ops));
    let ratios: Vec<f64> = predicted.iter().zip(&engine).map(|(p, m)| p / m).collect();
    res.set("perfmodel.pred_over_meas", stats::median(&ratios));
    crate::trace_overhead(res, adj, 1.0);
}
