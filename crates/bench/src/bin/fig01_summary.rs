//! Fig 1 — summary of the optimization results.
//!
//! The paper's opening figure: speedup of the optimized (hybrid + tiled)
//! `BPMax` over the original program, and fraction of machine peak reached,
//! on both Xeons. Here: the measured serial part on this machine plus the
//! modeled 6-thread (E5-1650v4) and 8-thread (E-2278G) numbers.

use bench::report::Reporter;
use bench::{banner, f1, f2, model, time_stats, workload, Opts, Table};
use bpmax::kernels::Tile;
use bpmax::perfmodel::{predict_bpmax_gflops, predict_bpmax_seconds, BpMaxVariant, CostModel};
use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use machine::spec::MachineSpec;
use machine::traffic;
use simsched::speedup::HtModel;

/// Solve with `alg` (`hybrid+tiled` runs the paper's Phase III tiled
/// `R0`).
fn solve(p: &BpMaxProblem, alg: Algorithm) -> bpmax::FTable {
    p.solve_opts(&SolveOptions::new().algorithm(alg))
        .expect("unsupervised bench solve")
        .into_ftable()
}

fn main() {
    let opts = Opts::parse(&[12, 18, 24], &[]);
    let mut rep = Reporter::new("fig01_summary", &opts);
    banner(
        "Fig 1",
        "summary of the optimization results",
        ">100x speedup over the original BPMax; ~1/4..1/5 of theoretical max-plus peak",
    );

    println!("\n--- measured on this machine (1 thread) ---");
    let mut t = Table::new(&["M=N", "base s", "tiled s", "speedup", "tiled GFLOPS"]);
    for &n in &opts.sizes {
        let (s1, s2) = workload(opts.seed, n, n);
        let p = BpMaxProblem::new(s1, s2, model());
        let reps = opts.reps(if n <= 14 { 3 } else { 1 });
        let sb = time_stats(reps, || solve(&p, Algorithm::Baseline));
        let st = time_stats(reps, || {
            solve(
                &p,
                Algorithm::HybridTiled {
                    tile: Tile::default(),
                },
            )
        });
        let (tb, tt) = (sb.median_s, st.median_s);
        rep.measured(format!("measured/base/n={n}"), sb, Some(p.flops()));
        rep.annotate(&[("n", n as f64)]);
        rep.measured(format!("measured/hybrid+tiled/n={n}"), st, Some(p.flops()));
        rep.annotate(&[("n", n as f64), ("speedup_vs_base", tb / tt)]);
        t.row(vec![
            n.to_string(),
            format!("{tb:.4}"),
            format!("{tt:.4}"),
            f1(tb / tt),
            f2(p.flops() as f64 / tt / 1e9),
        ]);
    }
    t.print();

    println!("\n--- modeled on the paper's machines (full thread counts) ---");
    let cm = CostModel::nominal(); // representative per-core Xeon rates (see perfmodel)
    let n = if opts.full { 512 } else { 128 };
    let mut t = Table::new(&[
        "machine",
        "threads",
        "base 1T s",
        "tiled s",
        "speedup",
        "GFLOPS",
        "% of peak",
    ]);
    for spec in [MachineSpec::xeon_e5_1650v4(), MachineSpec::xeon_e_2278g()] {
        let ht = HtModel {
            physical: spec.cores,
            smt_efficiency: 0.15,
        };
        let threads = spec.cores;
        let base = predict_bpmax_seconds(BpMaxVariant::Base, n, n, 1, &cm, &spec, ht);
        let tiled = predict_bpmax_seconds(BpMaxVariant::Tiled, n, n, threads, &cm, &spec, ht);
        let g = predict_bpmax_gflops(BpMaxVariant::Tiled, n, n, threads, &cm, &spec, ht);
        rep.modeled_gflops(format!("modeled/{}/t={threads}/n={n}", spec.name), g);
        rep.annotate(&[
            ("speedup_vs_base_1t", base / tiled),
            ("pct_of_peak", 100.0 * g / spec.socket_peak_gflops()),
        ]);
        t.row(vec![
            spec.name.to_string(),
            threads.to_string(),
            format!("{base:.2}"),
            format!("{tiled:.3}"),
            f1(base / tiled),
            f1(g),
            f1(100.0 * g / spec.socket_peak_gflops()),
        ]);
    }
    t.print();
    rep.finish();
    println!(
        "\n(problem size {n} x {n}: {} reduction GFLOP total)",
        f2(traffic::bpmax_flops(n, n) as f64 / 1e9)
    );
}
