//! Fig 15 — full-BPMax performance by program version.
//!
//! Measured part: every runnable program version on this machine
//! (results are asserted identical across versions — the benchmark is also
//! a correctness check). Modeled part: the five paper curves at 6 threads
//! on the paper's Xeon, fine-grain and hybrid included. Expected shape:
//! base ≪ coarse/fine < hybrid < hybrid+tiled (paper: ~76 GFLOPS for the
//! tiled full program, ~60% below the pure kernel because of R1/R2).

use bench::report::Reporter;
use bench::{banner, f2, gflops, model, time_stats, workload, Opts, Table};
use bpmax::perfmodel::{predict_bpmax_gflops, BpMaxVariant, CostModel};
use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use machine::spec::MachineSpec;
use simsched::speedup::HtModel;

/// Solve with `alg` (`hybrid+tiled` runs the paper's Phase III tiled
/// `R0`).
fn solve(p: &BpMaxProblem, alg: Algorithm) -> bpmax::FTable {
    p.solve_opts(&SolveOptions::new().algorithm(alg))
        .expect("unsupervised bench solve")
        .into_ftable()
}

fn main() {
    let opts = Opts::parse(&[10, 14, 18, 24], &[6]);
    let mut rep = Reporter::new("fig15_bpmax_perf", &opts);
    banner(
        "Fig 15",
        "BPMax performance comparison",
        "hybrid+tiled best (~76 GFLOPS); coarse & fine worst among optimized; R1/R2 cap the program",
    );

    println!("\n--- measured, this machine (GFLOPS) ---");
    println!(
        "(note: coarse, hybrid+tiled and hybrid+reg split a diagonal's triangles across\n \
         threads only past the split cutoff, which no diagonal of an M=N<=24 solve reaches;\n \
         the paper's fine-grain and hybrid schedules are modeled below, not run)"
    );
    let algs = Algorithm::ALL;
    let mut header = vec!["M=N".to_string()];
    header.extend(algs.iter().map(|a| a.label().to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for &n in &opts.sizes {
        let (s1, s2) = workload(opts.seed, n, n);
        let p = BpMaxProblem::new(s1, s2, model());
        let flops = p.flops();
        let reference = solve(&p, Algorithm::Permuted).final_score();
        let mut cells = vec![n.to_string()];
        for &alg in algs {
            let reps = opts.reps(if n <= 14 { 3 } else { 1 });
            let stats = time_stats(reps, || solve(&p, alg));
            assert_eq!(
                solve(&p, alg).final_score(),
                reference,
                "version {alg:?} disagrees"
            );
            rep.measured(
                format!("measured/{}/n={n}", alg.label()),
                stats,
                Some(flops),
            );
            rep.annotate(&[("n", n as f64)]);
            cells.push(f2(gflops(flops, stats.median_s)));
        }
        t.row(cells);
    }
    t.print();

    println!("\n--- modeled, 6 threads, paper machine (GFLOPS) ---");
    let cm = CostModel::nominal(); // representative per-core Xeon rates (see perfmodel)
    let spec = MachineSpec::xeon_e5_1650v4();
    let ht = HtModel {
        physical: spec.cores,
        smt_efficiency: 0.15,
    };
    let sizes: Vec<usize> = if opts.full {
        vec![64, 128, 256, 512, 1024]
    } else {
        vec![64, 128, 256, 512]
    };
    let curves = [
        BpMaxVariant::Base,
        BpMaxVariant::Coarse,
        BpMaxVariant::Fine,
        BpMaxVariant::Hybrid,
        BpMaxVariant::Tiled,
    ];
    let mut header = vec!["M=N".to_string()];
    header.extend(curves.iter().map(|v| v.label().to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for &n in &sizes {
        let mut cells = vec![n.to_string()];
        for &v in &curves {
            let g = predict_bpmax_gflops(v, n, n, opts.threads[0], &cm, &spec, ht);
            rep.modeled_gflops(
                format!("modeled/{}/t={}/n={n}", v.label(), opts.threads[0]),
                g,
            );
            cells.push(f2(g));
        }
        t.row(cells);
    }
    t.print();
    rep.finish();
}
