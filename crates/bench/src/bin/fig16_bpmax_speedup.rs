//! Fig 16 — full-BPMax speedup over the original program.
//!
//! Measured serial speedups on this machine (loop order + locality only)
//! plus the modeled 6-thread speedup on the paper's Xeon. Paper headline:
//! ">100× speedup for longer sequence lengths with 6 threads" for the
//! hybrid+tiled version.

use bench::report::Reporter;
use bench::{banner, f1, model, time_stats, workload, Opts, Table};
use bpmax::kernels::Tile;
use bpmax::perfmodel::{predict_bpmax_seconds, CostModel};
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
    let mut rep = Reporter::new("fig16_bpmax_speedup", &opts);
    banner(
        "Fig 16",
        "BPMax speedup comparison (vs original program)",
        ">100x at scale with 6 threads for hybrid+tiled",
    );

    println!("\n--- measured serial speedup vs baseline, this machine ---");
    println!("(hybrid runs the serial traversal like every version but base; see modeled table)");
    let mut t = Table::new(&["M=N", "permuted", "hybrid", "hybrid+tiled"]);
    for &n in &opts.sizes {
        let (s1, s2) = workload(opts.seed, n, n);
        let p = BpMaxProblem::new(s1, s2, model());
        let reps = opts.reps(if n <= 14 { 3 } else { 1 });
        let flops = p.flops();
        let s_base = time_stats(reps, || solve(&p, Algorithm::Baseline));
        let t_base = s_base.median_s;
        rep.measured(format!("measured/base/n={n}"), s_base, Some(flops));
        let mut cells = vec![n.to_string()];
        for alg in [
            Algorithm::Permuted,
            Algorithm::Hybrid,
            Algorithm::HybridTiled {
                tile: Tile::default(),
            },
        ] {
            let stats = time_stats(reps, || solve(&p, alg));
            rep.measured(
                format!("measured/{}/n={n}", alg.label()),
                stats,
                Some(flops),
            );
            rep.annotate(&[("speedup_vs_base", t_base / stats.median_s)]);
            cells.push(f1(t_base / stats.median_s));
        }
        t.row(cells);
    }
    t.print();

    println!("\n--- modeled speedup vs baseline, 6 threads, paper machine ---");
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
        Algorithm::CoarseGrain,
        Algorithm::FineGrain,
        Algorithm::Hybrid,
        Algorithm::HybridTiled {
            tile: Tile::default(),
        },
    ];
    let mut header = vec!["M=N".to_string()];
    header.extend(curves.iter().map(|a| a.label().to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for &n in &sizes {
        let base = predict_bpmax_seconds(Algorithm::Baseline, n, n, 1, &cm, &spec, ht);
        let mut cells = vec![n.to_string()];
        for &alg in &curves {
            let s = predict_bpmax_seconds(alg, n, n, opts.threads[0], &cm, &spec, ht);
            rep.values(
                format!("modeled/{}/t={}/n={n}", alg.label(), opts.threads[0]),
                bench::report::Kind::Modeled,
                &[("speedup_vs_base", base / s)],
            );
            cells.push(f1(base / s));
        }
        t.row(cells);
    }
    t.print();
    rep.finish();
}
