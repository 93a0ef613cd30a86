//! Fig 16 — full-BPMax speedup over the original program.
//!
//! Measured speedups over the original program on this machine, the
//! measured two-thread speedup of the split wavefront at M = N = 40
//! beside its modeled value, and the modeled 6-thread speedup on the
//! paper's Xeon. Paper headline: ">100× speedup for longer sequence
//! lengths with 6 threads" for the hybrid+tiled version.
//!
//! The two-thread speedup is a ratio of two wall times, so host drift
//! between timing one version and then the other lands in it whole. Each
//! round therefore times `permuted` and then `coarse` back to back, and
//! the table reports the median per-round ratio with its quartiles and
//! range. `--smoke` times one round and skips the warm-up solves: it
//! checks that the section runs, not what it measures.

use bench::report::Reporter;
use bench::{banner, f1, f2, model, time_once, time_stats, workload, Opts, Table, TimeStats};
use bpmax::kernels::Tile;
use bpmax::perfmodel::{predict_bpmax_seconds, BpMaxVariant, CostModel};
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

    println!("\n--- measured speedup vs baseline, this machine ---");
    println!("(below the split cutoff every version runs one thread; see the M=N=40 row)");
    let mut t = Table::new(&["M=N", "permuted", "coarse", "hybrid+tiled"]);
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
            Algorithm::CoarseGrain,
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

    let cm = CostModel::nominal(); // representative per-core Xeon rates (see perfmodel)
    let spec = MachineSpec::xeon_e5_1650v4();
    let ht = HtModel {
        physical: spec.cores,
        smt_efficiency: 0.15,
    };

    // 40×40 is above the split cutoff: `coarse` runs the permuted `R0`
    // order with each diagonal's triangles split across the host's cores,
    // `permuted` the same order on one thread.
    let n = 40;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("\n--- measured two-thread speedup at M=N={n}, this machine ---");
    let (s1, s2) = workload(opts.seed, n, n);
    let p = BpMaxProblem::new(s1, s2, model());
    // a smoke run times one round and skips the warm-up solves
    let rounds = if opts.smoke { 1 } else { opts.reps(5) };
    let flops = p.flops();
    if !opts.smoke {
        solve(&p, Algorithm::Permuted);
        solve(&p, Algorithm::CoarseGrain);
    }
    let (mut ratios, mut t_coarse) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let t_perm = time_once(|| solve(&p, Algorithm::Permuted));
        let t = time_once(|| solve(&p, Algorithm::CoarseGrain));
        ratios.push(t_perm / t);
        t_coarse.push(t);
    }
    ratios.sort_by(f64::total_cmp);
    let len = ratios.len();
    let (q1, measured, q3) = (ratios[len / 4], ratios[len / 2], ratios[3 * len / 4]);
    let modeled = predict_bpmax_seconds(BpMaxVariant::Permuted, n, n, 1, &cm, &spec, ht)
        / predict_bpmax_seconds(BpMaxVariant::Coarse, n, n, 2, &cm, &spec, ht);
    rep.measured(
        format!("measured/coarse-vs-permuted/n={n}"),
        TimeStats::from_samples(t_coarse),
        Some(flops),
    );
    rep.annotate(&[
        ("speedup", measured),
        ("speedup_q1", q1),
        ("speedup_q3", q3),
    ]);
    rep.values(
        format!("modeled/coarse-vs-permuted/n={n}"),
        bench::report::Kind::Modeled,
        &[("speedup", modeled)],
    );
    let mut t = Table::new(&[
        "M=N",
        "host cores",
        "rounds",
        "measured coarse/permuted",
        "q1-q3",
        "min-max",
        "modeled, 2 threads",
    ]);
    t.row(vec![
        n.to_string(),
        cores.to_string(),
        rounds.to_string(),
        f2(measured),
        format!("{}-{}", f2(q1), f2(q3)),
        format!("{}-{}", f2(ratios[0]), f2(ratios[len - 1])),
        f2(modeled),
    ]);
    t.print();

    println!("\n--- modeled speedup vs baseline, 6 threads, paper machine ---");
    let sizes: Vec<usize> = if opts.full {
        vec![64, 128, 256, 512, 1024]
    } else {
        vec![64, 128, 256, 512]
    };
    let curves = [
        BpMaxVariant::Coarse,
        BpMaxVariant::Fine,
        BpMaxVariant::Hybrid,
        BpMaxVariant::Tiled,
    ];
    let mut header = vec!["M=N".to_string()];
    header.extend(curves.iter().map(|v| v.label().to_string()));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for &n in &sizes {
        let base = predict_bpmax_seconds(BpMaxVariant::Base, n, n, 1, &cm, &spec, ht);
        let mut cells = vec![n.to_string()];
        for &v in &curves {
            let s = predict_bpmax_seconds(v, n, n, opts.threads[0], &cm, &spec, ht);
            rep.values(
                format!("modeled/{}/t={}/n={n}", v.label(), opts.threads[0]),
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
