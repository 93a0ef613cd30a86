//! Table I — double max-plus schedule candidates: verified, then raced.
//!
//! Part 1 verifies each Table I schedule against the `F`/`R0` dependences
//! and reports which have the streaming `j2` innermost (vectorizable).
//! Part 2 measures the actual kernel in the two loop orders (plus the
//! tiled one) to show the permutation's effect on this machine.

use bench::dmp::{dmp_flops, dmp_solve};
use bench::report::{Kind, Reporter};
use bench::{banner, f2, gflops, time_stats, Opts, Table};
use bpmax::ftable::Layout;
use bpmax::kernels::{R0Order, Tile};
use bpmax::schedules::dmp_schedules;
use polyhedral::affine::env;

fn main() {
    let opts = Opts::parse(&[16, 24, 32], &[]);
    let mut rep = Reporter::new("table01_dmp_schedules", &opts);
    banner(
        "Table I",
        "double max-plus schedules",
        "loop permutations that keep k2 out of the innermost position enable auto-vectorization",
    );

    println!("\n--- legality & vectorizability ---");
    let mut t = Table::new(&["schedule", "innermost", "legal @ (4,4)/(5,3)"]);
    for s in dmp_schedules() {
        let mut legal = true;
        for (m, n) in [(4i64, 4i64), (5, 3)] {
            legal &= s
                .system
                .verify(&env(&[("M", m), ("N", n)]), m.max(n), 1)
                .is_empty();
        }
        rep.values(
            format!("static/schedule/{}", s.label),
            Kind::Static,
            &[
                ("legal", f64::from(legal)),
                ("vectorizable", f64::from(s.vectorizable)),
            ],
        );
        t.row(vec![
            s.label.to_string(),
            if s.vectorizable {
                "j2 (vec)"
            } else {
                "k2 (no vec)"
            }
            .to_string(),
            if legal { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(legal);
    }
    t.print();

    println!("\n--- measured kernel throughput (1 thread, this machine) ---");
    let mut t = Table::new(&[
        "M=N",
        "naive GFLOPS",
        "permuted GFLOPS",
        "tiled GFLOPS",
        "reg-tiled GFLOPS",
        "perm/naive",
    ]);
    for &n in &opts.sizes {
        let reps = opts.reps(if n <= 24 { 3 } else { 1 });
        let flops = dmp_flops(n, n);
        let s_naive = time_stats(reps, || dmp_solve(n, n, R0Order::Naive, Layout::Packed));
        let s_perm = time_stats(reps, || dmp_solve(n, n, R0Order::Permuted, Layout::Packed));
        let s_tiled = time_stats(reps, || {
            dmp_solve(n, n, R0Order::Tiled(Tile::small()), Layout::Packed)
        });
        let s_reg = time_stats(reps, || dmp_solve(n, n, R0Order::SimdReg, Layout::Packed));
        let (t_naive, t_perm) = (s_naive.median_s, s_perm.median_s);
        rep.measured(format!("measured/naive/m={n},n={n}"), s_naive, Some(flops));
        rep.measured(
            format!("measured/permuted/m={n},n={n}"),
            s_perm,
            Some(flops),
        );
        rep.annotate(&[("speedup_vs_naive", t_naive / t_perm)]);
        rep.measured(
            format!("measured/tiled 32x4xN/m={n},n={n}"),
            s_tiled,
            Some(flops),
        );
        rep.measured(
            format!("measured/reg-tiled/m={n},n={n}"),
            s_reg,
            Some(flops),
        );
        t.row(vec![
            n.to_string(),
            f2(gflops(flops, t_naive)),
            f2(gflops(flops, t_perm)),
            f2(gflops(flops, s_tiled.median_s)),
            f2(gflops(flops, s_reg.median_s)),
            f2(t_naive / t_perm),
        ]);
    }
    t.print();
    rep.finish();
}
