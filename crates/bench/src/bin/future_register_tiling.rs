//! Register-level tiling of the double max-plus — the roofline sketch.
//!
//! The paper's conclusion: "the double max-plus operation remains
//! bandwidth-bound even after tiling... an additional level of tiling at
//! the register level is required to make the program compute-bound."
//! `bpmax::kernels::r0_instance_simd` implements it: the `k2` loop is
//! unrolled 4×, so four fused updates share one load/store of the
//! accumulator row — arithmetic intensity rises from 1/6 to ~1/3
//! FLOP/byte, doubling the bandwidth-roof ceiling.
//!
//! This is no longer future work: the headline *measurement* of the
//! SIMD kernel (fused `mp_axpy4`, `R0Order::SimdReg`,
//! runtime bit-identity assertions) lives in `bench_simd_kernel`. This
//! binary is kept as the roofline-model view; its `reg-unrolled` column
//! runs that same `R0Order::SimdReg` kernel.

use bench::dmp::{dmp_flops, dmp_solve};
use bench::report::Reporter;
use bench::{banner, f2, gflops, time_stats, Opts, Table};
use bpmax::ftable::Layout;
use bpmax::kernels::{R0Order, Tile};
use machine::roofline::Roofline;
use machine::spec::MachineSpec;

fn main() {
    let opts = Opts::parse(&[24, 32, 48], &[]);
    let mut rep = Reporter::new("future_register_tiling", &opts);
    banner(
        "Register tiling (roofline view)",
        "register-level tiling of the double max-plus",
        "conclusion: 'an additional level of tiling at the register level is required'",
    );
    println!("(the explicit-SIMD measurement of this kernel is bench_simd_kernel)");

    // Roofline view: the intensity gain doubles the bandwidth ceiling.
    let spec = MachineSpec::xeon_e5_1650v4();
    let roof = Roofline::new(spec, 6);
    println!(
        "\nattainable through L2 at AI=1/6: {} GFLOPS; at AI=1/3: {} GFLOPS",
        f2(roof.attainable("L2", 1.0 / 6.0)),
        f2(roof.attainable("L2", 1.0 / 3.0)),
    );
    rep.modeled_gflops("modeled/roof-l2/ai=1-6", roof.attainable("L2", 1.0 / 6.0));
    rep.modeled_gflops("modeled/roof-l2/ai=1-3", roof.attainable("L2", 1.0 / 3.0));

    println!("\n--- measured, 1 thread, this machine ---");
    let mut t = Table::new(&[
        "M=N",
        "permuted",
        "cache-tiled",
        "reg-unrolled",
        "reg/permuted",
    ]);
    for &n in &opts.sizes {
        let flops = dmp_flops(n, n);
        let reps = opts.reps(if n <= 24 { 3 } else { 1 });
        let s_perm = time_stats(reps, || dmp_solve(n, n, R0Order::Permuted, Layout::Packed));
        let s_tiled = time_stats(reps, || {
            dmp_solve(n, n, R0Order::Tiled(Tile::small()), Layout::Packed)
        });
        let s_reg = time_stats(reps, || dmp_solve(n, n, R0Order::SimdReg, Layout::Packed));
        rep.measured(
            format!("measured/permuted/m={n},n={n}"),
            s_perm,
            Some(flops),
        );
        rep.measured(
            format!("measured/cache-tiled/m={n},n={n}"),
            s_tiled,
            Some(flops),
        );
        rep.measured(
            format!("measured/reg-unrolled/m={n},n={n}"),
            s_reg,
            Some(flops),
        );
        rep.annotate(&[("speedup_vs_permuted", s_perm.median_s / s_reg.median_s)]);
        t.row(vec![
            n.to_string(),
            f2(gflops(flops, s_perm.median_s)),
            f2(gflops(flops, s_tiled.median_s)),
            f2(gflops(flops, s_reg.median_s)),
            f2(s_perm.median_s / s_reg.median_s),
        ]);
    }
    t.print();
    println!("\n(all three orders are asserted equal on checksums by the test-suite)");
    rep.finish();
}
