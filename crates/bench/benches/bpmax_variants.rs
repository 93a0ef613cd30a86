//! Criterion bench: `BPMax` program versions (Fig 15's measured side) at
//! a bench-friendly size; the tiled version runs the paper's tiled `R0`
//! order with its tile shape, as in `fig15_bpmax_perf`.

use bench::{model, workload};
use bpmax::kernels::Tile;
use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("bpmax_variant");
    group.sample_size(10);
    let n = 14usize;
    let (s1, s2) = workload(0xF15, n, n);
    let p = BpMaxProblem::new(s1, s2, model());
    group.throughput(Throughput::Elements(p.flops()));
    for alg in [
        Algorithm::Baseline,
        Algorithm::Permuted,
        Algorithm::CoarseGrain,
        Algorithm::HybridTiled {
            tile: Tile::small(),
        },
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(alg.label()), &alg, |b, &alg| {
            b.iter(|| p.solve_opts(&SolveOptions::new().algorithm(alg)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_variants);
criterion_main!(benches);
