//! Criterion bench: the double max-plus kernel in its three loop orders
//! (the Fig 13 comparison) and the Fig 18 tile shapes, at bench-friendly
//! sizes.

use bench::dmp::dmp_solve;
use bpmax::ftable::Layout;
use bpmax::kernels::{R0Order, Tile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use machine::traffic;

fn bench_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmp_order");
    group.sample_size(10);
    let n = 24usize;
    group.throughput(Throughput::Elements(traffic::r0_flops(n, n)));
    for (label, order) in [
        ("naive_k2_inner", R0Order::Naive),
        ("permuted_j2_inner", R0Order::Permuted),
        ("tiled_32x4xN", R0Order::Tiled(Tile::small())),
        ("reg_unrolled_x4", R0Order::SimdReg),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &n, |b, &n| {
            b.iter(|| dmp_solve(n, n, order, Layout::Packed));
        });
    }
    group.finish();
}

fn bench_tiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("dmp_tile_shape_16xN");
    group.sample_size(10);
    let (m, n) = (8usize, 64usize);
    group.throughput(Throughput::Elements(traffic::r0_flops(m, n)));
    for (label, tile) in [
        ("cubic_8", Tile::cubic(8)),
        ("cubic_16", Tile::cubic(16)),
        ("32x4xN", Tile::small()),
        ("64x16xN", Tile::default()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &tile, |b, &tile| {
            b.iter(|| dmp_solve(m, n, R0Order::Tiled(tile), Layout::Packed));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_orders, bench_tiles);
criterion_main!(benches);
