//! Standalone double max-plus driver (Equation 4) for the kernel-only
//! experiments (Table I, Figs 13/14/17/18).
//!
//! Phase I of the paper isolates the dominant reduction: `F` is seeded
//! with finite values and updated by `R0` alone, wavefront over the outer
//! diagonals. This driver runs that simplified program with a selectable
//! `R0` loop order and returns a checksum (so the optimizer cannot elide
//! the work).

use bpmax::ftable::{FTable, Layout};
use bpmax::kernels::{
    r0_instance_naive, r0_instance_permuted, r0_instance_simd, r0_instance_tiled, R0Order, Tile,
};
use machine::traffic;

/// Seed every cell of every triangle with a small deterministic value.
pub fn seeded_table(m: usize, n: usize, layout: Layout) -> FTable {
    let mut f = FTable::new(m, n, layout);
    let mut x = 0x2545F491u64;
    for i1 in 0..m {
        for j1 in i1..m {
            for i2 in 0..n {
                for j2 in i2..n {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    f.set(i1, j1, i2, j2, ((x >> 32) % 17) as f32 * 0.5);
                }
            }
        }
    }
    f
}

/// Run the double max-plus program over a seeded table; returns the final
/// top cell (a checksum).
pub fn dmp_solve(m: usize, n: usize, order: R0Order, layout: Layout) -> f32 {
    let mut f = seeded_table(m, n, layout);
    for d1 in 1..m {
        for i1 in 0..m - d1 {
            let j1 = i1 + d1;
            let mut acc = f.take_block(i1, j1);
            for k1 in i1..j1 {
                let a = f.block(i1, k1);
                let b = f.block(k1 + 1, j1);
                match order {
                    R0Order::Naive => r0_instance_naive(&f, a, b, &mut acc),
                    R0Order::Permuted => r0_instance_permuted(&f, a, b, &mut acc),
                    R0Order::Tiled(t) => r0_instance_tiled(&f, a, b, &mut acc, t),
                    R0Order::SimdReg => r0_instance_simd(&f, a, b, &mut acc),
                }
            }
            f.put_block(i1, j1, acc);
        }
    }
    if m == 0 || n == 0 {
        0.0
    } else {
        f.get(0, m - 1, 0, n - 1)
    }
}

/// FLOPs of the kernel-only run.
pub fn dmp_flops(m: usize, n: usize) -> u64 {
    traffic::r0_flops(m, n)
}

/// Convenience alias for the tile type.
pub type DmpTile = Tile;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_agree_on_checksum() {
        let a = dmp_solve(6, 7, R0Order::Naive, Layout::Packed);
        let b = dmp_solve(6, 7, R0Order::Permuted, Layout::Packed);
        let c = dmp_solve(6, 7, R0Order::Tiled(Tile::cubic(3)), Layout::Packed);
        let d = dmp_solve(6, 7, R0Order::Tiled(Tile::default()), Layout::Packed);
        let s = dmp_solve(6, 7, R0Order::SimdReg, Layout::Packed);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
        assert_eq!(a, s);
    }

    #[test]
    fn layouts_agree_on_checksum() {
        let a = dmp_solve(5, 6, R0Order::Permuted, Layout::Packed);
        let b = dmp_solve(5, 6, R0Order::Permuted, Layout::Identity);
        let c = dmp_solve(5, 6, R0Order::Permuted, Layout::Shifted);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn flops_positive() {
        assert!(dmp_flops(8, 8) > 0);
    }
}
