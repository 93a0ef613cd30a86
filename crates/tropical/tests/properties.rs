//! Property tests for the tropical crate: the three triangular memory
//! maps agree cell for cell, and a packed `Triangular` with them.

use proptest::prelude::*;
use tropical::triangular::{Layout, Triangular};

/// Cells `(i, j)` of an `n`-side triangle stored under `layout`, each
/// holding `f(i, j)`; slack cells hold 0.
fn laid_out(n: usize, layout: Layout, f: impl Fn(usize, usize) -> i64) -> Vec<i64> {
    let mut data = vec![0; layout.storage_len(n)];
    for i in 0..n {
        for j in i..n {
            data[layout.offset(n, i, j)] = f(i, j);
        }
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn triangular_layouts_equivalent(
        n in 1usize..12,
        vals in proptest::collection::vec(-100i64..100, 1..200),
    ) {
        let pick = |i: usize, j: usize| vals[(i * 131 + j * 7) % vals.len()];
        let id = laid_out(n, Layout::Identity, pick);
        let sh = laid_out(n, Layout::Shifted, pick);
        let pk = Triangular::from_fn(n, pick);
        let id_at = |i, j| id[Layout::Identity.offset(n, i, j)];
        for i in 0..n {
            for j in i..n {
                prop_assert_eq!(id_at(i, j), sh[Layout::Shifted.offset(n, i, j)]);
                prop_assert_eq!(id_at(i, j), pk.get(i, j));
                prop_assert_eq!(id[Layout::Identity.row_start(n, i) + (j - i)], pk.get(i, j));
            }
        }
        prop_assert!(pk.storage_bytes() <= id.len() * std::mem::size_of::<i64>());
    }
}
