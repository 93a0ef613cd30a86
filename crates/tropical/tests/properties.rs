//! Property tests for the tropical crate: the three triangular memory
//! maps agree cell for cell.

use proptest::prelude::*;
use tropical::triangular::{Layout, Triangular};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn triangular_layouts_equivalent(
        n in 1usize..12,
        vals in proptest::collection::vec(-100i64..100, 1..200),
    ) {
        let pick = |i: usize, j: usize| vals[(i * 131 + j * 7) % vals.len()];
        let id = Triangular::from_fn(n, Layout::Identity, 0, pick);
        let sh = Triangular::from_fn(n, Layout::Shifted, 0, pick);
        let pk = Triangular::from_fn(n, Layout::Packed, 0, pick);
        for i in 0..n {
            for j in i..n {
                prop_assert_eq!(id.get(i, j), sh.get(i, j));
                prop_assert_eq!(id.get(i, j), pk.get(i, j));
                prop_assert_eq!(id.row(i)[j - i], pk.get(i, j));
            }
        }
        prop_assert!(pk.storage_bytes() <= id.storage_bytes());
    }
}
