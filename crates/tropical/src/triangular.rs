//! Packed upper-triangular storage and the paper's two 2-D memory maps.
//!
//! `BPMax` tables are triangular: a single-sequence table `S` holds entries for
//! `0 ≤ i ≤ j < n`, and the 4-D F-table is a *triangle of such triangles*.
//! `AlphaZ` by default allocates the bounding box (`n × n`, wasting half), and
//! the paper compares two affine memory maps for the inner triangle
//! (§IV.C.d, Fig 10):
//!
//! * **Option 1** `(i, j) ↦ (i, j)` — identity into the bounding box; row `i`
//!   starts at column `i`, rows are staggered across cache lines. The paper
//!   finds this "always performs better".
//! * **Option 2** `(i, j) ↦ (i, j - i)` — shifted so every row starts at
//!   column 0 of the bounding box.
//!
//! We add a third, [`Layout::Packed`], the truly compact `n(n+1)/2` layout
//! ("we only need one-fourth of that memory" for the 4-D table), trading
//! address arithmetic for footprint.
//!
//! All three expose a uniform row API — row `i` covers columns `i..n` with
//! element `(i, j)` at `row_start(n, i) + (j - i)` — so the kernels are
//! layout-generic and the memory-map ablation (`ablation_locality`)
//! changes *only* the map. The F-table's inner blocks take any of the
//! three; a [`Triangular`] (the `S` tables and pair weights) is always
//! packed.

/// Memory map for an upper-triangular table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Bounding box, identity map `(i, j) ↦ i·n + j` (paper's option 1).
    Identity,
    /// Bounding box, shifted map `(i, j) ↦ i·n + (j - i)` (paper's option 2).
    Shifted,
    /// Compact `n(n+1)/2` row-major packing `(i, j) ↦ off(i) + (j - i)`.
    Packed,
}

impl Layout {
    /// Storage (in elements) this layout needs for side `n`.
    pub fn storage_len(self, n: usize) -> usize {
        match self {
            Layout::Identity | Layout::Shifted => n * n,
            Layout::Packed => n * (n + 1) / 2,
        }
    }

    /// Start offset of row `i`'s valid region (columns `i..n`).
    #[inline(always)]
    pub fn row_start(self, n: usize, i: usize) -> usize {
        match self {
            Layout::Identity => i * n + i,
            Layout::Shifted => i * n,
            // off(i) = Σ_{r<i} (n - r) = i·(2n − i + 1)/2
            Layout::Packed => i * (2 * n - i + 1) / 2,
        }
    }

    /// Linear offset of element `(i, j)`, `i ≤ j < n`.
    #[inline(always)]
    pub fn offset(self, n: usize, i: usize, j: usize) -> usize {
        debug_assert!(
            i <= j && j < n,
            "triangular index ({i},{j}) out of range n={n}"
        );
        self.row_start(n, i) + (j - i)
    }
}

/// An upper-triangular table over `0 ≤ i ≤ j < n`, packed
/// ([`Layout::Packed`]): rows run one after another, row `i` over columns
/// `i..n`.
#[derive(Clone, Debug, PartialEq)]
pub struct Triangular<T = f32> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy> Triangular<T> {
    /// A table of side `n` filled with `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        Triangular {
            n,
            data: vec![fill; Layout::Packed.storage_len(n)],
        }
    }

    /// Build from a function of `(i, j)` over the triangle, row by row.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(Layout::Packed.storage_len(n));
        for i in 0..n {
            data.extend((i..n).map(|j| f(i, j)));
        }
        Triangular { n, data }
    }

    /// Side length.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes actually allocated.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Element `(i, j)`, `i ≤ j < n`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[Layout::Packed.offset(self.n, i, j)]
    }

    /// Set element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let off = Layout::Packed.offset(self.n, i, j);
        self.data[off] = v;
    }

    /// Row `i` as a slice over columns `i..n`; element `(i, j)` sits at
    /// `row(i)[j - i]`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        let s = Layout::Packed.row_start(self.n, i);
        &self.data[s..s + (self.n - i)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_sizes() {
        assert_eq!(Layout::Identity.storage_len(5), 25);
        assert_eq!(Layout::Shifted.storage_len(5), 25);
        assert_eq!(Layout::Packed.storage_len(5), 15);
        assert_eq!(Layout::Packed.storage_len(0), 0);
    }

    #[test]
    fn offsets_are_unique_and_in_range_all_layouts() {
        let n = 9;
        for layout in [Layout::Identity, Layout::Shifted, Layout::Packed] {
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                for j in i..n {
                    let off = layout.offset(n, i, j);
                    assert!(off < layout.storage_len(n), "{layout:?} ({i},{j})");
                    assert!(seen.insert(off), "{layout:?} collision at ({i},{j})");
                }
            }
            assert_eq!(seen.len(), n * (n + 1) / 2);
        }
    }

    /// Cells `(i, j)` of an `n`-side triangle stored under `layout`, each
    /// holding `f(i, j)`; slack cells hold `fill`.
    fn laid_out<T: Copy>(
        n: usize,
        layout: Layout,
        fill: T,
        f: impl Fn(usize, usize) -> T,
    ) -> Vec<T> {
        let mut data = vec![fill; layout.storage_len(n)];
        for i in 0..n {
            for j in i..n {
                data[layout.offset(n, i, j)] = f(i, j);
            }
        }
        data
    }

    #[test]
    fn get_set_round_trip_all_layouts() {
        for layout in [Layout::Identity, Layout::Shifted, Layout::Packed] {
            let data = laid_out(6, layout, -1i64, |i, j| (i * 10 + j) as i64);
            for i in 0..6 {
                for j in i..6 {
                    assert_eq!(
                        data[layout.offset(6, i, j)],
                        (i * 10 + j) as i64,
                        "{layout:?}"
                    );
                }
            }
        }
        let mut t = Triangular::filled(6, -1i64);
        for i in 0..6 {
            for j in i..6 {
                t.set(i, j, (i * 10 + j) as i64);
            }
        }
        for i in 0..6 {
            for j in i..6 {
                assert_eq!(t.get(i, j), (i * 10 + j) as i64);
            }
        }
    }

    #[test]
    fn row_slice_indexing_convention() {
        for layout in [Layout::Identity, Layout::Shifted, Layout::Packed] {
            let data = laid_out(5, layout, 0i32, |i, j| (i * 5 + j) as i32);
            for i in 0..5 {
                let start = layout.row_start(5, i);
                let row = &data[start..start + (5 - i)];
                for j in i..5 {
                    assert_eq!(row[j - i], (i * 5 + j) as i32, "{layout:?}");
                }
            }
        }
        let t = Triangular::from_fn(5, |i, j| (i * 5 + j) as i32);
        for i in 0..5 {
            let row = t.row(i);
            assert_eq!(row.len(), 5 - i);
            for j in i..5 {
                assert_eq!(row[j - i], (i * 5 + j) as i32);
            }
        }
    }
}
