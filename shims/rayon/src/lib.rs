//! Offline stand-in for the `rayon` crate: the same API surface this
//! workspace uses (`par_iter`, `par_iter_mut`, `into_par_iter`,
//! `par_chunks_mut`), executed sequentially on the calling thread.
//!
//! The build container has no network access and no vendored registry, so
//! the real crate cannot be fetched. Sequential execution is semantically
//! equivalent for all uses here (the workspace only relies on rayon for
//! speed, never for concurrency semantics), and the container exposes a
//! single core anyway, so there is no parallel speedup to lose.
//!
//! The "parallel" iterators are plain [`std::iter::Iterator`]s, so every
//! std combinator (`map`, `enumerate`, `for_each`, `sum`, ...) works
//! unchanged.

/// The traits rayon users import via `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelSliceMut,
    };
}

/// By-value conversion into a "parallel" (here: sequential) iterator.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item;
    /// Concrete iterator type.
    type Iter: Iterator<Item = Self::Item>;

    /// Convert into an iterator; sequential in this shim.
    fn into_par_iter(self) -> Self::Iter;
}

impl<I: IntoIterator> IntoParallelIterator for I {
    type Item = I::Item;
    type Iter = I::IntoIter;

    fn into_par_iter(self) -> Self::Iter {
        self.into_iter()
    }
}

/// `.par_iter()` — shared-reference iteration.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a shared reference).
    type Item: 'a;
    /// Concrete iterator type.
    type Iter: Iterator<Item = Self::Item>;

    /// Iterate by shared reference; sequential in this shim.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
{
    type Item = <&'a C as IntoIterator>::Item;
    type Iter = <&'a C as IntoIterator>::IntoIter;

    fn par_iter(&'a self) -> Self::Iter {
        self.into_iter()
    }
}

/// `.par_iter_mut()` — unique-reference iteration.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type (a unique reference).
    type Item: 'a;
    /// Concrete iterator type.
    type Iter: Iterator<Item = Self::Item>;

    /// Iterate by unique reference; sequential in this shim.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoIterator,
{
    type Item = <&'a mut C as IntoIterator>::Item;
    type Iter = <&'a mut C as IntoIterator>::IntoIter;

    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_iter()
    }
}

/// `.par_chunks_mut()` on slices.
pub trait ParallelSliceMut<T> {
    /// Mutable chunks of at most `chunk_size`; sequential in this shim.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(chunk_size)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let s: i32 = v.par_iter().sum();
        assert_eq!(s, 10);
        let doubled: Vec<i32> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn par_iter_mut_mutates() {
        let mut v = vec![(0usize, 1i64), (1, 2)];
        v.par_iter_mut().for_each(|(_, x)| *x += 10);
        assert_eq!(v, vec![(0, 11), (1, 12)]);
    }

    #[test]
    fn par_chunks_mut_covers_slice() {
        let mut v = vec![0u8; 10];
        v.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for b in chunk {
                *b = u8::try_from(i).unwrap();
            }
        });
        assert_eq!(v, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn range_into_par_iter() {
        let total: usize = (0..5usize)
            .into_par_iter()
            .enumerate()
            .map(|(i, x)| i + x)
            .sum();
        assert_eq!(total, 20);
    }
}
