//! The 4-D `BPMax` table: a triangle of triangles.
//!
//! A cell is one [`MaxPlus`] element: an `f32` score, or the same cell of
//! a batch lane group's same-shape problems: eight in `f32`
//! ([`tropical::scalar::Lanes`]), or, under an integer-weight model, up
//! to eight ([`tropical::scalar::Lanes16`]) or sixteen
//! ([`tropical::scalar::Wide16`]) in 16 bits. Addressing is the same for
//! all.
//!
//! `F[i1][j1][i2][j2]` is defined for `0 ≤ i1 ≤ j1 < M`, `0 ≤ i2 ≤ j2 < N`.
//! Storage is one buffer of *inner-triangle blocks*, one block per outer
//! cell `(i1, j1)`. The outer cells run diagonal-major: diagonal
//! `d1 = j1 − i1` ascending, `i1` ascending within it, which is the
//! wavefront's production order. The inner block layout is selectable:
//!
//! * [`Layout::Packed`] (default) — `N(N+1)/2` elements per block, rows
//!   contiguous. Total = `T(M)·T(N)` cells ≈ ¼ of the `M²N²` bounding box
//!   ("we only need one-fourth of that memory", §IV.B.c).
//! * [`Layout::Identity`] — the paper's Fig 10 **option 1** map
//!   `(i2, j2) ↦ (i2, j2)` into an `N×N` box.
//! * [`Layout::Shifted`] — Fig 10 **option 2** `(i2, j2) ↦ (i2, j2 − i2)`.
//!
//! All kernels access blocks through the uniform row API (`row(i2)` covers
//! columns `i2..N` with `(i2, j2)` at `row[j2 − i2]`), so switching the map
//! changes only addressing — the `memlayout` bench reproduces the paper's
//! option-1 vs option-2 comparison by flipping this enum.
//!
//! Every diagonal sits after the diagonals it reads, so
//! [`FTable::diagonal_mut`] splits the buffer in two: a read-only
//! [`FView`] of the finished diagonals, and the blocks of the next one,
//! which the wavefront cuts into disjoint `&mut` runs of consecutive
//! blocks — the safe-Rust shape of the paper's "threads work on distinct
//! inner triangles". The view ends where the diagonal begins, so a
//! kernel that reads a block that is not final yet fails the slice check
//! instead of reading an accumulator. A snapshot of finished diagonals is
//! a prefix of the buffer.

pub use tropical::triangular::Layout;

use crate::error::BpMaxError;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use tropical::scalar::MaxPlus;

/// Empty-cell initialiser: max-plus additive identity.
const NEG_INF: f32 = f32::NEG_INFINITY;

/// Strand lengths above this bound always refuse with
/// [`BpMaxError::SizeOverflow`] — the `Θ(M²N²)` table could not be
/// addressed anyway, and keeping the bound well under `2³²` lets the
/// internal index arithmetic (`n·(n+1)/2`, `d·(2m−d+1)/2`) stay overflow-
/// free on every platform.
const MAX_STRAND: usize = 1 << 30;

/// Allocation/reuse counters of a [`BlockPool`] — the observability hook
/// behind the batch engine's "zero steady-state allocation" claim. Each
/// count is of table buffers: an F-table holds one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions that had to touch the allocator (fresh buffer, or a
    /// spare grown beyond its capacity), plus spares pooled ahead of
    /// need.
    pub allocated: u64,
    /// Acquisitions served entirely from pooled spares.
    pub reused: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
    /// Buffers of panicked solves dropped instead of re-entering the
    /// arena.
    pub quarantined: u64,
}

impl PoolStats {
    /// Allocator touches since `earlier` (counters are monotone).
    pub fn allocated_since(&self, earlier: &PoolStats) -> u64 {
        self.allocated - earlier.allocated
    }
}

/// A recycling arena for F-table buffers.
///
/// Solving a `BPMax` instance allocates one `Θ(M²N²)` buffer. In a batch
/// workload that repeats per problem; the pool keeps released buffers
/// (sorted by capacity) and serves later acquisitions best-fit, so after
/// a warm-up wave the steady state performs **zero** allocations
/// ([`PoolStats`] proves it). Thread-safe: the spare list is behind a
/// mutex, which a table takes once to acquire its buffer and once to
/// return it, and the counters are atomics.
#[derive(Debug, Default)]
pub struct BlockPool {
    /// Spare buffers, sorted by ascending capacity.
    spares: Mutex<Vec<Vec<f32>>>,
    allocated: AtomicU64,
    reused: AtomicU64,
    recycled: AtomicU64,
    quarantined: AtomicU64,
}

impl BlockPool {
    /// An empty pool.
    pub fn new() -> Self {
        BlockPool::default()
    }

    /// Acquire a buffer of exactly `len` cells, all `-∞`. Best-fit: the
    /// smallest spare with sufficient capacity; otherwise the largest
    /// spare is grown (counted as an allocation), or a fresh buffer is
    /// allocated.
    pub fn acquire(&self, len: usize) -> Vec<f32> {
        let mut buf = {
            let mut spares = self.lock_spares();
            let pos = spares.partition_point(|s| s.capacity() < len);
            if pos < spares.len() {
                spares.remove(pos)
            } else {
                spares.pop().unwrap_or_default()
            }
        };
        let counter = if buf.capacity() < len {
            &self.allocated
        } else {
            &self.reused
        };
        counter.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        buf.clear();
        buf.resize(len, NEG_INF);
        buf
    }

    /// Return a buffer to the pool for later reuse.
    pub fn release(&self, buf: Vec<f32>) {
        self.recycled.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        add_spare(&mut self.lock_spares(), buf);
    }

    /// Make sure at least `count` spares of capacity `len` or more are
    /// pooled, allocating the shortfall (counted in
    /// [`PoolStats::allocated`]). When threads share the pool, which
    /// buffers are live at once depends on how they interleave. If
    /// `count` bounds the tables in flight at any moment and `len` bounds
    /// every table's length, best-fit always finds a spare, so the
    /// acquisitions allocate nothing whatever the interleaving.
    pub(crate) fn top_up(&self, count: usize, len: usize) {
        let mut spares = self.lock_spares();
        let have = spares.len() - spares.partition_point(|s| s.capacity() < len);
        self.add_fresh(&mut spares, count.saturating_sub(have), len);
    }

    /// Pool `count` fresh spares of capacity `len`, counted in
    /// [`PoolStats::allocated`]. An empty buffer never touches the
    /// allocator, so `len` 0 adds nothing.
    fn add_fresh(&self, spares: &mut Vec<Vec<f32>>, count: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.allocated.fetch_add(count as u64, Ordering::Relaxed); // ordering: monotone stats counter
        for _ in 0..count {
            add_spare(spares, Vec::with_capacity(len));
        }
    }

    /// Reject a buffer from a failed or aborted solve: count it and drop
    /// it on the floor. A quarantined buffer never re-enters the spare
    /// list, so nothing a solve that died mid-flight left behind can
    /// reach the next problem. Safe over-approximation: quarantining
    /// costs one fresh allocation, recycling a bad buffer costs
    /// correctness.
    pub fn quarantine(&self, buf: Vec<f32>) {
        self.quarantined.fetch_add(1, Ordering::Relaxed); // ordering: monotone stats counter
        drop(buf);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated: self.allocated.load(Ordering::Relaxed), // ordering: monotone stats counter
            reused: self.reused.load(Ordering::Relaxed),       // ordering: monotone stats counter
            recycled: self.recycled.load(Ordering::Relaxed),   // ordering: monotone stats counter
            quarantined: self.quarantined.load(Ordering::Relaxed), // ordering: monotone stats counter
        }
    }

    /// Number of spare buffers currently pooled.
    pub fn spare_count(&self) -> usize {
        self.lock_spares().len()
    }

    /// The spare list, poison-tolerant: spares are bare `Vec<f32>`s that
    /// [`BlockPool::acquire`] fully resets, so a panic while the lock was
    /// held cannot leave an observable inconsistency worth propagating —
    /// and the batch engine must keep pooling after isolating a panicked
    /// problem.
    fn lock_spares(&self) -> std::sync::MutexGuard<'_, Vec<Vec<f32>>> {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Insert `buf` into a spare list kept sorted by ascending capacity.
fn add_spare(spares: &mut Vec<Vec<f32>>, buf: Vec<f32>) {
    let pos = spares.partition_point(|s| s.capacity() < buf.capacity());
    spares.insert(pos, buf);
}

/// Outer cells on diagonals `0..d1` of an `m`-strand table (diagonal `e`
/// holds `m − e`): the offset, in blocks, of diagonal `d1`. `d1 ≤ m`.
#[inline(always)]
fn diagonal_start(m: usize, d1: usize) -> usize {
    d1 * (2 * m + 1 - d1) / 2
}

/// The packed 4-D `BPMax` table over cell storage `C`: the owned
/// [`FTable`], or an [`FView`] of its leading diagonals, of `f32` cells
/// or of lane cells. They all share this one addressing implementation.
#[derive(Clone, Debug)]
pub struct Table<C> {
    m: usize,
    n: usize,
    layout: Layout,
    block_len: usize,
    cells: C,
}

/// An F-table that owns its buffer.
pub type FTable<E = f32> = Table<Vec<E>>;

/// A read-only view of an F-table ([`FTable::view`]) or of its finished
/// diagonals ([`FTable::diagonal_mut`]) — what the kernels read.
pub type FView<'a, E = f32> = Table<&'a [E]>;

impl<C> Table<C> {
    /// This table's shape over `cells`.
    fn with_cells<D>(&self, cells: D) -> Table<D> {
        Table {
            m: self.m,
            n: self.n,
            layout: self.layout,
            block_len: self.block_len,
            cells,
        }
    }

    /// This table's block addressing over cells of element `D`, holding
    /// no cells: the view a kernel takes for blocks it is handed rather
    /// than reads from the table, such as a group of split points packed
    /// into lane cells ([`crate::kernels::accumulate_r034_lanes`]).
    pub(crate) fn shape_of<D>(&self) -> FView<'static, D> {
        self.with_cells(&[])
    }
}

impl<E: Copy, C: Deref<Target = [E]>> Table<C> {
    /// Strand-1 length `M`.
    #[inline(always)]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Strand-2 length `N`.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inner-block memory map.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Cells per inner-triangle block: the layout's storage for `N`.
    #[inline(always)]
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Outer index of cell `(i1, j1)`: diagonal-major, `i1` within a
    /// diagonal.
    #[inline(always)]
    pub fn outer(&self, i1: usize, j1: usize) -> usize {
        debug_assert!(
            i1 <= j1 && j1 < self.m,
            "outer index ({i1},{j1}) m={}",
            self.m
        );
        diagonal_start(self.m, j1 - i1) + i1
    }

    /// The inner-triangle block of `(i1, j1)`.
    #[inline(always)]
    pub fn block(&self, i1: usize, j1: usize) -> &[E] {
        let start = self.outer(i1, j1) * self.block_len;
        &self.cells[start..start + self.block_len]
    }

    /// Offset of `(i2, j2)` inside a block.
    #[inline(always)]
    pub fn inner(&self, i2: usize, j2: usize) -> usize {
        self.layout.offset(self.n, i2, j2)
    }

    /// Start offset of inner row `i2` (columns `i2..n`) inside a block.
    #[inline(always)]
    pub fn inner_row_start(&self, i2: usize) -> usize {
        self.layout.row_start(self.n, i2)
    }

    /// Row `i2` of a block as a slice over columns `i2..n`
    /// (`(i2, j2)` at index `j2 − i2`).
    #[inline(always)]
    pub fn row_of<'a>(&self, block: &'a [E], i2: usize) -> &'a [E] {
        let s = self.inner_row_start(i2);
        &block[s..s + (self.n - i2)]
    }

    /// Mutable flavour of [`Table::row_of`].
    #[inline(always)]
    pub fn row_of_mut<'a>(&self, block: &'a mut [E], i2: usize) -> &'a mut [E] {
        let s = self.inner_row_start(i2);
        &mut block[s..s + (self.n - i2)]
    }

    /// Read `F[i1, j1, i2, j2]`.
    #[inline(always)]
    pub fn get(&self, i1: usize, j1: usize, i2: usize, j2: usize) -> E {
        self.block(i1, j1)[self.inner(i2, j2)]
    }
}

impl<E: MaxPlus> FTable<E> {
    /// A `0 × 0` table holding no buffer, to [`Table::reset`] to a shape.
    pub(crate) fn empty() -> Self {
        Table {
            m: 0,
            n: 0,
            layout: Layout::Packed,
            block_len: 0,
            cells: Vec::new(),
        }
    }

    /// Re-shape in place to `m × n`, all cells `-∞`, reusing the buffer:
    /// a lane table serves one group after another without touching the
    /// allocator while their shapes fit its capacity.
    pub(crate) fn reset(&mut self, m: usize, n: usize, layout: Layout) -> Result<(), BpMaxError> {
        let (len, block_len) = checked_shape::<E>(m, n, layout)?;
        *self = Table {
            m,
            n,
            layout,
            block_len,
            cells: std::mem::take(&mut self.cells),
        };
        self.cells.clear();
        self.cells.resize(len, E::NEG_INF);
        Ok(())
    }

    /// Total bytes allocated for cell storage.
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.cells.as_slice())
    }

    /// The whole table, read-only, as the kernels take it.
    pub fn view(&self) -> FView<'_, E> {
        self.with_cells(self.cells.as_slice())
    }

    /// Split the table at outer diagonal `d1`: a read-only view of
    /// diagonals `0..d1`, and the blocks `(i1, i1 + d1)` of diagonal `d1`
    /// in `i1` order, as one `&mut` slice of `m − d1` blocks of
    /// [`Table::block_len`] cells.
    ///
    /// Panics unless `d1 < m` and `n > 0` (a diagonal of empty blocks
    /// cannot be cut into blocks).
    pub fn diagonal_mut(&mut self, d1: usize) -> (FView<'_, E>, &mut [E]) {
        assert!(
            d1 < self.m && self.block_len > 0,
            "diagonal {d1} of a {}x{} table",
            self.m,
            self.n
        );
        let start = diagonal_start(self.m, d1) * self.block_len;
        let len = (self.m - d1) * self.block_len;
        let shape = self.with_cells(());
        let (done, rest) = self.cells.split_at_mut(start);
        (shape.with_cells(&*done), &mut rest[..len])
    }

    /// Write `F[i1, j1, i2, j2]`.
    #[inline(always)]
    pub fn set(&mut self, i1: usize, j1: usize, i2: usize, j2: usize, v: E) {
        let k = self.outer(i1, j1) * self.block_len + self.inner(i2, j2);
        self.cells[k] = v;
    }

    /// Iterate all valid 4-index cells (slow; tests only).
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        let (m, n) = (self.m, self.n);
        (0..m).flat_map(move |i1| {
            (i1..m).flat_map(move |j1| {
                (0..n).flat_map(move |i2| (i2..n).map(move |j2| (i1, j1, i2, j2)))
            })
        })
    }

    /// The top-level score `F[0, M−1, 0, N−1]` (`None` for an empty strand).
    pub fn final_score(&self) -> Option<E> {
        if self.m == 0 || self.n == 0 {
            None
        } else {
            Some(self.get(0, self.m - 1, 0, self.n - 1))
        }
    }
}

/// Validate `(m, n)` and compute `(cells, block length)` of an `E`-celled
/// table without overflow. `MAX_STRAND` keeps the per-dimension triangle
/// arithmetic in range; the total-byte check keeps the whole table
/// addressable.
fn checked_shape<E>(m: usize, n: usize, layout: Layout) -> Result<(usize, usize), BpMaxError> {
    if m > MAX_STRAND || n > MAX_STRAND {
        return Err(BpMaxError::SizeOverflow { m, n });
    }
    let outer = m * (m + 1) / 2;
    let block_len = layout.storage_len(n);
    let total_bytes = outer as u128 * block_len as u128 * std::mem::size_of::<E>() as u128;
    if total_bytes > isize::MAX as u128 {
        return Err(BpMaxError::SizeOverflow { m, n });
    }
    Ok((outer * block_len, block_len))
}

impl FTable {
    /// Allocate for strand lengths `m × n`, all cells `-∞`.
    ///
    /// Panics on sizes the address arithmetic cannot represent; the
    /// fallible front door is [`FTable::try_new`].
    pub fn new(m: usize, n: usize, layout: Layout) -> Self {
        Self::try_new(m, n, layout).expect("F-table size overflow") // lint: allow(expect): documented panicking front door; try_new is fallible
    }

    /// Fallible allocation: checks the `Θ(M²N²)` footprint against the
    /// address space before touching the allocator, returning
    /// [`BpMaxError::SizeOverflow`] instead of panicking/aborting.
    pub fn try_new(m: usize, n: usize, layout: Layout) -> Result<Self, BpMaxError> {
        let (len, block_len) = checked_shape::<f32>(m, n, layout)?;
        Ok(Table {
            m,
            n,
            layout,
            block_len,
            cells: vec![NEG_INF; len],
        })
    }

    /// Like [`FTable::try_new`], but the buffer is acquired from `pool` —
    /// the batch engine's zero-steady-state-allocation path. Pair with
    /// [`FTable::recycle`], or [`FTable::quarantine`] after a panic.
    pub fn try_new_in(
        m: usize,
        n: usize,
        layout: Layout,
        pool: &BlockPool,
    ) -> Result<Self, BpMaxError> {
        let (len, block_len) = checked_shape::<f32>(m, n, layout)?;
        Ok(Table {
            m,
            n,
            layout,
            block_len,
            cells: pool.acquire(len),
        })
    }

    /// Return the buffer to `pool` and drop the table shell.
    pub fn recycle(self, pool: &BlockPool) {
        pool.release(self.cells);
    }

    /// Give up the buffer of a table whose solve panicked: `pool`
    /// [quarantines](BlockPool::quarantine) it and pools a fresh spare
    /// of the same capacity in its place (counted in
    /// [`PoolStats::allocated`]), so the spares a split wave was topped
    /// up with still cover the tables in flight.
    pub fn quarantine(self, pool: &BlockPool) {
        let capacity = self.cells.capacity();
        pool.quarantine(self.cells);
        pool.add_fresh(&mut pool.lock_spares(), 1, capacity);
    }

    /// Bytes of cell storage a table of shape `m × n` would allocate,
    /// without allocating it — the [`crate::supervise::MemoryBudget`]
    /// admission check. Errs with [`BpMaxError::SizeOverflow`] on shapes
    /// [`FTable::try_new`] would refuse anyway.
    pub fn estimate_bytes(m: usize, n: usize, layout: Layout) -> Result<u64, BpMaxError> {
        let (len, _) = checked_shape::<f32>(m, n, layout)?;
        // fits: checked_shape bounds the byte count by isize::MAX
        Ok((len * std::mem::size_of::<f32>()) as u64)
    }

    /// Number of outer blocks on diagonals `0..done` of an `m`-strand
    /// table (the unit of [`FTable::export_diagonals`]), for an `m` that
    /// [`FTable::estimate_bytes`] accepts.
    pub fn diagonal_blocks(m: usize, done: usize) -> usize {
        diagonal_start(m, done.min(m))
    }

    /// Copy the blocks of outer diagonals `0..done` out: the buffer's
    /// prefix, diagonal-major (`d1` ascending, `i1` ascending within a
    /// diagonal) — the wavefront production order, so a prefix of
    /// completed diagonals serializes to a contiguous, order-stable cell
    /// stream for [`crate::checkpoint::TableSnapshot`].
    pub fn export_diagonals(&self, done: usize) -> Vec<f32> {
        self.cells[..Self::diagonal_blocks(self.m, done) * self.block_len].to_vec()
    }

    /// Overwrite the blocks of outer diagonals `0..done` from a cell
    /// stream produced by [`FTable::export_diagonals`] on a table of the
    /// same shape and layout. The remaining diagonals are untouched (a
    /// freshly acquired table holds `-∞` there, exactly the state the
    /// wavefront drivers expect when resuming from diagonal `done`).
    pub fn import_diagonals(&mut self, done: usize, cells: &[f32]) -> Result<(), BpMaxError> {
        let done = done.min(self.m);
        let expect = Self::diagonal_blocks(self.m, done) * self.block_len;
        if cells.len() != expect {
            return Err(BpMaxError::InvalidArgument {
                detail: format!(
                    "diagonal import: {} cells for {done} diagonals of a {}x{} table \
                     (expected {expect})",
                    cells.len(),
                    self.m,
                    self.n
                ),
            });
        }
        self.cells[..expect].copy_from_slice(cells);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outer_indexing_is_dense_and_unique() {
        let t = FTable::new(5, 3, Layout::Packed);
        let mut seen = std::collections::HashSet::new();
        for i1 in 0..5 {
            for j1 in i1..5 {
                assert!(seen.insert(t.outer(i1, j1)));
            }
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(*seen.iter().max().unwrap(), 14);
    }

    #[test]
    fn get_set_round_trip_all_layouts() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let mut t = FTable::new(4, 3, layout);
            let mut v = 0.0f32;
            for (i1, j1, i2, j2) in t.iter_cells().collect::<Vec<_>>() {
                t.set(i1, j1, i2, j2, v);
                v += 1.0;
            }
            let mut expect = 0.0f32;
            for (i1, j1, i2, j2) in t.iter_cells().collect::<Vec<_>>() {
                assert_eq!(t.get(i1, j1, i2, j2), expect, "{layout:?}");
                expect += 1.0;
            }
        }
    }

    #[test]
    fn storage_is_quarter_of_bbox_for_packed() {
        let t = FTable::new(32, 32, Layout::Packed);
        let bbox = 32usize * 32 * 32 * 32 * 4;
        let ratio = t.storage_bytes() as f64 / bbox as f64;
        assert!(ratio < 0.3, "ratio {ratio}");
    }

    #[test]
    fn row_api_matches_get() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let mut t = FTable::new(2, 5, layout);
            for i2 in 0..5 {
                for j2 in i2..5 {
                    t.set(0, 1, i2, j2, (i2 * 10 + j2) as f32);
                }
            }
            let block = t.block(0, 1);
            for i2 in 0..5 {
                let row = t.row_of(block, i2);
                assert_eq!(row.len(), 5 - i2);
                for j2 in i2..5 {
                    assert_eq!(row[j2 - i2], (i2 * 10 + j2) as f32, "{layout:?}");
                }
            }
        }
    }

    #[test]
    fn final_score_edges() {
        let t = FTable::new(0, 4, Layout::Packed);
        assert_eq!(t.final_score(), None);
        let mut t = FTable::new(2, 2, Layout::Packed);
        t.set(0, 1, 0, 1, 7.0);
        assert_eq!(t.final_score(), Some(7.0));
    }

    #[test]
    fn try_new_rejects_absurd_sizes() {
        assert_eq!(
            FTable::try_new(1 << 31, 4, Layout::Packed).unwrap_err(),
            BpMaxError::SizeOverflow { m: 1 << 31, n: 4 }
        );
        assert!(FTable::try_new(1 << 20, 1 << 20, Layout::Packed).is_err());
        assert!(FTable::try_new(8, 8, Layout::Packed).is_ok());
        assert!(FTable::try_new(0, 0, Layout::Packed).is_ok());
    }

    #[test]
    fn pool_acquire_release_round_trip_and_counters() {
        let pool = BlockPool::new();
        let a = pool.acquire(10);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|&v| v == f32::NEG_INFINITY));
        pool.release(a);
        assert_eq!(pool.spare_count(), 1);
        // same-size reacquire: served from the spare, no allocation
        let b = pool.acquire(10);
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused, s.recycled), (1, 1, 1));
        pool.release(b);
        // smaller request also reuses (capacity 10 >= 4)
        let c = pool.acquire(4);
        assert_eq!(c.len(), 4);
        assert_eq!(pool.stats().reused, 2);
        pool.release(c);
        // larger request grows the spare: counted as an allocation
        let d = pool.acquire(64);
        assert_eq!(d.len(), 64);
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn pool_best_fit_prefers_smallest_sufficient_spare() {
        let pool = BlockPool::new();
        pool.release(Vec::with_capacity(100));
        pool.release(Vec::with_capacity(20));
        pool.release(Vec::with_capacity(50));
        let b = pool.acquire(30);
        // 50 is the smallest capacity >= 30
        assert!(b.capacity() >= 50 && b.capacity() < 100, "{}", b.capacity());
        assert_eq!(pool.spare_count(), 2);
    }

    #[test]
    fn top_up_allocates_only_the_shortfall() {
        let pool = BlockPool::new();
        pool.release(Vec::with_capacity(4));
        pool.release(Vec::with_capacity(16));
        // one spare already holds 10 cells: two more are allocated
        pool.top_up(3, 10);
        assert_eq!(pool.stats().allocated, 2);
        assert_eq!(pool.spare_count(), 4);
        // nothing is short now, and empty blocks never allocate
        pool.top_up(3, 10);
        pool.top_up(9, 0);
        assert_eq!(pool.stats().allocated, 2);
        // three acquisitions of 10 cells reuse the spares best-fit
        let taken: Vec<_> = (0..3).map(|_| pool.acquire(10)).collect();
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused), (2, 3));
        assert_eq!(pool.spare_count(), 1, "the 4-cell spare stays");
        taken.into_iter().for_each(|b| pool.release(b));
    }

    #[test]
    fn quarantined_buffers_never_come_back() {
        let pool = BlockPool::new();
        pool.quarantine(vec![0.0; 7]);
        assert_eq!(pool.spare_count(), 0);
        assert_eq!(pool.stats().quarantined, 1);
        // the next acquire is a fresh allocation, not the dropped buffer
        let b = pool.acquire(7);
        assert_eq!(pool.stats().allocated, 1);
        assert!(b.iter().all(|&v| v == f32::NEG_INFINITY));
    }

    #[test]
    fn estimate_bytes_matches_real_allocation() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            let t = FTable::new(5, 7, layout);
            assert_eq!(
                FTable::estimate_bytes(5, 7, layout).unwrap(),
                t.storage_bytes() as u64,
                "{layout:?}"
            );
        }
        assert!(FTable::estimate_bytes(1 << 31, 4, Layout::Packed).is_err());
    }

    #[test]
    fn pooled_table_round_trips_and_stays_allocation_flat() {
        let pool = BlockPool::new();
        let mut t = FTable::try_new_in(4, 3, Layout::Packed, &pool).unwrap();
        t.set(0, 3, 1, 2, 5.0);
        assert_eq!(t.get(0, 3, 1, 2), 5.0);
        assert_eq!(t.get(0, 0, 0, 0), f32::NEG_INFINITY);
        let first_wave = pool.stats().allocated;
        assert_eq!(first_wave, 1); // one buffer per table
        t.recycle(&pool);
        // second wave of the same shape: zero fresh allocations, and the
        // recycled buffers come back fully reset to -inf
        let t2 = FTable::try_new_in(4, 3, Layout::Packed, &pool).unwrap();
        assert_eq!(pool.stats().allocated, first_wave);
        for (i1, j1, i2, j2) in t2.iter_cells().collect::<Vec<_>>() {
            assert_eq!(t2.get(i1, j1, i2, j2), f32::NEG_INFINITY);
        }
    }

    #[test]
    fn diagonal_mut_hands_out_one_diagonal_over_a_view_of_the_earlier_ones() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for m in [0, 1, 2, 7] {
                let mut t = FTable::new(m, 3, layout);
                let mut v = 0.0f32;
                for (i1, j1, i2, j2) in t.iter_cells().collect::<Vec<_>>() {
                    t.set(i1, j1, i2, j2, v);
                    v += 1.0;
                }
                let reference = t.clone();
                assert_eq!(t.view().m(), m);
                for d1 in 0..m {
                    let tag = format!("{layout:?} m={m} d1={d1}");
                    let before = t.clone();
                    let (done, diagonal) = t.diagonal_mut(d1);
                    for i1 in 0..m {
                        for j1 in i1..(i1 + d1).min(m) {
                            assert_eq!(done.block(i1, j1), before.block(i1, j1), "{tag}");
                        }
                    }
                    let blocks: Vec<&mut [f32]> = diagonal.chunks_mut(done.block_len()).collect();
                    assert_eq!(blocks.len(), m - d1, "{tag}");
                    for (i1, block) in blocks.into_iter().enumerate() {
                        assert_eq!(&*block, reference.block(i1, i1 + d1), "{tag}");
                        block.fill(-(d1 as f32));
                    }
                    let (done, _) = t.diagonal_mut(d1);
                    let unfinished = std::panic::catch_unwind(|| done.block(0, d1).len());
                    assert!(unfinished.is_err(), "{tag}: the view reaches diagonal d1");
                }
                for (i1, j1, i2, j2) in t.iter_cells().collect::<Vec<_>>() {
                    assert_eq!(
                        t.get(i1, j1, i2, j2),
                        -((j1 - i1) as f32),
                        "{layout:?} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn quarantine_pools_a_same_size_spare_that_the_next_acquire_reuses() {
        let pool = BlockPool::new();
        let t = FTable::try_new_in(4, 3, Layout::Packed, &pool).unwrap();
        t.quarantine(&pool);
        let s = pool.stats();
        assert_eq!((s.allocated, s.quarantined, s.recycled), (2, 1, 0));
        assert_eq!(pool.spare_count(), 1);
        let _again = FTable::try_new_in(4, 3, Layout::Packed, &pool).unwrap();
        let s = pool.stats();
        assert_eq!((s.allocated, s.reused), (2, 1), "the spare is reused");
        assert_eq!(pool.spare_count(), 0);
    }
}
