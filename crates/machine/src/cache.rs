//! Multi-level set-associative LRU cache simulator.
//!
//! Replaces the paper's hardware performance counters: feed it the memory
//! trace of a kernel execution (from `polyhedral::executor::Trace`) and it
//! reports per-level hits, misses, and bytes moved. The locality claims of
//! the evaluation — tiling keeps the double max-plus in L1/L2, coarse-grain
//! scheduling thrashes to DRAM, memory-map option 1 beats option 2 — become
//! measurable as simulated miss counts.
//!
//! Model: physically-indexed, write-allocate, write-back, true-LRU per set,
//! non-inclusive (each level filters the misses of the previous one — the
//! standard teaching model, adequate for comparing schedules).

use crate::spec::{CacheLevel, MachineSpec};

/// Per-level simulation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that reached this level.
    pub accesses: u64,
    /// Hits at this level.
    pub hits: u64,
    /// Misses (passed to the next level).
    pub misses: u64,
    /// Dirty lines written back from this level.
    pub writebacks: u64,
}

impl LevelStats {
    /// Miss ratio (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

struct Set {
    /// Tags in LRU order: front = most recent.
    tags: Vec<(u64, bool)>, // (tag, dirty)
    assoc: usize,
}

impl Set {
    fn new(assoc: usize) -> Self {
        Set {
            tags: Vec::with_capacity(assoc),
            assoc,
        }
    }

    /// Access `tag`; returns (hit, `writeback_occurred`).
    fn access(&mut self, tag: u64, write: bool) -> (bool, bool) {
        if let Some(pos) = self.tags.iter().position(|&(t, _)| t == tag) {
            let (t, d) = self.tags.remove(pos);
            self.tags.insert(0, (t, d || write));
            return (true, false);
        }
        let mut wb = false;
        if self.tags.len() == self.assoc {
            let (_, dirty) = self.tags.pop().unwrap(); // lint: allow(unwrap): len == assoc >= 1 here
            wb = dirty;
        }
        self.tags.insert(0, (tag, write));
        (false, wb)
    }
}

struct Level {
    line_bytes: u64,
    sets: Vec<Set>,
    stats: LevelStats,
}

impl Level {
    fn new(spec: &CacheLevel) -> Self {
        let nsets = spec.sets().max(1);
        Level {
            line_bytes: spec.line_bytes as u64,
            sets: (0..nsets).map(|_| Set::new(spec.assoc)).collect(),
            stats: LevelStats::default(),
        }
    }

    /// Access a byte address; returns true on hit.
    fn access(&mut self, addr: u64, write: bool) -> bool {
        let line = addr / self.line_bytes;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        self.stats.accesses += 1;
        let (hit, wb) = self.sets[set].access(tag, write);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        if wb {
            self.stats.writebacks += 1;
        }
        hit
    }
}

/// A cache-hierarchy simulator for one core's view of the machine.
pub struct CacheSim {
    levels: Vec<Level>,
    line_bytes: u64,
    dram_lines: u64,
    prefetch_degree: u64,
    prefetch_issued: u64,
}

impl CacheSim {
    /// Build from a [`MachineSpec`] (uses every level in `spec.caches`).
    pub fn new(spec: &MachineSpec) -> Self {
        assert!(!spec.caches.is_empty(), "machine has no caches");
        CacheSim {
            levels: spec.caches.iter().map(Level::new).collect(),
            line_bytes: spec.caches[0].line_bytes as u64,
            dram_lines: 0,
            prefetch_degree: 0,
            prefetch_issued: 0,
        }
    }

    /// Enable a next-line prefetcher: every demand miss in L1 also pulls
    /// the following `degree` lines into the hierarchy. Streaming access
    /// patterns (the permuted/tiled kernels) turn most of their misses
    /// into prefetch hits; strided column walks (the naive order) do not —
    /// one more mechanism behind the paper's loop-permutation win.
    pub fn with_prefetch(mut self, degree: u64) -> Self {
        self.prefetch_degree = degree;
        self
    }

    /// Number of prefetch fills issued.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetch_issued
    }

    /// Simulate a read of `bytes` bytes at byte address `addr` (touches
    /// every covered line).
    pub fn read(&mut self, addr: u64, bytes: u64) {
        self.touch(addr, bytes, false);
    }

    /// Simulate a write.
    pub fn write(&mut self, addr: u64, bytes: u64) {
        self.touch(addr, bytes, true);
    }

    fn touch(&mut self, addr: u64, bytes: u64, write: bool) {
        assert!(bytes > 0);
        let first = addr / self.line_bytes;
        let last = (addr + bytes - 1) / self.line_bytes;
        for line in first..=last {
            let missed_l1 = !self.access_line(line, write, true);
            // next-line prefetch on demand L1 misses
            if missed_l1 && self.prefetch_degree > 0 {
                for ahead in 1..=self.prefetch_degree {
                    self.prefetch_issued += 1;
                    self.fill_line(line + ahead);
                }
            }
        }
    }

    /// Demand access: walk levels, count stats; returns whether L1 hit.
    fn access_line(&mut self, line: u64, write: bool, count_dram: bool) -> bool {
        let a = line * self.line_bytes;
        let mut served = false;
        let mut l1_hit = false;
        for (idx, level) in self.levels.iter_mut().enumerate() {
            if level.access(a, write) {
                served = true;
                if idx == 0 {
                    l1_hit = true;
                }
                break;
            }
        }
        if !served && count_dram {
            self.dram_lines += 1;
        }
        l1_hit
    }

    /// Prefetch fill: install the line in every level without touching the
    /// demand-access statistics (hardware prefetches are not demand
    /// accesses), but DRAM traffic is real.
    fn fill_line(&mut self, line: u64) {
        let a = line * self.line_bytes;
        let mut served = false;
        for level in &mut self.levels {
            let saved = level.stats;
            if level.access(a, false) {
                level.stats = saved;
                served = true;
                break;
            }
            level.stats = saved;
        }
        if !served {
            self.dram_lines += 1;
        }
    }

    /// Replay a `polyhedral` element trace with the given element size.
    pub fn replay(&mut self, trace: &polyhedral_trace::Trace, elem_bytes: u64) {
        for acc in trace.accesses() {
            let addr = acc.addr as u64 * elem_bytes;
            match acc.kind {
                polyhedral_trace::AccessKind::Read => self.read(addr, elem_bytes),
                polyhedral_trace::AccessKind::Write => self.write(addr, elem_bytes),
            }
        }
    }

    /// Per-level statistics, innermost first.
    pub fn stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(|l| l.stats).collect()
    }

    /// Lines fetched from DRAM (misses of the outermost level).
    pub fn dram_lines(&self) -> u64 {
        self.dram_lines
    }
}

/// Narrow re-export shim so this crate's public API names the trace types
/// it consumes without forcing downstream users to import `polyhedral`.
pub mod polyhedral_trace {
    pub use polyhedral::executor::{Access, AccessKind, Trace};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    fn tiny() -> CacheSim {
        CacheSim::new(&MachineSpec::tiny_test_machine())
    }

    #[test]
    fn repeated_access_hits() {
        let mut sim = tiny();
        sim.read(0, 4);
        sim.read(0, 4);
        sim.read(4, 4); // same 32-byte line
        let l1 = sim.stats()[0];
        assert_eq!(l1.accesses, 3);
        assert_eq!(l1.misses, 1);
        assert_eq!(l1.hits, 2);
        assert_eq!(sim.dram_lines(), 1);
    }

    #[test]
    fn streaming_beyond_capacity_misses() {
        let mut sim = tiny();
        // tiny L1 = 512 B = 16 lines; stream 64 distinct lines twice.
        for pass in 0..2 {
            for i in 0..64u64 {
                sim.read(i * 32, 4);
                let _ = pass;
            }
        }
        let l1 = sim.stats()[0];
        // Second pass cannot hit in L1 (working set 4× capacity, LRU).
        assert_eq!(l1.misses, 128);
        // But L2 (4096 B = 128 lines) holds all 64 lines: second pass hits.
        let l2 = sim.stats()[1];
        assert_eq!(l2.accesses, 128);
        assert_eq!(l2.hits, 64);
        assert_eq!(sim.dram_lines(), 64);
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut sim = tiny();
        for _ in 0..10 {
            for i in 0..8u64 {
                sim.read(i * 32, 4);
            }
        }
        let l1 = sim.stats()[0];
        assert_eq!(l1.misses, 8); // compulsory only
        assert_eq!(sim.dram_lines(), 8);
    }

    #[test]
    fn conflict_misses_with_low_associativity() {
        // tiny L1: 2-way, 8 sets, 32B lines. Three addresses mapping to the
        // same set (stride = sets × line = 256) thrash a 2-way set.
        let mut sim = tiny();
        for _ in 0..4 {
            sim.read(0, 4);
            sim.read(256, 4);
            sim.read(512, 4);
        }
        let l1 = sim.stats()[0];
        assert_eq!(l1.hits, 0, "LRU 2-way set with 3-address cycle never hits");
    }

    #[test]
    fn writes_mark_dirty_and_writeback() {
        let mut sim = tiny();
        // dirty a line, then evict it with 2 conflicting lines.
        sim.write(0, 4);
        sim.read(256, 4);
        sim.read(512, 4); // evicts line 0 (dirty)
        let l1 = sim.stats()[0];
        assert_eq!(l1.writebacks, 1);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut sim = tiny();
        sim.read(30, 4); // bytes 30..34 cross the 32-byte boundary
        assert_eq!(sim.stats()[0].accesses, 2);
    }

    #[test]
    fn miss_ratio() {
        let s = LevelStats {
            accesses: 10,
            hits: 9,
            misses: 1,
            writebacks: 0,
        };
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
        assert_eq!(LevelStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn prefetcher_helps_streams_not_strides() {
        // Streaming read of 64 consecutive lines.
        let stream = |pf: u64| {
            let mut sim = CacheSim::new(&MachineSpec::tiny_test_machine()).with_prefetch(pf);
            for i in 0..64u64 {
                sim.read(i * 32, 4);
            }
            sim.stats()[0].misses
        };
        assert!(
            stream(2) < stream(0),
            "next-line prefetch must cut streaming misses: {} vs {}",
            stream(2),
            stream(0)
        );
        // Strided walk (every 8th line): next-line prefetch fetches junk.
        let strided = |pf: u64| {
            let mut sim = CacheSim::new(&MachineSpec::tiny_test_machine()).with_prefetch(pf);
            for i in 0..64u64 {
                sim.read(i * 8 * 32, 4);
            }
            (sim.stats()[0].misses, sim.dram_lines())
        };
        let (m0, d0) = strided(0);
        let (m2, d2) = strided(2);
        assert_eq!(m0, m2, "prefetch cannot help a large-stride walk");
        assert!(d2 > d0, "useless prefetches still burn DRAM bandwidth");
    }

    #[test]
    fn prefetch_fills_do_not_count_as_accesses() {
        let mut sim = CacheSim::new(&MachineSpec::tiny_test_machine()).with_prefetch(4);
        sim.read(0, 4);
        let l1 = sim.stats()[0];
        assert_eq!(l1.accesses, 1);
        assert_eq!(sim.prefetches_issued(), 4);
        // the prefetched neighbour now hits
        sim.read(32, 4);
        assert_eq!(sim.stats()[0].hits, 1);
    }

    #[test]
    fn replay_trace() {
        use polyhedral::executor::Trace;
        let mut t = Trace::new();
        t.read(0);
        t.read(1); // same line at 4-byte elements (line 32 B)
        t.write(100);
        let mut sim = tiny();
        sim.replay(&t, 4);
        let l1 = sim.stats()[0];
        assert_eq!(l1.accesses, 3);
        assert_eq!(l1.misses, 2);
    }
}
