//! Weighted Nussinov folding — the `S⁽¹⁾`/`S⁽²⁾` substrate of `BPMax`.
//!
//! Nussinov's 1978 algorithm maximises (weighted) non-crossing base pairs of
//! a single strand in `Θ(n³)` time and `Θ(n²)` space. `BPMax` consumes the full
//! triangular table (`S[i][j]` = best score of the subsequence `[i..=j]`),
//! not just the corner value: every reduction `R1..R4` adds `S` entries to
//! `F` entries.
//!
//! Includes:
//! * the DP ([`Nussinov::fold`]) over any [`crate::scoring::ScoringModel`],
//! * traceback to a concrete [`Structure`],
//! * an exponential brute-force oracle ([`brute_force_best`]) enumerating
//!   all non-crossing matchings, used by tests for `n ≤ 10`.

use crate::scoring::ScoringModel;
use crate::seq::RnaSeq;
use crate::structure::Structure;
use std::sync::Arc;
use tropical::triangular::Triangular;

/// The folding entry point.
pub struct Nussinov;

/// A computed Nussinov table plus everything needed for traceback.
#[derive(Clone, Debug)]
pub struct Fold {
    seq: RnaSeq,
    model: ScoringModel,
    /// Shared, so a solver can keep the table without copying it.
    table: Arc<Triangular<f32>>,
}

impl Nussinov {
    /// Fold `seq` under `model`, producing the full table (packed layout).
    pub fn fold(seq: &RnaSeq, model: &ScoringModel) -> Fold {
        let n = seq.len();
        let mut table = Triangular::filled(n, 0.0f32);
        // Diagonal-by-diagonal: d = j - i increasing.
        for d in 1..n {
            for i in 0..n - d {
                let j = i + d;
                // i unpaired
                let mut best = table.get(i + 1, j);
                // j unpaired
                best = best.max(table.get(i, j - 1));
                // i pairs j
                let w = model.intra_pos(i, j, seq[i], seq[j]);
                if w != ScoringModel::NO_PAIR {
                    let inner = if i < j - 1 {
                        table.get(i + 1, j - 1)
                    } else {
                        0.0
                    };
                    best = best.max(w + inner);
                }
                // bifurcation
                for k in i + 1..j {
                    best = best.max(table.get(i, k) + table.get(k + 1, j));
                }
                table.set(i, j, best);
            }
        }
        Fold {
            seq: seq.clone(),
            model: model.clone(),
            table: Arc::new(table),
        }
    }
}

impl Fold {
    /// Strand length.
    pub fn n(&self) -> usize {
        self.table.n()
    }

    /// The folded sequence.
    pub fn seq(&self) -> &RnaSeq {
        &self.seq
    }

    /// `S[i][j]` with the *empty-interval convention*: `0` when `j < i`
    /// (including `j = i - 1` with `i = 0` encoded by the caller skipping
    /// the lookup — see [`Fold::score_or_empty`]).
    #[inline(always)]
    pub fn score(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i <= j && j < self.table.n());
        self.table.get(i, j)
    }

    /// `S[i][j]`, returning `0` for an empty interval (`j < i`), matching
    /// the recurrence's boundary convention. `j` is given as `isize` so the
    /// `j = i - 1 = -1` case is expressible.
    #[inline(always)]
    pub fn score_or_empty(&self, i: usize, j: isize) -> f32 {
        if j < i as isize {
            0.0
        } else {
            self.table.get(i, j as usize)
        }
    }

    /// Best score for the whole strand (`0` for empty/singleton strands).
    pub fn best_score(&self) -> f32 {
        let n = self.table.n();
        if n == 0 {
            0.0
        } else {
            self.table.get(0, n - 1)
        }
    }

    /// Borrow the raw triangular table (the `BPMax` kernels read rows of it).
    pub fn table(&self) -> &Triangular<f32> {
        &self.table
    }

    /// The raw triangular table, shared: a handle to the same cells, not
    /// a copy.
    pub fn shared_table(&self) -> Arc<Triangular<f32>> {
        Arc::clone(&self.table)
    }

    /// Recover one optimal structure by traceback.
    pub fn traceback(&self) -> Structure {
        let n = self.table.n();
        if n == 0 {
            return Structure::default();
        }
        self.traceback_interval(0, n - 1)
    }

    /// Traceback restricted to the subsequence `[i..=j]` — `BPMax` traceback
    /// recurses into `S` sub-intervals whenever one strand side of a box is
    /// empty or split off.
    pub fn traceback_interval(&self, i: usize, j: usize) -> Structure {
        let mut pairs = Vec::new();
        if j < self.table.n() && i <= j {
            self.trace(i, j, &mut pairs);
        }
        Structure::new(pairs)
    }

    fn trace(&self, i: usize, j: usize, pairs: &mut Vec<(usize, usize)>) {
        if j <= i {
            return;
        }
        let target = self.table.get(i, j);
        if target == 0.0 {
            return; // nothing pairs in here
        }
        // i unpaired?
        if self.table.get(i + 1, j) == target {
            self.trace(i + 1, j, pairs);
            return;
        }
        // j unpaired?
        if self.table.get(i, j - 1) == target {
            self.trace(i, j - 1, pairs);
            return;
        }
        // i pairs j?
        let w = self.model.intra_pos(i, j, self.seq[i], self.seq[j]);
        if w != ScoringModel::NO_PAIR {
            let inner = if i < j - 1 {
                self.table.get(i + 1, j - 1)
            } else {
                0.0
            };
            if w + inner == target {
                pairs.push((i, j));
                if i < j.wrapping_sub(1) && j >= 1 {
                    self.trace(i + 1, j - 1, pairs);
                }
                return;
            }
        }
        // bifurcation
        for k in i + 1..j {
            if self.table.get(i, k) + self.table.get(k + 1, j) == target {
                self.trace(i, k, pairs);
                self.trace(k + 1, j, pairs);
                return;
            }
        }
        unreachable!("traceback found no producing case for ({i},{j})");
    }
}

/// Exponential brute force: best weighted non-crossing matching of
/// `seq[i..=j]`. Enumerates "position `i` unpaired" and "i pairs each legal
/// `k`" — every non-crossing structure arises exactly once. Only for tests
/// and tiny `n`.
pub fn brute_force_best(seq: &RnaSeq, model: &ScoringModel) -> f32 {
    fn go(seq: &RnaSeq, model: &ScoringModel, i: usize, j: isize) -> f32 {
        if j < i as isize {
            return 0.0;
        }
        let j = j as usize;
        // i unpaired
        let mut best = go(seq, model, i + 1, j as isize);
        // i pairs k
        for k in i + 1..=j {
            let w = model.intra_pos(i, k, seq[i], seq[k]);
            if w != ScoringModel::NO_PAIR {
                let inside = go(seq, model, i + 1, k as isize - 1);
                let outside = go(seq, model, k + 1, j as isize);
                best = best.max(w + inside + outside);
            }
        }
        best
    }
    if seq.is_empty() {
        return 0.0;
    }
    go(seq, model, 0, seq.len() as isize - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fold_str(s: &str) -> Fold {
        let seq: RnaSeq = s.parse().unwrap();
        Nussinov::fold(&seq, &ScoringModel::bpmax_default())
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(fold_str("").best_score(), 0.0);
        assert_eq!(fold_str("A").best_score(), 0.0);
        assert_eq!(fold_str("AA").best_score(), 0.0); // A-A can't pair
    }

    #[test]
    fn single_pair_scores_weight() {
        assert_eq!(fold_str("GC").best_score(), 3.0);
        assert_eq!(fold_str("AU").best_score(), 2.0);
        assert_eq!(fold_str("GU").best_score(), 1.0);
    }

    #[test]
    fn hairpin_stem() {
        // GGGAAACCC: stem of 3 GC pairs
        let f = fold_str("GGGAAACCC");
        assert_eq!(f.best_score(), 9.0);
        let st = f.traceback();
        st.validate(9).unwrap();
        assert_eq!(st.score(f.seq(), &ScoringModel::bpmax_default()), 9.0);
    }

    #[test]
    fn bifurcation_case() {
        // Two independent stems: GC...GC → (GC)(GC); score 6 needs a split.
        let f = fold_str("GCGC");
        // Options: pair 0-1 & 2-3 (6), pair 0-3 & 1-2 (G0C3=3 + C1G2=3 = 6)
        assert_eq!(f.best_score(), 6.0);
        let st = f.traceback();
        st.validate(4).unwrap();
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn min_loop_constraint_respected() {
        let seq: RnaSeq = "GAAAC".parse().unwrap();
        let strict = ScoringModel::bpmax_default().with_min_loop(3);
        let f = Nussinov::fold(&seq, &strict);
        assert_eq!(f.best_score(), 3.0); // G0-C4, j-i = 4 > 3 OK
        let stricter = ScoringModel::bpmax_default().with_min_loop(4);
        let f = Nussinov::fold(&seq, &stricter);
        assert_eq!(f.best_score(), 0.0);
    }

    #[test]
    fn matches_brute_force_on_random_sequences() {
        let model = ScoringModel::bpmax_default();
        let mut rng = StdRng::seed_from_u64(2024);
        for n in 0..=9 {
            for _ in 0..10 {
                let seq = RnaSeq::random(&mut rng, n);
                let dp = Nussinov::fold(&seq, &model).best_score();
                let bf = brute_force_best(&seq, &model);
                assert_eq!(dp, bf, "seq {seq}");
            }
        }
    }

    #[test]
    fn matches_brute_force_with_min_loop() {
        let model = ScoringModel::bpmax_default().with_min_loop(3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let seq = RnaSeq::random(&mut rng, 8);
            assert_eq!(
                Nussinov::fold(&seq, &model).best_score(),
                brute_force_best(&seq, &model),
                "seq {seq}"
            );
        }
    }

    #[test]
    fn traceback_score_equals_table_score() {
        let mut rng = StdRng::seed_from_u64(99);
        let model = ScoringModel::bpmax_default();
        for _ in 0..20 {
            let seq = RnaSeq::random(&mut rng, 14);
            let f = Nussinov::fold(&seq, &model);
            let st = f.traceback();
            st.validate(seq.len()).unwrap();
            assert_eq!(st.score(&seq, &model), f.best_score(), "seq {seq}");
        }
    }

    #[test]
    fn score_or_empty_boundary() {
        let f = fold_str("GC");
        assert_eq!(f.score_or_empty(0, -1), 0.0);
        assert_eq!(f.score_or_empty(1, 0), 0.0);
        assert_eq!(f.score_or_empty(0, 1), 3.0);
    }

    #[test]
    fn table_is_monotone_in_interval_inclusion() {
        let f = fold_str("GGCAUCGGAUUACGGC");
        let n = f.n();
        for i in 0..n {
            for j in i..n {
                if j + 1 < n {
                    assert!(f.score(i, j + 1) >= f.score(i, j));
                }
                if i > 0 {
                    assert!(f.score(i - 1, j) >= f.score(i, j));
                }
            }
        }
    }
}
