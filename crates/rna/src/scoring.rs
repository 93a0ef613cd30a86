//! The weighted base-pair counting model of `BPMax`.
//!
//! `BPMax` "uses weighted base-pair counting for base-pair maximization"
//! with a simplified energy model that "considers only base pair counting".
//! A scoring model assigns a weight to every ordered pair of bases,
//! separately for intramolecular pairs (`score` in the paper's recurrence)
//! and intermolecular pairs (`iscore`). Non-pairing combinations score `-∞`
//! conceptually; we expose them as [`ScoringModel::NO_PAIR`] and the DP
//! treats any candidate pair with that weight as forbidden.
//!
//! The default weights follow the BPPart/BPMax convention of rewarding pair
//! stability: `GC = 3`, `AU = 2`, `GU = 1` (wobble).

use crate::base::{Base, BASES};

/// A 4×4 symmetric weight table plus helpers.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoringModel {
    /// Intramolecular pair weights, indexed `[a][b]` by [`Base::index`].
    intra: [[f32; 4]; 4],
    /// Intermolecular pair weights.
    inter: [[f32; 4]; 4],
    /// Minimum unpaired bases between the two ends of an intramolecular pair
    /// (`j - i > min_loop`); `0` allows adjacent bases to pair, `3` is the
    /// common steric hairpin constraint.
    min_loop: usize,
}

impl ScoringModel {
    /// Sentinel weight for a non-pairing base combination.
    pub const NO_PAIR: f32 = f32::NEG_INFINITY;

    /// The `BPMax` default: `GC = 3`, `AU = 2`, `GU = 1`, same table for
    /// intra- and intermolecular pairs, no hairpin constraint (the pure
    /// counting model of the original program).
    pub fn bpmax_default() -> Self {
        Self::from_weights(3.0, 2.0, 1.0, 0)
    }

    /// Pure base-pair *counting*: every legal pair weighs `1` (the classic
    /// Nussinov objective).
    pub fn unit() -> Self {
        Self::from_weights(1.0, 1.0, 1.0, 0)
    }

    /// Build a symmetric model from per-pair-class weights and a hairpin
    /// constraint.
    pub fn from_weights(gc: f32, au: f32, gu: f32, min_loop: usize) -> Self {
        let mut table = [[Self::NO_PAIR; 4]; 4];
        let mut put = |a: Base, b: Base, w: f32| {
            table[a.index()][b.index()] = w;
            table[b.index()][a.index()] = w;
        };
        put(Base::G, Base::C, gc);
        put(Base::A, Base::U, au);
        put(Base::G, Base::U, gu);
        ScoringModel {
            intra: table,
            inter: table,
            min_loop,
        }
    }

    /// Build a model from explicit 4×4 weight tables (indexed by
    /// [`Base::index`], `[a][b]`) and a hairpin constraint. This is the
    /// lossless counterpart of reading the tables back via
    /// [`Self::intra`] / [`Self::inter`] — wire codecs use it to
    /// round-trip arbitrary models bit-exactly, including asymmetric
    /// ones no builder shortcut can express.
    pub fn from_tables(intra: [[f32; 4]; 4], inter: [[f32; 4]; 4], min_loop: usize) -> Self {
        ScoringModel {
            intra,
            inter,
            min_loop,
        }
    }

    /// Replace the intermolecular table (e.g. to penalise or forbid
    /// inter-strand wobble pairs).
    pub fn with_inter_weights(mut self, gc: f32, au: f32, gu: f32) -> Self {
        let mut table = [[Self::NO_PAIR; 4]; 4];
        let mut put = |a: Base, b: Base, w: f32| {
            table[a.index()][b.index()] = w;
            table[b.index()][a.index()] = w;
        };
        put(Base::G, Base::C, gc);
        put(Base::A, Base::U, au);
        put(Base::G, Base::U, gu);
        self.inter = table;
        self
    }

    /// Set the hairpin constraint (`j - i > min_loop` required to pair
    /// intramolecularly).
    pub fn with_min_loop(mut self, min_loop: usize) -> Self {
        self.min_loop = min_loop;
        self
    }

    /// The hairpin constraint.
    #[inline(always)]
    pub fn min_loop(&self) -> usize {
        self.min_loop
    }

    /// Intramolecular weight of pairing bases `a`–`b` ([`Self::NO_PAIR`] if
    /// they cannot pair). Positional legality (`j - i > min_loop`) is the
    /// caller's concern; see [`Self::intra_pos`].
    #[inline(always)]
    pub fn intra(&self, a: Base, b: Base) -> f32 {
        self.intra[a.index()][b.index()]
    }

    /// Intermolecular weight of pairing `a` (strand 1) with `b` (strand 2).
    #[inline(always)]
    pub fn inter(&self, a: Base, b: Base) -> f32 {
        self.inter[a.index()][b.index()]
    }

    /// Positional intramolecular weight: bases at positions `i < j` of the
    /// same strand, enforcing the hairpin constraint.
    #[inline(always)]
    pub fn intra_pos(&self, i: usize, j: usize, a: Base, b: Base) -> f32 {
        if j > i && j - i > self.min_loop {
            self.intra(a, b)
        } else {
            Self::NO_PAIR
        }
    }

    /// True if `a`–`b` is a scoring intramolecular pair.
    pub fn can_pair_intra(&self, a: Base, b: Base) -> bool {
        self.intra(a, b) != Self::NO_PAIR
    }

    /// Largest finite weight in either table — used for upper-bound
    /// invariants in tests.
    pub fn max_weight(&self) -> f32 {
        let mut m: f32 = 0.0;
        for a in BASES {
            for b in BASES {
                for w in [self.intra(a, b), self.inter(a, b)] {
                    if w != Self::NO_PAIR {
                        m = m.max(w);
                    }
                }
            }
        }
        m
    }
}

impl Default for ScoringModel {
    fn default() -> Self {
        Self::bpmax_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights() {
        let m = ScoringModel::bpmax_default();
        assert_eq!(m.intra(Base::G, Base::C), 3.0);
        assert_eq!(m.intra(Base::C, Base::G), 3.0);
        assert_eq!(m.intra(Base::A, Base::U), 2.0);
        assert_eq!(m.intra(Base::G, Base::U), 1.0);
        assert_eq!(m.intra(Base::A, Base::A), ScoringModel::NO_PAIR);
        assert_eq!(m.inter(Base::G, Base::C), 3.0);
    }

    #[test]
    fn weights_agree_with_pairability() {
        let m = ScoringModel::bpmax_default();
        for a in BASES {
            for b in BASES {
                assert_eq!(m.can_pair_intra(a, b), a.can_pair(b));
            }
        }
    }

    #[test]
    fn min_loop_gates_positional_weight() {
        let m = ScoringModel::bpmax_default().with_min_loop(3);
        // G at 0, C at 3: j - i = 3, not > 3 → forbidden.
        assert_eq!(m.intra_pos(0, 3, Base::G, Base::C), ScoringModel::NO_PAIR);
        assert_eq!(m.intra_pos(0, 4, Base::G, Base::C), 3.0);
    }

    #[test]
    fn zero_min_loop_allows_adjacent() {
        let m = ScoringModel::bpmax_default();
        assert_eq!(m.intra_pos(2, 3, Base::A, Base::U), 2.0);
        // i == j can never pair
        assert_eq!(m.intra_pos(3, 3, Base::A, Base::U), ScoringModel::NO_PAIR);
    }

    #[test]
    fn separate_inter_table() {
        let m = ScoringModel::bpmax_default().with_inter_weights(5.0, 4.0, 0.5);
        assert_eq!(m.inter(Base::G, Base::C), 5.0);
        assert_eq!(m.intra(Base::G, Base::C), 3.0);
        assert_eq!(m.max_weight(), 5.0);
    }

    #[test]
    fn from_tables_round_trips_bit_exactly() {
        let m = ScoringModel::bpmax_default()
            .with_inter_weights(5.0, 4.0, 0.5)
            .with_min_loop(2);
        let mut intra = [[0.0f32; 4]; 4];
        let mut inter = [[0.0f32; 4]; 4];
        for a in BASES {
            for b in BASES {
                intra[a.index()][b.index()] = m.intra(a, b);
                inter[a.index()][b.index()] = m.inter(a, b);
            }
        }
        let rebuilt = ScoringModel::from_tables(intra, inter, m.min_loop());
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn unit_model_counts_pairs() {
        let m = ScoringModel::unit();
        assert_eq!(m.intra(Base::G, Base::C), 1.0);
        assert_eq!(m.intra(Base::G, Base::U), 1.0);
        assert_eq!(m.max_weight(), 1.0);
    }
}
