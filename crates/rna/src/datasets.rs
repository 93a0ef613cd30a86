//! Interaction-scenario fixtures.
//!
//! Synthetic sequences shaped like the classic RNA-RNA interaction motifs
//! the RRI literature (and the `BPMax` paper's motivation) cares about. They
//! are **constructed, not curated biology** — each generator documents the
//! structural motif it encodes, and the test-suite asserts that `BPMax`
//! recovers exactly that motif. Useful as regression fixtures and for
//! examples that need "realistic" inputs without shipping databases.

use crate::base::Base;
use crate::seq::RnaSeq;
use rand::Rng;

/// An antisense pair (CopA/CopT-style): a target fragment and its exact
/// reverse complement. The optimal joint structure is a full
/// intermolecular duplex of `len` pairs.
pub fn antisense_pair(rng: &mut impl Rng, len: usize) -> (RnaSeq, RnaSeq) {
    let target = RnaSeq::random_gc(rng, len, 0.6);
    let antisense = target.reverse_complement();
    (target, antisense)
}

/// A kissing-hairpin pair (OxyS/fhlA-style): each strand folds into a
/// stem-loop, and the two loops are complementary — the interaction uses
/// intramolecular stems *plus* loop-loop intermolecular pairs, the mixed
/// structure class `BPMax` models and simple duplex finders miss.
///
/// Returns `(strand1, strand2, stem, loop_len)`.
pub fn kissing_hairpins(stem: usize, loop_len: usize) -> (RnaSeq, RnaSeq, usize, usize) {
    // strand1: G^stem  (loop: A... with a C-core)  C^stem
    // strand2: G^stem  (loop: complementary G-core ...U)  C^stem
    // loops: loop1 = C^loop_len, loop2 = G^loop_len (C–G pairs across).
    let mut s1 = Vec::new();
    s1.extend(std::iter::repeat_n(Base::G, stem));
    s1.extend(std::iter::repeat_n(Base::C, loop_len));
    s1.extend(std::iter::repeat_n(Base::C, stem));
    // make the stem close: the closing side must complement G^stem → C^stem ✓
    let mut s2 = Vec::new();
    s2.extend(std::iter::repeat_n(Base::A, stem)); // A-stem needs U close
    s2.extend(std::iter::repeat_n(Base::G, loop_len));
    s2.extend(std::iter::repeat_n(Base::U, stem));
    (RnaSeq::new(s1), RnaSeq::new(s2), stem, loop_len)
}

/// A strand that folds into a strong hairpin with an accessible A-loop
/// (the `GGG…AAA…CCC` shape used throughout the test-suite), sized up.
pub fn hairpin_with_loop(stem: usize, loop_len: usize) -> RnaSeq {
    let mut b = Vec::new();
    b.extend(std::iter::repeat_n(Base::G, stem));
    b.extend(std::iter::repeat_n(Base::A, loop_len));
    b.extend(std::iter::repeat_n(Base::C, stem));
    RnaSeq::new(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nussinov::Nussinov;
    use crate::scoring::ScoringModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn antisense_pair_is_fully_complementary() {
        let mut rng = StdRng::seed_from_u64(1);
        let (t, a) = antisense_pair(&mut rng, 20);
        assert_eq!(t.len(), 20);
        for k in 0..20 {
            assert!(t[k].can_pair(a[19 - k]), "position {k}");
        }
    }

    #[test]
    fn hairpin_folds_to_full_stem() {
        let model = ScoringModel::bpmax_default();
        let h = hairpin_with_loop(5, 4);
        let fold = Nussinov::fold(&h, &model);
        assert_eq!(fold.best_score(), 15.0); // 5 GC pairs
        let st = fold.traceback();
        assert_eq!(st.len(), 5);
    }

    #[test]
    fn kissing_hairpin_strands_fold_individually() {
        let model = ScoringModel::bpmax_default();
        let (s1, s2, stem, _) = kissing_hairpins(4, 5);
        let f1 = Nussinov::fold(&s1, &model);
        let f2 = Nussinov::fold(&s2, &model);
        // strand1 stem: G–C ×stem; strand2 stem: A–U ×stem
        assert!(f1.best_score() >= 3.0 * stem as f32);
        assert!(f2.best_score() >= 2.0 * stem as f32);
    }
}
