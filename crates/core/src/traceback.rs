//! Recovering an optimal joint structure from a solved F-table.
//!
//! Standard DP traceback: at each box, find one recurrence case whose
//! reconstructed value equals the stored `F` entry and recurse into its
//! sub-boxes. Exact f32 equality is sound here because the table filler
//! and the tracer compute candidate values by the *same* two-operand
//! additions over the same stored numbers.
//!
//! The output [`JointStructure`] is validated by tests to be disjoint and
//! non-crossing and to score exactly `F[0, M−1, 0, N−1]` — a structural
//! end-to-end check that the table (from any program version) is not just
//! the right number but the right *argmax*.

use crate::ftable::FTable;
use crate::kernels::Ctx;
use rna::{JointStructure, ScoringModel, Structure};

/// Trace one optimal joint structure out of a completed table.
pub fn traceback(ctx: &Ctx, f: &FTable) -> JointStructure {
    let m = ctx.m();
    let n = ctx.n();
    let mut tr = Tracer {
        ctx,
        f,
        intra1: Vec::new(),
        intra2: Vec::new(),
        inter: Vec::new(),
    };
    if m == 0 && n == 0 {
        return JointStructure::empty();
    }
    tr.trace(0, m as isize - 1, 0, n as isize - 1);
    JointStructure {
        intra1: Structure::new(tr.intra1),
        intra2: Structure::new(tr.intra2),
        inter: {
            let mut v = tr.inter;
            v.sort_unstable();
            v
        },
    }
}

struct Tracer<'a> {
    ctx: &'a Ctx,
    f: &'a FTable,
    intra1: Vec<(usize, usize)>,
    intra2: Vec<(usize, usize)>,
    inter: Vec<(usize, usize)>,
}

impl Tracer<'_> {
    /// `F` over possibly-empty signed intervals.
    fn fget(&self, i1: isize, j1: isize, i2: isize, j2: isize) -> f32 {
        if j1 < i1 {
            return self.s2v(i2, j2);
        }
        if j2 < i2 {
            return self.s1v(i1, j1);
        }
        self.f
            .get(i1 as usize, j1 as usize, i2 as usize, j2 as usize)
    }

    fn s1v(&self, i1: isize, j1: isize) -> f32 {
        if j1 < i1 {
            0.0
        } else {
            self.ctx.terms().s1v(i1 as usize, j1 as usize)
        }
    }

    fn s2v(&self, i2: isize, j2: isize) -> f32 {
        if j2 < i2 {
            0.0
        } else {
            self.ctx.terms().s2v(i2 as usize, j2 as usize)
        }
    }

    fn emit_fold1(&mut self, i1: isize, j1: isize) {
        if j1 >= i1 {
            let st = self.ctx.fold1.traceback_interval(i1 as usize, j1 as usize);
            self.intra1.extend_from_slice(st.pairs());
        }
    }

    fn emit_fold2(&mut self, i2: isize, j2: isize) {
        if j2 >= i2 {
            let st = self.ctx.fold2.traceback_interval(i2 as usize, j2 as usize);
            self.intra2.extend_from_slice(st.pairs());
        }
    }

    fn trace(&mut self, i1: isize, j1: isize, i2: isize, j2: isize) {
        if j1 < i1 {
            self.emit_fold2(i2, j2);
            return;
        }
        if j2 < i2 {
            self.emit_fold1(i1, j1);
            return;
        }
        let (ui1, uj1, ui2, uj2) = (i1 as usize, j1 as usize, i2 as usize, j2 as usize);
        let target = self.f.get(ui1, uj1, ui2, uj2);
        // Case: no interaction — both sides fold independently.
        if self.s1v(i1, j1) + self.s2v(i2, j2) == target {
            self.emit_fold1(i1, j1);
            self.emit_fold2(i2, j2);
            return;
        }
        // Case: 1×1 intermolecular pair.
        if ui1 == uj1 && ui2 == uj2 {
            let wi = self.ctx.terms().wi(ui1, ui2);
            if wi != ScoringModel::NO_PAIR && wi == target {
                self.inter.push((ui1, ui2));
                return;
            }
        }
        // Case: pair i1–j1.
        if uj1 > ui1 {
            let w1 = self.ctx.terms().w1(ui1, uj1);
            if w1 != ScoringModel::NO_PAIR && self.fget(i1 + 1, j1 - 1, i2, j2) + w1 == target {
                self.intra1.push((ui1, uj1));
                self.trace(i1 + 1, j1 - 1, i2, j2);
                return;
            }
        }
        // Case: pair i2–j2.
        if uj2 > ui2 {
            let w2 = self.ctx.terms().w2(ui2, uj2);
            if w2 != ScoringModel::NO_PAIR && self.fget(i1, j1, i2 + 1, j2 - 1) + w2 == target {
                self.intra2.push((ui2, uj2));
                self.trace(i1, j1, i2 + 1, j2 - 1);
                return;
            }
        }
        // Case: R1 — strand-2 prefix folds alone.
        for k2 in i2..j2 {
            if self.s2v(i2, k2) + self.fget(i1, j1, k2 + 1, j2) == target {
                self.emit_fold2(i2, k2);
                self.trace(i1, j1, k2 + 1, j2);
                return;
            }
        }
        // Case: R2 — strand-2 suffix folds alone.
        for k2 in i2..j2 {
            if self.fget(i1, j1, i2, k2) + self.s2v(k2 + 1, j2) == target {
                self.emit_fold2(k2 + 1, j2);
                self.trace(i1, j1, i2, k2);
                return;
            }
        }
        // Case: R3 — strand-1 prefix folds alone.
        for k1 in i1..j1 {
            if self.s1v(i1, k1) + self.fget(k1 + 1, j1, i2, j2) == target {
                self.emit_fold1(i1, k1);
                self.trace(k1 + 1, j1, i2, j2);
                return;
            }
        }
        // Case: R4 — strand-1 suffix folds alone.
        for k1 in i1..j1 {
            if self.fget(i1, k1, i2, j2) + self.s1v(k1 + 1, j1) == target {
                self.emit_fold1(k1 + 1, j1);
                self.trace(i1, k1, i2, j2);
                return;
            }
        }
        // Case: R0 — the double split.
        for k1 in i1..j1 {
            for k2 in i2..j2 {
                if self.fget(i1, k1, i2, k2) + self.fget(k1 + 1, j1, k2 + 1, j2) == target {
                    self.trace(i1, k1, i2, k2);
                    self.trace(k1 + 1, j1, k2 + 1, j2);
                    return;
                }
            }
        }
        unreachable!("traceback: no case reproduces F[{i1},{j1},{i2},{j2}] = {target}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, BpMaxProblem, SolveOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rna::{RnaSeq, ScoringModel};

    fn solve(a: &str, b: &str) -> (BpMaxProblem, f32, JointStructure) {
        let p = BpMaxProblem::new(
            a.parse().unwrap(),
            b.parse().unwrap(),
            ScoringModel::bpmax_default(),
        );
        let sol = p
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
            .unwrap();
        let score = sol.score();
        let st = sol.traceback();
        (p, score, st)
    }

    #[test]
    fn duplex_traceback() {
        let (_, score, st) = solve("GGG", "CCC");
        assert_eq!(score, 9.0);
        assert_eq!(st.inter, vec![(0, 0), (1, 1), (2, 2)]);
        assert!(st.intra1.is_empty() && st.intra2.is_empty());
    }

    #[test]
    fn hairpin_plus_duplex_traceback() {
        let (p, score, st) = solve("GGGAAACCC", "UUU");
        assert_eq!(score, 15.0);
        st.validate(9, 3).unwrap();
        assert_eq!(st.score(p.seq1(), p.seq2(), p.model()), 15.0);
        assert_eq!(st.intra1.len(), 3); // the GC stem
        assert_eq!(st.inter.len(), 3); // the AAA–UUU duplex
    }

    #[test]
    fn traceback_score_matches_for_random_instances() {
        let mut rng = StdRng::seed_from_u64(31);
        let model = ScoringModel::bpmax_default();
        for _ in 0..12 {
            let s1 = RnaSeq::random(&mut rng, 9);
            let s2 = RnaSeq::random(&mut rng, 7);
            let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
            let sol = p
                .solve_opts(&SolveOptions::new().algorithm(Algorithm::CoarseGrain))
                .unwrap();
            let st = sol.traceback();
            st.validate(9, 7)
                .unwrap_or_else(|e| panic!("{s1}/{s2}: {e}"));
            assert_eq!(st.score(&s1, &s2, &model), sol.score(), "{s1} / {s2}");
        }
    }

    #[test]
    fn traceback_from_every_algorithm_is_valid() {
        let model = ScoringModel::bpmax_default();
        let s1: RnaSeq = "GGAUCGAC".parse().unwrap();
        let s2: RnaSeq = "CGAUGG".parse().unwrap();
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        for &alg in Algorithm::ALL {
            let sol = p.solve_opts(&SolveOptions::new().algorithm(alg)).unwrap();
            let st = sol.traceback();
            st.validate(s1.len(), s2.len()).unwrap();
            assert_eq!(st.score(&s1, &s2, &model), sol.score(), "{alg:?}");
        }
    }

    #[test]
    fn empty_strand_traceback_is_pure_fold() {
        let (p, score, st) = solve("GGGAAACCC", "");
        assert_eq!(score, 9.0);
        assert!(st.inter.is_empty());
        assert_eq!(st.intra1.len(), 3);
        st.validate(p.seq1().len(), 0).unwrap();
    }

    #[test]
    fn no_pairable_bases_gives_empty_structure() {
        let (_, score, st) = solve("AAA", "AAA");
        assert_eq!(score, 0.0);
        assert_eq!(st.total_pairs(), 0);
    }
}
