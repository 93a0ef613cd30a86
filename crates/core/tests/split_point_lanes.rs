//! The default solve's split-point and triangle lanes against the oracle.
//!
//! `hybrid+reg` runs each triangle's Phase A eight split points per
//! vector: it packs the blocks of up to eight consecutive `k1` into lane
//! cells, repeats a split point in the spare lanes of a short group, runs
//! a group of fewer than three split points in `f32`, and joins the lanes
//! into the triangle's accumulator at the end. That visits `R0`, `R3` and
//! `R4` candidates in another order than the one-split-at-a-time kernels,
//! which is bit-identical only because no accumulator is ever NaN or `−0`.
//! Strand-1 lengths 9–20 give outer diagonals of up to 19 split points:
//! groups of every fill 1–8, alone and after one full group, and of
//! fills 1–3 after two.
//! Its Phase B then runs eight triangles of a diagonal per vector, in
//! runs of eight consecutive triangles on one worker, which these solves
//! stay on: the same lengths give diagonals of 1–20 triangles, so runs
//! of every fill 1–8, alone and after one or two full runs, on the
//! diagonal whose pair-1 term reads `S⁽²⁾` alone (`d1` = 1), on the one
//! that adds the intermolecular weight (`d1` = 0), and on the rest. The
//! lane instance computes the `NO_PAIR` terms the `f32` one skips, which
//! is bit-identical only because no cell value is ever NaN.
//! Each table is checked cell by cell, bit for bit, against `bpmax::spec`
//! under models whose weights include the values that could break the
//! domain argument: signed zeros, NaN, `+∞`, `±f32::MAX` and `NO_PAIR`.

use bpmax::spec::SpecEval;
use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rna::{RnaSeq, ScoringModel};

/// The adversarial weight classes, plus small finite weights so real
/// structures still form.
const WEIGHTS: [f32; 10] = [
    -0.0,
    0.0,
    f32::NAN,
    f32::INFINITY,
    f32::MAX,
    -f32::MAX,
    ScoringModel::NO_PAIR,
    1.0,
    2.5,
    -1.5,
];

/// A model whose intra- and intermolecular tables draw every entry from
/// [`WEIGHTS`].
fn adversarial_model(rng: &mut StdRng) -> ScoringModel {
    let mut table = || {
        let mut t = [[0.0f32; 4]; 4];
        for row in &mut t {
            for w in row {
                *w = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
            }
        }
        t
    };
    let (intra, inter) = (table(), table());
    ScoringModel::from_tables(intra, inter, rng.gen_range(0..=2))
}

#[test]
fn split_point_lanes_match_the_oracle_under_adversarial_models() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1a9e);
    for m in 9..=20 {
        for n in 1..=6 {
            for _ in 0..2 {
                let s1 = RnaSeq::random(&mut rng, m);
                let s2 = RnaSeq::random(&mut rng, n);
                let model = adversarial_model(&mut rng);
                let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
                let solution = p
                    .solve_opts(&SolveOptions::new().algorithm(Algorithm::HybridReg))
                    .unwrap();
                let f = solution.ftable();
                let mut spec = SpecEval::new(&s1, &s2, &model);
                for (i1, j1, i2, j2) in f.iter_cells() {
                    let want = spec.f(i1 as isize, j1 as isize, i2 as isize, j2 as isize);
                    let got = f.get(i1, j1, i2, j2);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{m}x{n} {s1}/{s2} under {model:?}: F[{i1},{j1},{i2},{j2}] = {got} \
                         but the oracle says {want}"
                    );
                }
            }
        }
    }
}
