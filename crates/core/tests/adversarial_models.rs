//! Every solve path against the oracle under adversarial scoring models.
//!
//! The streaming kernels join with a compare-select
//! (`tropical::scalar::mp_join`) where the oracle in `bpmax::spec` uses
//! `f32::max`. The two agree on every value the solver can produce
//! because F-table and S-table values are never NaN and never `−0`, so
//! their sums are neither. This suite stresses that domain argument with
//! models whose weights are drawn from the values that could break it —
//! signed zeros, NaN, `+∞`, `±f32::MAX`, the `NO_PAIR` sentinel — and
//! checks the *full* F-table of every program version (the tiled and the
//! register-tiled `R0` kernels among them) and of one batch-engine wave,
//! bit for bit against the oracle.

use bpmax::batch::{BatchEngine, BatchOptions};
use bpmax::kernels::Tile;
use bpmax::spec::SpecEval;
use bpmax::{Algorithm, BpMaxProblem, FTable, SolveOptions};
use proptest::prelude::*;
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};

/// The weight classes that could make a compare-select join differ from
/// `f32::max`, plus small finite weights so real structures still form.
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

fn seq(max_len: usize) -> impl Strategy<Value = RnaSeq> {
    proptest::collection::vec(0usize..4, 0..=max_len)
        .prop_map(|v| RnaSeq::new(v.into_iter().map(|i| BASES[i]).collect()))
}

/// A 4×4 weight table with every entry drawn from [`WEIGHTS`].
fn table() -> impl Strategy<Value = [[f32; 4]; 4]> {
    proptest::collection::vec(0..WEIGHTS.len(), 16).prop_map(|idx| {
        let mut t = [[0.0; 4]; 4];
        for (k, i) in idx.into_iter().enumerate() {
            t[k / 4][k % 4] = WEIGHTS[i];
        }
        t
    })
}

fn model() -> impl Strategy<Value = ScoringModel> {
    (table(), table(), 0usize..=2)
        .prop_map(|(intra, inter, min_loop)| ScoringModel::from_tables(intra, inter, min_loop))
}

/// Every program version — `HybridTiled` and `HybridReg` run the two
/// non-streaming `R0` kernels — plus the tiled one on a tile small enough
/// to cut these short strands into several tiles.
fn versions() -> Vec<Algorithm> {
    let mut all = Algorithm::ALL.to_vec();
    all.push(Algorithm::HybridTiled {
        tile: Tile::cubic(2),
    });
    all
}

/// Compare every cell of `f` with the oracle, bit for bit. The oracle's
/// memo persists across calls, so checking many tables of one problem
/// evaluates the recurrence once.
fn assert_matches_spec(f: &FTable, spec: &mut SpecEval<'_>, what: &str) {
    for (i1, j1, i2, j2) in f.iter_cells() {
        let want = spec.f(i1 as isize, j1 as isize, i2 as isize, j2 as isize);
        let got = f.get(i1, j1, i2, j2);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: F[{i1},{j1},{i2},{j2}] = {got} but the oracle says {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_version_and_simd_mode_matches_the_oracle(
        s1 in seq(8),
        s2 in seq(8),
        model in model(),
    ) {
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        let mut spec = SpecEval::new(&s1, &s2, &model);
        for alg in versions() {
            let sol = p
                .solve_opts(&SolveOptions::new().algorithm(alg))
                .unwrap();
            let what = format!("{alg:?} on {s1}/{s2} under {model:?}");
            assert_matches_spec(sol.ftable(), &mut spec, &what);
        }
    }

    #[test]
    fn a_batch_wave_matches_the_oracle(
        pairs in proptest::collection::vec((seq(6), seq(6)), 1..=4),
        model in model(),
    ) {
        let problems: Vec<BpMaxProblem> = pairs
            .iter()
            .map(|(s1, s2)| BpMaxProblem::new(s1.clone(), s2.clone(), model.clone()))
            .collect();
        let engine = BatchEngine::new(BatchOptions::new().keep_tables(true)).unwrap();
        let report = engine.solve_all(&problems).unwrap();
        prop_assert!(report.outcomes().all_ok(), "{}", report.outcomes());
        for (item, (s1, s2)) in report.items.iter().zip(&pairs) {
            let table = item.table.as_ref().expect("keep_tables");
            let what = format!("batch wave on {s1}/{s2} under {model:?}");
            assert_matches_spec(table, &mut SpecEval::new(s1, s2, &model), &what);
        }
    }
}
