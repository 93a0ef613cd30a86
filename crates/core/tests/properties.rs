//! Property tests for the `BPMax` core: random instances, random scoring
//! models, every program version against the specification oracle.

use bpmax::kernels::Tile;
use bpmax::spec::{spec_score, SpecEval};
use bpmax::windowed::solve_windowed;
use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use proptest::prelude::*;
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};

fn seq(max_len: usize) -> impl Strategy<Value = RnaSeq> {
    proptest::collection::vec(0usize..4, 0..=max_len)
        .prop_map(|v| RnaSeq::new(v.into_iter().map(|i| BASES[i]).collect()))
}

fn scoring() -> impl Strategy<Value = ScoringModel> {
    // Integer-valued weights keep f32 arithmetic exact.
    (1u8..=6, 1u8..=6, 0u8..=3, 0usize..=3).prop_map(|(gc, au, gu, min_loop)| {
        ScoringModel::from_weights(gc as f32, au as f32, gu as f32, min_loop)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_versions_equal_spec(s1 in seq(6), s2 in seq(6), model in scoring()) {
        let want = spec_score(&s1, &s2, &model);
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        for &alg in Algorithm::ALL {
            let got = p.solve_opts(&SolveOptions::new().algorithm(alg)).unwrap().score();
            prop_assert_eq!(got, want, "{:?} on {}/{}", alg, &s1, &s2);
        }
    }

    #[test]
    fn arbitrary_tiles_preserve_results(
        s1 in seq(7),
        s2 in seq(7),
        ti in 1usize..9,
        tk in 1usize..9,
        tj in 1usize..9,
    ) {
        let model = ScoringModel::bpmax_default();
        let p = BpMaxProblem::new(s1, s2, model);
        let want = p
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
            .unwrap()
            .score();
        let tile = Tile { i2: ti, k2: tk, j2: tj };
        let got = p
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::HybridTiled { tile }))
            .unwrap()
            .score();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn traceback_is_always_valid_and_optimal(s1 in seq(7), s2 in seq(7), model in scoring()) {
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        let sol = p
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::Hybrid))
            .unwrap();
        let st = sol.traceback();
        prop_assert!(st.validate(s1.len(), s2.len()).is_ok());
        prop_assert_eq!(st.score(&s1, &s2, &model), sol.score());
    }

    #[test]
    fn monotone_in_subsequence_inclusion(s1 in seq(6), s2 in seq(6)) {
        prop_assume!(!s1.is_empty() && !s2.is_empty());
        let model = ScoringModel::bpmax_default();
        let mut spec = SpecEval::new(&s1, &s2, &model);
        let (m, n) = (s1.len() as isize, s2.len() as isize);
        // F over the whole box dominates F over any sub-box.
        let whole = spec.f(0, m - 1, 0, n - 1);
        for i1 in 0..m {
            for i2 in 0..n {
                prop_assert!(whole >= spec.f(i1, m - 1, i2, n - 1));
            }
        }
    }

    #[test]
    fn score_bounded_by_weighted_matching(s1 in seq(8), s2 in seq(8), model in scoring()) {
        let score = spec_score(&s1, &s2, &model);
        let ub = model.max_weight() * ((s1.len() + s2.len()) / 2) as f32;
        prop_assert!(score >= 0.0);
        prop_assert!(score <= ub);
    }

    #[test]
    fn windowed_equals_full_on_band(s1 in seq(4), s2 in seq(8), w in 1usize..9) {
        prop_assume!(!s1.is_empty() && !s2.is_empty());
        let model = ScoringModel::bpmax_default();
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        let full = p
            .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
            .unwrap()
            .into_ftable();
        let ctx = bpmax::kernels::Ctx::new(s1.clone(), s2.clone(), model);
        let banded = solve_windowed(&ctx, w);
        for i1 in 0..s1.len() {
            for j1 in i1..s1.len() {
                for i2 in 0..s2.len() {
                    for j2 in i2..(i2 + w).min(s2.len()) {
                        prop_assert_eq!(
                            banded.get(i1, j1, i2, j2),
                            full.get(i1, j1, i2, j2)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn concatenating_unpairable_bases_is_neutral(s2 in seq(6)) {
        // Appending an A-run to an all-A strand 1 cannot change anything:
        // A pairs only U, and there are no Us in strand 1... unless s2
        // has Us to grab — so compare against spec directly instead of a
        // fixed value: score must be monotone and equal for both paddings
        // beyond the first when s2 has no U at all.
        prop_assume!(!s2.bases().contains(&rna::Base::U));
        let model = ScoringModel::bpmax_default();
        let short: RnaSeq = "AA".parse().unwrap();
        let long: RnaSeq = "AAAA".parse().unwrap();
        let a = spec_score(&short, &s2, &model);
        let b = spec_score(&long, &s2, &model);
        prop_assert_eq!(a, b);
    }
}
