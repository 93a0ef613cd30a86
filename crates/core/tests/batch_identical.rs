//! The batch engine's contract: pooled solves are **bit-identical** to
//! per-problem solves — same scores, same full F-tables — for random
//! mixed-size problem sets and every algorithm.

use bpmax::batch::{BatchEngine, BatchOptions};
use bpmax::{Algorithm, BpMaxProblem, SolveOptions};
use proptest::prelude::*;
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};

fn seq(max_len: usize) -> impl Strategy<Value = RnaSeq> {
    proptest::collection::vec(0usize..4, 0..=max_len)
        .prop_map(|v| RnaSeq::new(v.into_iter().map(|i| BASES[i]).collect()))
}

fn problem_set(count: usize) -> impl Strategy<Value = Vec<BpMaxProblem>> {
    let model = ScoringModel::bpmax_default();
    proptest::collection::vec((seq(8), seq(6)), 1..=count).prop_map(move |pairs| {
        pairs
            .into_iter()
            .map(|(s1, s2)| BpMaxProblem::new(s1, s2, model.clone()))
            .collect()
    })
}

fn algorithm() -> impl Strategy<Value = Algorithm> {
    (0..Algorithm::ALL.len()).prop_map(|i| Algorithm::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batch_tables_are_bit_identical_to_sequential_solves(
        problems in problem_set(6),
        alg in algorithm(),
    ) {
        let engine = BatchEngine::new(
            BatchOptions::new()
                .solve(SolveOptions::new().algorithm(alg))
                .keep_tables(true),
        ).unwrap();
        let report = engine.solve_all(&problems).unwrap();
        prop_assert_eq!(report.len(), problems.len());
        // an unsupervised clean wave ends every problem Ok and never
        // quarantines a buffer
        prop_assert!(report.outcomes().all_ok(), "{}", report.outcomes());
        prop_assert_eq!(report.pool.quarantined, 0);
        for (item, p) in report.items.iter().zip(&problems) {
            let sol = p.solve_opts(&SolveOptions::new().algorithm(alg)).unwrap();
            prop_assert_eq!(item.score, sol.score());
            let reference = sol.into_ftable();
            let table = item.table.as_ref().expect("keep_tables");
            for (i1, j1, i2, j2) in reference.iter_cells().collect::<Vec<_>>() {
                prop_assert_eq!(
                    table.get(i1, j1, i2, j2),
                    reference.get(i1, j1, i2, j2),
                    "{:?} F[{},{},{},{}]", alg, i1, j1, i2, j2
                );
            }
        }
    }

    #[test]
    fn pooled_solves_score_identically_across_waves(problems in problem_set(5)) {
        let engine = BatchEngine::new(BatchOptions::new()).unwrap();
        let first = engine.solve_all(&problems).unwrap();
        let second = engine.solve_all(&problems).unwrap();
        let want: Vec<f32> = problems
            .iter()
            .map(|p| p.solve_opts(&SolveOptions::new()).unwrap().score())
            .collect();
        let got1: Vec<f32> = first.items.iter().map(|i| i.score).collect();
        let got2: Vec<f32> = second.items.iter().map(|i| i.score).collect();
        prop_assert_eq!(&got1, &want);
        prop_assert_eq!(&got2, &want);
        // recycled buffers never leak values between problems
        prop_assert_eq!(second.pool.allocated_since(&first.pool), 0);
        prop_assert_eq!(second.pool.quarantined, 0);
    }
}
