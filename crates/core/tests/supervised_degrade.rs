//! Property: a memory-budgeted solve that degrades to the windowed
//! algorithm always *says so* ([`Outcome::Degraded`]) and its score is a
//! valid lower bound on the exact optimum — never an overestimate, never
//! silently wrong, and exactly the score of the widest window the budget
//! admits. The solves go through [`BatchEngine::solve_pooled`], the path
//! a serve miss takes.

use bpmax::ftable::Layout;
use bpmax::windowed::{max_window_within, solve_windowed, windowed_bytes};
use bpmax::{BatchEngine, BatchOptions, BpMaxProblem, FTable, MemoryBudget, Outcome, SolveOptions};
use proptest::prelude::*;
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};

fn seq(min_len: usize, max_len: usize) -> impl Strategy<Value = RnaSeq> {
    proptest::collection::vec(0usize..4, min_len..=max_len)
        .prop_map(|v| RnaSeq::new(v.into_iter().map(|i| BASES[i]).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degraded_solves_report_honest_lower_bounds(
        s1 in seq(2, 8),
        s2 in seq(2, 9),
        w_target in 1usize..6,
    ) {
        let p = BpMaxProblem::new(s1, s2, ScoringModel::bpmax_default());
        let (m, n) = (p.seq1().len(), p.seq2().len());
        let exact = p.solve_opts(&SolveOptions::new()).unwrap().score();

        // a budget that admits windows up to `w_target` (and maybe wider
        // if the sizes round that way — the solver picks the max)
        let budget = u64::try_from(windowed_bytes(m, n, w_target.min(n))).unwrap();
        let full = FTable::estimate_bytes(m, n, Layout::Packed).unwrap();

        let opts = SolveOptions::new()
            .mem_budget(MemoryBudget::bytes(budget))
            .degrade(true);
        let engine = BatchEngine::new(BatchOptions::new().keep_tables(true)).unwrap();
        let item = engine.solve_pooled(&p, &opts);

        if budget >= full {
            // nothing to degrade: the full table fits
            prop_assert_eq!(item.outcome, Outcome::Ok);
            prop_assert_eq!(item.score, exact);
            prop_assert!(item.table.is_some());
        } else {
            prop_assert_eq!(item.outcome, Outcome::Degraded, "never silent");
            prop_assert!(item.table.is_none(), "no traceback from a window");
            // the score is real (some window was actually solved) ...
            prop_assert!(item.score > f32::NEG_INFINITY);
            // ... and a lower bound: every windowed structure is a legal
            // full-width structure
            prop_assert!(
                item.score <= exact,
                "degraded {} must not exceed exact {}", item.score, exact
            );
            // and it is exactly the widest window the budget admits
            let w = max_window_within(m, n, budget).unwrap();
            let want = solve_windowed(p.ctx(), w)
                .window_scores()
                .into_iter()
                .fold(f32::NEG_INFINITY, f32::max);
            prop_assert_eq!(item.score, want);
        }
    }
}
