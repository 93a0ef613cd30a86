//! The exact 16-bit lanes against the oracle, and the gate that picks
//! them.
//!
//! Under an integer-weight model every value a solve forms is a small
//! integer, and a lone `hybrid+reg` solve runs its split-point and
//! triangle lanes, in `[i16; 8]` cells, and a batch runs its lane groups
//! in `[i16; 8]` or `[i16; 16]` cells (`kernels::exact_in_lanes16`,
//! DESIGN.md §11). These tests check every
//! F-table cell of such solves bit for bit against `bpmax::spec`, under
//! the default model, `unit`, all weights 127 with a hairpin constraint,
//! and an asymmetric integer model with zero weights:
//! - lone solves with strand 1 of 9–20 nt and strand 2 of 1–6 nt, on
//!   forced 1- and 2-worker splits: every split-point group fill and
//!   every triangle run fill occurs, on one worker's runs of eight and on
//!   a split's balanced runs;
//! - batch waves whose lane groups hold 1–16 same-shape members, on the
//!   same forced splits, with `f32` members of the same shape in the
//!   same wave: every group fill of both 16-bit cells.
//!
//! The gate itself is checked on its own, with no solve.

use crate::batch::{empty_slots, BatchEngine, BatchOptions};
use crate::engine::{solve_range, BpMaxProblem, Split};
use crate::ftable::{FTable, Layout};
use crate::kernels::{exact_in_lanes16, R0Order};
use crate::spec::SpecEval;
use crate::supervise::Watch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rna::{RnaSeq, ScoringModel};

/// The integer-weight models the 16-bit lanes must solve exactly.
fn integer_models() -> [(&'static str, ScoringModel); 4] {
    let mut intra = [[ScoringModel::NO_PAIR; 4]; 4];
    let mut inter = [[ScoringModel::NO_PAIR; 4]; 4];
    // asymmetric: [a][b] and [b][a] differ, some pairs weigh 0
    for (a, b, w) in [
        (0, 3, 2.0),
        (3, 0, 0.0),
        (1, 2, 5.0),
        (2, 1, 3.0),
        (2, 3, 0.0),
    ] {
        intra[a][b] = w;
    }
    for (a, b, w) in [(0, 3, 1.0), (2, 1, 4.0), (1, 2, 0.0), (3, 2, 7.0)] {
        inter[a][b] = w;
    }
    [
        ("default", ScoringModel::bpmax_default()),
        ("unit", ScoringModel::unit()),
        (
            "all-127",
            ScoringModel::from_weights(127.0, 127.0, 127.0, 3),
        ),
        ("asymmetric", ScoringModel::from_tables(intra, inter, 1)),
    ]
}

/// One and two workers, with the flop floor lifted so tiny diagonals
/// split.
fn forced() -> [Split; 2] {
    [1, 2].map(|cores| Split {
        cores,
        min_flops: 0.0,
    })
}

/// Every cell of `f` against the oracle, bit for bit.
fn assert_matches_spec(f: &FTable, s1: &RnaSeq, s2: &RnaSeq, model: &ScoringModel, what: &str) {
    let mut spec = SpecEval::new(s1, s2, model);
    for (i1, j1, i2, j2) in f.iter_cells() {
        let want = spec.f(i1 as isize, j1 as isize, i2 as isize, j2 as isize);
        let got = f.get(i1, j1, i2, j2);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what} {s1}/{s2}: F[{i1},{j1},{i2},{j2}] = {got} but the oracle says {want}"
        );
    }
}

#[test]
fn split_lanes16_lone_solves_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x016b_17e5);
    for (name, model) in integer_models() {
        for m in 9..=20 {
            for n in 1..=6 {
                let (s1, s2) = (RnaSeq::random(&mut rng, m), RnaSeq::random(&mut rng, n));
                let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
                assert!(p.ctx().terms().exact16(), "{name} {m}x{n} takes 16 bits");
                for split in forced() {
                    let mut f = FTable::new(m, n, Layout::Packed);
                    let terms = p.ctx().terms();
                    solve_range(terms, R0Order::SimdReg, &mut f, 0, m, &Watch::none(), split)
                        .unwrap();
                    let what = format!("{name} {m}x{n} on {} worker(s)", split.cores);
                    assert_matches_spec(&f, &s1, &s2, &model, &what);
                }
            }
        }
    }
}

#[test]
fn lanes_in_16_bits_match_the_oracle_in_groups_of_one_to_sixteen() {
    let mut rng = StdRng::seed_from_u64(0x016b_17e6);
    // a model 16 bits refuse, for same-shape f32 members in the same wave
    let half = ScoringModel::from_weights(2.5, 1.5, 0.5, 0);
    for (name, model) in integer_models() {
        for (m, n) in [(9, 5), (12, 3)] {
            for members in 1..=16 {
                // the 16-bit members with four f32 members interleaved,
                // 20 problems at most (see batch's fault-registry note)
                let mut problems = Vec::new();
                for k in 0..members.max(4) {
                    for (model, count) in [(&model, members), (&half, 4)] {
                        if k < count {
                            problems.push(BpMaxProblem::new(
                                RnaSeq::random(&mut rng, m),
                                RnaSeq::random(&mut rng, n),
                                model.clone(),
                            ));
                        }
                    }
                }
                let exact = problems.iter().filter(|p| p.ctx().terms().exact16());
                assert_eq!(exact.count(), members, "{name}");
                // the four f32 members form an [f32; 8] group
                let grouped = if members >= 3 { members } else { 0 } + 4;
                for split in forced() {
                    let engine = BatchEngine::new(BatchOptions::new().keep_tables(true)).unwrap();
                    let report = engine
                        .run_batch(&problems, None, empty_slots(&problems), None, 0, split)
                        .unwrap();
                    let what = format!(
                        "{name} {m}x{n}, {members} 16-bit members, {} worker(s)",
                        split.cores
                    );
                    assert_eq!(report.lane_problems, grouped, "{what}");
                    for (p, item) in problems.iter().zip(&report.items) {
                        let f = item.table.as_ref().expect("kept table");
                        assert_eq!(item.score.to_bits(), f.final_score().unwrap().to_bits());
                        assert_matches_spec(f, p.seq1(), p.seq2(), p.model(), &what);
                    }
                }
            }
        }
    }
}

#[test]
fn the_gate_takes_16_bits_for_integer_models_and_refuses_the_rest() {
    for (name, model) in integer_models() {
        assert!(exact_in_lanes16(&model, 40, 40), "{name}");
    }
    // the admission bound, at its one-weight extreme
    let all_127 = ScoringModel::from_weights(127.0, 127.0, 127.0, 3);
    assert!(exact_in_lanes16(&all_127, 64, 65));
    assert!(!exact_in_lanes16(&all_127, 65, 65));
    assert!(exact_in_lanes16(&all_127, 1, 128));
    assert!(!exact_in_lanes16(&all_127, 0, 130));
    // the default model's bound: 3 × (M + N) < 16,384
    let default = ScoringModel::bpmax_default();
    assert!(exact_in_lanes16(&default, 5_000, 461));
    assert!(!exact_in_lanes16(&default, 5_000, 462));
    // the bound is strict: w_max × (M + N) = 16,384 is refused
    let unit = ScoringModel::unit();
    assert!(exact_in_lanes16(&unit, 8_000, 8_383));
    assert!(!exact_in_lanes16(&unit, 8_000, 8_384));
    let all_64 = ScoringModel::from_weights(64.0, 64.0, 64.0, 0);
    assert!(exact_in_lanes16(&all_64, 128, 127));
    assert!(!exact_in_lanes16(&all_64, 128, 128));
    for w in [
        -0.0,
        0.5,
        2.5,
        -1.0,
        128.0,
        f32::NAN,
        f32::INFINITY,
        f32::MAX,
        -f32::MAX,
    ] {
        // one weight of one table is enough to refuse the model
        let gc = ScoringModel::from_weights(w, 2.0, 1.0, 0);
        assert!(!exact_in_lanes16(&gc, 12, 16), "GC weight {w:?}");
        let inter = ScoringModel::bpmax_default().with_inter_weights(3.0, 2.0, w);
        assert!(!exact_in_lanes16(&inter, 12, 16), "inter GU weight {w:?}");
    }
    // NO_PAIR is -inf itself: a model that forbids every pair is exact
    let none = ScoringModel::from_tables(
        [[ScoringModel::NO_PAIR; 4]; 4],
        [[ScoringModel::NO_PAIR; 4]; 4],
        0,
    );
    assert!(exact_in_lanes16(&none, 1_000, 1_000));
    // each problem carries its gate from when its terms were built
    for (model, want) in [
        (ScoringModel::unit(), true),
        (ScoringModel::from_weights(2.5, 2.0, 1.0, 0), false),
    ] {
        let p = BpMaxProblem::new(
            "GGGAAACCC".parse().unwrap(),
            "UUUGG".parse().unwrap(),
            model,
        );
        assert_eq!(p.ctx().terms().exact16(), want);
    }
}

#[test]
fn lanes16_solve_at_the_admission_bound_matches_the_f32_program() {
    // all weights 127 at M + N = 129: a score may reach 127 × 129 / 2,
    // just under 8,192, and this GC-rich pair of strands comes close. The
    // oracle would take a minute over the 266k cells of an 8 × 121 table
    // in a debug build, so the reference is the permuted program, which
    // runs no lanes and which every other suite holds to the oracle.
    let model = ScoringModel::from_weights(127.0, 127.0, 127.0, 3);
    let s1: RnaSeq = "GCGCAGCU".parse().unwrap();
    let s2: RnaSeq = format!("{}G", "GGCC".repeat(30)).parse().unwrap();
    let p = BpMaxProblem::new(s1, s2, model);
    assert!(p.ctx().terms().exact16());
    let (m, n) = (8, 121);
    let mut want = FTable::new(m, n, Layout::Packed);
    let mut got = FTable::new(m, n, Layout::Packed);
    for (order, f) in [(R0Order::Permuted, &mut want), (R0Order::SimdReg, &mut got)] {
        solve_range(
            p.ctx().terms(),
            order,
            f,
            0,
            m,
            &Watch::none(),
            Split::SERIAL,
        )
        .unwrap();
    }
    let score = got.final_score().unwrap();
    assert!(score > 7_000.0, "{score}");
    for (i1, j1, i2, j2) in want.iter_cells() {
        let (w, g) = (want.get(i1, j1, i2, j2), got.get(i1, j1, i2, j2));
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "F[{i1},{j1},{i2},{j2}] = {g}, not {w}"
        );
    }
}
