//! Cross-crate integration: sequences → problem → every program version →
//! traceback → structure, checked against the specification oracle.

use bpmax::kernels::Tile;
use bpmax::spec::SpecEval;
use bpmax::windowed::solve_windowed;
use bpmax::{Algorithm, BpMaxProblem, Solution, SolveOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rna::nussinov::Nussinov;
use rna::{RnaSeq, ScoringModel};

fn random_pair(rng: &mut StdRng, m: usize, n: usize) -> (RnaSeq, RnaSeq) {
    (RnaSeq::random(rng, m), RnaSeq::random(rng, n))
}

fn solve(p: &BpMaxProblem, alg: Algorithm) -> Solution<'_> {
    p.solve_opts(&SolveOptions::new().algorithm(alg))
        .expect("unsupervised solve")
}

#[test]
fn every_version_matches_spec_and_traceback_is_optimal() {
    let mut rng = StdRng::seed_from_u64(0xE2E);
    let model = ScoringModel::bpmax_default();
    for trial in 0..6 {
        let (s1, s2) = random_pair(&mut rng, 4 + trial, 9 - trial);
        let mut spec = SpecEval::new(&s1, &s2, &model);
        let want = spec.top();
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        for &alg in Algorithm::ALL {
            let sol = solve(&p, alg);
            assert_eq!(sol.score(), want, "{alg:?} {s1}/{s2}");
            let st = sol.traceback();
            st.validate(s1.len(), s2.len()).unwrap();
            assert_eq!(st.score(&s1, &s2, &model), want, "{alg:?} {s1}/{s2}");
        }
    }
}

#[test]
fn full_table_cells_match_spec_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xCE11);
    let model = ScoringModel::bpmax_default().with_min_loop(2);
    let (s1, s2) = random_pair(&mut rng, 6, 6);
    let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
    let f = solve(
        &p,
        Algorithm::HybridTiled {
            tile: Tile::cubic(2),
        },
    )
    .into_ftable();
    let mut spec = SpecEval::new(&s1, &s2, &model);
    for (i1, j1, i2, j2) in f.iter_cells().collect::<Vec<_>>() {
        assert_eq!(
            f.get(i1, j1, i2, j2),
            spec.f(i1 as isize, j1 as isize, i2 as isize, j2 as isize),
            "F[{i1},{j1},{i2},{j2}] for {s1}/{s2}"
        );
    }
}

#[test]
fn interaction_score_is_symmetric_in_strand_roles() {
    // The recurrence treats the strands symmetrically (R1/R2 ↔ R3/R4),
    // and the default scoring tables are symmetric.
    let mut rng = StdRng::seed_from_u64(0x515);
    let model = ScoringModel::bpmax_default();
    for _ in 0..6 {
        let (s1, s2) = random_pair(&mut rng, 7, 5);
        let a = solve(
            &BpMaxProblem::new(s1.clone(), s2.clone(), model.clone()),
            Algorithm::Permuted,
        )
        .score();
        let b = solve(
            &BpMaxProblem::new(s2.clone(), s1.clone(), model.clone()),
            Algorithm::Permuted,
        )
        .score();
        assert_eq!(a, b, "{s1} / {s2}");
    }
}

#[test]
fn interaction_never_below_independent_folds() {
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let model = ScoringModel::bpmax_default();
    for _ in 0..8 {
        let (s1, s2) = random_pair(&mut rng, 8, 6);
        let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
        let score = solve(&p, Algorithm::CoarseGrain).score();
        let floor =
            Nussinov::fold(&s1, &model).best_score() + Nussinov::fold(&s2, &model).best_score();
        assert!(score >= floor, "{s1}/{s2}: {score} < {floor}");
    }
}

#[test]
fn windowed_solver_agrees_with_full_solver_on_the_band() {
    let mut rng = StdRng::seed_from_u64(0x817D);
    let model = ScoringModel::bpmax_default();
    let (s1, s2) = random_pair(&mut rng, 4, 10);
    let p = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
    let full = solve(&p, Algorithm::Permuted).into_ftable();
    let ctx = bpmax::kernels::Ctx::new(s1, s2, model);
    let banded = solve_windowed(&ctx, 4);
    for i1 in 0..4 {
        for j1 in i1..4 {
            for i2 in 0..10 {
                for j2 in i2..(i2 + 4).min(10) {
                    assert_eq!(banded.get(i1, j1, i2, j2), full.get(i1, j1, i2, j2));
                }
            }
        }
    }
}

#[test]
fn growing_either_strand_never_decreases_the_score() {
    let mut rng = StdRng::seed_from_u64(0x960);
    let model = ScoringModel::bpmax_default();
    let s1 = RnaSeq::random(&mut rng, 8);
    let s2 = RnaSeq::random(&mut rng, 8);
    let mut prev = 0.0f32;
    for len in 1..=8 {
        let p = BpMaxProblem::new(s1.slice(0, len), s2.clone(), model.clone());
        let score = solve(&p, Algorithm::Permuted).score();
        assert!(score >= prev, "len {len}: {score} < {prev}");
        prev = score;
    }
}

#[test]
fn antisense_duplex_is_recovered() {
    let mut rng = StdRng::seed_from_u64(0xA5);
    let (target, antisense) = rna::datasets::antisense_pair(&mut rng, 12);
    // The engine's inter-pair structure class is parallel (i1 < i1' ⟹
    // i2 < i2'; see the spec module's conventions), so the antiparallel
    // duplex is expressed by handing it the second strand reversed.
    let binding = antisense.reversed();
    let p = BpMaxProblem::new(
        target.clone(),
        binding.clone(),
        ScoringModel::bpmax_default(),
    );
    let sol = solve(&p, Algorithm::CoarseGrain);
    let st = sol.traceback();
    st.validate(12, 12).unwrap();
    // A full duplex pairs every position intermolecularly (or does at
    // least as well with an equivalent mix); the score must reach the
    // all-pairs duplex value.
    let duplex_score: f32 = (0..12)
        .map(|k| p.model().inter(target[k], binding[k]))
        .sum();
    assert!(
        sol.score() >= duplex_score,
        "{} < {duplex_score}",
        sol.score()
    );
}

#[test]
fn kissing_hairpins_mix_intra_and_inter_pairs() {
    let (s1, s2, stem, loop_len) = rna::datasets::kissing_hairpins(4, 5);
    let p = BpMaxProblem::new(s1.clone(), s2.clone(), ScoringModel::bpmax_default());
    let sol = solve(
        &p,
        Algorithm::HybridTiled {
            tile: Tile::default(),
        },
    );
    // stems: GC×4 (12) + AU×4 (8); kissing loops: CG×5 (15)
    let expected = 3.0 * stem as f32 + 2.0 * stem as f32 + 3.0 * loop_len as f32;
    assert_eq!(sol.score(), expected);
    let st = sol.traceback();
    st.validate(s1.len(), s2.len()).unwrap();
    assert!(
        st.inter.len() >= loop_len && !st.intra1.is_empty() && !st.intra2.is_empty(),
        "expected a mixed structure: {st:?}"
    );
}

#[test]
fn fasta_to_interaction_pipeline() {
    let text = ">hairpin\nGGGAAACCC\n>regulator\nUUU\n";
    let records = rna::fasta::parse(text).unwrap();
    assert_eq!(records.len(), 2);
    let p = BpMaxProblem::new(
        records[0].seq.clone(),
        records[1].seq.clone(),
        ScoringModel::bpmax_default(),
    );
    assert_eq!(solve(&p, Algorithm::CoarseGrain).score(), 15.0);
}
