//! Batch screening: many regulators against many targets.
//!
//! The workload downstream users actually run — the paper's motivation
//! ("necessitating efficient computational tools") is screening candidate
//! RNA-RNA interactions, not solving one pair. Two entry points:
//!
//! * [`score_matrix`] — all-vs-all interaction scores (full `BPMax` per
//!   pair), one serial `Permuted` solve per pair, in order — at
//!   screening scale the pairs are independent, with no wavefront
//!   coupling.
//! * [`scan_significance`] — windowed scan of one query against a target
//!   plus an empirical null from dinucleotide-free shuffles of the query:
//!   reports each window's z-score so hits can be ranked by surprise, not
//!   raw score (GC-rich windows score high under any query).

use crate::engine::{Algorithm, BpMaxProblem, SolveOptions};
use crate::kernels::Ctx;
use crate::windowed::solve_windowed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rna::{RnaSeq, ScoringModel};

/// All-vs-all interaction scores: `result[q][t]` = `BPMax` score of
/// `queries[q]` × `targets[t]`, solved pair by pair.
pub fn score_matrix(queries: &[RnaSeq], targets: &[RnaSeq], model: &ScoringModel) -> Vec<Vec<f32>> {
    queries
        .iter()
        .map(|q| {
            targets
                .iter()
                .map(|t| {
                    BpMaxProblem::new(q.clone(), t.clone(), model.clone())
                        .solve_opts(&SolveOptions::new().algorithm(Algorithm::Permuted))
                        .expect("unsupervised screening solve") // lint: allow(expect): no supervision; only absurd strand lengths could fail, matching the historical panic
                        .score()
                })
                .collect()
        })
        .collect()
}

/// One scan hit with its empirical significance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScanHit {
    /// Window start in the target.
    pub start: usize,
    /// Interaction score of the real query.
    pub score: f32,
    /// Mean score of the shuffled-query null at this window.
    pub null_mean: f32,
    /// Standard deviation of the null (0 if degenerate).
    pub null_sd: f32,
}

impl ScanHit {
    /// z-score of the real score against the shuffle null (0 when the
    /// null is degenerate).
    pub fn z(&self) -> f32 {
        if self.null_sd > 0.0 {
            (self.score - self.null_mean) / self.null_sd
        } else {
            0.0
        }
    }
}

/// Mononucleotide shuffle (composition-preserving permutation).
pub fn shuffle_seq(rng: &mut StdRng, seq: &RnaSeq) -> RnaSeq {
    let mut bases = seq.bases().to_vec();
    bases.shuffle(rng);
    RnaSeq::new(bases)
}

/// Windowed scan of `query` against `target` with an empirical null from
/// `shuffles` composition-preserving shuffles of the query. Returns one
/// [`ScanHit`] per window, sorted by descending z-score.
pub fn scan_significance(
    query: &RnaSeq,
    target: &RnaSeq,
    model: &ScoringModel,
    w: usize,
    shuffles: usize,
    seed: u64,
) -> Vec<ScanHit> {
    assert!(shuffles >= 2, "need at least 2 shuffles for a variance");
    let real =
        solve_windowed(&Ctx::new(query.clone(), target.clone(), model.clone()), w).window_scores();
    // Null distribution per window, one solve per shuffle.
    let null_scores: Vec<Vec<f32>> = (0..shuffles)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9));
            let shuffled = shuffle_seq(&mut rng, query);
            solve_windowed(&Ctx::new(shuffled, target.clone(), model.clone()), w).window_scores()
        })
        .collect();
    let mut hits: Vec<ScanHit> = (0..real.len())
        .map(|s| {
            let vals: Vec<f32> = null_scores.iter().map(|run| run[s]).collect();
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            let var =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (vals.len() - 1) as f32;
            ScanHit {
                start: s,
                score: real[s],
                null_mean: mean,
                null_sd: var.sqrt(),
            }
        })
        .collect();
    hits.sort_by(|a, b| b.z().total_cmp(&a.z()).then(a.start.cmp(&b.start)));
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna::datasets;

    #[test]
    fn score_matrix_shape_and_values() {
        let model = ScoringModel::bpmax_default();
        let queries: Vec<RnaSeq> = vec!["GGG".parse().unwrap(), "AAA".parse().unwrap()];
        let targets: Vec<RnaSeq> = vec!["CCC".parse().unwrap(), "UUU".parse().unwrap()];
        let m = score_matrix(&queries, &targets, &model);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[0][0], 9.0); // GGG x CCC duplex
        assert_eq!(m[1][1], 6.0); // AAA x UUU duplex
        assert_eq!(m[1][0], 0.0); // AAA x CCC: nothing pairs
                                  // GGG x UUU: G-U wobble x3
        assert_eq!(m[0][1], 3.0);
    }

    #[test]
    fn score_matrix_matches_individual_solves() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = ScoringModel::bpmax_default();
        let queries: Vec<RnaSeq> = (0..3).map(|_| RnaSeq::random(&mut rng, 6)).collect();
        let targets: Vec<RnaSeq> = (0..2).map(|_| RnaSeq::random(&mut rng, 7)).collect();
        let m = score_matrix(&queries, &targets, &model);
        for (qi, q) in queries.iter().enumerate() {
            for (ti, t) in targets.iter().enumerate() {
                let direct = BpMaxProblem::new(q.clone(), t.clone(), model.clone())
                    .solve_opts(&SolveOptions::new().algorithm(Algorithm::CoarseGrain))
                    .unwrap()
                    .score();
                assert_eq!(m[qi][ti], direct);
            }
        }
    }

    #[test]
    fn shuffle_preserves_composition() {
        let mut rng = StdRng::seed_from_u64(1);
        let seq: RnaSeq = "GGGGAAACCU".parse().unwrap();
        let sh = shuffle_seq(&mut rng, &seq);
        assert_eq!(sh.len(), seq.len());
        let count = |s: &RnaSeq, b: rna::Base| s.bases().iter().filter(|&&x| x == b).count();
        for b in rna::base::BASES {
            assert_eq!(count(&sh, b), count(&seq, b));
        }
    }

    #[test]
    fn planted_site_outscores_its_null() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        // A query whose order matters: alternating GC/AU so shuffles
        // usually break the perfect duplex.
        let query: RnaSeq = "GACUGACUGACU".parse().unwrap();
        // Plant the window that binds `query` in the engine's *parallel*
        // inter-pair orientation: splicing the reverse complement of the
        // reversed query leaves the elementwise complement of `query`,
        // i.e. a fully representable duplex (see the spec conventions).
        let target = datasets::planted_site(&mut rng, &query.reversed(), 80, 40);
        let model = ScoringModel::bpmax_default();
        let hits = scan_significance(&query, &target, &model, query.len(), 8, 7);
        assert_eq!(hits.len(), 80);
        // The planted window must appear among the top-z hits.
        let top: Vec<usize> = hits.iter().take(6).map(|h| h.start).collect();
        assert!(
            top.iter().any(|&s| (s as i64 - 40).abs() <= 3),
            "planted site missing from top hits: {top:?}"
        );
        // The planted site's z is positive but modest: weighted base-pair
        // *counting* is largely composition-determined (a shuffled query
        // still pairs almost as well), which is exactly the fidelity
        // trade-off the paper's source model discusses (BPMax vs piRNA
        // correlation ~0.84–0.90, not 1.0). We assert the direction, not
        // a large margin.
        let planted = hits
            .iter()
            .find(|h| (h.start as i64 - 40).abs() <= 1)
            .unwrap();
        assert!(planted.z() > 0.0, "z = {}", planted.z());
    }

    #[test]
    fn z_handles_degenerate_null() {
        let h = ScanHit {
            start: 0,
            score: 5.0,
            null_mean: 5.0,
            null_sd: 0.0,
        };
        assert_eq!(h.z(), 0.0);
    }
}
