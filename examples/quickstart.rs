//! Quickstart: score and fold one RNA-RNA interaction.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- GGGAAACCC UUUGGG
//! ```

use bpmax::{BpMaxProblem, SolveOptions};
use rna::{RnaSeq, ScoringModel};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (s1, s2): (RnaSeq, RnaSeq) = if args.len() >= 3 {
        (
            args[1].parse().expect("bad sequence 1"),
            args[2].parse().expect("bad sequence 2"),
        )
    } else {
        // A hairpin-forming strand and a short regulator that can kiss the
        // loop: the optimal structure mixes intra- and intermolecular pairs.
        ("GGGAAAACCC".parse().unwrap(), "GUUUU".parse().unwrap())
    };
    println!("strand 1 (5'->3'): {s1}");
    println!("strand 2 (5'->3'): {s2}");

    let model = ScoringModel::bpmax_default();
    let problem = BpMaxProblem::new(s1.clone(), s2.clone(), model.clone());
    // SolveOptions defaults to the champion hybrid+reg version.
    let solution = problem.solve_opts(&SolveOptions::new()).expect("solve");

    println!("\noptimal interaction score: {}", solution.score());
    println!(
        "({} single-strand fold 1 + {} fold 2 as the no-interaction floor)",
        problem.ctx().fold1.best_score(),
        problem.ctx().fold2.best_score()
    );

    let st = solution.traceback();
    st.validate(s1.len(), s2.len()).expect("invalid structure");
    let (l1, l2) = st.render(s1.len(), s2.len());
    println!("\njoint structure ((): intra, []: inter):");
    println!("  {s1}\n  {l1}\n  {l2}\n  {s2}");
    println!(
        "pairs: {} intra-1, {} intra-2, {} inter; structure score {}",
        st.intra1.len(),
        st.intra2.len(),
        st.inter.len(),
        st.score(&s1, &s2, &model)
    );
}
