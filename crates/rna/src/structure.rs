//! Secondary-structure representations and validity checks.
//!
//! A single-strand [`Structure`] is a set of intramolecular pairs; a
//! [`JointStructure`] additionally holds intermolecular pairs between two
//! strands. Validity here means the combinatorial constraints of the
//! base-pair counting model:
//!
//! * every position participates in at most one pair,
//! * intramolecular pairs of one strand are mutually non-crossing,
//! * intermolecular pairs are mutually non-crossing in the *parallel* sense
//!   induced by `BPMax`'s double-split decomposition `F[i1,k1,i2,k2] ⊗
//!   F[k1+1,j1,k2+1,j2]`: for `(a,b), (c,d)` with `a < c` we need `b < d`.
//!
//! These checks validate traceback output from both Nussinov and `BPMax`.

use crate::scoring::ScoringModel;
use crate::seq::RnaSeq;
use std::collections::HashSet;
use std::fmt;

/// A single-strand secondary structure: pairs `(i, j)` with `i < j`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Structure {
    pairs: Vec<(usize, usize)>,
}

impl Structure {
    /// Build from a pair list (each pair normalised to `i < j`).
    pub fn new(mut pairs: Vec<(usize, usize)>) -> Self {
        for p in &mut pairs {
            if p.0 > p.1 {
                *p = (p.1, p.0);
            }
        }
        pairs.sort_unstable();
        Structure { pairs }
    }

    /// The pair list, sorted by left endpoint.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Check disjointness and non-crossing against a strand of length `n`.
    pub fn validate(&self, n: usize) -> Result<(), StructureError> {
        let mut used = HashSet::new();
        for &(i, j) in &self.pairs {
            if i >= j {
                return Err(StructureError::Degenerate(i, j));
            }
            if j >= n {
                return Err(StructureError::OutOfRange(i, j, n));
            }
            for p in [i, j] {
                if !used.insert(p) {
                    return Err(StructureError::Reused(p));
                }
            }
        }
        for (a, &(i1, j1)) in self.pairs.iter().enumerate() {
            for &(i2, j2) in &self.pairs[a + 1..] {
                // sorted: i1 <= i2; crossing iff i1 < i2 <= j1 < j2
                if i2 <= j1 && j1 < j2 {
                    return Err(StructureError::Crossing((i1, j1), (i2, j2)));
                }
            }
        }
        Ok(())
    }

    /// Total weight under `model` for sequence `seq` (positional
    /// constraints included). Returns `-∞` if any pair is illegal.
    pub fn score(&self, seq: &RnaSeq, model: &ScoringModel) -> f32 {
        self.pairs
            .iter()
            .map(|&(i, j)| model.intra_pos(i, j, seq[i], seq[j]))
            .sum()
    }

    /// Dot-bracket rendering over a strand of length `n` (pairs as `(`/`)`).
    pub fn dot_bracket(&self, n: usize) -> String {
        let mut out = vec!['.'; n];
        for &(i, j) in &self.pairs {
            out[i] = '(';
            out[j] = ')';
        }
        out.into_iter().collect()
    }

    /// Parse a dot-bracket string (`.`, `(`, `)`) into a structure.
    /// Round-trips with [`Structure::dot_bracket`] for non-crossing
    /// structures (dot-bracket cannot express crossings, so the result
    /// always validates against `n = s.len()`).
    pub fn from_dot_bracket(s: &str) -> Result<Structure, StructureError> {
        let mut stack: Vec<usize> = Vec::new();
        let mut pairs = Vec::new();
        for (idx, c) in s.chars().enumerate() {
            match c {
                '.' => {}
                '(' => stack.push(idx),
                ')' => {
                    let open = stack.pop().ok_or(StructureError::UnbalancedBracket(idx))?;
                    pairs.push((open, idx));
                }
                other => return Err(StructureError::BadBracketChar(idx, other)),
            }
        }
        if let Some(&open) = stack.last() {
            return Err(StructureError::UnbalancedBracket(open));
        }
        Ok(Structure::new(pairs))
    }
}

/// A joint structure over two strands: both intramolecular structures plus
/// intermolecular pairs `(p1, p2)` (position in strand 1, position in 2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JointStructure {
    /// Intramolecular pairs within strand 1.
    pub intra1: Structure,
    /// Intramolecular pairs within strand 2.
    pub intra2: Structure,
    /// Intermolecular pairs (strand-1 position, strand-2 position).
    pub inter: Vec<(usize, usize)>,
}

impl JointStructure {
    /// Empty joint structure.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total number of pairs of all three kinds.
    pub fn total_pairs(&self) -> usize {
        self.intra1.len() + self.intra2.len() + self.inter.len()
    }

    /// Validate against strand lengths `m` (strand 1) and `n` (strand 2).
    pub fn validate(&self, m: usize, n: usize) -> Result<(), StructureError> {
        self.intra1.validate(m)?;
        self.intra2.validate(n)?;
        let mut used1: HashSet<usize> = self
            .intra1
            .pairs()
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect();
        let mut used2: HashSet<usize> = self
            .intra2
            .pairs()
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .collect();
        let mut sorted = self.inter.clone();
        sorted.sort_unstable();
        for &(p1, p2) in &sorted {
            if p1 >= m {
                return Err(StructureError::OutOfRange(p1, p2, m));
            }
            if p2 >= n {
                return Err(StructureError::OutOfRange(p1, p2, n));
            }
            if !used1.insert(p1) {
                return Err(StructureError::Reused(p1));
            }
            if !used2.insert(p2) {
                return Err(StructureError::Reused(p2));
            }
        }
        // Parallel non-crossing of intermolecular pairs.
        for (a, &(x1, y1)) in sorted.iter().enumerate() {
            for &(x2, y2) in &sorted[a + 1..] {
                if x1 < x2 && y1 >= y2 || x1 == x2 {
                    return Err(StructureError::CrossingInter((x1, y1), (x2, y2)));
                }
            }
        }
        Ok(())
    }

    /// Total weight under `model` for the two sequences.
    pub fn score(&self, s1: &RnaSeq, s2: &RnaSeq, model: &ScoringModel) -> f32 {
        let intra = self.intra1.score(s1, model) + self.intra2.score(s2, model);
        let inter: f32 = self
            .inter
            .iter()
            .map(|&(p1, p2)| model.inter(s1[p1], s2[p2]))
            .sum();
        intra + inter
    }

    /// Two-line rendering: strand 1 dot-bracket over `m`, strand 2 over `n`,
    /// intermolecular pairs as `[`/`]`.
    pub fn render(&self, m: usize, n: usize) -> (String, String) {
        let mut l1: Vec<char> = self.intra1.dot_bracket(m).chars().collect();
        let mut l2: Vec<char> = self.intra2.dot_bracket(n).chars().collect();
        for &(p1, p2) in &self.inter {
            l1[p1] = '[';
            l2[p2] = ']';
        }
        (l1.into_iter().collect(), l2.into_iter().collect())
    }
}

/// Reasons a structure fails validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// Pair with `i >= j`.
    Degenerate(usize, usize),
    /// Pair endpoint beyond the strand.
    OutOfRange(usize, usize, usize),
    /// Position in more than one pair.
    Reused(usize),
    /// Crossing intramolecular pairs.
    Crossing((usize, usize), (usize, usize)),
    /// Intermolecular pairs violating parallel order.
    CrossingInter((usize, usize), (usize, usize)),
    /// Dot-bracket text with an unmatched bracket (position given).
    UnbalancedBracket(usize),
    /// Dot-bracket text with a character outside `.()` (position, char).
    BadBracketChar(usize, char),
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::Degenerate(i, j) => write!(f, "degenerate pair ({i},{j})"),
            StructureError::OutOfRange(i, j, n) => {
                write!(f, "pair ({i},{j}) out of range for length {n}")
            }
            StructureError::Reused(p) => write!(f, "position {p} used by two pairs"),
            StructureError::Crossing(a, b) => write!(f, "crossing pairs {a:?} and {b:?}"),
            StructureError::CrossingInter(a, b) => {
                write!(f, "crossing intermolecular pairs {a:?} and {b:?}")
            }
            StructureError::UnbalancedBracket(p) => {
                write!(f, "unbalanced bracket at position {p}")
            }
            StructureError::BadBracketChar(p, c) => {
                write!(f, "invalid dot-bracket character {c:?} at position {p}")
            }
        }
    }
}

impl std::error::Error for StructureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_and_sorts_pairs() {
        let s = Structure::new(vec![(5, 2), (0, 1)]);
        assert_eq!(s.pairs(), &[(0, 1), (2, 5)]);
    }

    #[test]
    fn validate_accepts_nested() {
        let s = Structure::new(vec![(0, 9), (1, 4), (5, 8)]);
        assert!(s.validate(10).is_ok());
    }

    #[test]
    fn validate_rejects_crossing() {
        let s = Structure::new(vec![(0, 5), (3, 8)]);
        assert!(matches!(s.validate(10), Err(StructureError::Crossing(..))));
    }

    #[test]
    fn validate_rejects_reuse_and_range() {
        let s = Structure::new(vec![(0, 5), (5, 8)]);
        assert!(matches!(s.validate(10), Err(StructureError::Reused(5))));
        let s = Structure::new(vec![(0, 12)]);
        assert!(matches!(
            s.validate(10),
            Err(StructureError::OutOfRange(..))
        ));
    }

    #[test]
    fn dot_bracket_rendering() {
        let s = Structure::new(vec![(0, 4), (1, 3)]);
        assert_eq!(s.dot_bracket(6), "((.)).");
    }

    #[test]
    fn score_sums_weights() {
        let seq: RnaSeq = "GAUC".parse().unwrap();
        let model = ScoringModel::bpmax_default();
        // G0-C3 (3.0) + A1-U2 (2.0)
        let s = Structure::new(vec![(0, 3), (1, 2)]);
        assert_eq!(s.score(&seq, &model), 5.0);
    }

    #[test]
    fn dot_bracket_round_trip() {
        for text in [".", "()", "((.))", "(()).()", "........", "(((...)))"] {
            let st = Structure::from_dot_bracket(text).unwrap();
            assert_eq!(st.dot_bracket(text.len()), text, "{text}");
            st.validate(text.len()).unwrap();
        }
    }

    #[test]
    fn dot_bracket_parse_errors() {
        assert!(matches!(
            Structure::from_dot_bracket("(()"),
            Err(StructureError::UnbalancedBracket(0))
        ));
        assert!(matches!(
            Structure::from_dot_bracket("())"),
            Err(StructureError::UnbalancedBracket(2))
        ));
        assert!(matches!(
            Structure::from_dot_bracket(".x."),
            Err(StructureError::BadBracketChar(1, 'x'))
        ));
    }

    #[test]
    fn joint_validate_parallel_noncrossing() {
        let mut j = JointStructure::empty();
        j.inter = vec![(0, 0), (1, 1)];
        assert!(j.validate(3, 3).is_ok());
        j.inter = vec![(0, 2), (1, 1)];
        assert!(matches!(
            j.validate(3, 3),
            Err(StructureError::CrossingInter(..))
        ));
    }

    #[test]
    fn joint_validate_rejects_shared_position() {
        let mut j = JointStructure::empty();
        j.intra1 = Structure::new(vec![(0, 1)]);
        j.inter = vec![(1, 0)]; // strand-1 position 1 already paired
        assert!(matches!(j.validate(3, 3), Err(StructureError::Reused(1))));
    }

    #[test]
    fn joint_score_and_render() {
        let s1: RnaSeq = "GA".parse().unwrap();
        let s2: RnaSeq = "CU".parse().unwrap();
        let model = ScoringModel::bpmax_default();
        let mut j = JointStructure::empty();
        j.inter = vec![(0, 0), (1, 1)]; // G-C (3) + A-U (2)
        assert_eq!(j.score(&s1, &s2, &model), 5.0);
        let (l1, l2) = j.render(2, 2);
        assert_eq!((l1.as_str(), l2.as_str()), ("[[", "]]"));
    }
}
