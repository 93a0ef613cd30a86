//! Exact emptiness testing for integer polyhedra over named variables.
//!
//! A [`Polyhedron`] is a conjunction of affine constraints `e ≥ 0` /
//! `e = 0` with `i128` coefficients over symbolic variables (iteration
//! indices, tile coordinates, size parameters — no distinction is made
//! here). [`Polyhedron::feasibility`] decides whether the set contains an
//! integer point:
//!
//! 1. **Normalization & integer tightening.** Every constraint is divided
//!    by the gcd of its variable coefficients; for inequalities the
//!    constant is floored (a sound Gomory-style strengthening that
//!    preserves exactly the integer points), and an equality whose gcd
//!    does not divide its constant is immediately unsatisfiable over ℤ.
//! 2. **Equality substitution.** Equalities with a ±1 coefficient are
//!    eliminated by Gaussian substitution, shrinking the variable set
//!    without any rational relaxation.
//! 3. **Fourier–Motzkin elimination.** Remaining variables are eliminated
//!    greedily (fewest pairwise combinations first) by exact rational FM
//!    over integer coefficients (`a·x + f ≥ 0`, `-b·x + g ≥ 0` combine to
//!    `b·f + a·g ≥ 0`), with gcd re-tightening and constraint
//!    deduplication at every step. A contradictory constant certifies
//!    emptiness: the tightened system preserves integer points, so
//!    **Empty means no integer point exists** — that is the soundness
//!    direction a "schedule is legal" verdict rests on.
//! 4. **Integer witness refinement.** If FM finds the rational relaxation
//!    non-empty, a bounded backtracking search over the FM cascade
//!    (assigning variables in reverse elimination order, candidates taken
//!    from each variable's implied interval) looks for a concrete integer
//!    point. Every returned witness is re-checked against the original
//!    constraints. If the budget runs out, the verdict is the honest
//!    [`Feasibility::RationalOnly`].

use crate::affine::AffineExpr;
use std::collections::{BTreeMap, BTreeSet};

/// A concrete integer valuation of the polyhedron's variables.
pub type Assignment = BTreeMap<String, i64>;

/// Outcome of an integer-feasibility query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// Certified: the set contains no integer point.
    Empty,
    /// A concrete integer point in the set (verified against every
    /// original constraint).
    Witness(Assignment),
    /// The rational relaxation is (or may be) non-empty but no integer
    /// point was found within the search budget. Callers must treat this
    /// as "unknown", never as "legal".
    RationalOnly,
}

/// A linear expression `Σ cᵢ·xᵢ + k` with `i128` coefficients.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LinExpr {
    coeffs: BTreeMap<String, i128>,
    constant: i128,
}

impl LinExpr {
    /// The constant expression `k`.
    #[must_use]
    pub fn constant(k: i128) -> Self {
        LinExpr {
            coeffs: BTreeMap::new(),
            constant: k,
        }
    }

    /// The single variable `name`.
    #[must_use]
    pub fn var(name: &str) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.to_string(), 1);
        LinExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Coefficient of `name` (0 when absent).
    #[must_use]
    pub fn coeff(&self, name: &str) -> i128 {
        self.coeffs.get(name).copied().unwrap_or(0)
    }

    /// The constant term.
    #[must_use]
    pub fn constant_term(&self) -> i128 {
        self.constant
    }

    /// Variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.coeffs
            .iter()
            .filter(|(_, &c)| c != 0)
            .map(|(v, _)| v.as_str())
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            *out.coeffs.entry(v.clone()).or_insert(0) += c;
        }
        out.constant += other.constant;
        out.prune();
        out
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-1))
    }

    /// `self * k`.
    #[must_use]
    pub fn scale(&self, k: i128) -> LinExpr {
        let mut out = self.clone();
        for c in out.coeffs.values_mut() {
            *c *= k;
        }
        out.constant *= k;
        out.prune();
        out
    }

    /// Evaluate under a (total, for this expression) assignment.
    ///
    /// # Panics
    /// Panics if a variable with non-zero coefficient is unassigned.
    #[must_use]
    pub fn eval(&self, env: &Assignment) -> i128 {
        let mut acc = self.constant;
        for (v, &c) in &self.coeffs {
            if c != 0 {
                let val = *env
                    .get(v)
                    .unwrap_or_else(|| panic!("unbound variable `{v}` in LinExpr::eval")); // lint: allow(panic): unbound variable is a caller bug
                acc += c * i128::from(val);
            }
        }
        acc
    }

    /// Replace `name` by `expr` (used by equality substitution).
    fn substitute(&self, name: &str, expr: &LinExpr) -> LinExpr {
        let c = self.coeff(name);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.coeffs.remove(name);
        out.add(&expr.scale(c))
    }

    fn prune(&mut self) {
        self.coeffs.retain(|_, c| *c != 0);
    }

    fn gcd_of_coeffs(&self) -> i128 {
        self.coeffs
            .values()
            .filter(|&&c| c != 0)
            .fold(0i128, |g, &c| gcd(g, c.abs()))
    }
}

impl From<&AffineExpr> for LinExpr {
    fn from(e: &AffineExpr) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        for v in e.vars() {
            let c = e.coeff(v);
            if c != 0 {
                coeffs.insert(v.to_string(), i128::from(c));
            }
        }
        LinExpr {
            coeffs,
            constant: i128::from(e.constant_term()),
        }
    }
}

impl std::fmt::Display for LinExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (v, &c) in &self.coeffs {
            if c == 0 {
                continue;
            }
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}{v}")?;
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Resource limits for [`Polyhedron::feasibility`].
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Abort FM (→ at best `RationalOnly`) past this many live constraints.
    pub max_constraints: usize,
    /// Total nodes explored in the integer witness search.
    pub max_search_nodes: usize,
    /// Integer candidates tried per variable per search node.
    pub candidates_per_var: usize,
    /// Absolute value cap on candidate witness coordinates.
    pub value_cap: i128,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_constraints: 20_000,
            max_search_nodes: 50_000,
            candidates_per_var: 12,
            value_cap: 1 << 40,
        }
    }
}

/// A conjunction of `e ≥ 0` / `e = 0` constraints over named integer
/// variables.
#[derive(Clone, Debug, Default)]
pub struct Polyhedron {
    ges: Vec<LinExpr>,
    eqs: Vec<LinExpr>,
}

impl Polyhedron {
    /// The empty conjunction (the whole space).
    #[must_use]
    pub fn new() -> Self {
        Polyhedron::default()
    }

    /// Add the constraint `e ≥ 0`.
    pub fn add_ge0(&mut self, e: LinExpr) {
        self.ges.push(e);
    }

    /// Add the constraint `e = 0`.
    pub fn add_eq0(&mut self, e: LinExpr) {
        self.eqs.push(e);
    }

    /// All constraints as `(expr, is_equality)` pairs.
    pub fn constraints(&self) -> impl Iterator<Item = (&LinExpr, bool)> {
        self.ges
            .iter()
            .map(|e| (e, false))
            .chain(self.eqs.iter().map(|e| (e, true)))
    }

    /// All variables mentioned by any constraint.
    #[must_use]
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (e, _) in self.constraints() {
            out.extend(e.vars().map(str::to_string));
        }
        out
    }

    /// Does `env` satisfy every constraint? (`env` must bind every
    /// mentioned variable.)
    #[must_use]
    pub fn satisfied_by(&self, env: &Assignment) -> bool {
        self.ges.iter().all(|e| e.eval(env) >= 0) && self.eqs.iter().all(|e| e.eval(env) == 0)
    }

    /// Decide integer feasibility. See the module docs for the pipeline.
    #[must_use]
    pub fn feasibility(&self, budget: &Budget) -> Feasibility {
        Solver::new(self, budget).run()
    }
}

/// Floor division for `i128`.
fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// Ceiling division for `i128`.
fn div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    -(-a).div_euclid(b)
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One FM elimination level: the variable removed and the constraint
/// system *before* removing it (used for witness back-substitution).
struct Level {
    var: String,
    system: Vec<LinExpr>,
}

struct Solver<'a> {
    original: &'a Polyhedron,
    budget: &'a Budget,
    /// Substitutions `var := expr` from the equality pre-pass, in the
    /// order they were applied.
    subs: Vec<(String, LinExpr)>,
}

impl<'a> Solver<'a> {
    fn new(original: &'a Polyhedron, budget: &'a Budget) -> Self {
        Solver {
            original,
            budget,
            subs: Vec::new(),
        }
    }

    fn run(&mut self) -> Feasibility {
        let mut ges = self.original.ges.clone();
        let mut eqs = self.original.eqs.clone();

        // -- Equality pre-pass: normalize, check ℤ-divisibility, then
        //    substitute away every equality with a unit coefficient.
        loop {
            let mut progress = false;
            let mut next_eqs = Vec::new();
            for eq in eqs.drain(..) {
                match normalize_eq(eq) {
                    NormEq::Infeasible => return Feasibility::Empty,
                    NormEq::Trivial => {}
                    NormEq::Keep(e) => next_eqs.push(e),
                }
            }
            // Find an equality with a ±1 coefficient to substitute.
            if let Some(pos) = next_eqs
                .iter()
                .position(|e| e.coeffs.values().any(|&c| c == 1 || c == -1))
            {
                let eq = next_eqs.swap_remove(pos);
                let (var, coeff) = eq
                    .coeffs
                    .iter()
                    .find(|(_, &c)| c == 1 || c == -1)
                    .map(|(v, &c)| (v.clone(), c))
                    .expect("unit coefficient just found"); // lint: allow(expect): the find above just located this coefficient
                                                            // coeff * var + rest = 0  ⟹  var = -rest / coeff.
                let mut rest = eq.clone();
                rest.coeffs.remove(&var);
                let replacement = rest.scale(-coeff); // 1/coeff == coeff for ±1
                for e in next_eqs.iter_mut().chain(ges.iter_mut()) {
                    *e = e.substitute(&var, &replacement);
                }
                self.subs.push((var, replacement));
                progress = true;
            }
            eqs = next_eqs;
            if !progress {
                break;
            }
        }
        // Remaining (non-unit) equalities become inequality pairs.
        for eq in eqs {
            ges.push(eq.clone());
            ges.push(eq.scale(-1));
        }

        // -- Fourier–Motzkin cascade.
        let mut system = match tighten_all(ges) {
            Ok(sys) => sys,
            Err(Contradiction) => return Feasibility::Empty,
        };
        let mut levels: Vec<Level> = Vec::new();
        let mut overflowed = false;
        loop {
            let mut vars: BTreeSet<&str> = BTreeSet::new();
            for e in &system {
                vars.extend(e.vars());
            }
            if vars.is_empty() {
                break;
            }
            // Greedy: eliminate the variable generating the fewest
            // combinations (#lower-bounds × #upper-bounds).
            let var = vars
                .iter()
                .min_by_key(|v| {
                    let pos = system.iter().filter(|e| e.coeff(v) > 0).count();
                    let neg = system.iter().filter(|e| e.coeff(v) < 0).count();
                    (pos * neg, pos + neg)
                })
                .expect("non-empty var set") // lint: allow(expect): loop guard ensures vars remain
                .to_string();

            let mut rest = Vec::new();
            let mut lowers = Vec::new(); // a·x + f ≥ 0, a > 0
            let mut uppers = Vec::new(); // -b·x + g ≥ 0, b > 0
            for e in &system {
                let c = e.coeff(&var);
                if c > 0 {
                    lowers.push(e.clone());
                } else if c < 0 {
                    uppers.push(e.clone());
                } else {
                    rest.push(e.clone());
                }
            }
            for lo in &lowers {
                let a = lo.coeff(&var);
                for up in &uppers {
                    let b = -up.coeff(&var);
                    // b·(a·x + f) + a·(−b·x + g) = b·f + a·g ≥ 0.
                    rest.push(lo.scale(b).add(&up.scale(a)));
                }
            }
            levels.push(Level {
                var,
                system: system.clone(),
            });
            system = match tighten_all(rest) {
                Ok(sys) => sys,
                Err(Contradiction) => return Feasibility::Empty,
            };
            if system.len() > self.budget.max_constraints {
                // Give up on certifying emptiness; a witness may still be
                // findable from the levels built so far plus the raw set.
                overflowed = true;
                break;
            }
        }

        // -- Rationally (post-tightening) feasible: search for an integer
        //    witness by back-substitution through the cascade.
        let mut nodes = 0usize;
        let mut assignment = Assignment::new();
        let mut found = None;
        if self.search(
            &levels,
            levels.len(),
            &mut assignment,
            &mut nodes,
            &mut found,
        ) {
            if let Some(full) = found {
                return Feasibility::Witness(full);
            }
        }
        // No integer point found. If FM ran to completion the relaxation
        // is non-empty but the search failed; either way this is
        // "unknown", and `overflowed` only makes it more so.
        let _ = overflowed;
        Feasibility::RationalOnly
    }

    /// Assign variables `levels[..depth]` in reverse elimination order.
    /// `assignment` holds values for variables of deeper levels.
    fn search(
        &self,
        levels: &[Level],
        depth: usize,
        assignment: &mut Assignment,
        nodes: &mut usize,
        found: &mut Option<Assignment>,
    ) -> bool {
        if depth == 0 {
            // Leaf: completing the assignment (equality back-substitution
            // plus recovery of cascade-cancelled variables) can still fail
            // for this particular choice of values — treat that as a dead
            // end and keep backtracking rather than giving up.
            if let Some(full) = self.complete_assignment(assignment) {
                if self.original.satisfied_by(&full) {
                    *found = Some(full);
                    return true;
                }
            }
            return false;
        }
        *nodes += 1;
        if *nodes > self.budget.max_search_nodes {
            return false;
        }
        let level = &levels[depth - 1];
        // A variable can cancel out of the cascade entirely (e.g. a tile
        // quotient whose two defining constraints combine to a tautology)
        // and then never receive a level of its own; constraints that
        // mention such a still-unbound variable cannot bound this one, so
        // use only the fully-bound constraints. The final check against
        // the original system keeps this sound.
        let usable: Vec<LinExpr> = level
            .system
            .iter()
            .filter(|e| {
                e.vars()
                    .all(|u| u == level.var || assignment.contains_key(u))
            })
            .cloned()
            .collect();
        let Some((lo, hi)) = interval_for(&usable, &level.var, assignment) else {
            return false;
        };
        for value in candidates(lo, hi, self.budget) {
            assignment.insert(level.var.clone(), value);
            if self.search(levels, depth - 1, assignment, nodes, found) {
                return true;
            }
        }
        assignment.remove(&level.var);
        false
    }

    /// Extend a witness over the FM variables with the equality-substituted
    /// variables (in reverse substitution order) and default any variable
    /// the constraints never mention to 0.
    fn complete_assignment(&self, assignment: &Assignment) -> Option<Assignment> {
        let mut full = assignment.clone();
        for (var, expr) in self.subs.iter().rev() {
            // A variable of the substitution body may have dropped out of
            // every FM constraint (fully cancelled): it is unconstrained
            // there, so 0 is as good a value as any.
            for v in expr.vars() {
                if !full.contains_key(v) {
                    full.insert(v.to_string(), 0);
                }
            }
            let value = expr.eval(&full);
            full.insert(var.clone(), i64::try_from(value).ok()?);
        }
        // Variables that cancelled out of the FM cascade are still
        // constrained in the original system (a tile quotient `q` with
        // `0 ≤ e − s·q < s` is *determined* by `e`); recover each from the
        // original constraints once its co-variables are bound.
        let mut all_ges: Vec<LinExpr> = self.original.ges.clone();
        for eq in &self.original.eqs {
            all_ges.push(eq.clone());
            all_ges.push(eq.scale(-1));
        }
        let mut pending: Vec<String> = self
            .original
            .vars()
            .into_iter()
            .filter(|v| !full.contains_key(v))
            .collect();
        loop {
            let mut progress = false;
            let mut still_pending = Vec::new();
            for var in pending {
                let relevant: Vec<LinExpr> = all_ges
                    .iter()
                    .filter(|e| e.coeff(&var) != 0)
                    .cloned()
                    .collect();
                let ready = relevant
                    .iter()
                    .all(|e| e.vars().all(|u| u == var || full.contains_key(u)));
                if !ready {
                    still_pending.push(var);
                    continue;
                }
                let (lo, hi) = interval_for(&relevant, &var, &full)?;
                let value = lo.or(hi).unwrap_or(0);
                full.insert(var, i64::try_from(value).ok()?);
                progress = true;
            }
            pending = still_pending;
            if pending.is_empty() || !progress {
                break;
            }
        }
        // Anything left is circularly entangled with other unbound vars;
        // default to 0 and let the final original-system check decide.
        for var in self.original.vars() {
            full.entry(var).or_insert(0);
        }
        Some(full)
    }
}

/// Bounds on `var` implied by `system` once every *other* variable in it
/// is bound by `assignment`. `None` = rationally empty at this node.
fn interval_for(
    system: &[LinExpr],
    var: &str,
    assignment: &Assignment,
) -> Option<(Option<i128>, Option<i128>)> {
    let mut lo: Option<i128> = None;
    let mut hi: Option<i128> = None;
    for e in system {
        let a = e.coeff(var);
        let mut rest = e.clone();
        rest.coeffs.remove(var);
        let r = rest.eval(assignment);
        if a == 0 {
            if r < 0 {
                return None;
            }
        } else if a > 0 {
            // a·x + r ≥ 0 ⟹ x ≥ ⌈-r/a⌉.
            let bound = div_ceil(-r, a);
            lo = Some(lo.map_or(bound, |cur| cur.max(bound)));
        } else {
            // a·x + r ≥ 0, a < 0 ⟹ x ≤ ⌊r/(-a)⌋.
            let bound = div_floor(r, -a);
            hi = Some(hi.map_or(bound, |cur| cur.min(bound)));
        }
    }
    if let (Some(l), Some(h)) = (lo, hi) {
        if l > h {
            return None;
        }
    }
    Some((lo, hi))
}

/// Small-magnitude-first integer candidates from an interval, capped by
/// the budget. Witness coordinates beyond `value_cap` are not attempted.
fn candidates(lo: Option<i128>, hi: Option<i128>, budget: &Budget) -> Vec<i64> {
    let cap = budget.candidates_per_var;
    let mut out = Vec::with_capacity(cap);
    let clamp = |v: i128| i64::try_from(v.clamp(-budget.value_cap, budget.value_cap)).ok();
    match (lo, hi) {
        (Some(l), Some(h)) => {
            let mut v = l;
            while v <= h && out.len() < cap {
                if let Some(x) = clamp(v) {
                    out.push(x);
                }
                v += 1;
            }
        }
        (Some(l), None) => {
            let start = l.max(-budget.value_cap);
            for k in 0..cap as i128 {
                if let Some(x) = clamp(start + k) {
                    out.push(x);
                }
            }
        }
        (None, Some(h)) => {
            let start = h.min(budget.value_cap);
            for k in 0..cap as i128 {
                if let Some(x) = clamp(start - k) {
                    out.push(x);
                }
            }
        }
        (None, None) => {
            // Unconstrained at this node: small values first.
            out.push(0);
            let mut k = 1i64;
            while out.len() < cap {
                out.push(k);
                if out.len() < cap {
                    out.push(-k);
                }
                k += 1;
            }
        }
    }
    out
}

struct Contradiction;

enum NormEq {
    Infeasible,
    Trivial,
    Keep(LinExpr),
}

/// Normalize an equality: strip gcd, and detect ℤ-infeasibility when the
/// gcd of the variable coefficients does not divide the constant.
fn normalize_eq(mut e: LinExpr) -> NormEq {
    e.prune();
    let g = e.gcd_of_coeffs();
    if g == 0 {
        return if e.constant == 0 {
            NormEq::Trivial
        } else {
            NormEq::Infeasible
        };
    }
    if e.constant % g != 0 {
        return NormEq::Infeasible;
    }
    if g > 1 {
        for c in e.coeffs.values_mut() {
            *c /= g;
        }
        e.constant /= g;
    }
    NormEq::Keep(e)
}

/// Normalize and integer-tighten `e ≥ 0`: divide by the coefficient gcd
/// and floor the constant (preserves the integer solution set exactly).
/// Returns `None` for trivially true constraints.
fn tighten_ge(mut e: LinExpr) -> Result<Option<LinExpr>, Contradiction> {
    e.prune();
    let g = e.gcd_of_coeffs();
    if g == 0 {
        return if e.constant >= 0 {
            Ok(None)
        } else {
            Err(Contradiction)
        };
    }
    if g > 1 {
        for c in e.coeffs.values_mut() {
            *c /= g;
        }
        e.constant = div_floor(e.constant, g);
    }
    Ok(Some(e))
}

/// Tighten a whole system, dropping trivial and dominated duplicates
/// (same coefficients ⟹ keep only the tightest constant).
fn tighten_all(ges: Vec<LinExpr>) -> Result<Vec<LinExpr>, Contradiction> {
    let mut best: BTreeMap<BTreeMap<String, i128>, i128> = BTreeMap::new();
    for e in ges {
        if let Some(t) = tighten_ge(e)? {
            // `Σc·x + k ≥ 0` is tighter for *smaller* k.
            match best.get_mut(&t.coeffs) {
                Some(k) => *k = (*k).min(t.constant),
                None => {
                    best.insert(t.coeffs, t.constant);
                }
            }
        }
    }
    Ok(best
        .into_iter()
        .map(|(coeffs, constant)| LinExpr { coeffs, constant })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ge(p: &mut Polyhedron, coeffs: &[(&str, i128)], k: i128) {
        let mut e = LinExpr::constant(k);
        for (v, c) in coeffs {
            e = e.add(&LinExpr::var(v).scale(*c));
        }
        p.add_ge0(e);
    }

    fn eq(p: &mut Polyhedron, coeffs: &[(&str, i128)], k: i128) {
        let mut e = LinExpr::constant(k);
        for (v, c) in coeffs {
            e = e.add(&LinExpr::var(v).scale(*c));
        }
        p.add_eq0(e);
    }

    #[test]
    fn unconstrained_space_has_a_witness() {
        let p = Polyhedron::new();
        assert!(matches!(
            p.feasibility(&Budget::default()),
            Feasibility::Witness(_)
        ));
    }

    #[test]
    fn simple_box_witness() {
        let mut p = Polyhedron::new();
        ge(&mut p, &[("x", 1)], -3); // x ≥ 3
        ge(&mut p, &[("x", -1)], 10); // x ≤ 10
        ge(&mut p, &[("y", 1), ("x", -1)], 0); // y ≥ x
        match p.feasibility(&Budget::default()) {
            Feasibility::Witness(w) => {
                assert!(w["x"] >= 3 && w["x"] <= 10 && w["y"] >= w["x"]);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_bounds_are_empty() {
        let mut p = Polyhedron::new();
        ge(&mut p, &[("x", 1)], -5); // x ≥ 5
        ge(&mut p, &[("x", -1)], 3); // x ≤ 3
        assert_eq!(p.feasibility(&Budget::default()), Feasibility::Empty);
    }

    #[test]
    fn rational_but_not_integer_gap_is_empty_after_tightening() {
        // 2x ≥ 1 and 2x ≤ 1: rationally {1/2}, no integer point.
        let mut p = Polyhedron::new();
        ge(&mut p, &[("x", 2)], -1);
        ge(&mut p, &[("x", -2)], 1);
        assert_eq!(p.feasibility(&Budget::default()), Feasibility::Empty);
    }

    #[test]
    fn equality_divisibility_is_checked() {
        // 2x + 4y = 3 has no integer solutions.
        let mut p = Polyhedron::new();
        eq(&mut p, &[("x", 2), ("y", 4)], -3);
        assert_eq!(p.feasibility(&Budget::default()), Feasibility::Empty);
    }

    #[test]
    fn equality_substitution_finds_witness() {
        // x = y + 2, x + y = 10 → x=6, y=4.
        let mut p = Polyhedron::new();
        eq(&mut p, &[("x", 1), ("y", -1)], -2);
        eq(&mut p, &[("x", 1), ("y", 1)], -10);
        match p.feasibility(&Budget::default()) {
            Feasibility::Witness(w) => {
                assert_eq!(w["x"], 6);
                assert_eq!(w["y"], 4);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn chained_elimination_detects_emptiness() {
        // x ≤ y, y ≤ z, z ≤ x - 1: a cycle with a strict drop.
        let mut p = Polyhedron::new();
        ge(&mut p, &[("y", 1), ("x", -1)], 0);
        ge(&mut p, &[("z", 1), ("y", -1)], 0);
        ge(&mut p, &[("x", 1), ("z", -1)], -1);
        assert_eq!(p.feasibility(&Budget::default()), Feasibility::Empty);
    }

    #[test]
    fn unbounded_above_still_yields_small_witness() {
        // M ≥ 1, x ≥ M + 1 (no upper bounds anywhere).
        let mut p = Polyhedron::new();
        ge(&mut p, &[("M", 1)], -1);
        ge(&mut p, &[("x", 1), ("M", -1)], -1);
        match p.feasibility(&Budget::default()) {
            Feasibility::Witness(w) => {
                assert!(w["M"] >= 1 && w["x"] > w["M"]);
                assert!(w["M"] <= 4, "search should prefer small values: {w:?}");
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn tiling_linearization_shape_is_consistent() {
        // q = ⌊i/4⌋ modeled as 0 ≤ i - 4q ≤ 3, with i = 7 forced:
        // the only integer q is 1.
        let mut p = Polyhedron::new();
        eq(&mut p, &[("i", 1)], -7);
        ge(&mut p, &[("i", 1), ("q", -4)], 0);
        ge(&mut p, &[("q", 4), ("i", -1)], 3);
        match p.feasibility(&Budget::default()) {
            Feasibility::Witness(w) => assert_eq!(w["q"], 1),
            other => panic!("expected witness, got {other:?}"),
        }
        // Forcing q = 2 as well must be empty.
        let mut p2 = p.clone();
        eq(&mut p2, &[("q", 1)], -2);
        assert_eq!(p2.feasibility(&Budget::default()), Feasibility::Empty);
    }

    #[test]
    fn witness_satisfies_every_original_constraint() {
        let mut p = Polyhedron::new();
        ge(&mut p, &[("a", 3), ("b", -2)], 1);
        ge(&mut p, &[("b", 5), ("a", -1)], -3);
        ge(&mut p, &[("a", 1)], 0);
        ge(&mut p, &[("b", 1)], 0);
        ge(&mut p, &[("a", -1)], 50);
        ge(&mut p, &[("b", -1)], 50);
        match p.feasibility(&Budget::default()) {
            Feasibility::Witness(w) => assert!(p.satisfied_by(&w)),
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn display_is_readable() {
        let e = LinExpr::var("x")
            .scale(2)
            .add(&LinExpr::var("y").scale(-1))
            .add(&LinExpr::constant(-3));
        assert_eq!(e.to_string(), "2x - y - 3");
        assert_eq!(LinExpr::constant(0).to_string(), "0");
    }
}
