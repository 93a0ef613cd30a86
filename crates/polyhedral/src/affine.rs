//! Affine expressions and maps over named variables.
//!
//! Everything in the polyhedral model — iteration domains, dependences,
//! schedules, memory maps — is built from integer affine expressions
//! `Σ cᵥ·v + c₀` over index variables (`i1`, `j1`, …) and size parameters
//! (`M`, `N`). We use *named* variables throughout: `BPMax` schedules mix
//! variables of different arities (Tables II–V schedule 2-D, 4-D, 5-D and
//! 6-D variables into one 7/8-dimensional time), and names keep those maps
//! readable and composable without positional bookkeeping.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An evaluation environment: variable name → integer value.
pub type Env = BTreeMap<String, i64>;

/// Build an [`Env`] from `(name, value)` pairs.
pub fn env(pairs: &[(&str, i64)]) -> Env {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// An integer affine expression `Σ coeff(v)·v + constant`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    coeffs: BTreeMap<String, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The variable `name` with coefficient 1.
    pub fn var(name: &str) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.to_string(), 1);
        AffineExpr {
            coeffs,
            constant: 0,
        }
    }

    /// Coefficient of `name` (0 if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.coeffs.get(name).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Variables with non-zero coefficient, in name order.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.coeffs
            .iter()
            .filter(|(_, &c)| c != 0)
            .map(|(k, _)| k.as_str())
    }

    /// Evaluate under `env`. Panics if a needed variable is unbound —
    /// an unbound name in a schedule or domain is a programming error we
    /// want loudly, not silently-as-zero.
    pub fn eval(&self, env: &Env) -> i64 {
        let mut acc = self.constant;
        for (v, &c) in &self.coeffs {
            if c == 0 {
                continue;
            }
            let val = *env
                .get(v)
                .unwrap_or_else(|| panic!("unbound variable {v:?} in affine expression {self}")); // lint: allow(panic): unbound variable is a caller bug, documented
            acc += c * val;
        }
        acc
    }

    /// Substitute each variable by an affine expression (simultaneous).
    /// Variables absent from `subs` are left intact — that is how
    /// parameters (`M`, `N`) survive composition.
    pub fn substitute(&self, subs: &BTreeMap<String, AffineExpr>) -> AffineExpr {
        let mut out = AffineExpr::constant(self.constant);
        for (v, &c) in &self.coeffs {
            if c == 0 {
                continue;
            }
            match subs.get(v) {
                Some(e) => out = out + e.clone() * c,
                None => out = out + AffineExpr::var(v) * c,
            }
        }
        out
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        for (v, c) in rhs.coeffs {
            *self.coeffs.entry(v).or_insert(0) += c;
        }
        self.constant += rhs.constant;
        self
    }
}

impl Add<i64> for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: i64) -> AffineExpr {
        self.constant += rhs;
        self
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Sub<i64> for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: i64) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(mut self) -> AffineExpr {
        for c in self.coeffs.values_mut() {
            *c = -*c;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, rhs: i64) -> AffineExpr {
        for c in self.coeffs.values_mut() {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, &c) in &self.coeffs {
            if c == 0 {
                continue;
            }
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}{v}")?,
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
        if self.constant != 0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant > 0 {
                write!(f, " + {}", self.constant)?;
            } else {
                write!(f, " - {}", -self.constant)?;
            }
        }
        Ok(())
    }
}

/// Shorthand: the variable `name` as an expression.
pub fn v(name: &str) -> AffineExpr {
    AffineExpr::var(name)
}

/// Shorthand: the constant `c` as an expression.
pub fn c(value: i64) -> AffineExpr {
    AffineExpr::constant(value)
}

/// A multi-dimensional affine map `(inputs…) ↦ (expr₀, expr₁, …)`.
///
/// `inputs` document (and validate) which variables the map expects; the
/// expressions may also mention parameters, which must be bound in the
/// evaluation environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineMap {
    inputs: Vec<String>,
    exprs: Vec<AffineExpr>,
}

impl AffineMap {
    /// Build a map from input names and output expressions.
    pub fn new(inputs: &[&str], exprs: Vec<AffineExpr>) -> Self {
        AffineMap {
            inputs: inputs.iter().map(ToString::to_string).collect(),
            exprs,
        }
    }

    /// Identity map on `inputs`.
    pub fn identity(inputs: &[&str]) -> Self {
        AffineMap::new(inputs, inputs.iter().map(|s| AffineExpr::var(s)).collect())
    }

    /// Input variable names.
    pub fn inputs(&self) -> &[String] {
        &self.inputs
    }

    /// Output expressions.
    pub fn exprs(&self) -> &[AffineExpr] {
        &self.exprs
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.exprs.len()
    }

    /// Evaluate all outputs under `env`.
    pub fn eval(&self, env: &Env) -> Vec<i64> {
        self.exprs.iter().map(|e| e.eval(env)).collect()
    }

    /// Evaluate, binding `self.inputs` to `point` on top of `params`.
    pub fn eval_point(&self, point: &[i64], params: &Env) -> Vec<i64> {
        assert_eq!(
            point.len(),
            self.inputs.len(),
            "point arity {} does not match map inputs {:?}",
            point.len(),
            self.inputs
        );
        let mut env = params.clone();
        for (name, &val) in self.inputs.iter().zip(point) {
            env.insert(name.clone(), val);
        }
        self.eval(&env)
    }

    /// Compose: `self ∘ inner` — apply `inner` first, then `self`.
    /// `inner.out_dim()` must equal `self.inputs.len()`; `self`'s k-th input
    /// variable is substituted by `inner`'s k-th output expression.
    pub fn compose(&self, inner: &AffineMap) -> AffineMap {
        assert_eq!(
            inner.out_dim(),
            self.inputs.len(),
            "composition arity mismatch"
        );
        let subs: BTreeMap<String, AffineExpr> = self
            .inputs
            .iter()
            .cloned()
            .zip(inner.exprs.iter().cloned())
            .collect();
        AffineMap {
            inputs: inner.inputs.clone(),
            exprs: self.exprs.iter().map(|e| e.substitute(&subs)).collect(),
        }
    }
}

impl fmt::Display for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) -> (", self.inputs.join(", "))?;
        for (k, e) in self.exprs.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_eval() {
        let e = v("i") * 2 - v("j") + 5;
        assert_eq!(e.coeff("i"), 2);
        assert_eq!(e.coeff("j"), -1);
        assert_eq!(e.coeff("k"), 0);
        assert_eq!(e.eval(&env(&[("i", 3), ("j", 4)])), 7);
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        v("x").eval(&env(&[]));
    }

    #[test]
    fn display_formats() {
        assert_eq!((v("i") - v("j") + 1).to_string(), "i - j + 1");
        assert_eq!((c(0)).to_string(), "0");
        assert_eq!((-v("i")).to_string(), "-i");
        assert_eq!((v("i") * 3 - 2).to_string(), "3i - 2");
    }

    #[test]
    fn substitution() {
        // e = i + 2j; substitute i := a + 1, j := b - a
        let e = v("i") + v("j") * 2;
        let mut subs = BTreeMap::new();
        subs.insert("i".to_string(), v("a") + 1);
        subs.insert("j".to_string(), v("b") - v("a"));
        let s = e.substitute(&subs);
        // = (a+1) + 2(b-a) = -a + 2b + 1
        assert_eq!(s.coeff("a"), -1);
        assert_eq!(s.coeff("b"), 2);
        assert_eq!(s.constant_term(), 1);
    }

    #[test]
    fn map_eval_point_binds_inputs_over_params() {
        // (i, j) -> (j - i, i, M)
        let m = AffineMap::new(&["i", "j"], vec![v("j") - v("i"), v("i"), v("M")]);
        let out = m.eval_point(&[2, 5], &env(&[("M", 100)]));
        assert_eq!(out, vec![3, 2, 100]);
    }

    #[test]
    fn identity_map() {
        let m = AffineMap::identity(&["a", "b"]);
        assert_eq!(m.eval_point(&[7, -2], &env(&[])), vec![7, -2]);
    }

    #[test]
    fn composition() {
        // inner: (i, j) -> (i + j, i - j)
        let inner = AffineMap::new(&["i", "j"], vec![v("i") + v("j"), v("i") - v("j")]);
        // outer: (x, y) -> (2x + y)
        let outer = AffineMap::new(&["x", "y"], vec![v("x") * 2 + v("y")]);
        let comp = outer.compose(&inner);
        // = 2(i+j) + (i-j) = 3i + j
        assert_eq!(comp.eval_point(&[1, 2], &env(&[])), vec![5]);
        assert_eq!(comp.inputs(), &["i".to_string(), "j".to_string()]);
    }

    #[test]
    fn composition_keeps_parameters() {
        let inner = AffineMap::new(&["i"], vec![v("i") + 1]);
        let outer = AffineMap::new(&["x"], vec![v("x") + v("N")]);
        let comp = outer.compose(&inner);
        assert_eq!(comp.eval_point(&[4], &env(&[("N", 10)])), vec![15]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn eval_point_arity_mismatch_panics() {
        let m = AffineMap::identity(&["a", "b"]);
        m.eval_point(&[1], &env(&[]));
    }
}
