//! Static in-bounds certification of kernel access patterns.
//!
//! Where [`crate::verify_static`] proves *schedule legality* for all
//! parameter values, this module proves *memory safety*: every access a
//! kernel makes, modelled as an affine function of the iteration point,
//! lands inside the declared data region — for **all** sizes `M`, `N` and
//! tile shapes above a small floor. The machinery is the same exact-i128
//! Fourier–Motzkin pipeline: per access, per region constraint, we build
//! the *violation polyhedron* (iteration domain ∧ parameter floors ∧
//! ¬constraint) and certify it empty of integer points, or extract a
//! concrete integer witness of an out-of-bounds access.
//!
//! Negation follows `verify_static` exactly: `¬(e ≥ 0) ⟺ −e − 1 ≥ 0`,
//! `¬(e = 0) ⟺ (e ≥ 1) ∨ (−e ≥ 1)` (two polyhedra). An exhausted budget
//! yields the honest [`AccessVerdict::Unknown`], never "in-bounds".
//!
//! # What is and is not proven
//!
//! Triangular tables are addressed through quadratic layout formulas
//! (`row_start(i) = i·(2n−i+1)/2` for the packed map), which are not
//! affine and therefore outside Presburger arithmetic. The certificate is
//! split in two tiers:
//!
//! * **Tier 1 (this module, symbolic):** every *logical* access `(row,
//!   column)` or `(row, offset-in-row)` satisfies the region constraints
//!   (e.g. `0 ≤ i ≤ j < N`, or `0 ≤ off < N − i`) for all parameters.
//! * **Tier 2 (the layout lemma, exhaustive):** each concrete layout maps
//!   every logical triangle point to a distinct address below the storage
//!   length, and its row API returns slices covering exactly the row's
//!   `n − i` columns. This is validated by exhaustive property tests over
//!   bounded `n` (see `bpmax::bounds` and `tropical::triangular` tests)
//!   and recorded as a named assumption in the certificate.
//!
//! Together the tiers prove that the kernels never panic on a bounds
//! check: a Tier-1-certified logical access composed with a
//! Tier-2-validated layout cannot index out of bounds, so the slice checks
//! Rust keeps in every kernel can never fire.

use crate::affine::{v, AffineExpr, Env};
use crate::domain::{Constraint, Domain};
use crate::presburger::{Assignment, Budget, Feasibility, LinExpr, Polyhedron};
use std::collections::BTreeMap;
use std::fmt;

/// Options for [`certify`].
#[derive(Clone, Debug)]
pub struct BoundsOptions {
    /// Parameters are constrained only by `param ≥ param_floor`.
    pub param_floor: i64,
    /// Resource limits for each emptiness query.
    pub budget: Budget,
}

impl Default for BoundsOptions {
    fn default() -> Self {
        BoundsOptions {
            param_floor: 1,
            budget: Budget::default(),
        }
    }
}

/// The data region an access's coordinates must land in.
#[derive(Clone, Debug)]
pub enum Region {
    /// Upper triangle `0 ≤ c₀ ≤ c₁ < n` (two coordinates).
    UpperTriangle {
        /// Side length (an affine expression in the parameters).
        n: AffineExpr,
    },
    /// Rectangular box `0 ≤ c_d < dims[d]` per coordinate.
    Box {
        /// Extent of each coordinate.
        dims: Vec<AffineExpr>,
    },
    /// Arbitrary conjunction. Constraints may mention the coordinate
    /// placeholders `@0`, `@1`, … (substituted with the access's
    /// coordinate expressions) alongside the kernel's iteration variables
    /// and parameters.
    Where {
        /// The conjunction, over `@d` placeholders, iteration variables
        /// and parameters.
        constraints: Vec<Constraint>,
    },
}

impl Region {
    /// The region as constraints over the `@d` coordinate placeholders.
    fn template(&self, arity: usize) -> Vec<Constraint> {
        match self {
            Region::UpperTriangle { n } => {
                assert_eq!(arity, 2, "UpperTriangle regions take two coordinates");
                vec![
                    Constraint::Ge0(v("@0")),
                    Constraint::Ge0(v("@1") - v("@0")),
                    Constraint::Ge0(n.clone() - v("@1") - 1),
                ]
            }
            Region::Box { dims } => {
                assert_eq!(arity, dims.len(), "Box region arity mismatch");
                let mut cs = Vec::with_capacity(2 * dims.len());
                for (d, dim) in dims.iter().enumerate() {
                    let c = v(format!("@{d}").as_str());
                    cs.push(Constraint::Ge0(c.clone()));
                    cs.push(Constraint::Ge0(dim.clone() - c - 1));
                }
                cs
            }
            Region::Where { constraints } => constraints.clone(),
        }
    }
}

/// One access a kernel makes: an affine coordinate function of the
/// iteration point, plus the region it must land in.
#[derive(Clone, Debug)]
pub struct AccessSpec {
    /// Human-readable label, e.g. `"B[k2+1, j2]"`.
    pub label: String,
    /// Logical coordinates as affine expressions over the kernel domain's
    /// iteration variables and the parameters.
    pub coords: Vec<AffineExpr>,
    /// Region the coordinates must satisfy.
    pub region: Region,
}

/// A kernel's iteration domain plus every access it performs.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Kernel name as surfaced in reports, e.g. `"r0_permuted"`.
    pub name: String,
    /// One-line description of the loop nest being modelled.
    pub doc: String,
    /// Size/tile parameter names (constrained to `≥ param_floor`).
    pub params: Vec<String>,
    /// Iteration domain (may mention the parameters).
    pub domain: Domain,
    /// The accesses.
    pub accesses: Vec<AccessSpec>,
    /// Tier-2 assumptions this certificate rests on (layout lemmas),
    /// named so the report is honest about its trusted base.
    pub assumptions: Vec<String>,
}

/// A concrete integer witness of an out-of-bounds access.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundsViolation {
    /// Label of the violating access.
    pub access: String,
    /// Display form of the violated region constraint.
    pub constraint: String,
    /// Parameter values at which the violation manifests.
    pub params: Env,
    /// The iteration point performing the access.
    pub point: Vec<i64>,
    /// The out-of-region coordinate values.
    pub coords: Vec<i64>,
}

impl fmt::Display for BoundsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, val)| format!("{k}={val}"))
            .collect();
        write!(
            f,
            "{} violates `{}` at [{}]: point {:?} -> coords {:?}",
            self.access,
            self.constraint,
            params.join(", "),
            self.point,
            self.coords,
        )
    }
}

/// Outcome for one access.
#[derive(Clone, Debug, PartialEq)]
pub enum AccessVerdict {
    /// Every violation polyhedron is certified empty: the access is
    /// in-bounds for all parameter values above the floor.
    InBounds,
    /// A violation polyhedron contains the given integer point.
    OutOfBounds(BoundsViolation),
    /// Some violation set could not be certified empty within budget and
    /// no witness was found. Must be treated as "not proven in-bounds".
    Unknown {
        /// Which region constraint could not be decided.
        case: String,
    },
}

/// One access's report line.
#[derive(Clone, Debug)]
pub struct AccessReport {
    /// The access label.
    pub access: String,
    /// Outcome for this access.
    pub verdict: AccessVerdict,
    /// How many violation polyhedra were checked.
    pub cases: usize,
}

/// The bounds certificate for one kernel.
#[derive(Clone, Debug)]
pub struct BoundsCertificate {
    /// Kernel name.
    pub kernel: String,
    /// What the spec models.
    pub doc: String,
    /// One entry per access, in spec order.
    pub accesses: Vec<AccessReport>,
    /// Tier-2 assumptions (layout lemmas) the proof rests on.
    pub assumptions: Vec<String>,
}

impl BoundsCertificate {
    /// True when every access is certified in-bounds.
    #[must_use]
    pub fn is_in_bounds(&self) -> bool {
        self.accesses
            .iter()
            .all(|a| matches!(a.verdict, AccessVerdict::InBounds))
    }

    /// All concrete violations found.
    pub fn violations(&self) -> impl Iterator<Item = &BoundsViolation> {
        self.accesses.iter().filter_map(|a| match &a.verdict {
            AccessVerdict::OutOfBounds(w) => Some(w),
            _ => None,
        })
    }

    /// Total violation polyhedra certified or refuted.
    #[must_use]
    pub fn cases_checked(&self) -> usize {
        self.accesses.iter().map(|a| a.cases).sum()
    }
}

impl fmt::Display for BoundsCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {} — {}", self.kernel, self.doc)?;
        for a in &self.accesses {
            match &a.verdict {
                AccessVerdict::InBounds => {
                    writeln!(f, "  ok   {} ({} cases)", a.access, a.cases)?;
                }
                AccessVerdict::OutOfBounds(w) => writeln!(f, "  FAIL {w}")?,
                AccessVerdict::Unknown { case } => {
                    writeln!(f, "  ???  {} (undecided: {case})", a.access)?;
                }
            }
        }
        for assumption in &self.assumptions {
            writeln!(f, "  assumes {assumption}")?;
        }
        Ok(())
    }
}

/// Canonical variable name for an iteration index; `$` cannot occur in
/// parameter names, so no collision with params is possible.
fn canon(index: &str) -> String {
    format!("it${index}")
}

/// Certify every access of `spec` with default options.
#[must_use]
pub fn certify(spec: &KernelSpec) -> BoundsCertificate {
    certify_with(spec, &BoundsOptions::default())
}

/// Certify every access of `spec`: for each region constraint, the
/// violation polyhedron (domain ∧ floors ∧ ¬constraint) is decided by
/// exact Fourier–Motzkin. See the module docs for the two-tier story.
#[must_use]
pub fn certify_with(spec: &KernelSpec, opts: &BoundsOptions) -> BoundsCertificate {
    // Rename iteration indices to canonical variables so they can never
    // collide with parameter names (mirrors `verify_static`).
    let idx_subs: BTreeMap<String, AffineExpr> = spec
        .domain
        .indices()
        .iter()
        .map(|i| (i.clone(), v(&canon(i))))
        .collect();

    let mut base = Polyhedron::new();
    for c in spec.domain.constraints() {
        match c {
            Constraint::Ge0(e) => base.add_ge0(LinExpr::from(&e.substitute(&idx_subs))),
            Constraint::Eq0(e) => base.add_eq0(LinExpr::from(&e.substitute(&idx_subs))),
        }
    }
    for p in &spec.params {
        // param − floor ≥ 0.
        base.add_ge0(LinExpr::var(p).add(&LinExpr::constant(-i128::from(opts.param_floor))));
    }

    let mut accesses = Vec::with_capacity(spec.accesses.len());
    for access in &spec.accesses {
        accesses.push(certify_access(spec, access, &idx_subs, &base, opts));
    }
    BoundsCertificate {
        kernel: spec.name.clone(),
        doc: spec.doc.clone(),
        accesses,
        assumptions: spec.assumptions.clone(),
    }
}

fn certify_access(
    spec: &KernelSpec,
    access: &AccessSpec,
    idx_subs: &BTreeMap<String, AffineExpr>,
    base: &Polyhedron,
    opts: &BoundsOptions,
) -> AccessReport {
    // Coordinates over canonical iteration variables.
    let coords: Vec<AffineExpr> = access
        .coords
        .iter()
        .map(|e| e.substitute(idx_subs))
        .collect();
    // Region template constraints, with `@d` placeholders bound to the
    // coordinates and iteration variables canonicalized, all at once.
    let mut subs = idx_subs.clone();
    for (d, coord) in coords.iter().enumerate() {
        subs.insert(format!("@{d}"), coord.clone());
    }
    let template = access.region.template(coords.len());

    let mut cases = 0usize;
    let mut unknown: Option<String> = None;
    for raw in &template {
        let constraint = match raw {
            Constraint::Ge0(e) => Constraint::Ge0(e.substitute(&subs)),
            Constraint::Eq0(e) => Constraint::Eq0(e.substitute(&subs)),
        };
        // ¬(e ≥ 0) ⟺ −e − 1 ≥ 0;  ¬(e = 0) ⟺ (e ≥ 1) ∨ (−e ≥ 1).
        let negations: Vec<LinExpr> = match &constraint {
            Constraint::Ge0(e) => vec![LinExpr::from(e).scale(-1).add(&LinExpr::constant(-1))],
            Constraint::Eq0(e) => vec![
                LinExpr::from(e).add(&LinExpr::constant(-1)),
                LinExpr::from(e).scale(-1).add(&LinExpr::constant(-1)),
            ],
        };
        for neg in negations {
            cases += 1;
            let mut poly = base.clone();
            poly.add_ge0(neg);
            match poly.feasibility(&opts.budget) {
                Feasibility::Empty => {}
                Feasibility::Witness(w) => {
                    return AccessReport {
                        access: access.label.clone(),
                        verdict: AccessVerdict::OutOfBounds(violation(
                            spec, access, &coords, raw, &w,
                        )),
                        cases,
                    };
                }
                Feasibility::RationalOnly => {
                    unknown.get_or_insert(format!("{raw}"));
                }
            }
        }
    }
    AccessReport {
        access: access.label.clone(),
        verdict: match unknown {
            None => AccessVerdict::InBounds,
            Some(case) => AccessVerdict::Unknown { case },
        },
        cases,
    }
}

/// Turn a raw solver assignment into an oriented violation report.
fn violation(
    spec: &KernelSpec,
    access: &AccessSpec,
    coords: &[AffineExpr],
    constraint: &Constraint,
    witness: &Assignment,
) -> BoundsViolation {
    // The witness binds the polyhedron's variables; canonical index
    // variables absent from every constraint default to 0.
    let mut env: Env = witness.clone();
    for i in spec.domain.indices() {
        env.entry(canon(i)).or_insert(0);
    }
    let point: Vec<i64> = spec
        .domain
        .indices()
        .iter()
        .map(|i| env[&canon(i)])
        .collect();
    let coord_vals: Vec<i64> = coords.iter().map(|e| e.eval(&env)).collect();
    let params: Env = spec
        .params
        .iter()
        .map(|p| (p.clone(), *witness.get(p).expect("params are constrained"))) // lint: allow(expect): spec constructors constrain every parameter
        .collect();
    BoundsViolation {
        access: access.label.clone(),
        constraint: constraint.to_string(),
        params,
        point,
        coords: coord_vals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::c;

    /// The permuted R0 inner loop: for `0 ≤ i2 ≤ k2 ≤ N−2`,
    /// `k2+1 ≤ j2 < N`, read `A[i2,k2]`, `B[k2+1,j2]`, update `C[i2,j2]`.
    fn permuted_spec() -> KernelSpec {
        let domain = Domain::universe(&["i2", "k2", "j2"])
            .ge0(v("i2"))
            .ge0(v("k2") - v("i2"))
            .lt(v("k2"), v("N") - c(1))
            .ge0(v("j2") - v("k2") - c(1))
            .lt(v("j2"), v("N"));
        KernelSpec {
            name: "r0_permuted".into(),
            doc: "toy permuted max-plus".into(),
            params: vec!["N".into()],
            domain,
            accesses: vec![
                AccessSpec {
                    label: "A[i2,k2]".into(),
                    coords: vec![v("i2"), v("k2")],
                    region: Region::UpperTriangle { n: v("N") },
                },
                AccessSpec {
                    label: "B[k2+1,j2]".into(),
                    coords: vec![v("k2") + c(1), v("j2")],
                    region: Region::UpperTriangle { n: v("N") },
                },
                AccessSpec {
                    label: "C[i2,j2]".into(),
                    coords: vec![v("i2"), v("j2")],
                    region: Region::UpperTriangle { n: v("N") },
                },
            ],
            assumptions: vec!["layout lemma: packed row map".into()],
        }
    }

    #[test]
    fn permuted_accesses_are_in_bounds_for_all_n() {
        let cert = certify(&permuted_spec());
        assert!(cert.is_in_bounds(), "{cert}");
        assert!(cert.cases_checked() >= 9);
    }

    #[test]
    fn broken_access_yields_integer_witness() {
        // Deliberately break B's row: B[k2, j2+1] escapes at j2 = N−1.
        let mut spec = permuted_spec();
        spec.accesses[1] = AccessSpec {
            label: "B[k2,j2+1]".into(),
            coords: vec![v("k2"), v("j2") + c(1)],
            region: Region::UpperTriangle { n: v("N") },
        };
        let cert = certify(&spec);
        assert!(!cert.is_in_bounds());
        let w = cert.violations().next().expect("a violation");
        // Replay the witness numerically: the point is in-domain but the
        // coordinates violate the region.
        let mut env: Env = w.params.clone();
        for (i, val) in spec.domain.indices().iter().zip(&w.point) {
            env.insert(i.clone(), *val);
        }
        assert!(spec.domain.contains(&w.point, &w.params));
        let n = w.params["N"];
        let (r, col) = (w.coords[0], w.coords[1]);
        assert!(
            !(0 <= r && r <= col && col < n),
            "witness coords {:?} should be out of the triangle (N={n})",
            w.coords
        );
    }

    #[test]
    fn box_region_models_bounding_box_maps() {
        // Shifted option-2 map (i, j−i) into an N×N box over the triangle.
        let domain = Domain::universe(&["i", "j"])
            .ge0(v("i"))
            .ge0(v("j") - v("i"))
            .lt(v("j"), v("N"));
        let spec = KernelSpec {
            name: "memmap_shifted".into(),
            doc: "option-2 shifted map".into(),
            params: vec!["N".into()],
            domain,
            accesses: vec![AccessSpec {
                label: "(i, j-i)".into(),
                coords: vec![v("i"), v("j") - v("i")],
                region: Region::Box {
                    dims: vec![v("N"), v("N")],
                },
            }],
            assumptions: vec![],
        };
        let cert = certify(&spec);
        assert!(cert.is_in_bounds(), "{cert}");
    }

    #[test]
    fn where_region_expresses_row_relative_bounds() {
        // Packed row offset: off = j − i must satisfy 0 ≤ off < N − i.
        let domain = Domain::universe(&["i", "j"])
            .ge0(v("i"))
            .ge0(v("j") - v("i"))
            .lt(v("j"), v("N"));
        let good = KernelSpec {
            name: "packed_offset".into(),
            doc: "row-relative offset".into(),
            params: vec!["N".into()],
            domain: domain.clone(),
            accesses: vec![AccessSpec {
                label: "row[j-i]".into(),
                coords: vec![v("j") - v("i")],
                region: Region::Where {
                    constraints: vec![
                        Constraint::Ge0(v("@0")),
                        Constraint::Ge0(v("N") - v("i") - v("@0") - c(1)),
                    ],
                },
            }],
            assumptions: vec![],
        };
        assert!(certify(&good).is_in_bounds());

        // Off-by-one: row[j−i+1] overruns the row end at j = N−1.
        let bad = KernelSpec {
            accesses: vec![AccessSpec {
                label: "row[j-i+1]".into(),
                coords: vec![v("j") - v("i") + c(1)],
                region: Region::Where {
                    constraints: vec![
                        Constraint::Ge0(v("@0")),
                        Constraint::Ge0(v("N") - v("i") - v("@0") - c(1)),
                    ],
                },
            }],
            ..good
        };
        let cert = certify(&bad);
        let w = cert.violations().next().expect("overrun witness");
        // off = (N−1) − i + 1 = N − i ⟹ exactly one past the row end.
        assert_eq!(w.coords[0], w.params["N"] - w.point[0]);
    }

    #[test]
    fn certificate_display_lists_accesses_and_assumptions() {
        let cert = certify(&permuted_spec());
        let text = cert.to_string();
        assert!(text.contains("r0_permuted"), "{text}");
        assert!(text.contains("B[k2+1,j2]"), "{text}");
        assert!(text.contains("assumes layout lemma"), "{text}");
    }
}
