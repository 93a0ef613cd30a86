//! Bounds certificates for every kernel in [`crate::kernels`] plus the
//! polyhedral executor's `MemMap::addr` — the Tier-1 half of the static
//! safety certification (see `polyhedral::bounds` for the two-tier story).
//!
//! Each spec below transcribes one loop nest of `kernels.rs` (or a driver
//! in `engine.rs`) into an iteration [`Domain`] plus the affine access
//! functions its body performs, and [`certify_kernels`] proves every
//! access in-region for **all** sizes `N`, `M` and tile shapes `≥ 1` via
//! exact Fourier–Motzkin — or returns an integer witness of an
//! out-of-bounds access.
//!
//! Tiled domains are modelled with *relaxed* tile origins: instead of
//! pinning an origin to `start + size·index` (a nonlinear product when the
//! size is symbolic), we only require `origin ≤ iter < origin + size`.
//! This is a superset of the real iteration set, so an in-bounds verdict
//! remains sound; the `k2`-unrolled register kernel's group starts are
//! relaxed the same way.
//!
//! The Tier-2 layout lemmas the certificates cite (packed/identity/shifted
//! row maps, `FTable::outer` block addressing, row-major `MemMap` strides)
//! are validated exhaustively by the tests at the bottom of this module
//! and in `tropical::triangular`.

use polyhedral::affine::{c, v, AffineExpr};
use polyhedral::bounds::{certify_with, AccessSpec, BoundsCertificate, BoundsOptions, Region};
use polyhedral::domain::{Constraint, Domain};
use polyhedral::KernelSpec;

/// Shorthand: access into the packed row of a triangle — offset `off`
/// into row `i` of an `n`-row triangle must satisfy `0 ≤ off < n − i`.
fn in_row(label: &str, off: AffineExpr, i: AffineExpr, n: AffineExpr) -> AccessSpec {
    AccessSpec {
        label: label.to_string(),
        coords: vec![off],
        region: Region::Where {
            constraints: vec![
                Constraint::Ge0(v("@0")),
                Constraint::Ge0(n - i - v("@0") - c(1)),
            ],
        },
    }
}

/// Shorthand: a row selector `row_of(_, r)` — the row index must be a
/// valid row of the `n`-row triangle.
fn row_select(label: &str, r: AffineExpr, n: AffineExpr) -> AccessSpec {
    AccessSpec {
        label: label.to_string(),
        coords: vec![r],
        region: Region::Box { dims: vec![n] },
    }
}

/// Shorthand: logical triangle access `(r, col)` with `0 ≤ r ≤ col < n`.
fn in_triangle(label: &str, r: AffineExpr, col: AffineExpr, n: AffineExpr) -> AccessSpec {
    AccessSpec {
        label: label.to_string(),
        coords: vec![r, col],
        region: Region::UpperTriangle { n },
    }
}

const ROW_LEMMA: &str =
    "layout lemma: row_of(_, i) is a slice of exactly n-i elements, rows disjoint \
     and below storage_len (exhaustive test: layout_row_lemma)";
const OUTER_LEMMA: &str =
    "layout lemma: FTable::outer maps the (i1, j1) triangle bijectively onto \
     0..m(m+1)/2 block slots (exhaustive test: ftable_outer_lemma)";
const SPLIT_LEMMA: &str =
    "layout lemma: row i2 ends at or before row_start(k2+1) whenever i2 <= k2, so \
     split_at_mut(rs_next) keeps both sides intact (exhaustive test: layout_row_lemma)";
const ROW_MAJOR_LEMMA: &str =
    "layout lemma: MemMap::row_major strides are positive and in-box coordinates \
     linearize below the product of the dims (exhaustive test: memmap_row_major_lemma)";

/// The `R0` naive order: `(i2, j2, k2)`, reduction innermost
/// (`r0_instance_naive`).
fn spec_r0_naive() -> KernelSpec {
    let domain = Domain::universe(&["i2", "j2", "k2"])
        .ge0(v("i2"))
        .ge0(v("j2") - v("i2") - c(1))
        .lt(v("j2"), v("N"))
        .ge0(v("k2") - v("i2"))
        .lt(v("k2"), v("j2"));
    KernelSpec {
        name: "r0_instance_naive".into(),
        doc: "R0 naive order (i2, j2, k2): acc[i2,j2] = max(acc, A[i2,k2] + B[k2+1,j2])".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            row_select("row_of(a, i2)", v("i2"), v("N")),
            row_select("row_of_mut(acc, i2)", v("i2"), v("N")),
            in_row("arow[k2 - i2]", v("k2") - v("i2"), v("i2"), v("N")),
            in_triangle("b[inner(k2+1, j2)]", v("k2") + c(1), v("j2"), v("N")),
            in_row("crow[j2 - i2]", v("j2") - v("i2"), v("i2"), v("N")),
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// The `R0` permuted order: `(i2, k2, j2)`, streaming column loop
/// innermost (`r0_instance_permuted` and the per-row parallel body).
fn spec_r0_permuted() -> KernelSpec {
    let domain = Domain::universe(&["i2", "k2", "j2"])
        .ge0(v("i2"))
        .ge0(v("k2") - v("i2"))
        .lt(v("k2"), v("N") - c(1))
        .ge0(v("j2") - v("k2") - c(1))
        .lt(v("j2"), v("N"));
    KernelSpec {
        name: "r0_instance_permuted".into(),
        doc: "R0 permuted order (i2, k2, j2): mp_axpy(A[i2,k2], B-row k2+1, acc-row i2 tail)"
            .into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            in_row("arow[k2 - i2]", v("k2") - v("i2"), v("i2"), v("N")),
            row_select("row_of(b, k2+1)", v("k2") + c(1), v("N")),
            // The axpy touches brow[j2-(k2+1)] and crow[j2-i2] per element.
            in_row(
                "brow[j2 - (k2+1)]",
                v("j2") - v("k2") - c(1),
                v("k2") + c(1),
                v("N"),
            ),
            in_row("crow[j2 - i2]", v("j2") - v("i2"), v("i2"), v("N")),
            // Slice start of `crow[k2+1-i2..]`: 0 ≤ start ≤ row length.
            AccessSpec {
                label: "crow[k2+1-i2..] slice start".into(),
                coords: vec![v("k2") + c(1) - v("i2")],
                region: Region::Where {
                    constraints: vec![
                        Constraint::Ge0(v("@0")),
                        Constraint::Ge0(v("N") - v("i2") - v("@0")),
                    ],
                },
            },
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// The tiled `R0` row band (`r0_row_band_tiled`, driven by
/// `r0_instance_tiled`). Tile origins are
/// relaxed (see module docs); tile sizes `TI`, `TK`, `TJ` are parameters.
fn spec_r0_tiled() -> KernelSpec {
    let domain = Domain::universe(&["i2lo", "i2", "k2lo", "k2", "j2lo", "j2", "j2hi"])
        // band: i2lo ≤ i2 < min(i2lo + TI, N)
        .ge0(v("i2lo"))
        .ge0(v("i2") - v("i2lo"))
        .lt(v("i2"), v("i2lo") + v("TI"))
        .lt(v("i2"), v("N"))
        // k2 tile over [i2lo, N−1), inner loop from max(k2lo, i2)
        .ge0(v("k2lo") - v("i2lo"))
        .ge0(v("k2") - v("k2lo"))
        .ge0(v("k2") - v("i2"))
        .lt(v("k2"), v("k2lo") + v("TK"))
        .lt(v("k2"), v("N") - c(1))
        // j2 tile over [k2lo+1, N) with j2hi = min(j2lo + TJ, N),
        // elements from lo = max(j2lo, k2+1), guarded lo < j2hi
        .ge0(v("j2lo") - v("k2lo") - c(1))
        .ge0(v("j2hi") - v("j2lo"))
        .ge0(v("j2lo") + v("TJ") - v("j2hi"))
        .ge0(v("N") - v("j2hi"))
        .ge0(v("j2") - v("j2lo"))
        .ge0(v("j2") - v("k2") - c(1))
        .lt(v("j2"), v("j2hi"));
    KernelSpec {
        name: "r0_row_band_tiled".into(),
        doc: "R0 tiled order: (i2, k2, j2) tiles with relaxed origins, j2hi = tile end".into(),
        params: vec!["N".into(), "TI".into(), "TK".into(), "TJ".into()],
        domain,
        accesses: vec![
            row_select("inner_row_start(i2)", v("i2"), v("N")),
            in_row("arow[k2 - i2]", v("k2") - v("i2"), v("i2"), v("N")),
            row_select("row_of(b, k2+1)", v("k2") + c(1), v("N")),
            in_row(
                "brow[j2 - (k2+1)]",
                v("j2") - v("k2") - c(1),
                v("k2") + c(1),
                v("N"),
            ),
            in_row("crow[j2 - i2]", v("j2") - v("i2"), v("i2"), v("N")),
            // Slice end `brow[.. j2hi - (k2+1)]` stays within the B row.
            AccessSpec {
                label: "brow[..j2hi-(k2+1)] slice end".into(),
                coords: vec![v("j2hi") - v("k2") - c(1)],
                region: Region::Where {
                    constraints: vec![Constraint::Ge0(v("N") - v("k2") - c(1) - v("@0"))],
                },
            },
            // Slice end `crow[.. j2hi - i2]` stays within the acc row.
            AccessSpec {
                label: "crow[..j2hi-i2] slice end".into(),
                coords: vec![v("j2hi") - v("i2")],
                region: Region::Where {
                    constraints: vec![Constraint::Ge0(v("N") - v("i2") - v("@0"))],
                },
            },
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// Head phase of the `k2`-unrolled register kernel (`r0_row_simd`):
/// columns `j2 ∈ (k2+lane, k2+4)` reachable only by the group's earlier
/// lanes. The group start `k2` is relaxed to any `k2 ≥ i2` with
/// `k2 + 4 ≤ N − 1`.
fn spec_r0_simd_head() -> KernelSpec {
    let domain = Domain::universe(&["i2", "k2", "lane", "j2"])
        .ge0(v("i2"))
        .ge0(v("k2") - v("i2"))
        .ge0(v("N") - c(1) - v("k2") - c(4))
        .ge0(v("lane"))
        .ge0(c(2) - v("lane"))
        .ge0(v("j2") - v("k2") - v("lane") - c(1))
        .lt(v("j2"), v("k2") + c(4))
        .lt(v("j2"), v("N"));
    KernelSpec {
        name: "r0_row_simd/head".into(),
        doc: "register-unrolled R0, head: lanes 0..3 cover the ragged columns before the \
              shared range"
            .into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            in_row(
                "arow[k2 + lane - i2]",
                v("k2") + v("lane") - v("i2"),
                v("i2"),
                v("N"),
            ),
            row_select("row_of(b, k2+lane+1)", v("k2") + v("lane") + c(1), v("N")),
            in_row(
                "brow[j2 - (k2+lane+1)]",
                v("j2") - v("k2") - v("lane") - c(1),
                v("k2") + v("lane") + c(1),
                v("N"),
            ),
            in_row("crow[j2 - i2]", v("j2") - v("i2"), v("i2"), v("N")),
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// Body phase of the register kernel: all four lanes over the shared
/// column range `[k2+4, N)`. The kernel hands this range to `mp_axpy4`
/// as the slices `b_lane[3 − lane..]` and `crow[k2 + 4 − i2..]`, whose
/// elements are exactly the accesses below.
fn spec_r0_simd_body() -> KernelSpec {
    let domain = Domain::universe(&["i2", "k2", "lane", "j2"])
        .ge0(v("i2"))
        .ge0(v("k2") - v("i2"))
        .ge0(v("N") - c(1) - v("k2") - c(4))
        .ge0(v("lane"))
        .ge0(c(3) - v("lane"))
        .ge0(v("j2") - v("k2") - c(4))
        .lt(v("j2"), v("N"));
    KernelSpec {
        name: "r0_row_simd/body".into(),
        doc: "register-unrolled R0, body: four fused updates per pass over [k2+4, N)".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            in_row(
                "arow[k2 + lane - i2]",
                v("k2") + v("lane") - v("i2"),
                v("i2"),
                v("N"),
            ),
            row_select("row_of(b, k2+lane+1)", v("k2") + v("lane") + c(1), v("N")),
            in_row(
                "b_lane[j2 - (k2+lane+1)]",
                v("j2") - v("k2") - v("lane") - c(1),
                v("k2") + v("lane") + c(1),
                v("N"),
            ),
            in_row("crow[j2 - i2]", v("j2") - v("i2"), v("i2"), v("N")),
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// Tail phase of the register kernel: plain streaming updates for the
/// `< 4` remainder — the same shape as the permuted order.
fn spec_r0_simd_tail() -> KernelSpec {
    KernelSpec {
        name: "r0_row_simd/tail".into(),
        doc: "register-unrolled R0, tail: streaming remainder (permuted shape)".into(),
        ..spec_r0_permuted()
    }
}

/// `R3`/`R4` whole-block axpys (`r3_block`/`r4_block`): per logical
/// element the access is the identity on the triangle.
fn spec_r3_r4() -> KernelSpec {
    let domain = Domain::universe(&["i2", "j2"])
        .ge0(v("i2"))
        .ge0(v("j2") - v("i2"))
        .lt(v("j2"), v("N"));
    KernelSpec {
        name: "r3_r4_block".into(),
        doc: "R3/R4 whole-block axpy: acc[i2,j2] = max(acc, s + B[i2,j2]) (and A)".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            in_triangle("b[i2,j2]", v("i2"), v("j2"), v("N")),
            in_triangle("acc[i2,j2]", v("i2"), v("j2"), v("N")),
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// Finalization cell updates (`finalize_triangle`, phase per `(i2, k2)`).
fn spec_finalize_cell() -> KernelSpec {
    let domain = Domain::universe(&["i2", "k2"])
        .ge0(v("i2"))
        .ge0(v("k2") - v("i2"))
        .lt(v("k2"), v("N"));
    KernelSpec {
        name: "finalize_triangle/cell".into(),
        doc: "finalize F[i2,k2]: reads acc/prev at (i2,k2)".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            in_triangle("acc[inner(i2, k2)]", v("i2"), v("k2"), v("N")),
            in_triangle("prev[inner(i2, k2)]", v("i2"), v("k2"), v("N")),
        ],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// The strand-2 pair-closing read `acc[inner(i2+1, k2−1)]`, guarded by
/// `k2 ≥ i2 + 2` in `finalize_triangle`.
fn spec_finalize_pair2() -> KernelSpec {
    let domain = Domain::universe(&["i2", "k2"])
        .ge0(v("i2"))
        .ge0(v("k2") - v("i2") - c(2))
        .lt(v("k2"), v("N"));
    KernelSpec {
        name: "finalize_triangle/pair2".into(),
        doc: "strand-2 closing term: acc[inner(i2+1, k2-1)] under the k2 >= i2+2 guard".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![in_triangle(
            "acc[inner(i2+1, k2-1)]",
            v("i2") + c(1),
            v("k2") - c(1),
            v("N"),
        )],
        assumptions: vec![ROW_LEMMA.into()],
    }
}

/// The `R1`/`R2` propagation axpys of `finalize_triangle`, guarded by
/// `k2 + 1 < N`: row `k2+1` is final and streams into the tail of row
/// `i2` (through `split_at_mut(rs_next)`).
fn spec_finalize_propagate() -> KernelSpec {
    let domain = Domain::universe(&["i2", "k2", "j2"])
        .ge0(v("i2"))
        .ge0(v("k2") - v("i2"))
        .lt(v("k2"), v("N") - c(1))
        .ge0(v("j2") - v("k2") - c(1))
        .lt(v("j2"), v("N"));
    KernelSpec {
        name: "finalize_triangle/propagate".into(),
        doc: "R1/R2 interleave: rows i2 and k2+1 split at rs_next, two streaming axpys".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            row_select("inner_row_start(k2+1)", v("k2") + c(1), v("N")),
            // split_at_mut soundness: row i2 lies strictly before row k2+1
            // (the affine core of SPLIT_LEMMA: i2 ≤ k2).
            AccessSpec {
                label: "row i2 precedes row k2+1".into(),
                coords: vec![v("k2") - v("i2")],
                region: Region::Where {
                    constraints: vec![Constraint::Ge0(v("@0"))],
                },
            },
            in_row(
                "frow_next[j2 - (k2+1)]",
                v("j2") - v("k2") - c(1),
                v("k2") + c(1),
                v("N"),
            ),
            in_row("row_i2[j2 - i2]", v("j2") - v("i2"), v("i2"), v("N")),
            // Slice start of `row_i2[k2+1-i2..]`.
            AccessSpec {
                label: "row_i2[k2+1-i2..] slice start".into(),
                coords: vec![v("k2") + c(1) - v("i2")],
                region: Region::Where {
                    constraints: vec![
                        Constraint::Ge0(v("@0")),
                        Constraint::Ge0(v("N") - v("i2") - v("@0")),
                    ],
                },
            },
            in_row(
                "s2row[j2 - (k2+1)]",
                v("j2") - v("k2") - c(1),
                v("k2") + c(1),
                v("N"),
            ),
        ],
        assumptions: vec![ROW_LEMMA.into(), SPLIT_LEMMA.into()],
    }
}

/// Phase-A split enumeration (`accumulate_r034_*`): for every outer cell
/// `(i1, j1)` and split `k1`, blocks `(i1, k1)` and `(k1+1, j1)` are read.
fn spec_phase_a_splits() -> KernelSpec {
    let domain = Domain::universe(&["i1", "j1", "k1"])
        .ge0(v("i1"))
        .ge0(v("j1") - v("i1"))
        .lt(v("j1"), v("M"))
        .ge0(v("k1") - v("i1"))
        .lt(v("k1"), v("j1"));
    KernelSpec {
        name: "accumulate_r034/splits".into(),
        doc: "Phase-A split loop: blocks A = F(i1, k1), B = F(k1+1, j1)".into(),
        params: vec!["M".into()],
        domain,
        accesses: vec![
            in_triangle("block(i1, k1)", v("i1"), v("k1"), v("M")),
            in_triangle("block(k1+1, j1)", v("k1") + c(1), v("j1"), v("M")),
        ],
        assumptions: vec![OUTER_LEMMA.into()],
    }
}

/// The wavefront driver (`engine::wavefront_range`): diagonal `d`,
/// cells `(i1, i1 + d)`.
fn spec_wavefront_driver() -> KernelSpec {
    let domain = Domain::universe(&["d", "i1"])
        .ge0(v("d"))
        .lt(v("d"), v("M"))
        .ge0(v("i1"))
        .lt(v("i1") + v("d"), v("M"));
    KernelSpec {
        name: "wavefront_driver".into(),
        doc: "diagonal-by-diagonal driver: block (i1, i1+d) per wavefront cell".into(),
        params: vec!["M".into()],
        domain,
        accesses: vec![in_triangle(
            "block(i1, i1+d)",
            v("i1"),
            v("i1") + v("d"),
            v("M"),
        )],
        assumptions: vec![OUTER_LEMMA.into()],
    }
}

/// The windowed/banded driver (`engine::compute_watched_range` and
/// `windowed`): diagonals restricted to a window `[S, E) ⊆ [0, M]`.
fn spec_windowed_driver() -> KernelSpec {
    let domain = Domain::universe(&["i1", "j1"])
        .ge0(v("S"))
        .ge0(v("E") - v("S"))
        .ge0(v("M") - v("E"))
        .ge0(v("i1") - v("S"))
        .lt(v("i1"), v("E"))
        .ge0(v("j1") - v("i1"))
        .lt(v("j1"), v("M"));
    KernelSpec {
        name: "windowed_driver".into(),
        doc: "windowed driver: blocks (i1, j1) with i1 restricted to [S, E) <= [0, M]".into(),
        params: vec!["M".into(), "S".into(), "E".into()],
        domain,
        accesses: vec![in_triangle("block(i1, j1)", v("i1"), v("j1"), v("M"))],
        assumptions: vec![OUTER_LEMMA.into()],
    }
}

/// `MemMap::addr` under the paper's three memory maps, over the
/// triangular data domain: each storage coordinate stays inside the
/// declared box (the affine half of row-major addressing).
fn spec_memmap_addr() -> KernelSpec {
    let domain = Domain::universe(&["i", "j"])
        .ge0(v("i"))
        .ge0(v("j") - v("i"))
        .lt(v("j"), v("N"));
    KernelSpec {
        name: "memmap_addr".into(),
        doc: "MemMap::addr storage coordinates for the option-1/option-2/packed maps".into(),
        params: vec!["N".into()],
        domain,
        accesses: vec![
            AccessSpec {
                label: "option1 (i, j)".into(),
                coords: vec![v("i"), v("j")],
                region: Region::Box {
                    dims: vec![v("N"), v("N")],
                },
            },
            AccessSpec {
                label: "option2 (i, j-i)".into(),
                coords: vec![v("i"), v("j") - v("i")],
                region: Region::Box {
                    dims: vec![v("N"), v("N")],
                },
            },
            AccessSpec {
                label: "packed (i, j-i) within row".into(),
                coords: vec![v("i"), v("j") - v("i")],
                region: Region::Where {
                    constraints: vec![
                        Constraint::Ge0(v("@0")),
                        Constraint::Ge0(v("N") - v("@0") - c(1)),
                        Constraint::Ge0(v("@1")),
                        Constraint::Ge0(v("N") - v("i") - v("@1") - c(1)),
                    ],
                },
            },
        ],
        assumptions: vec![ROW_MAJOR_LEMMA.into()],
    }
}

/// Every kernel spec, in reporting order.
#[must_use]
pub fn kernel_specs() -> Vec<KernelSpec> {
    vec![
        spec_r0_naive(),
        spec_r0_permuted(),
        spec_r0_tiled(),
        spec_r0_simd_head(),
        spec_r0_simd_body(),
        spec_r0_simd_tail(),
        spec_r3_r4(),
        spec_finalize_cell(),
        spec_finalize_pair2(),
        spec_finalize_propagate(),
        spec_phase_a_splits(),
        spec_wavefront_driver(),
        spec_windowed_driver(),
        spec_memmap_addr(),
    ]
}

/// Certify every kernel with default options (parameter floor 1).
#[must_use]
pub fn certify_kernels() -> Vec<BoundsCertificate> {
    certify_kernels_with(&BoundsOptions::default())
}

/// Certify every kernel under explicit options.
#[must_use]
pub fn certify_kernels_with(opts: &BoundsOptions) -> Vec<BoundsCertificate> {
    kernel_specs()
        .iter()
        .map(|s| certify_with(s, opts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftable::{FTable, Layout};
    use polyhedral::affine::env;
    use polyhedral::bounds::certify;

    #[test]
    fn every_kernel_certifies_in_bounds() {
        let certs = certify_kernels();
        assert_eq!(certs.len(), kernel_specs().len());
        for cert in &certs {
            assert!(cert.is_in_bounds(), "{cert}");
            assert!(cert.cases_checked() > 0, "{} checked no cases", cert.kernel);
        }
    }

    #[test]
    fn certificates_cover_all_kernels_and_memmap() {
        let names: Vec<String> = certify_kernels().into_iter().map(|c| c.kernel).collect();
        for expected in [
            "r0_instance_naive",
            "r0_instance_permuted",
            "r0_row_band_tiled",
            "r0_row_simd/head",
            "r0_row_simd/body",
            "r0_row_simd/tail",
            "r3_r4_block",
            "finalize_triangle/cell",
            "finalize_triangle/pair2",
            "finalize_triangle/propagate",
            "accumulate_r034/splits",
            "wavefront_driver",
            "windowed_driver",
            "memmap_addr",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn broken_access_function_yields_integer_witness() {
        // Sabotage the naive kernel's B access to B[k2+1, j2+1]: at the
        // last column j2 = N−1 the read escapes the triangle.
        let mut spec = spec_r0_naive();
        spec.accesses[3] = in_triangle(
            "b[inner(k2+1, j2+1)]",
            v("k2") + c(1),
            v("j2") + c(1),
            v("N"),
        );
        let cert = certify(&spec);
        assert!(!cert.is_in_bounds());
        let w = cert.violations().next().expect("a violation");
        // The witness is a concrete integer point: in-domain, out-of-region.
        assert!(spec.domain.contains(&w.point, &w.params), "{w}");
        let n = w.params["N"];
        let (r, col) = (w.coords[0], w.coords[1]);
        assert!(!(0 <= r && r <= col && col < n), "{w}");
        assert_eq!(col, n, "the witness column is exactly one past the edge");
    }

    #[test]
    fn broken_tile_bound_yields_witness() {
        // Drop the `j2hi ≤ N` tile clamp: the slice-end access overruns.
        let mut spec = spec_r0_tiled();
        let kept: Vec<_> = spec
            .domain
            .constraints()
            .iter()
            .filter(|c| **c != polyhedral::domain::Constraint::Ge0(v("N") - v("j2hi")))
            .cloned()
            .collect();
        let mut rebuilt = Domain::universe(&["i2lo", "i2", "k2lo", "k2", "j2lo", "j2", "j2hi"]);
        for c in kept {
            rebuilt = match c {
                polyhedral::domain::Constraint::Ge0(e) => rebuilt.ge0(e),
                polyhedral::domain::Constraint::Eq0(e) => rebuilt.eq0(e),
            };
        }
        assert!(
            rebuilt.constraints().len() < spec.domain.constraints().len(),
            "the clamp constraint must have been found and removed"
        );
        spec.domain = rebuilt;
        let cert = certify(&spec);
        assert!(
            !cert.is_in_bounds(),
            "without the j2hi clamp the tile must overrun: {cert}"
        );
    }

    /// Tier-2 row lemma, exhaustively: for every layout and `n ≤ 32`,
    /// rows are disjoint, inside storage, of length `n − i`, and row `i`
    /// ends at or before `row_start(k+1)` for every `i ≤ k` (the
    /// `split_at_mut` precondition in `finalize_triangle`).
    #[test]
    fn layout_row_lemma() {
        for layout in [Layout::Packed, Layout::Identity, Layout::Shifted] {
            for n in 0..=32usize {
                let storage = layout.storage_len(n);
                let mut seen = std::collections::HashSet::new();
                for i in 0..n {
                    let rs = layout.row_start(n, i);
                    assert!(rs + (n - i) <= storage, "{layout:?} n={n} row {i}");
                    for j in i..n {
                        let off = layout.offset(n, i, j);
                        assert_eq!(off, rs + (j - i));
                        assert!(off < storage);
                        assert!(seen.insert(off), "{layout:?} n={n} ({i},{j}) aliases");
                    }
                    for k in i..n.saturating_sub(1) {
                        assert!(
                            rs + (n - i) <= layout.row_start(n, k + 1),
                            "{layout:?} n={n}: row {i} overlaps row_start({})",
                            k + 1
                        );
                    }
                }
            }
        }
    }

    /// Tier-2 outer lemma, exhaustively: `FTable::outer` is a bijection
    /// from the `(i1, j1)` triangle onto `0..m(m+1)/2`.
    #[test]
    fn ftable_outer_lemma() {
        for m in 0..=16usize {
            let ft = FTable::new(m, 1, Layout::Packed);
            let mut seen = vec![false; m * (m + 1) / 2];
            for i1 in 0..m {
                for j1 in i1..m {
                    let o = ft.outer(i1, j1);
                    assert!(o < seen.len(), "m={m} ({i1},{j1})");
                    assert!(!seen[o], "m={m} ({i1},{j1}) aliases");
                    seen[o] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "m={m}: outer not surjective");
        }
    }

    /// Tier-2 row-major lemma, exhaustively: in-box coordinates linearize
    /// injectively below the product of the dims, for the three maps.
    #[test]
    fn memmap_row_major_lemma() {
        use polyhedral::affine::AffineMap;
        use polyhedral::executor::MemMap;
        for n in 1..=20i64 {
            let maps = [
                MemMap::row_major(AffineMap::identity(&["i", "j"]), &[n, n]),
                MemMap::row_major(
                    AffineMap::new(&["i", "j"], vec![v("i"), v("j") - v("i")]),
                    &[n, n],
                ),
            ];
            for m in &maps {
                let mut seen = std::collections::HashSet::new();
                for i in 0..n {
                    for j in i..n {
                        let a = m.addr(&[i, j], &env(&[]));
                        assert!((0..n * n).contains(&a), "n={n} ({i},{j}) -> {a}");
                        assert!(seen.insert(a), "n={n} ({i},{j}) aliases");
                    }
                }
            }
        }
    }
}
