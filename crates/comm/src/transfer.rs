//! Masked inter-grid transfer primitives for the geometric multigrid
//! preconditioner.
//!
//! The MG V-cycle (DESIGN.md §15) moves residuals down and corrections up a
//! hierarchy of block-local grids. Both transfers here are *masked*: land
//! cells never contribute to a coarse sum and never receive a prolonged
//! correction, so the degenerate topologies the mask fuzzer engineers
//! (all-land blocks, 1-wide channels, isolated cells) stay exactly zero on
//! land at every level.
//!
//! The transfers are *linear*: coarse point `k` sits on fine point `2k`
//! (vertex-style anchoring), prolongation interpolates linearly between
//! anchors (weight 1 on the anchor, ½ on each odd in-between point), and
//! restriction is the exact transpose (full weighting, up to the masked
//! scaling). Piecewise-constant agglomeration is *not* good enough here: a
//! blocky coarse space is nearly energy-orthogonal to smooth error, so an
//! agglomeration V-cycle stalls on exactly the low modes multigrid exists
//! to remove. Linear transfers restore the approximation property and a
//! level-independent cycle.
//!
//! The pair is an exact adjoint — `⟨R f, c⟩ = ⟨f, Rᵀ c⟩` over ocean cells —
//! which is what keeps the Galerkin-coarsened V-cycle a *symmetric*
//! preconditioner. Both loops are scalar and fixed-order (row-major over
//! the fine interior, parent contributions in a fixed y-then-x order), so
//! transfers are bitwise identical under every execution backend and SIMD
//! dispatch mode.
//!
//! Semicoarsening is expressed per direction: `cx`/`cy` select whether the
//! zonal/meridional extent is halved (linear weights) or passed through
//! (identity). A fine point past the last anchor of an even extent takes
//! its nearest anchor with weight 1 ([`parents`] explains why constants
//! must survive there).

use crate::blockvec::BlockVec;

/// Coarse extent of a fine extent `n` under coarsening flag `c`: `⌈n/2⌉`
/// (one coarse point per even fine index) when coarsening, `n` when passing
/// the direction through.
#[inline]
pub fn coarse_extent(n: usize, c: bool) -> usize {
    if c {
        n.div_ceil(2)
    } else {
        n
    }
}

/// The ≤ 2 coarse parents of fine index `f` with their linear weights:
/// identity when the direction is passed through, weight 1 on the co-located
/// anchor for even `f`, and ½ on each neighbouring anchor for odd `f`. An
/// odd point past the last anchor of an even extent (its upper neighbour
/// does not exist — `cn` is the coarse extent) takes its lower anchor with
/// weight 1: nearest-anchor extrapolation keeps constants in the coarse
/// space everywhere, which is what lets the V-cycle see the operator's
/// near-nullspace (the barotropic operator is Neumann at coasts — its
/// lowest mode is the constant, and a coarse space that cannot represent
/// constants along an edge strip leaves that mode to the smoother alone).
#[inline]
pub fn parents(f: usize, c: bool, cn: usize) -> ([(usize, f64); 2], usize) {
    if !c {
        return ([(f, 1.0), (0, 0.0)], 1);
    }
    if f % 2 == 0 {
        ([(f / 2, 1.0), (0, 0.0)], 1)
    } else {
        let lo = f / 2;
        if lo + 1 < cn {
            ([(lo, 0.5), (lo + 1, 0.5)], 2)
        } else {
            ([(lo, 1.0), (0, 0.0)], 1)
        }
    }
}

/// Masked full-weighting restriction `coarse = R fine`: every *ocean* fine
/// cell distributes its value to its ≤ 4 coarse parents with the linear
/// weights (`fmask` is the fine interior mask, row-major `nx × ny`). Land
/// fine cells contribute nothing; coarse cells receiving no contribution
/// end up exactly `0.0`. Only reads the fine interior (never the halo) and
/// writes every coarse interior point.
pub fn restrict_masked(fine: &BlockVec, fmask: &[u8], cx: bool, cy: bool, coarse: &mut BlockVec) {
    let (nx, ny) = (fine.nx, fine.ny);
    let (cnx, cny) = (coarse.nx, coarse.ny);
    debug_assert_eq!(fmask.len(), nx * ny, "fine mask size mismatch");
    debug_assert_eq!(cnx, coarse_extent(nx, cx), "coarse nx mismatch");
    debug_assert_eq!(cny, coarse_extent(ny, cy), "coarse ny mismatch");
    for cj in 0..cny {
        coarse.interior_row_mut(cj).fill(0.0);
    }
    for j in 0..ny {
        let (pj, npj) = parents(j, cy, cny);
        let row = fine.interior_row(j);
        let mrow = &fmask[j * nx..(j + 1) * nx];
        for i in 0..nx {
            if mrow[i] == 0 {
                continue;
            }
            let v = row[i];
            let (pi, npi) = parents(i, cx, cnx);
            for &(cj2, wj) in &pj[..npj] {
                for &(ci2, wi) in &pi[..npi] {
                    let acc = coarse.get(ci2, cj2) + wj * wi * v;
                    coarse.set(ci2, cj2, acc);
                }
            }
        }
    }
}

/// Masked linear prolongation-and-add `fine += Rᵀ coarse`: every *ocean*
/// fine cell receives the weighted sum of its ≤ 4 coarse parents added in;
/// land fine cells are left untouched (the V-cycle keeps them at exactly
/// `0.0`). The exact adjoint of [`restrict_masked`] in the masked inner
/// product.
pub fn prolong_add_masked(
    coarse: &BlockVec,
    fmask: &[u8],
    cx: bool,
    cy: bool,
    fine: &mut BlockVec,
) {
    let (nx, ny) = (fine.nx, fine.ny);
    let (cnx, cny) = (coarse.nx, coarse.ny);
    debug_assert_eq!(fmask.len(), nx * ny, "fine mask size mismatch");
    debug_assert_eq!(cnx, coarse_extent(nx, cx), "coarse nx mismatch");
    debug_assert_eq!(cny, coarse_extent(ny, cy), "coarse ny mismatch");
    for j in 0..ny {
        let (pj, npj) = parents(j, cy, cny);
        let mrow = &fmask[j * nx..(j + 1) * nx];
        let frow = fine.interior_row_mut(j);
        for i in 0..nx {
            if mrow[i] == 0 {
                continue;
            }
            let (pi, npi) = parents(i, cx, cnx);
            let mut acc = 0.0f64;
            for &(cj2, wj) in &pj[..npj] {
                for &(ci2, wi) in &pi[..npi] {
                    acc += wj * wi * coarse.get(ci2, cj2);
                }
            }
            frow[i] += acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkered_mask(nx: usize, ny: usize) -> Vec<u8> {
        // A mask with land sprinkled through, plus a fully-land row.
        (0..nx * ny)
            .map(|k| {
                let (i, j) = (k % nx, k / nx);
                u8::from(j != 2 && (i * 7 + j * 3) % 5 != 0)
            })
            .collect()
    }

    fn filled(nx: usize, ny: usize, f: impl Fn(usize, usize) -> f64) -> BlockVec {
        let mut b = BlockVec::zeros(nx, ny, 1);
        for j in 0..ny {
            for i in 0..nx {
                b.set(i, j, f(i, j));
            }
        }
        b
    }

    /// The linear weight of fine index `f` on coarse index `k` — the
    /// independent reference for both transfer directions.
    fn weight(f: usize, k: usize, c: bool, cn: usize) -> f64 {
        if !c {
            return if f == k { 1.0 } else { 0.0 };
        }
        if f % 2 == 0 {
            return if k == f / 2 { 1.0 } else { 0.0 };
        }
        if f / 2 + 1 >= cn {
            // Nearest-anchor extrapolation past the last anchor.
            return if k == f / 2 { 1.0 } else { 0.0 };
        }
        if k == f / 2 || k == f / 2 + 1 {
            0.5
        } else {
            0.0
        }
    }

    #[test]
    fn restriction_is_masked_full_weighting() {
        let (nx, ny) = (5, 4); // odd nx: last anchor sits on the edge
        let mask = checkered_mask(nx, ny);
        let fine = filled(nx, ny, |i, j| (10 * j + i) as f64 + 1.0);
        let (cnx, cny) = (coarse_extent(nx, true), coarse_extent(ny, true));
        let mut coarse = BlockVec::zeros(cnx, cny, 1);
        restrict_masked(&fine, &mask, true, true, &mut coarse);
        for cj in 0..cny {
            for ci in 0..cnx {
                let mut want = 0.0;
                for j in 0..ny {
                    for i in 0..nx {
                        if mask[j * nx + i] != 0 {
                            want += weight(i, ci, true, cnx)
                                * weight(j, cj, true, cny)
                                * fine.get(i, j);
                        }
                    }
                }
                let got = coarse.get(ci, cj);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "({ci},{cj}): got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn all_land_footprint_restricts_to_exact_zero() {
        let (nx, ny) = (4, 4);
        let mask = vec![0u8; nx * ny];
        let fine = filled(nx, ny, |_, _| f64::MAX); // values must be ignored
        let mut coarse = BlockVec::zeros(2, 2, 1);
        coarse.fill(7.0);
        restrict_masked(&fine, &mask, true, true, &mut coarse);
        for cj in 0..2 {
            for ci in 0..2 {
                assert_eq!(coarse.get(ci, cj).to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn prolongation_interpolates_and_skips_land() {
        let (nx, ny) = (5, 3); // semicoarsen x only
        let mask = checkered_mask(nx, ny);
        let cnx = coarse_extent(nx, true);
        let coarse = filled(cnx, ny, |i, j| (i + 10 * j) as f64);
        let mut fine = filled(nx, ny, |_, _| 0.5);
        let before = fine.clone();
        prolong_add_masked(&coarse, &mask, true, false, &mut fine);
        for j in 0..ny {
            for i in 0..nx {
                let want = if mask[j * nx + i] != 0 {
                    let mut acc = 0.0;
                    for k in 0..cnx {
                        acc += weight(i, k, true, cnx) * coarse.get(k, j);
                    }
                    before.get(i, j) + acc
                } else {
                    before.get(i, j)
                };
                let got = fine.get(i, j);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "({i},{j}): got {got}, want {want}"
                );
            }
        }
    }

    /// A coarse constant prolongs to a fine constant over every ocean cell —
    /// including the extrapolated strip past the last anchor of an even
    /// extent. This is the property that lets the coarse space represent
    /// smooth error (and the Neumann near-nullspace) at all.
    #[test]
    fn prolongation_reproduces_constants_in_the_interior() {
        let (nx, ny) = (10, 7); // even nx: the last column is extrapolated
        let mask = vec![1u8; nx * ny];
        let coarse = filled(coarse_extent(nx, true), coarse_extent(ny, true), |_, _| {
            3.25
        });
        let mut fine = BlockVec::zeros(nx, ny, 1);
        prolong_add_masked(&coarse, &mask, true, true, &mut fine);
        for j in 0..ny {
            for i in 0..nx {
                assert_eq!(fine.get(i, j), 3.25, "({i},{j})");
            }
        }
    }

    /// `⟨R f, c⟩ = ⟨f, Rᵀ c⟩` over the masked cells, for every coarsening
    /// pattern — the adjoint identity that makes the Galerkin V-cycle
    /// symmetric.
    #[test]
    fn restriction_and_prolongation_are_adjoint() {
        let (nx, ny) = (7, 5);
        let mask = checkered_mask(nx, ny);
        let f = filled(nx, ny, |i, j| ((i * 13 + j * 29) % 17) as f64 * 0.25 - 2.0);
        for (cx, cy) in [(true, true), (true, false), (false, true)] {
            let (cnx, cny) = (coarse_extent(nx, cx), coarse_extent(ny, cy));
            let c = filled(cnx, cny, |i, j| ((i * 5 + j * 11) % 13) as f64 * 0.5 - 3.0);

            let mut rf = BlockVec::zeros(cnx, cny, 1);
            restrict_masked(&f, &mask, cx, cy, &mut rf);
            let mut lhs = 0.0;
            for j in 0..cny {
                for i in 0..cnx {
                    lhs += rf.get(i, j) * c.get(i, j);
                }
            }

            let mut ptc = BlockVec::zeros(nx, ny, 1);
            prolong_add_masked(&c, &mask, cx, cy, &mut ptc);
            let mut rhs = 0.0;
            for j in 0..ny {
                for i in 0..nx {
                    if mask[j * nx + i] != 0 {
                        rhs += f.get(i, j) * ptc.get(i, j);
                    }
                }
            }
            assert!(
                (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0),
                "cx={cx} cy={cy}: ⟨Rf,c⟩={lhs} vs ⟨f,Rᵀc⟩={rhs}"
            );
        }
    }

    #[test]
    fn pass_through_directions_are_identity() {
        let (nx, ny) = (4, 3);
        let mask = vec![1u8; nx * ny];
        let fine = filled(nx, ny, |i, j| (i * 10 + j) as f64);
        let mut coarse = BlockVec::zeros(nx, ny, 1);
        restrict_masked(&fine, &mask, false, false, &mut coarse);
        for j in 0..ny {
            for i in 0..nx {
                assert_eq!(coarse.get(i, j).to_bits(), fine.get(i, j).to_bits());
            }
        }
    }
}
