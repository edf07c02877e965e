//! Coarse-level operators for the geometric multigrid preconditioner.
//!
//! An [`MgLevel`] is one grid of the block-local MG hierarchy (DESIGN.md
//! §15): the nine-point operator in the same symmetric `{A0, AN, AE, ANE}`
//! storage as [`crate::NinePoint`], its ocean mask, and the inverse diagonal
//! the weighted-Jacobi smoother needs. The finest level is the zero-Dirichlet
//! restriction of the global operator to one decomposition block
//! ([`crate::NinePoint::extract_local`]); coarser levels are the *Galerkin
//! product* `Pᵀ A P` under the masked linear transfer pair of
//! `pop_comm::transfer` (coarse points anchored on even fine indices,
//! linear interpolation between anchors).
//!
//! Two structural facts make this cheap and faithful:
//!
//! 1. **Linear transfers close over nine points.** A fine coupling reaches
//!    one cell in each direction and a fine cell has linear parents at
//!    coarse distance ≤ 1, so `Pᵀ A P` couples coarse cells at distance
//!    ≤ 1 — again a nine-point stencil.
//! 2. **The shared-corner storage is recovered by conflation.** POP's
//!    storage keeps one `ANE` per corner serving *both* diagonal pairs
//!    through that corner. The exact Galerkin product gives the two pairs
//!    slightly different weights on variable-coefficient grids, so
//!    [`MgLevel::coarsen`] stores their average — a symmetric perturbation
//!    that keeps the level inside the pinned lane-kernel format. (The
//!    V-cycle only needs a symmetric positive coarse operator *consistent*
//!    with the fine one, not the exact triple product; the conflation
//!    vanishes on locally smooth coefficients and wherever the sanitizer
//!    zeroes dead corners.)
//!
//! Level application reuses the pinned lane kernels of `crate::simd`, so
//! it is bitwise identical on both lane types by the same argument as the
//! fine-grid apply.

use crate::dense::DenseMatrix;
use crate::local::LocalStencil;
use crate::simd::{self, StencilBlock, TileShape};
use pop_comm::{coarse_extent, parents, BlockVec};
use pop_simd::SimdMode;

/// One level of the block-local multigrid hierarchy: the nine-point operator
/// in symmetric storage (halo-1 padded, halos zero — the level is
/// zero-Dirichlet at the block edge), the interior ocean mask, and the
/// Jacobi inverse diagonal.
#[derive(Debug, Clone)]
pub struct MgLevel {
    nx: usize,
    ny: usize,
    a0: BlockVec,
    an: BlockVec,
    ae: BlockVec,
    ane: BlockVec,
    /// Interior ocean mask, row-major `nx × ny` (1 = active unknown).
    mask: Vec<u8>,
    /// `1 / a0` on active cells, `0.0` on land, row-major.
    inv_diag: Vec<f64>,
    active: usize,
}

impl MgLevel {
    /// The finest level: the zero-Dirichlet block-local operator from an
    /// extracted [`LocalStencil`]. Couplings whose endpoints are inactive
    /// (land, or outside the block) are dropped, so the level is exactly the
    /// active-set principal submatrix of the global operator.
    pub fn from_local(ls: &LocalStencil) -> MgLevel {
        let (nx, ny) = (ls.nx, ls.ny);
        let mut lv = MgLevel::empty(nx, ny);
        for j in 0..ny {
            for i in 0..nx {
                let (iz, jz) = (i as isize, j as isize);
                lv.a0.set(i, j, ls.a0(iz, jz).max(0.0));
                lv.an.set(i, j, ls.an(iz, jz));
                lv.ae.set(i, j, ls.ae(iz, jz));
                lv.ane.set(i, j, ls.ane(iz, jz));
            }
        }
        lv.sanitize();
        lv
    }

    /// Galerkin-coarsen this level under the masked linear transfers,
    /// halving the directions selected by `cx`/`cy` (semicoarsening when
    /// only one is set). The result is `Pᵀ A P` restricted to the coarse
    /// active set — assembled directly by distributing every stored fine
    /// coupling over its coarse parent pairs — with the two diagonal pairs
    /// through each coarse corner averaged into the shared `ANE` slot (the
    /// conflation the module docs describe).
    pub fn coarsen(&self, cx: bool, cy: bool) -> MgLevel {
        assert!(cx || cy, "coarsen needs at least one direction");
        let (nx, ny) = (self.nx, self.ny);
        let (cnx, cny) = (coarse_extent(nx, cx), coarse_extent(ny, cy));
        let mut lv = MgLevel::empty(cnx, cny);

        // Directed coarse couplings: acc[cell * 9 + (oj+1)*3 + (oi+1)] is
        // the accumulated weight from coarse (ci, cj) to (ci+oi, cj+oj).
        // Linear parents sit at coarse distance ≤ 1 from any fine cell, so
        // the triple product never reaches past the 3×3 neighbourhood.
        let mut acc = vec![0.0f64; cnx * cny * 9];
        {
            // One directed fine coupling `a` from (fi, fj) to (gi, gj),
            // distributed over its ≤ 4×4 coarse parent pairs.
            let mut scatter = |fi: usize, fj: usize, gi: usize, gj: usize, a: f64| {
                if a == 0.0 {
                    return;
                }
                let (pi, npi) = parents(fi, cx, cnx);
                let (pj, npj) = parents(fj, cy, cny);
                let (qi, nqi) = parents(gi, cx, cnx);
                let (qj, nqj) = parents(gj, cy, cny);
                for &(cj, wj) in &pj[..npj] {
                    for &(ci, wi) in &pi[..npi] {
                        for &(dj, vj) in &qj[..nqj] {
                            for &(di, vi) in &qi[..nqi] {
                                let oi = di as isize - ci as isize;
                                let oj = dj as isize - cj as isize;
                                debug_assert!(oi.abs() <= 1 && oj.abs() <= 1);
                                let k = (cj * cnx + ci) * 9 + ((oj + 1) * 3 + (oi + 1)) as usize;
                                acc[k] += (wj * wi) * a * (vj * vi);
                            }
                        }
                    }
                }
            };
            for j in 0..ny {
                for i in 0..nx {
                    scatter(i, j, i, j, self.a0.get(i, j));
                    if j + 1 < ny {
                        let an = self.an.get(i, j);
                        scatter(i, j, i, j + 1, an);
                        scatter(i, j + 1, i, j, an);
                    }
                    if i + 1 < nx {
                        let ae = self.ae.get(i, j);
                        scatter(i, j, i + 1, j, ae);
                        scatter(i + 1, j, i, j, ae);
                    }
                    if i + 1 < nx && j + 1 < ny {
                        // The stored corner coefficient carries both pairs
                        // through corner (i, j).
                        let ane = self.ane.get(i, j);
                        scatter(i, j, i + 1, j + 1, ane);
                        scatter(i + 1, j + 1, i, j, ane);
                        scatter(i + 1, j, i, j + 1, ane);
                        scatter(i, j + 1, i + 1, j, ane);
                    }
                }
            }
        }

        let at = |ci: usize, cj: usize, oi: isize, oj: isize| -> f64 {
            acc[(cj * cnx + ci) * 9 + ((oj + 1) * 3 + (oi + 1)) as usize]
        };
        for cj in 0..cny {
            for ci in 0..cnx {
                lv.a0.set(ci, cj, at(ci, cj, 0, 0));
                // Each undirected coupling was accumulated once from each
                // side; averaging the two directed entries symmetrizes the
                // storage exactly (the sides only differ in rounding).
                if cj + 1 < cny {
                    lv.an
                        .set(ci, cj, 0.5 * (at(ci, cj, 0, 1) + at(ci, cj + 1, 0, -1)));
                }
                if ci + 1 < cnx {
                    lv.ae
                        .set(ci, cj, 0.5 * (at(ci, cj, 1, 0) + at(ci + 1, cj, -1, 0)));
                }
                if ci + 1 < cnx && cj + 1 < cny {
                    // One stored slot serves both pairs through this corner:
                    // conflate the diagonal pair (ci,cj)–(ci+1,cj+1) and the
                    // anti pair (ci+1,cj)–(ci,cj+1) by averaging.
                    let diag = 0.5 * (at(ci, cj, 1, 1) + at(ci + 1, cj + 1, -1, -1));
                    let anti = 0.5 * (at(ci + 1, cj, -1, 1) + at(ci, cj + 1, 1, -1));
                    lv.ane.set(ci, cj, 0.5 * (diag + anti));
                }
            }
        }
        lv.sanitize();
        lv
    }

    /// The parity conjugation `D A D` with `D = diag((−1)^(i+j))`: axis
    /// couplings connect cells of opposite parity and flip sign; the
    /// diagonal and the corner couplings connect equal parity and are
    /// unchanged. Congruence keeps the level SPD, and the conjugated
    /// operator maps checkerboard-modulated smooth fields to smooth fields —
    /// the second hierarchy of the B-grid parity-split V-cycle (see
    /// `pop-core`'s `precond::mg`) is the Galerkin chain of this operator.
    pub fn parity_conjugate(&self) -> MgLevel {
        let mut lv = self.clone();
        for j in 0..self.ny {
            for i in 0..self.nx {
                lv.an.set(i, j, -self.an.get(i, j));
                lv.ae.set(i, j, -self.ae.get(i, j));
            }
        }
        lv.sanitize();
        lv
    }

    /// `y = A_level x` over the active interior, dispatched to the pinned
    /// lane kernels — bitwise identical under every `SimdMode`. `x`'s halo
    /// must be zero (the level is zero-Dirichlet); land outputs are exact
    /// zeros.
    pub fn apply_into(&self, mode: SimdMode, x: &BlockVec, y: &mut BlockVec) {
        let blk = self.stencil_block(x, &[("y", y)]);
        simd::apply(mode, &blk, y.raw_mut(), &self.mask);
    }

    /// `r = rhs − A_level x` over the active interior, via the pinned
    /// residual kernel without its norm fold (the V-cycle needs no
    /// reduction here). Land entries of `r` receive the pass-through `rhs`
    /// value; every consumer masks them out. `x`'s halo must be zero; `rhs`
    /// and `r` must share the level's padded layout.
    pub fn residual_into(&self, mode: SimdMode, x: &BlockVec, rhs: &BlockVec, r: &mut BlockVec) {
        let blk = self.stencil_block(x, &[("rhs", rhs), ("r", r)]);
        simd::residual::<false>(mode, &blk, rhs.raw(), r.raw_mut(), &self.mask, &self.mask);
    }

    /// The level's operand views for the flat kernels, after checking that
    /// every operand has the level's own padded (halo-1) shape.
    fn stencil_block<'a>(
        &'a self,
        x: &'a BlockVec,
        others: &[(&str, &BlockVec)],
    ) -> StencilBlock<'a> {
        let shape = TileShape::of(&self.a0);
        shape.check("x", x);
        for (name, v) in others {
            shape.check(name, v);
        }
        let coeffs = [&self.a0, &self.an, &self.ae, &self.ane].map(|c| c.raw());
        StencilBlock::new(shape, x.raw(), coeffs)
    }

    /// Zonal interior extent of this level.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Meridional interior extent of this level.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of active (ocean) unknowns on this level.
    #[inline]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Interior ocean mask, row-major `nx × ny`.
    #[inline]
    pub fn mask(&self) -> &[u8] {
        &self.mask
    }

    /// `1 / a0` on active cells (0 on land), row-major `nx × ny`.
    #[inline]
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Is interior cell `(i, j)` an active unknown?
    #[inline]
    pub fn is_active(&self, i: usize, j: usize) -> bool {
        self.mask[j * self.nx + i] != 0
    }

    /// Materialize the level operator over its active cells as a dense
    /// matrix, together with the row-major list of active cells (the
    /// unknown ordering). Used for the exactly-solved coarsest level.
    pub fn to_dense_active(&self) -> (Vec<(usize, usize)>, DenseMatrix) {
        let cells: Vec<(usize, usize)> = (0..self.ny)
            .flat_map(|j| (0..self.nx).map(move |i| (i, j)))
            .filter(|&(i, j)| self.is_active(i, j))
            .collect();
        let index = |i: isize, j: isize| -> Option<usize> {
            if i < 0 || j < 0 || i >= self.nx as isize || j >= self.ny as isize {
                return None;
            }
            let (iu, ju) = (i as usize, j as usize);
            if !self.is_active(iu, ju) {
                return None;
            }
            cells.binary_search(&(iu, ju)).ok().or_else(|| {
                // Row-major (j, i) ordering: search by the sort key.
                cells.iter().position(|&c| c == (iu, ju))
            })
        };
        let mut m = DenseMatrix::zeros(cells.len());
        for (row, &(i, j)) in cells.iter().enumerate() {
            let (iz, jz) = (i as isize, j as isize);
            let mut add = |ii: isize, jj: isize, v: f64| {
                if v != 0.0 {
                    if let Some(col) = index(ii, jj) {
                        let old = m.get(row, col);
                        m.set(row, col, old + v);
                    }
                }
            };
            add(iz, jz, self.a0.get(i, j));
            add(iz, jz + 1, self.an.get(i, j));
            add(iz + 1, jz, self.ae.get(i, j));
            add(iz + 1, jz + 1, self.ane.get(i, j));
            if j > 0 {
                add(iz, jz - 1, self.an.get(i, j - 1));
                add(iz + 1, jz - 1, self.ane.get(i, j - 1));
            }
            if i > 0 {
                add(iz - 1, jz, self.ae.get(i - 1, j));
                add(iz - 1, jz + 1, self.ane.get(i - 1, j));
            }
            if i > 0 && j > 0 {
                add(iz - 1, jz - 1, self.ane.get(i - 1, j - 1));
            }
        }
        (cells, m)
    }

    fn empty(nx: usize, ny: usize) -> MgLevel {
        MgLevel {
            nx,
            ny,
            a0: BlockVec::zeros(nx, ny, 1),
            an: BlockVec::zeros(nx, ny, 1),
            ae: BlockVec::zeros(nx, ny, 1),
            ane: BlockVec::zeros(nx, ny, 1),
            mask: vec![0; nx * ny],
            inv_diag: vec![0.0; nx * ny],
            active: 0,
        }
    }

    /// Recompute mask/diagonal state from `a0` and drop couplings whose
    /// endpoints are inactive: N/E couplings need both endpoints active, a
    /// corner coefficient needs all four corner cells active (it carries two
    /// pairs). Idempotent; run after filling or coarsening coefficients.
    fn sanitize(&mut self) {
        let (nx, ny) = (self.nx, self.ny);
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                let a0 = self.a0.get(i, j);
                self.mask[k] = u8::from(a0 > 0.0);
                self.inv_diag[k] = if a0 > 0.0 { 1.0 / a0 } else { 0.0 };
            }
        }
        let act = |mask: &[u8], i: usize, j: usize| mask[j * nx + i] != 0;
        for j in 0..ny {
            for i in 0..nx {
                if !(act(&self.mask, i, j) && j + 1 < ny && act(&self.mask, i, j + 1)) {
                    self.an.set(i, j, 0.0);
                }
                if !(act(&self.mask, i, j) && i + 1 < nx && act(&self.mask, i + 1, j)) {
                    self.ae.set(i, j, 0.0);
                }
                let corner_ok = i + 1 < nx
                    && j + 1 < ny
                    && act(&self.mask, i, j)
                    && act(&self.mask, i + 1, j)
                    && act(&self.mask, i, j + 1)
                    && act(&self.mask, i + 1, j + 1);
                if !corner_ok {
                    self.ane.set(i, j, 0.0);
                }
            }
        }
        self.active = self.mask.iter().filter(|&&m| m != 0).count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A masked SPD test stencil: the reference stencil plus small varying
    /// axis couplings (the reference template keeps `AN = AE = 0`, which
    /// would leave the axis coarsening paths untested), with land holes and
    /// their dead corners zeroed (the convention real assembly guarantees).
    fn masked_stencil(nx: usize, ny: usize) -> LocalStencil {
        let mut ls = LocalStencil::reference(nx, ny, 90.0, 3.0);
        for j in -1..ny as isize {
            for i in -1..nx as isize {
                // Row sums of the perturbation stay below the +4 diagonal
                // shift, so the stencil remains SPD by diagonal dominance.
                let an = -0.5 - ((i + 2 * j + 4).rem_euclid(3)) as f64 * 0.25;
                let ae = -0.25 - ((2 * i + j + 4).rem_euclid(3)) as f64 * 0.125;
                let a0 = if i >= 0 && j >= 0 {
                    ls.a0(i, j) + 4.0
                } else {
                    0.0
                };
                ls.set(i, j, a0, an, ae, ls.ane(i, j));
            }
        }
        for (i, j) in [(2, 2), (2, 3), (4, 1)] {
            ls.set(i, j, 0.0, 0.0, 0.0, 0.0);
        }
        for (i, j) in [
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 1),
            (2, 2),
            (2, 3),
            (3, 1),
            (3, 0),
            (4, 0),
            (4, 1),
        ] {
            ls.set_ane(i, j, 0.0);
        }
        ls
    }

    #[test]
    fn finest_level_apply_matches_local_stencil() {
        let ls = masked_stencil(7, 5);
        let lv = MgLevel::from_local(&ls);
        let mut x = BlockVec::zeros(7, 5, 1);
        for j in 0..5 {
            for i in 0..7 {
                if lv.is_active(i, j) {
                    x.set(i, j, ((i * 3 + j * 11) % 13) as f64 * 0.25 - 1.0);
                }
            }
        }
        let mut y = BlockVec::zeros(7, 5, 1);
        lv.apply_into(SimdMode::Portable, &x, &mut y);
        for j in 0..5isize {
            for i in 0..7isize {
                let want = if lv.is_active(i as usize, j as usize) {
                    ls.apply_at(i, j, |ii, jj| {
                        if ii >= 0
                            && jj >= 0
                            && ii < 7
                            && jj < 5
                            && lv.is_active(ii as usize, jj as usize)
                        {
                            x.get(ii as usize, jj as usize)
                        } else {
                            0.0
                        }
                    })
                } else {
                    0.0
                };
                let got = y.get(i as usize, j as usize);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "stencil operand `x` shape mismatch")]
    fn apply_rejects_an_operand_with_a_wider_halo() {
        let lv = MgLevel::from_local(&masked_stencil(7, 5));
        let x = BlockVec::zeros(7, 5, 2);
        let mut y = BlockVec::zeros(7, 5, 1);
        lv.apply_into(SimdMode::Portable, &x, &mut y);
    }

    #[test]
    fn apply_bitwise_matches_the_per_point_reference_on_ragged_extents() {
        // nx = 7 is not a lane multiple: both the vector body and the scalar
        // tail of the lane kernel run. The reference is the per-point
        // accessor form of `NinePoint::apply_reference` over the level's own
        // tiles: the nine products in the canonical order, zero on land.
        let lv = MgLevel::from_local(&masked_stencil(7, 5));
        let mut x = BlockVec::zeros(7, 5, 1);
        for j in 0..5 {
            for i in 0..7 {
                x.set(i, j, ((i * 17 + j * 5) % 23) as f64 * 0.125 - 1.0);
            }
        }
        let want = |i: isize, j: isize| {
            if !lv.is_active(i as usize, j as usize) {
                return 0.0;
            }
            lv.a0.at(i, j) * x.at(i, j)
                + lv.an.at(i, j) * x.at(i, j + 1)
                + lv.an.at(i, j - 1) * x.at(i, j - 1)
                + lv.ae.at(i, j) * x.at(i + 1, j)
                + lv.ae.at(i - 1, j) * x.at(i - 1, j)
                + lv.ane.at(i, j) * x.at(i + 1, j + 1)
                + lv.ane.at(i, j - 1) * x.at(i + 1, j - 1)
                + lv.ane.at(i - 1, j) * x.at(i - 1, j + 1)
                + lv.ane.at(i - 1, j - 1) * x.at(i - 1, j - 1)
        };
        for mode in crate::op::tests::all_modes() {
            let mut y = BlockVec::zeros(7, 5, 1);
            y.fill(f64::NAN);
            y.zero_halo();
            lv.apply_into(mode, &x, &mut y);
            for j in 0..5 {
                for i in 0..7 {
                    assert_eq!(
                        y.get(i, j).to_bits(),
                        want(i as isize, j as isize).to_bits(),
                        "{mode:?} diverged at ({i},{j})"
                    );
                }
            }
        }
    }

    /// The coarse operator is the explicit Galerkin triple product `Pᵀ Ã P`
    /// under the linear transfer weights, up to the documented conflation:
    /// the two diagonal pairs through each coarse corner are averaged into
    /// the shared `ANE` slot (and zeroed by the sanitizer when any of the
    /// four corner cells is inactive). Checked for full coarsening and both
    /// semicoarsening directions.
    #[test]
    fn coarsen_matches_explicit_galerkin_product() {
        let fine = MgLevel::from_local(&masked_stencil(6, 5));
        let (fcells, fdense) = fine.to_dense_active();
        for (cx, cy) in [(true, true), (true, false), (false, true)] {
            let coarse = fine.coarsen(cx, cy);
            let (ccells, cdense) = coarse.to_dense_active();
            let (cnx, cny) = (coarse.nx(), coarse.ny());

            // The linear weight of fine index f on coarse index k — the
            // independent mirror of `pop_comm::transfer::parents`.
            let w = |f: usize, k: usize, c: bool, cn: usize| -> f64 {
                if !c || f % 2 == 0 {
                    f64::from(k == if c { f / 2 } else { f })
                } else if f / 2 + 1 >= cn {
                    // Nearest-anchor extrapolation past the last anchor.
                    f64::from(k == f / 2)
                } else if k == f / 2 || k == f / 2 + 1 {
                    0.5
                } else {
                    0.0
                }
            };
            // Exact triple-product entry A_c(p, q) = (Pᵀ Ã P)[p, q] over
            // the active fine cells.
            let exact = |p: (usize, usize), q: (usize, usize)| -> f64 {
                let mut s = 0.0;
                for (r, &(fi, fj)) in fcells.iter().enumerate() {
                    let wp = w(fi, p.0, cx, cnx) * w(fj, p.1, cy, cny);
                    if wp == 0.0 {
                        continue;
                    }
                    for (c, &(gi, gj)) in fcells.iter().enumerate() {
                        let wq = w(gi, q.0, cx, cnx) * w(gj, q.1, cy, cny);
                        if wq != 0.0 {
                            s += wp * fdense.get(r, c) * wq;
                        }
                    }
                }
                s
            };

            for (p, &(pi, pj)) in ccells.iter().enumerate() {
                for (q, &(ci, cj)) in ccells.iter().enumerate() {
                    let (oi, oj) = (ci as isize - pi as isize, cj as isize - pj as isize);
                    let want = if oi.abs() > 1 || oj.abs() > 1 {
                        0.0 // linear Galerkin closes over nine points
                    } else if oi == 0 || oj == 0 {
                        exact((pi, pj), (ci, cj))
                    } else {
                        // Corner coupling: the stored slot is the average of
                        // the two pairs through the corner, zero unless all
                        // four corner cells are active.
                        let (bi, bj) = (pi.min(ci), pj.min(cj));
                        let all4 = [(bi, bj), (bi + 1, bj), (bi, bj + 1), (bi + 1, bj + 1)]
                            .iter()
                            .all(|&(i, j)| coarse.is_active(i, j));
                        if all4 {
                            0.5 * (exact((bi, bj), (bi + 1, bj + 1))
                                + exact((bi + 1, bj), (bi, bj + 1)))
                        } else {
                            0.0
                        }
                    };
                    let got = cdense.get(p, q);
                    assert!(
                        (got - want).abs() <= 1e-10 * want.abs().max(1.0),
                        "cx={cx} cy={cy}: A_c[{p},{q}] ({pi},{pj})→({ci},{cj}) = {got} vs {want}"
                    );
                }
            }
            // Galerkin of SPD (plus the symmetric conflation) stays symmetric.
            assert!(cdense.is_symmetric(1e-12));
        }
    }

    /// `parity_conjugate` really is the congruence `D A D`: applying the
    /// conjugated level to `D x` gives `D (A x)` for any active-supported x.
    #[test]
    fn parity_conjugate_is_a_congruence() {
        let lv = MgLevel::from_local(&masked_stencil(7, 5));
        let cj = lv.parity_conjugate();
        let sign = |i: usize, j: usize| if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
        let mut x = BlockVec::zeros(7, 5, 1);
        let mut dx = BlockVec::zeros(7, 5, 1);
        for j in 0..5 {
            for i in 0..7 {
                if lv.is_active(i, j) {
                    let v = ((i * 5 + j * 7) % 11) as f64 * 0.3 - 1.2;
                    x.set(i, j, v);
                    dx.set(i, j, sign(i, j) * v);
                }
            }
        }
        let mut ax = BlockVec::zeros(7, 5, 1);
        let mut cdx = BlockVec::zeros(7, 5, 1);
        lv.apply_into(SimdMode::Portable, &x, &mut ax);
        cj.apply_into(SimdMode::Portable, &dx, &mut cdx);
        for j in 0..5 {
            for i in 0..7 {
                let want = sign(i, j) * ax.get(i, j);
                let got = cdx.get(i, j);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn coarse_mask_keeps_any_ocean_footprint() {
        // A 1-wide ocean channel through land: every coarse cell whose
        // interpolation support touches the channel must stay active even
        // though most of that support is land.
        let mut ls = LocalStencil::zeros(8, 6);
        for i in 0..8isize {
            ls.set(i, 2, 100.0, 0.0, 10.0, 0.0);
        }
        // Drop the channel-end east coupling pointing out of range.
        ls.set(7, 2, 100.0, 0.0, 0.0, 0.0);
        let fine = MgLevel::from_local(&ls);
        assert_eq!(fine.active(), 8);
        let coarse = fine.coarsen(true, true);
        assert_eq!((coarse.nx(), coarse.ny()), (4, 3));
        for ci in 0..4 {
            assert!(coarse.is_active(ci, 1), "channel vanished at coarse {ci}");
            assert!(!coarse.is_active(ci, 0));
            assert!(!coarse.is_active(ci, 2));
        }
        // The coarse channel diagonal stays positive and the chain stays
        // connected: east couplings nonzero between adjacent coarse cells.
        for ci in 0..3 {
            let (_, m) = coarse.to_dense_active();
            assert!(m.get(ci, ci) > 0.0);
            assert!(m.get(ci, ci + 1) != 0.0, "coarse channel disconnected");
        }
    }

    #[test]
    fn all_land_level_has_no_active_cells_at_any_depth() {
        let ls = LocalStencil::zeros(8, 8);
        let mut lv = MgLevel::from_local(&ls);
        assert_eq!(lv.active(), 0);
        for _ in 0..3 {
            lv = lv.coarsen(true, true);
            assert_eq!(lv.active(), 0);
        }
        let (cells, _) = lv.to_dense_active();
        assert!(cells.is_empty());
    }
}
