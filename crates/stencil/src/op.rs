//! Assembly and matrix-free application of the distributed operator.

use pop_comm::{BlockVec, CommWorld, DistLayout, DistVec};
use pop_grid::{Grid, GRAVITY};
use pop_simd::SimdMode;
use std::sync::Arc;

use crate::local::LocalStencil;
use crate::simd::{self, StencilBlock, TileShape};

/// The distributed nine-point operator in POP's symmetric storage.
///
/// `a0[p]` is the diagonal; `an[p]`, `ae[p]`, `ane[p]` couple point `p` to
/// its north, east, and northeast neighbours. Couplings to the remaining five
/// neighbours are the symmetric images stored at those neighbours, which is
/// why the coefficient fields carry halos: applying the operator at an
/// interior point reads `an(i,j−1)`, `ae(i−1,j)`, `ane(i−1,j)`,
/// `ane(i,j−1)`, `ane(i−1,j−1)` which may live on another block.
#[derive(Debug, Clone)]
pub struct NinePoint {
    pub layout: Arc<DistLayout>,
    pub a0: DistVec,
    pub an: DistVec,
    pub ae: DistVec,
    pub ane: DistVec,
    /// The time-step weight φ·area added to the diagonal (part of the
    /// operator's fingerprint; kept for rescaling between time steps).
    pub phi: f64,
}

impl NinePoint {
    /// Assemble the operator `A = −∇·H∇ + φ` (sign chosen so `A` is positive
    /// definite; the paper's Eq. 1 is the negative of this) for barotropic
    /// time step `tau` seconds.
    ///
    /// Coefficients are derived from the corner-based energy functional
    /// `E = ½ Σ_corners H_c |∇η|²_c dA_c`, which guarantees symmetry and
    /// positive semidefiniteness with arbitrary masks and metrics, and
    /// reproduces POP's coefficient structure (one `ANE` per corner serving
    /// both diagonal pairs through that corner).
    pub fn assemble(grid: &Grid, layout: &Arc<DistLayout>, world: &CommWorld, tau: f64) -> Self {
        Self::assemble_with_gravity(grid, layout, world, tau, GRAVITY)
    }

    /// Like [`NinePoint::assemble`] with an explicit gravitational
    /// acceleration: reduced-gravity configurations (`g' ≪ g`) model the
    /// first baroclinic mode, which the eddying verification runs use.
    pub fn assemble_with_gravity(
        grid: &Grid,
        layout: &Arc<DistLayout>,
        world: &CommWorld,
        tau: f64,
        gravity: f64,
    ) -> Self {
        assert!(tau > 0.0, "nonpositive time step");
        assert!(gravity > 0.0, "nonpositive gravity");
        let (nx, ny) = (grid.nx, grid.ny);
        let mut a0g = vec![0.0f64; nx * ny];
        let mut ang = vec![0.0f64; nx * ny];
        let mut aeg = vec![0.0f64; nx * ny];
        let mut aneg = vec![0.0f64; nx * ny];

        // Corner (i, j) couples T cells SW=(i,j), SE=(i+1,j), NW=(i,j+1),
        // NE=(i+1,j+1) (zonal wrap if periodic). Energy weights:
        //   wx = H dyu / (8 dxu),  wy = H dxu / (8 dyu).
        // Hessian contributions (see crate docs / DESIGN.md):
        //   self-coupling (each cell):      +2(wx + wy)
        //   E-W pairs (SW-SE, NW-NE):       +2(wy − wx)
        //   N-S pairs (SW-NW, SE-NE):       +2(wx − wy)
        //   diagonal pairs (SW-NE, SE-NW):  −2(wx + wy)
        for j in 0..ny {
            for i in 0..nx {
                let hu = grid.hu[j * nx + i];
                if hu <= 0.0 {
                    continue;
                }
                let k = j * nx + i;
                let (dxu, dyu) = (grid.metrics.dxu[k], grid.metrics.dyu[k]);
                let wx = hu * dyu / (8.0 * dxu);
                let wy = hu * dxu / (8.0 * dyu);
                let ie = if i + 1 < nx { i + 1 } else { 0 }; // hu>0 implies wrap is legal
                let jn = j + 1; // hu>0 implies j+1 < ny
                let cells = [
                    j * nx + i,   // SW
                    j * nx + ie,  // SE
                    jn * nx + i,  // NW
                    jn * nx + ie, // NE
                ];
                for &c in &cells {
                    a0g[c] += 2.0 * (wx + wy);
                }
                // E-W couplings: stored at the western cell of each pair.
                aeg[j * nx + i] += 2.0 * (wy - wx); // SW-SE, stored at (i, j)
                aeg[jn * nx + i] += 2.0 * (wy - wx); // NW-NE, stored at (i, j+1)
                                                     // N-S couplings: stored at the southern cell of each pair.
                ang[j * nx + i] += 2.0 * (wx - wy); // SW-NW
                ang[j * nx + ie] += 2.0 * (wx - wy); // SE-NE
                                                     // Both diagonal couplings of this corner share one number.
                aneg[j * nx + i] += -2.0 * (wx + wy);
            }
        }

        // Implicit free-surface diagonal term φ·area, φ = 1/(g τ²).
        let phi = 1.0 / (gravity * tau * tau);
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                if grid.mask[k] {
                    a0g[k] += phi * grid.metrics.area(i, j);
                } else {
                    // Land rows are excluded from the system entirely.
                    a0g[k] = 0.0;
                    ang[k] = 0.0;
                    aeg[k] = 0.0;
                    aneg[k] = 0.0;
                }
            }
        }

        let mut a0 = DistVec::from_global(layout, &a0g);
        let mut an = DistVec::from_global(layout, &ang);
        let mut ae = DistVec::from_global(layout, &aeg);
        let mut ane = DistVec::from_global(layout, &aneg);
        // Fill coefficient halos once; they are reused by every apply.
        world.halo_update(&mut a0);
        world.halo_update(&mut an);
        world.halo_update(&mut ae);
        world.halo_update(&mut ane);

        NinePoint {
            layout: Arc::clone(layout),
            a0,
            an,
            ae,
            ane,
            phi,
        }
    }

    /// `y = A x` over ocean points. The caller must have refreshed `x`'s halo
    /// (one [`CommWorld::halo_update`]) since `x` last changed; this matches
    /// the paper's accounting of one boundary update per solver iteration.
    ///
    /// Dispatches the flat per-block kernel [`NinePoint::apply_block_into`];
    /// bit-identical to [`NinePoint::apply_reference`].
    pub fn apply(&self, world: &CommWorld, x: &DistVec, y: &mut DistVec) {
        let layout = Arc::clone(&self.layout);
        let x_ref = x;
        world.for_each_block(&mut y.blocks, |b, yb| {
            self.apply_block_into(b, &x_ref.blocks[b], yb, &layout.masks[b]);
        });
    }

    /// The pre-fusion `y = A x`: per-point halo-coordinate accessors instead
    /// of the flat row-slice kernel. Kept as the reference implementation —
    /// the whole-solve reference under `tests/` uses it, and a unit test
    /// pins it bit-identical to [`NinePoint::apply`].
    pub fn apply_reference(&self, world: &CommWorld, x: &DistVec, y: &mut DistVec) {
        let layout = Arc::clone(&self.layout);
        let a0 = &self.a0;
        let an = &self.an;
        let ae = &self.ae;
        let ane = &self.ane;
        let x_ref = x;
        world.for_each_block(&mut y.blocks, |b, yb| {
            let info = &layout.decomp.blocks[b];
            let mask = &layout.masks[b];
            let xb = &x_ref.blocks[b];
            let (a0b, anb, aeb, aneb) =
                (&a0.blocks[b], &an.blocks[b], &ae.blocks[b], &ane.blocks[b]);
            for j in 0..info.ny as isize {
                for i in 0..info.nx as isize {
                    if mask[j as usize * info.nx + i as usize] == 0 {
                        yb.set(i as usize, j as usize, 0.0);
                        continue;
                    }
                    let v = a0b.at(i, j) * xb.at(i, j)
                        + anb.at(i, j) * xb.at(i, j + 1)
                        + anb.at(i, j - 1) * xb.at(i, j - 1)
                        + aeb.at(i, j) * xb.at(i + 1, j)
                        + aeb.at(i - 1, j) * xb.at(i - 1, j)
                        + aneb.at(i, j) * xb.at(i + 1, j + 1)
                        + aneb.at(i, j - 1) * xb.at(i + 1, j - 1)
                        + aneb.at(i - 1, j) * xb.at(i - 1, j + 1)
                        + aneb.at(i - 1, j - 1) * xb.at(i - 1, j - 1);
                    yb.set(i as usize, j as usize, v);
                }
            }
        });
    }

    /// Flat, branch-light per-block kernel: `y_b = A x_b` over the interior
    /// of block `b`, on the lane type the process-wide [`pop_simd::mode`]
    /// names. Both are bitwise identical: the nine products are summed in
    /// the same order as [`NinePoint::apply_reference`] (one column per
    /// lane), so the kernel stays pinned to the reference bit-for-bit.
    ///
    /// `x`'s halo must be current (the caller's one halo update per
    /// iteration).
    pub fn apply_block_into(&self, b: usize, x: &BlockVec, y: &mut BlockVec, mask: &[u8]) {
        self.apply_block_into_mode(pop_simd::mode(), b, x, y, mask);
    }

    /// [`NinePoint::apply_block_into`] with an explicit dispatch choice —
    /// the hook equivalence tests and micro-benchmarks use to compare the
    /// lane types in one process.
    pub fn apply_block_into_mode(
        &self,
        mode: SimdMode,
        b: usize,
        x: &BlockVec,
        y: &mut BlockVec,
        mask: &[u8],
    ) {
        let blk = self.stencil_block(b, x, &[("y", y)], mask);
        simd::apply(mode, &blk, y.raw_mut(), &self.layout.masks[b]);
    }

    /// [`NinePoint::apply_block_into`] with two masked dot-product partials
    /// riding the kernel: returns `[Σ r·x, Σ y·x]` over the block's ocean
    /// points for the freshly stored `y = A x` — ChronGear's `ρ̃` and `δ̃`.
    /// Each sum accumulates in the row-major order of
    /// [`pop_comm::masked_block_dot`] under every dispatch mode, so the pair
    /// is bit-identical to an apply followed by two such passes.
    pub fn apply_block_dots_into(
        &self,
        b: usize,
        x: &BlockVec,
        y: &mut BlockVec,
        r: &BlockVec,
        mask: &[u8],
    ) -> [f64; 2] {
        self.apply_block_dots_into_mode(pop_simd::mode(), b, x, y, r, mask)
    }

    /// [`NinePoint::apply_block_dots_into`] with an explicit dispatch
    /// choice.
    pub fn apply_block_dots_into_mode(
        &self,
        mode: SimdMode,
        b: usize,
        x: &BlockVec,
        y: &mut BlockVec,
        r: &BlockVec,
        mask: &[u8],
    ) -> [f64; 2] {
        let blk = self.stencil_block(b, x, &[("y", y), ("r", r)], mask);
        simd::apply_dots(
            mode,
            &blk,
            y.raw_mut(),
            r.raw(),
            mask,
            &self.layout.masks[b],
        )
    }

    /// Fused per-block residual: `r_b = rhs_b − (A x_b)` in one pass, plus
    /// the block's masked `‖r‖²` partial. The partial accumulates in the same
    /// row-major ocean-point order as `DistVec::block_dot`, so a convergence
    /// check fed from these partials is bit-identical to the unfused
    /// `norm2_sq`-of-residual; the subtraction `rhs − v` rounds identically
    /// to the unfused negate-then-add (`(−v) + rhs`).
    pub fn residual_block_into(
        &self,
        b: usize,
        x: &BlockVec,
        rhs: &BlockVec,
        r: &mut BlockVec,
        mask: &[u8],
    ) -> f64 {
        self.residual_block_into_mode(pop_simd::mode(), b, x, rhs, r, mask)
    }

    /// [`NinePoint::residual_block_into`] with an explicit dispatch choice.
    /// The masked `‖r‖²` partial accumulates in a scalar row-major sum
    /// under every mode, so convergence histories never depend on dispatch.
    pub fn residual_block_into_mode(
        &self,
        mode: SimdMode,
        b: usize,
        x: &BlockVec,
        rhs: &BlockVec,
        r: &mut BlockVec,
        mask: &[u8],
    ) -> f64 {
        self.residual_block::<true>(mode, b, x, rhs, r, mask)
    }

    /// [`NinePoint::residual_block_into`] without the `‖r‖²` fold, for a
    /// sweep whose norm nobody reads: the same kernel writing the same `r`
    /// bits.
    pub fn residual_block_no_norm_into(
        &self,
        b: usize,
        x: &BlockVec,
        rhs: &BlockVec,
        r: &mut BlockVec,
        mask: &[u8],
    ) {
        self.residual_block::<false>(pop_simd::mode(), b, x, rhs, r, mask);
    }

    /// The fused residual, its `‖r‖²` partial folded when `NORM`.
    fn residual_block<const NORM: bool>(
        &self,
        mode: SimdMode,
        b: usize,
        x: &BlockVec,
        rhs: &BlockVec,
        r: &mut BlockVec,
        mask: &[u8],
    ) -> f64 {
        let blk = self.stencil_block(b, x, &[("rhs", rhs), ("r", r)], mask);
        simd::residual::<NORM>(
            mode,
            &blk,
            rhs.raw(),
            r.raw_mut(),
            mask,
            &self.layout.masks[b],
        )
    }

    /// Bundle block `b`'s operand views for the flat kernels, after checking
    /// that `x`, every other operand, the four coefficient tiles and the
    /// mask arrays all share `x`'s padded shape.
    fn stencil_block<'a>(
        &'a self,
        b: usize,
        x: &'a BlockVec,
        others: &[(&str, &BlockVec)],
        mask: &[u8],
    ) -> StencilBlock<'a> {
        let shape = TileShape::of(x);
        for (name, v) in others {
            shape.check(name, v);
        }
        shape.check_interior_len("mask", mask.len());
        StencilBlock::new(shape, x.raw(), self.coeff_tiles(b, shape))
    }

    /// Block `b`'s coefficient tiles `[a0, an, ae, ane]` as raw storage,
    /// each checked against the operand `shape`.
    pub(crate) fn coeff_tiles(&self, b: usize, shape: TileShape) -> [&[f64]; 4] {
        [&self.a0, &self.an, &self.ae, &self.ane].map(|c| {
            shape.check_coeff(&c.blocks[b]);
            c.blocks[b].raw()
        })
    }

    /// Convenience: refresh `x`'s halo, then `r = b − A x`.
    pub fn residual(&self, world: &CommWorld, x: &mut DistVec, rhs: &DistVec, r: &mut DistVec) {
        world.halo_update(x);
        self.apply(world, x, r);
        r.scale(-1.0);
        r.axpy(1.0, rhs);
    }

    /// The pre-fusion residual: separate apply, negate, and axpy passes over
    /// the whole field (what every solver iteration paid before the fused
    /// sweeps). Kept for the whole-solve reference under `tests/`;
    /// bit-identical to the fused [`NinePoint::residual_block_into`] path.
    pub fn residual_reference(
        &self,
        world: &CommWorld,
        x: &mut DistVec,
        rhs: &DistVec,
        r: &mut DistVec,
    ) {
        world.halo_update(x);
        self.apply_reference(world, x, r);
        r.scale(-1.0);
        r.axpy(1.0, rhs);
    }

    /// Extract the coefficients of a rectangular sub-domain of block `b`
    /// (interior origin `(i0, j0)`, extent `nx × ny`) into a [`LocalStencil`]
    /// with a one-cell south/west pad, as needed by the EVP and block-LU
    /// preconditioners. Coefficients outside the block interior come from the
    /// halo (correct across block boundaries).
    pub fn extract_local(
        &self,
        b: usize,
        i0: usize,
        j0: usize,
        nx: usize,
        ny: usize,
    ) -> LocalStencil {
        let info = &self.layout.decomp.blocks[b];
        assert!(
            i0 + nx <= info.nx && j0 + ny <= info.ny,
            "sub-domain out of block"
        );
        let mut ls = LocalStencil::zeros(nx, ny);
        for j in -1..ny as isize {
            for i in -1..nx as isize {
                let bi = i0 as isize + i;
                let bj = j0 as isize + j;
                ls.set(
                    i,
                    j,
                    self.a0.blocks[b].at(bi, bj),
                    self.an.blocks[b].at(bi, bj),
                    self.ae.blocks[b].at(bi, bj),
                    self.ane.blocks[b].at(bi, bj),
                );
            }
        }
        ls
    }

    /// Ratio of the largest |axis coupling| (N/E) to the largest |diagonal
    /// coupling| (NE). The paper reports this is ~0.1, motivating reduced
    /// EVP; exposed as a diagnostic.
    pub fn axis_to_diagonal_ratio(&self) -> f64 {
        let mut max_axis = 0.0f64;
        let mut max_diag = 0.0f64;
        for b in 0..self.layout.n_blocks() {
            max_axis = max_axis
                .max(self.an.block_max_abs(b))
                .max(self.ae.block_max_abs(b));
            max_diag = max_diag.max(self.ane.block_max_abs(b));
        }
        if max_diag == 0.0 {
            0.0
        } else {
            max_axis / max_diag
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pop_comm::{masked_block_dot, CommWorld, DistLayout};
    use pop_grid::Grid;
    use pop_simd::LANES;

    fn setup(
        grid: &Grid,
        bx: usize,
        by: usize,
        tau: f64,
    ) -> (Arc<DistLayout>, CommWorld, NinePoint) {
        let layout = DistLayout::build(grid, bx, by);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(grid, &layout, &world, tau);
        (layout, world, op)
    }

    /// Pseudo-random ocean field, deterministic, nonzero on every ocean point.
    pub(crate) fn test_field(layout: &Arc<DistLayout>, seed: u64) -> DistVec {
        let mut v = DistVec::zeros(layout);
        v.fill_with(|i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(seed);
            (h % 1000) as f64 / 500.0 - 1.0 + 0.001
        });
        v
    }

    #[test]
    fn operator_is_symmetric() {
        let g = Grid::gx1_scaled(7, 48, 40);
        let (layout, world, op) = setup(&g, 12, 10, 1800.0);
        let mut x = test_field(&layout, 1);
        let mut y = test_field(&layout, 2);
        let mut ax = DistVec::zeros(&layout);
        let mut ay = DistVec::zeros(&layout);
        world.halo_update(&mut x);
        world.halo_update(&mut y);
        op.apply(&world, &x, &mut ax);
        op.apply(&world, &y, &mut ay);
        let yax = world.dot(&y, &ax);
        let xay = world.dot(&x, &ay);
        let scale = yax.abs().max(xay.abs()).max(1.0);
        assert!(
            ((yax - xay) / scale).abs() < 1e-12,
            "asymmetry: y'Ax={yax} x'Ay={xay}"
        );
    }

    #[test]
    fn operator_is_positive_definite() {
        let g = Grid::gx1_scaled(9, 48, 40);
        let (layout, world, op) = setup(&g, 16, 10, 1800.0);
        for seed in 0..5 {
            let mut x = test_field(&layout, seed);
            let mut ax = DistVec::zeros(&layout);
            world.halo_update(&mut x);
            op.apply(&world, &x, &mut ax);
            let xax = world.dot(&x, &ax);
            assert!(xax > 0.0, "x'Ax = {xax} for seed {seed}");
        }
    }

    #[test]
    fn constant_field_hits_only_phi_term_on_every_ocean_row() {
        // The Laplacian of a constant is zero, so (A·1)(p) = φ·area(p) on
        // every ocean row, open water and coast alike (the assembly drops
        // land couplings: natural no-flux boundaries, exact volume
        // conservation).
        for g in [
            Grid::idealized_basin(20, 20, 800.0, 5.0e4),
            Grid::gx1_scaled(3, 48, 40),
            Grid::gx01_scaled(3, 60, 40),
        ] {
            let (layout, world, op) = setup(&g, (g.nx / 3).max(4), (g.ny / 3).max(4), 6000.0);
            let mut one = DistVec::zeros(&layout);
            one.fill_with(|_, _| 1.0);
            world.halo_update(&mut one);
            let mut y = DistVec::zeros(&layout);
            op.apply(&world, &one, &mut y);
            let (mut worst, mut max_diag) = (0.0f64, 0.0f64);
            for (b, info) in layout.decomp.blocks.iter().enumerate() {
                for j in 0..info.ny {
                    for i in 0..info.nx {
                        if layout.masks[b][j * info.nx + i] == 0 {
                            continue;
                        }
                        let area = g.metrics.area(info.i0 + i, info.j0 + j);
                        worst = worst.max((y.blocks[b].get(i, j) - op.phi * area).abs());
                        max_diag = max_diag.max(op.a0.blocks[b].get(i, j));
                    }
                }
            }
            assert!(
                worst < 1e-12 * max_diag,
                "row sums not conservative: {worst} against a diagonal of {max_diag}"
            );
        }
    }

    #[test]
    fn axis_couplings_small_on_isotropic_grid() {
        // The paper: N/S/E/W couplings are one order smaller than the rest.
        // Exact isotropy makes them vanish; the distorted Mercator grid keeps
        // them small.
        let g = Grid::gx01_scaled(3, 120, 80);
        let (_, _, op) = {
            let layout = DistLayout::build(&g, 30, 20);
            let world = CommWorld::serial();
            let op = NinePoint::assemble(&g, &layout, &world, 600.0);
            (layout, world, op)
        };
        let r = op.axis_to_diagonal_ratio();
        assert!(r < 0.35, "axis/diagonal coupling ratio {r} too large");
    }

    #[test]
    fn axis_couplings_larger_on_anisotropic_grid() {
        let g01 = Grid::gx01_scaled(3, 120, 80);
        let g1 = Grid::gx1_scaled(3, 120, 80);
        let world = CommWorld::serial();
        let l01 = DistLayout::build(&g01, 30, 20);
        let l1 = DistLayout::build(&g1, 30, 20);
        let op01 = NinePoint::assemble(&g01, &l01, &world, 600.0);
        let op1 = NinePoint::assemble(&g1, &l1, &world, 600.0);
        assert!(
            op1.axis_to_diagonal_ratio() > op01.axis_to_diagonal_ratio(),
            "1°-like grid should have larger axis couplings"
        );
    }

    #[test]
    fn apply_identical_across_decompositions() {
        // The operator is a property of the grid, not of the blocking: apply
        // must give the same global result under different decompositions.
        let g = Grid::gx1_scaled(11, 60, 44);
        let world = CommWorld::serial();
        let mut results = Vec::new();
        for (bx, by) in [(60, 44), (15, 11), (12, 8), (7, 9)] {
            let layout = DistLayout::build(&g, bx, by);
            let op = NinePoint::assemble(&g, &layout, &world, 1200.0);
            let mut x = DistVec::zeros(&layout);
            x.fill_with(|i, j| ((i * 13 + j * 7) as f64).cos());
            world.halo_update(&mut x);
            let mut y = DistVec::zeros(&layout);
            op.apply(&world, &x, &mut y);
            results.push(y.to_global());
        }
        for r in &results[1..] {
            for (a, b) in results[0].iter().zip(r) {
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                    "decomposition changed the operator: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn flat_apply_bitwise_matches_reference() {
        let g = Grid::gx1_scaled(13, 72, 56);
        let (layout, world, op) = setup(&g, 13, 11, 1500.0);
        let mut x = test_field(&layout, 4);
        world.halo_update(&mut x);
        let mut y_flat = DistVec::zeros(&layout);
        let mut y_ref = DistVec::zeros(&layout);
        op.apply(&world, &x, &mut y_flat);
        op.apply_reference(&world, &x, &mut y_ref);
        let (gf, gr) = (y_flat.to_global(), y_ref.to_global());
        for (a, b) in gf.iter().zip(&gr) {
            assert_eq!(a.to_bits(), b.to_bits(), "flat kernel diverged: {a} vs {b}");
        }
    }

    #[test]
    fn fused_residual_bitwise_matches_reference() {
        let g = Grid::gx1_scaled(17, 64, 48);
        let (layout, world, op) = setup(&g, 16, 12, 2400.0);
        let mut x = test_field(&layout, 5);
        let mut rhs = test_field(&layout, 6);
        world.halo_update(&mut rhs);
        let mut r_ref = DistVec::zeros(&layout);
        op.residual_reference(&world, &mut x, &rhs, &mut r_ref);
        let norm_ref = world.norm2_sq(&r_ref);

        let mut r_fused = DistVec::zeros(&layout);
        world.halo_update(&mut x);
        let mut acc = 0.0;
        for b in 0..layout.n_blocks() {
            acc += op.residual_block_into(
                b,
                &x.blocks[b],
                &rhs.blocks[b],
                &mut r_fused.blocks[b],
                &layout.masks[b],
            );
        }
        let (gf, gr) = (r_fused.to_global(), r_ref.to_global());
        for (a, b) in gf.iter().zip(&gr) {
            assert_eq!(a.to_bits(), b.to_bits(), "fused residual diverged");
        }
        assert_eq!(acc.to_bits(), norm_ref.to_bits(), "norm partial diverged");
    }

    /// Every dispatch mode this machine can run.
    pub(crate) fn all_modes() -> Vec<SimdMode> {
        let mut modes = vec![SimdMode::Portable];
        if pop_simd::detected_avx2() {
            modes.push(SimdMode::Avx2);
        }
        modes
    }

    /// Operators whose blocks exercise the lane kernels' ragged edges:
    /// 13×7 blocks (whole lane groups *and* a scalar tail in every row),
    /// then blocks narrower than a lane group (`nx ∈ {1, 2, 3}`: the tail
    /// loop is the whole row) and `nx ∈ {5, 7}` (one group, then a tail) —
    /// with land among the tail columns, so the tail's masked select and
    /// the folds' skip both run. Each shape comes twice: as built, and with
    /// its layout's ocean bytes relabelled 2 and 255 in turn, which every
    /// mask reader must take for ocean exactly as it takes 1.
    pub(crate) fn odd_block_cases() -> Vec<(String, Arc<DistLayout>, CommWorld, NinePoint)> {
        let mut cases = Vec::new();
        let wide = Grid::gx1_scaled(13, 65, 49);
        let narrow = Grid::gx1_scaled(29, 42, 30);
        for (g, bx, by) in [
            (&wide, 13, 7),
            (&narrow, 1, 6),
            (&narrow, 2, 5),
            (&narrow, 3, 7),
            (&narrow, 5, 6),
            (&narrow, 7, 5),
        ] {
            let (layout, world, op) = setup(g, bx, by, 1500.0);
            let tail_columns = |want_ocean: bool| {
                layout.decomp.blocks.iter().enumerate().any(|(b, info)| {
                    (0..info.ny).any(|j| {
                        (info.nx / LANES * LANES..info.nx)
                            .any(|i| layout.is_ocean(b, i, j) == want_ocean)
                    })
                })
            };
            assert!(
                tail_columns(true) && tail_columns(false),
                "{bx}x{by}: the tail columns need both land and ocean"
            );
            let mut relabelled = DistLayout::build(g, bx, by);
            let ocean = Arc::get_mut(&mut relabelled)
                .expect("a fresh layout")
                .masks
                .iter_mut()
                .flatten()
                .filter(|m| **m != 0);
            for (k, m) in ocean.enumerate() {
                *m = [2, 255][k % 2];
            }
            let relabelled_op = NinePoint::assemble(g, &relabelled, &world, 1500.0);
            cases.push((format!("{bx}x{by}"), layout, world, op));
            let world = CommWorld::serial();
            cases.push((
                format!("{bx}x{by} bytes 2/255"),
                relabelled,
                world,
                relabelled_op,
            ));
        }
        cases
    }

    fn assert_rows_bitwise(got: &BlockVec, want: &BlockVec, what: &str) {
        for j in 0..want.ny {
            for (i, (a, c)) in got
                .interior_row(j)
                .iter()
                .zip(want.interior_row(j))
                .enumerate()
            {
                assert_eq!(a.to_bits(), c.to_bits(), "{what} diverged at ({i},{j})");
            }
        }
    }

    /// Every epilogue of the column-lane sweep, on both lane types, against
    /// the named references: `apply_reference`, `residual_reference` with a
    /// `masked_block_dot` of the residual with itself, and an apply followed
    /// by two `masked_block_dot` passes — outputs and the order-sensitive
    /// partials, bit for bit.
    #[test]
    fn simd_modes_bitwise_match_reference_on_odd_blocks() {
        for (name, layout, world, op) in odd_block_cases() {
            let mut x = test_field(&layout, 21);
            let rhs = test_field(&layout, 22);
            world.halo_update(&mut x);
            let mut y_ref = DistVec::zeros(&layout);
            op.apply_reference(&world, &x, &mut y_ref);
            let mut r_ref = DistVec::zeros(&layout);
            op.residual_reference(&world, &mut x, &rhs, &mut r_ref);

            for b in 0..layout.n_blocks() {
                let mask = &layout.masks[b];
                let (xb, rhsb) = (&x.blocks[b], &rhs.blocks[b]);
                let (y_want, r_want) = (&y_ref.blocks[b], &r_ref.blocks[b]);
                let acc_want = masked_block_dot(r_want, r_want, mask);
                let dots_want = [
                    masked_block_dot(rhsb, xb, mask),
                    masked_block_dot(y_want, xb, mask),
                ];
                // Prove every interior point is written.
                let mut poisoned = BlockVec::zeros(xb.nx, xb.ny, xb.halo);
                poisoned.fill(f64::NAN);
                poisoned.zero_halo();
                for mode in all_modes() {
                    let tag = format!("{name} block {b} {mode:?}");
                    let mut y = poisoned.clone();
                    op.apply_block_into_mode(mode, b, xb, &mut y, mask);
                    assert_rows_bitwise(&y, y_want, &format!("{tag} apply"));

                    let mut y = poisoned.clone();
                    let dots = op.apply_block_dots_into_mode(mode, b, xb, &mut y, rhsb, mask);
                    assert_rows_bitwise(&y, y_want, &format!("{tag} apply+dots"));
                    assert_eq!(
                        dots.map(f64::to_bits),
                        dots_want.map(f64::to_bits),
                        "{tag} dots"
                    );

                    let mut r = poisoned.clone();
                    let acc = op.residual_block_into_mode(mode, b, xb, rhsb, &mut r, mask);
                    assert_rows_bitwise(&r, r_want, &format!("{tag} residual"));
                    assert_eq!(acc.to_bits(), acc_want.to_bits(), "{tag} norm partial");
                }
            }
        }
    }

    /// The residual without its norm fold writes exactly the residual the
    /// folding sweep writes, on both lane types.
    #[test]
    fn no_norm_residual_matches_the_folding_residual_on_odd_blocks() {
        for (name, layout, world, op) in odd_block_cases() {
            let mut x = test_field(&layout, 23);
            let rhs = test_field(&layout, 24);
            world.halo_update(&mut x);
            for b in 0..layout.n_blocks() {
                let mask = &layout.masks[b];
                let (xb, rhsb) = (&x.blocks[b], &rhs.blocks[b]);
                let mut poisoned = BlockVec::zeros(xb.nx, xb.ny, xb.halo);
                poisoned.fill(f64::NAN);
                poisoned.zero_halo();
                for mode in all_modes() {
                    let mut want = poisoned.clone();
                    op.residual_block_into_mode(mode, b, xb, rhsb, &mut want, mask);
                    let mut got = poisoned.clone();
                    op.residual_block::<false>(mode, b, xb, rhsb, &mut got, mask);
                    assert_rows_bitwise(&got, &want, &format!("{name} block {b} {mode:?}"));
                }
            }
        }
    }

    /// The operator and one halo-current operand of the odd-block case, for
    /// the shape-check tests below.
    fn odd_block_case() -> (Arc<DistLayout>, NinePoint, DistVec) {
        let g = Grid::gx1_scaled(13, 65, 49);
        let (layout, world, op) = setup(&g, 13, 7, 1500.0);
        let mut x = test_field(&layout, 21);
        world.halo_update(&mut x);
        (layout, op, x)
    }

    // The kernels index every operand through one shape with unchecked
    // windows, so these must panic in release builds too (CI runs this
    // crate's tests under `--release`).

    #[test]
    #[should_panic(expected = "stencil operand `y` shape mismatch")]
    fn apply_rejects_an_output_with_a_different_halo() {
        let (layout, op, x) = odd_block_case();
        let xb = &x.blocks[0];
        let mut y = BlockVec::zeros(xb.nx, xb.ny, xb.halo + 1);
        op.apply_block_into(0, xb, &mut y, &layout.masks[0]);
    }

    #[test]
    #[should_panic(expected = "stencil operand `rhs` shape mismatch")]
    fn residual_rejects_a_right_hand_side_of_another_block() {
        let (layout, op, x) = odd_block_case();
        let xb = &x.blocks[0];
        let rhs = BlockVec::zeros(xb.nx + 1, xb.ny, xb.halo);
        let mut r = xb.clone();
        op.residual_block_into(0, xb, &rhs, &mut r, &layout.masks[0]);
    }

    #[test]
    #[should_panic(expected = "`mask` length mismatch")]
    fn apply_rejects_a_wrong_length_mask() {
        let (layout, op, x) = odd_block_case();
        let mut y = x.blocks[0].clone();
        let mask = &layout.masks[0];
        op.apply_block_into(0, &x.blocks[0], &mut y, &mask[..mask.len() - 1]);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let g = Grid::idealized_basin(12, 12, 500.0, 1.0e4);
        let (layout, world, op) = setup(&g, 6, 6, 1800.0);
        let mut x = test_field(&layout, 3);
        world.halo_update(&mut x);
        let mut rhs = DistVec::zeros(&layout);
        op.apply(&world, &x, &mut rhs);
        let mut r = DistVec::zeros(&layout);
        op.residual(&world, &mut x, &rhs, &mut r);
        assert!(world.norm2_sq(&r).sqrt() < 1e-9);
    }

    #[test]
    fn extract_local_reproduces_apply() {
        // Applying the extracted LocalStencil on interior sub-domain points
        // (with the true neighbouring values) must match the global apply.
        let g = Grid::gx1_scaled(5, 40, 32);
        let (layout, world, op) = setup(&g, 20, 16, 900.0);
        let mut x = test_field(&layout, 9);
        world.halo_update(&mut x);
        let mut y = DistVec::zeros(&layout);
        op.apply(&world, &x, &mut y);

        let b = 0;
        let (i0, j0, snx, sny) = (4, 3, 8, 7);
        let ls = op.extract_local(b, i0, j0, snx, sny);
        let xb = &x.blocks[b];
        for j in 0..sny as isize {
            for i in 0..snx as isize {
                let (bi, bj) = (i0 as isize + i, j0 as isize + j);
                if !layout.is_ocean(b, bi as usize, bj as usize) {
                    continue;
                }
                let v = ls.apply_at(i, j, |ii, jj| xb.at(i0 as isize + ii, j0 as isize + jj));
                let want = y.blocks[b].at(bi, bj);
                assert!(
                    (v - want).abs() <= 1e-10 * want.abs().max(1.0),
                    "({i},{j}): {v} vs {want}"
                );
            }
        }
    }
}
