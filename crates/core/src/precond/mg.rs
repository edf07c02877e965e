//! Matrix-free geometric multigrid preconditioning (DESIGN.md §15).
//!
//! A third preconditioner beside diagonal and block-EVP: each decomposition
//! block gets its own Galerkin-coarsened hierarchy of
//! [`pop_stencil::MgLevel`]s and one symmetric V(1,1) cycle per application.
//! Like every preconditioner here it is strictly *block-local* — the finest
//! level is the zero-Dirichlet restriction of the operator to the block, so
//! an application needs no halo update and no reduction, and the
//! serial/threaded/ranksim bitwise-identity of the solvers is untouched.
//!
//! The cycle is deterministic and bitwise identical on both SIMD lane
//! types by construction: level applications and residuals go through the
//! pinned lane kernels of `pop-stencil`, the smoother and transfers are
//! fixed-order scalar loops, and the coarsest level is solved exactly with
//! a pivoted dense LU over its active cells.
//!
//! Symmetry (required by the CG-type solvers and by P-CSI's real-spectrum
//! assumption): the weighted-Jacobi smoother matrix `D/ω` is symmetric, one
//! pre- and one post-smoothing sweep are applied symmetrically around the
//! coarse-grid correction, the masked *linear* transfer pair is an exact
//! adjoint (`tests` in `pop_comm::transfer`), and the coarse operators are
//! Galerkin (`Pᵀ A P`, with the corner-pair conflation
//! `pop_stencil::level` documents), which together make the V-cycle error
//! propagator `(I − ωD⁻¹A)ᵀ (I − P A_c⁻¹ Pᵀ A)(I − ωD⁻¹A)`-shaped — a
//! symmetric preconditioner `B ≈ A⁻¹`.
//!
//! **The B-grid checkerboard and the parity split.** POP's barotropic
//! operator comes from a B-grid discretization, so its stencil is
//! *corner-dominated*: the `ANE` coupling carries the rotated Laplacian
//! while the axis couplings `AN`/`AE` are near zero (exactly zero on a
//! uniform grid). The lattice then nearly decouples into the two parity
//! sub-lattices `(i+j) mod 2`, and the near-nullspace of `A` contains not
//! just smooth fields but the checkerboard `(−1)^(i+j)` and every
//! checkerboard-*modulated* smooth field: `A·cb ≈ φ·cb` is tiny, so no
//! residual-based smoother can damp that family, and a linear coarse space
//! only ever contains its parity-symmetric half. A single V-cycle therefore
//! stalls with `ρ(I − BA) → 1` no matter how deep the hierarchy. The fix is
//! a *parity-split dual hierarchy*: with `D = diag((−1)^(i+j))`
//! (block-local), the congruence `D A D` flips the signs of `an`/`ae` and
//! keeps `a0`/`ane` ([`MgLevel::parity_conjugate`]), and it maps
//! checkerboard-modulated smooth fields to plainly smooth fields. Each
//! block builds two Galerkin chains — one on `A`, one on `D A D` — and an
//! application combines their V-cycles as `B = ½ (B₁ + D B₂ D)`. `B` is
//! symmetric and positive definite (an average of two SPD cycles under a
//! congruence), captures both halves of the near-nullspace, and costs two
//! V-cycles plus two sign staples per point.
//!
//! Semicoarsening falls out of the per-direction policy: a direction is
//! halved only while its extent is at least [`MgConfig::min_extent`], so a
//! `36 × 6` block coarsens `18×6 → 9×6 → 5×3 → 3×3` without ever producing
//! a degenerate 1-wide grid. Land is handled by masked transfers (land cells
//! never contribute to a coarse sum and never receive a correction) and the
//! any-ocean coarse-mask rule, so an all-land block yields an empty
//! hierarchy whose application is exactly zero.

use super::{assert_same_shape, Preconditioner};
use pop_comm::{coarse_extent, prolong_add_masked, restrict_masked, BlockVec};
use pop_stencil::dense::{DenseMatrix, LuFactors};
use pop_stencil::{MgLevel, NinePoint};
use std::cell::RefCell;
use std::collections::HashMap;

/// Tuning knobs of the V-cycle. The level geometry is a pure function of
/// the finest block dimensions and this config, which is what lets the
/// thread-local scratch be keyed by block shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgConfig {
    /// Weighted-Jacobi damping factor (2/3 is the classic choice for the
    /// high-frequency half of the Laplacian spectrum).
    pub omega: f64,
    /// A direction keeps coarsening while its extent is ≥ this (4 stops the
    /// hierarchy at a ≤ 3×3 coarsest grid).
    pub min_extent: usize,
    /// Hard cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for MgConfig {
    fn default() -> Self {
        MgConfig {
            omega: 2.0 / 3.0,
            min_extent: 4,
            max_levels: 16,
        }
    }
}

impl MgConfig {
    /// The coarsening schedule for a finest block of `nx × ny`: one
    /// `(cx, cy)` step per inter-level transfer. Pure function of the
    /// dimensions and config — the scratch cache and every rank's rebuild
    /// of the same block agree on it by construction.
    fn schedule(&self, mut nx: usize, mut ny: usize) -> Vec<(bool, bool)> {
        let mut steps = Vec::new();
        while steps.len() + 1 < self.max_levels {
            let (cx, cy) = (nx >= self.min_extent, ny >= self.min_extent);
            if !cx && !cy {
                break;
            }
            steps.push((cx, cy));
            nx = coarse_extent(nx, cx);
            ny = coarse_extent(ny, cy);
        }
        steps
    }
}

/// One Galerkin chain: `levels[0]` is the finest, and `coarse` the dense LU
/// of the coarsest level over its active cells (`None` when the block is
/// all land at the bottom).
struct Chain {
    levels: Vec<MgLevel>,
    coarse: Option<(Vec<(usize, usize)>, LuFactors)>,
}

/// The per-block hierarchy: two parity chains sharing one coarsening
/// schedule (`steps[l]` gives the directions from level `l` to `l + 1`).
/// `chains[0]` coarsens the block operator `A` itself and captures the
/// smooth near-nullspace; `chains[1]` coarsens the parity conjugation
/// `D A D` and captures the checkerboard-modulated one (module docs).
struct BlockHierarchy {
    chains: [Chain; 2],
    steps: Vec<(bool, bool)>,
}

/// The distributed geometric-multigrid preconditioner.
pub struct BlockMg {
    blocks: Vec<BlockHierarchy>,
    cfg: MgConfig,
}

/// Reusable per-level vectors for one V-cycle: the level right-hand side,
/// the accumulated correction, and a residual temporary. Halo-1 with
/// permanently zero halos — nothing ever writes a halo entry, which is what
/// keeps the level kernels zero-Dirichlet.
struct LvlScratch {
    r: BlockVec,
    z: BlockVec,
    t: BlockVec,
}

#[derive(Default)]
struct MgScratch {
    lvls: Vec<LvlScratch>,
    psi: Vec<f64>,
    out: Vec<f64>,
}

thread_local! {
    /// V-cycle scratch keyed by finest block shape. The level dimensions
    /// are re-derived from the hierarchy on each borrow and the buffers
    /// rebuilt on mismatch (two `BlockMg` instances with different configs
    /// may share a thread).
    static MG_SCRATCH: RefCell<HashMap<(usize, usize), MgScratch>> =
        RefCell::new(HashMap::new());
}

impl BlockMg {
    /// Build the hierarchy for every block of `op` with default tuning.
    pub fn with_defaults(op: &NinePoint) -> Self {
        BlockMg::new(op, MgConfig::default())
    }

    /// Build the hierarchy for every block of `op`.
    pub fn new(op: &NinePoint, cfg: MgConfig) -> Self {
        assert!(cfg.omega > 0.0 && cfg.omega < 2.0, "Jacobi damping range");
        assert!(cfg.min_extent >= 2, "min_extent must be at least 2");
        assert!(cfg.max_levels >= 1);
        let mut blocks = Vec::with_capacity(op.layout.n_blocks());
        for (b, info) in op.layout.decomp.blocks.iter().enumerate() {
            let ls = op.extract_local(b, 0, 0, info.nx, info.ny);
            let steps = cfg.schedule(info.nx, info.ny);
            let finest = MgLevel::from_local(&ls);
            let conjugated = finest.parity_conjugate();
            let chains = [finest, conjugated].map(|fine| {
                let mut levels = vec![fine];
                for &(cx, cy) in &steps {
                    let next = levels.last().expect("nonempty").coarsen(cx, cy);
                    levels.push(next);
                }
                let bottom = levels.last().expect("nonempty");
                let coarse = if bottom.active() == 0 {
                    None
                } else {
                    let (cells, dense) = bottom.to_dense_active();
                    Some((cells, factor_coarsest(dense)))
                };
                Chain { levels, coarse }
            });
            blocks.push(BlockHierarchy { chains, steps });
        }
        BlockMg { blocks, cfg }
    }

    pub fn config(&self) -> MgConfig {
        self.cfg
    }

    /// One symmetric V(1,1) cycle on parity chain `c` of block `b`'s
    /// hierarchy, entirely inside `scratch`. `scratch.lvls[0].r` holds the
    /// input residual on entry and `scratch.lvls[0].z` the preconditioned
    /// result on exit.
    fn vcycle(&self, b: usize, c: usize, scratch: &mut MgScratch) {
        let h = &self.blocks[b];
        let ch = &h.chains[c];
        let mode = pop_simd::mode();
        let omega = self.cfg.omega;
        let nlev = ch.levels.len();

        // Down sweep: pre-smooth from a zero initial guess (one damped
        // Jacobi sweep, z = ω D⁻¹ r), then restrict the smoothed residual.
        for l in 0..nlev - 1 {
            let lv = &ch.levels[l];
            let (cur, rest) = scratch.lvls.split_at_mut(l + 1);
            let s = &mut cur[l];
            smooth_from_zero(lv, omega, &s.r, &mut s.z);
            lv.residual_into(mode, &s.z, &s.r, &mut s.t);
            let (cx, cy) = h.steps[l];
            restrict_masked(&s.t, lv.mask(), cx, cy, &mut rest[0].r);
        }

        // Coarsest level: exact solve over the active cells.
        {
            let s = scratch
                .lvls
                .last_mut()
                .expect("hierarchy has at least one level");
            s.z.fill(0.0);
            s.z.zero_halo();
            if let Some((cells, lu)) = &ch.coarse {
                scratch.psi.clear();
                scratch
                    .psi
                    .extend(cells.iter().map(|&(i, j)| s.r.get(i, j)));
                scratch.out.clear();
                scratch.out.resize(cells.len(), 0.0);
                lu.solve_into(&scratch.psi, &mut scratch.out);
                for (&(i, j), &v) in cells.iter().zip(&scratch.out) {
                    s.z.set(i, j, v);
                }
            }
        }

        // Up sweep: prolong the coarse correction, then post-smooth with
        // the adjoint of the pre-smoother (one more damped Jacobi sweep).
        for l in (0..nlev - 1).rev() {
            let lv = &ch.levels[l];
            let (cur, rest) = scratch.lvls.split_at_mut(l + 1);
            let s = &mut cur[l];
            let (cx, cy) = h.steps[l];
            prolong_add_masked(&rest[0].z, lv.mask(), cx, cy, &mut s.z);
            lv.residual_into(mode, &s.z, &s.r, &mut s.t);
            smooth_correct(lv, omega, &s.t, &mut s.z);
        }
    }
}

/// LU-factor a coarsest-level operator, retrying with a deterministic
/// diagonal shift when it comes out singular. The masked linear transfers
/// can give two coarse cells the same single ocean cell as their entire
/// interpolation support (narrow channels, isolated cells), which leaves
/// the Galerkin coarsest operator positive *semi*-definite; relative to the
/// largest diagonal entry the escalating shift stays far below the
/// V-cycle's approximation error.
fn factor_coarsest(dense: DenseMatrix) -> LuFactors {
    match dense.lu() {
        Ok(lu) => lu,
        Err(_) => {
            let n = dense.n();
            let dmax = (0..n)
                .map(|k| dense.get(k, k).abs())
                .fold(f64::MIN_POSITIVE, f64::max);
            let mut eps = 1e-12;
            loop {
                let mut shifted = dense.clone();
                for k in 0..n {
                    shifted.set(k, k, shifted.get(k, k) + eps * dmax);
                }
                match shifted.lu() {
                    Ok(lu) => break lu,
                    Err(e) => {
                        eps *= 1e3;
                        assert!(eps <= 1.0, "coarsest level unfactorable: {e}");
                    }
                }
            }
        }
    }
}

/// `z = ω D⁻¹ r` over the active interior, exact zeros on land. Fixed-order
/// scalar loop — trivially mode- and backend-invariant.
fn smooth_from_zero(lv: &MgLevel, omega: f64, r: &BlockVec, z: &mut BlockVec) {
    let (nx, ny) = (lv.nx(), lv.ny());
    let (mask, inv_diag) = (lv.mask(), lv.inv_diag());
    for j in 0..ny {
        let rrow = r.interior_row(j);
        let zrow = z.interior_row_mut(j);
        let mrow = &mask[j * nx..(j + 1) * nx];
        let drow = &inv_diag[j * nx..(j + 1) * nx];
        for i in 0..nx {
            zrow[i] = if mrow[i] != 0 {
                omega * drow[i] * rrow[i]
            } else {
                0.0
            };
        }
    }
}

/// `z += ω D⁻¹ t` over the active interior; land entries stay untouched
/// (they are exact zeros throughout the cycle).
fn smooth_correct(lv: &MgLevel, omega: f64, t: &BlockVec, z: &mut BlockVec) {
    let (nx, ny) = (lv.nx(), lv.ny());
    let (mask, inv_diag) = (lv.mask(), lv.inv_diag());
    for j in 0..ny {
        let trow = t.interior_row(j);
        let zrow = z.interior_row_mut(j);
        let mrow = &mask[j * nx..(j + 1) * nx];
        let drow = &inv_diag[j * nx..(j + 1) * nx];
        for i in 0..nx {
            if mrow[i] != 0 {
                zrow[i] += omega * drow[i] * trow[i];
            }
        }
    }
}

impl Preconditioner for BlockMg {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        let h = &self.blocks[b];
        let levels = &h.chains[0].levels;
        let (nx, ny) = (levels[0].nx(), levels[0].ny());
        debug_assert_eq!((r.nx, r.ny), (nx, ny));
        assert_same_shape(r, z);
        MG_SCRATCH.with(|cell| {
            let map = &mut *cell.borrow_mut();
            let scratch = map.entry((nx, ny)).or_default();
            let fits = scratch.lvls.len() == levels.len()
                && scratch
                    .lvls
                    .iter()
                    .zip(levels)
                    .all(|(s, lv)| (s.r.nx, s.r.ny) == (lv.nx(), lv.ny()));
            if !fits {
                scratch.lvls = levels
                    .iter()
                    .map(|lv| LvlScratch {
                        r: BlockVec::zeros(lv.nx(), lv.ny(), 1),
                        z: BlockVec::zeros(lv.nx(), lv.ny(), 1),
                        t: BlockVec::zeros(lv.nx(), lv.ny(), 1),
                    })
                    .collect();
            }
            // Chain 0: stage the caller's residual interior (halo never
            // read; the scratch halo stays zero so the level kernels see
            // Dirichlet-0) and keep ½ of the cycle's output.
            for j in 0..ny {
                scratch.lvls[0]
                    .r
                    .interior_row_mut(j)
                    .copy_from_slice(r.interior_row(j));
            }
            self.vcycle(b, 0, scratch);
            for j in 0..ny {
                let src = scratch.lvls[0].z.interior_row(j);
                let dst = z.interior_row_mut(j);
                for i in 0..nx {
                    dst[i] = 0.5 * src[i];
                }
            }
            // Chain 1: stage D·r with the block-local checkerboard sign
            // D = diag((−1)^(i+j)), run the conjugated-operator cycle, and
            // accumulate ½·D·(its output) — together z = ½(B₁ + D B₂ D) r.
            for j in 0..ny {
                let src = r.interior_row(j);
                let dst = scratch.lvls[0].r.interior_row_mut(j);
                for i in 0..nx {
                    dst[i] = if (i + j) % 2 == 0 { src[i] } else { -src[i] };
                }
            }
            self.vcycle(b, 1, scratch);
            for j in 0..ny {
                let src = scratch.lvls[0].z.interior_row(j);
                let dst = z.interior_row_mut(j);
                for i in 0..nx {
                    let s = if (i + j) % 2 == 0 { src[i] } else { -src[i] };
                    dst[i] += 0.5 * s;
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "mg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::{CommWorld, DistLayout, DistVec};
    use pop_grid::Grid;

    fn fixture(
        grid: &Grid,
        bx: usize,
        by: usize,
        tau: f64,
    ) -> (std::sync::Arc<DistLayout>, CommWorld, NinePoint) {
        let layout = DistLayout::build(grid, bx, by);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(grid, &layout, &world, tau);
        (layout, world, op)
    }

    fn filled_residual(layout: &std::sync::Arc<DistLayout>) -> DistVec {
        let mut r = DistVec::zeros(layout);
        r.fill_with(|i, j| ((i as f64 * 0.37).sin() + (j as f64 * 0.23).cos()) * 0.5);
        r
    }

    #[test]
    fn schedule_semicoarsens_and_terminates() {
        let cfg = MgConfig::default();
        // 36×6: x-only coarsening until both extents drop below 4.
        let steps = cfg.schedule(36, 6);
        assert_eq!(
            steps,
            vec![(true, true), (true, false), (true, false), (true, false)]
        );
        // A tiny block never coarsens at all.
        assert!(cfg.schedule(3, 3).is_empty());
    }

    #[test]
    fn land_outputs_zero_and_cycle_is_finite() {
        let g = Grid::gx1_scaled(14, 36, 30);
        let (layout, world, op) = fixture(&g, 12, 10, 1500.0);
        let mg = BlockMg::with_defaults(&op);
        let mut r = DistVec::zeros(&layout);
        r.fill_with(|_, _| 1.0);
        let mut z = DistVec::zeros(&layout);
        mg.apply(&world, &r, &mut z);
        let global = z.to_global();
        for j in 0..g.ny {
            for i in 0..g.nx {
                let v = global[j * g.nx + i];
                assert!(v.is_finite(), "non-finite at ({i},{j})");
                if !g.is_ocean(i, j) {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    /// The V(1,1) cycle with an exact coarsest solve and adjoint transfers
    /// is a *symmetric* operator: ⟨B r, s⟩ = ⟨r, B s⟩.
    #[test]
    fn vcycle_is_symmetric() {
        let g = Grid::gx1_scaled(6, 40, 36);
        let (layout, world, op) = fixture(&g, 10, 9, 1500.0);
        let mg = BlockMg::with_defaults(&op);
        let r = filled_residual(&layout);
        let mut s = DistVec::zeros(&layout);
        s.fill_with(|i, j| ((i as f64 * 0.11).cos() - (j as f64 * 0.31).sin()) * 0.4);
        let (mut br, mut bs) = (DistVec::zeros(&layout), DistVec::zeros(&layout));
        mg.apply(&world, &r, &mut br);
        mg.apply(&world, &s, &mut bs);
        let lhs = world.dot(&br, &s);
        let rhs = world.dot(&r, &bs);
        assert!(
            (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(rhs.abs()).max(1e-30),
            "⟨Br,s⟩ = {lhs} vs ⟨r,Bs⟩ = {rhs}"
        );
    }

    /// On blocks too small to coarsen the cycle degenerates to the exact
    /// block solve: A_block z = r on active cells.
    #[test]
    fn tiny_blocks_solve_exactly() {
        let g = Grid::gx1_scaled(6, 9, 9);
        let (layout, world, op) = fixture(&g, 3, 3, 1500.0);
        let mg = BlockMg::with_defaults(&op);
        let r = filled_residual(&layout);
        let mut z = DistVec::zeros(&layout);
        mg.apply(&world, &r, &mut z);
        for (b, info) in layout.decomp.blocks.iter().enumerate() {
            let ls = op.extract_local(b, 0, 0, info.nx, info.ny);
            for j in 0..info.ny as isize {
                for i in 0..info.nx as isize {
                    if !ls.is_active(i, j) {
                        continue;
                    }
                    let az = ls.apply_at(i, j, |ii, jj| {
                        if ii >= 0
                            && jj >= 0
                            && ii < info.nx as isize
                            && jj < info.ny as isize
                            && ls.is_active(ii, jj)
                        {
                            z.blocks[b].get(ii as usize, jj as usize)
                        } else {
                            0.0
                        }
                    });
                    let want = r.blocks[b].get(i as usize, j as usize);
                    assert!(
                        (az - want).abs() <= 1e-9 * want.abs().max(1.0),
                        "block {b} ({i},{j}): A z = {az} vs r = {want}"
                    );
                }
            }
        }
    }

    /// Applying the cycle twice, and on every lane type this machine can
    /// run, gives bitwise identical output.
    #[test]
    fn apply_is_bitwise_deterministic_across_dispatch() {
        let g = Grid::gx1_scaled(10, 48, 40);
        let (layout, world, op) = fixture(&g, 13, 9, 1800.0);
        let mg = BlockMg::with_defaults(&op);
        let r = filled_residual(&layout);
        let run = || {
            let mut z = DistVec::zeros(&layout);
            mg.apply(&world, &r, &mut z);
            z.to_global()
        };
        let base = run();
        let again = run();
        for (k, (a, b)) in base.iter().zip(&again).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "repeat diverged at {k}");
        }
        struct Unforce;
        impl Drop for Unforce {
            fn drop(&mut self) {
                pop_simd::force_mode(None);
            }
        }
        for mode in crate::precond::evp::tests::modes() {
            let forced = {
                let _guard = Unforce;
                pop_simd::force_mode(Some(mode));
                run()
            };
            for (k, (a, b)) in base.iter().zip(&forced).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{mode:?} dispatch diverged at {k}"
                );
            }
        }
    }
}
