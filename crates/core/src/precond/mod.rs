//! Preconditioners for the barotropic solvers.
//!
//! All preconditioners are *local*: applying them needs no halo update and no
//! global reduction, which is what makes them compatible with the paper's
//! communication accounting (one boundary update and — for ChronGear — one
//! fused reduction per iteration, nothing extra for preconditioning).

mod diagonal;
mod evp;
mod evp_multi;
mod mg;
mod tiling;

#[cfg(test)]
pub(crate) use diagonal::tests::Identity;
pub use diagonal::Diagonal;
pub use evp::{BlockEvp, EvpSubBlock, TileCensus, TileCount};
pub use evp_multi::EvpScratch;
pub use mg::{BlockMg, MgConfig};
pub use tiling::{tile_block, Tile};

use pop_comm::{BlockVec, CommWorld, DistVec, MultiBlockVec};
use pop_simd::LANES;

thread_local! {
    /// Per-thread staging pair for the default lane-at-a-time
    /// [`Preconditioner::apply_block_multi`]: one gathered single-RHS block
    /// and its result, reallocated only when the block geometry changes.
    static LANE_STAGE: std::cell::RefCell<Option<(BlockVec, BlockVec)>> =
        const { std::cell::RefCell::new(None) };
}

/// Panic unless `z` has `r`'s block geometry. The applies compute offsets
/// from `r` and store into `z` at them — some through raw pointers — so this
/// is an `assert!`, not a `debug_assert!`: a few integer compares per block
/// apply.
#[inline]
fn assert_same_shape(r: &BlockVec, z: &BlockVec) {
    assert_eq!(
        (r.nx, r.ny, r.halo, r.stride()),
        (z.nx, z.ny, z.halo, z.stride()),
        "r and z must share one block geometry"
    );
}

/// [`assert_same_shape`] for a batched apply: the lane-group count too.
#[inline]
fn assert_same_shape_multi(r: &MultiBlockVec, z: &MultiBlockVec) {
    assert_eq!(
        (r.nx, r.ny, r.halo, r.stride(), r.groups()),
        (z.nx, z.ny, z.halo, z.stride(), z.groups()),
        "r and z must share one block geometry"
    );
}

/// A symmetric positive definite operator `M ≈ A` applied as `z = M⁻¹ r`.
pub trait Preconditioner: Send + Sync {
    /// Apply to one block's interior: `z_b = M⁻¹ r_b`. Must write every
    /// interior point of `z_b` (land points zero) and must not read `r_b`'s
    /// halo. This is the per-block primitive the fused solver sweeps call so
    /// preconditioning happens inside the same block pass as the vector
    /// updates; it must be allocation-free in steady state (keep reusable
    /// buffers in thread-local scratch).
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec);

    /// Apply to the members of one sweep group ([`pop_comm::group`]) at
    /// once: `z[m] = M⁻¹ r[m]` for block `first + m` wherever both are
    /// `Some` (a rank runtime hands in only the members it owns). Every
    /// member's result must equal its own [`Preconditioner::apply_block`],
    /// bit for bit. The default applies block by block; [`BlockEvp`] solves
    /// same-shape tiles of different members side by side on the lanes.
    fn apply_group(
        &self,
        first: usize,
        r: [Option<&BlockVec>; LANES],
        z: [Option<&mut BlockVec>; LANES],
    ) {
        for (m, (r, z)) in r.into_iter().zip(z).enumerate() {
            if let (Some(r), Some(z)) = (r, z) {
                self.apply_block(first + m, r, z);
            }
        }
    }

    /// `z = M⁻¹ r` over all blocks: one group sweep of
    /// [`Preconditioner::apply_group`].
    fn apply(&self, world: &CommWorld, r: &DistVec, z: &mut DistVec) {
        let _ = world.for_each_group_fused([z], |g| {
            self.apply_group(g.first, g.blocks_of(r), g.operand(0));
        });
    }

    /// Batched image of [`Preconditioner::apply_block`]: apply `M⁻¹`
    /// independently to each of the `groups() × LANES` right-hand sides
    /// riding the lanes of one `k`-wide block. Per lane the result must be
    /// bitwise identical to a single-RHS [`Preconditioner::apply_block`];
    /// lane halos of `z_b` may be left zeroed (solvers never read a
    /// preconditioner output's halo before refreshing it).
    ///
    /// The default stages one lane at a time through the scalar
    /// [`Preconditioner::apply_block`] — bitwise faithful by construction at
    /// zero per-preconditioner code. Preconditioners whose setup data can be
    /// amortized across lanes (diagonal splats, the block-EVP influence
    /// matrices) override this with fused lane kernels under the same
    /// bitwise contract (DESIGN.md §12).
    fn apply_block_multi(&self, b: usize, r: &MultiBlockVec, z: &mut MultiBlockVec) {
        assert_same_shape_multi(r, z);
        LANE_STAGE.with(|cell| {
            let slot = &mut *cell.borrow_mut();
            let fits = matches!(
                slot,
                Some((s, _)) if s.nx == r.nx && s.ny == r.ny && s.halo == r.halo
            );
            if !fits {
                *slot = Some((
                    BlockVec::zeros(r.nx, r.ny, r.halo),
                    BlockVec::zeros(r.nx, r.ny, r.halo),
                ));
            }
            let (sr, sz) = slot.as_mut().expect("staging pair just ensured");
            for g in 0..r.groups() {
                for lane in 0..LANES {
                    r.store_lane(g, lane, sr);
                    self.apply_block(b, sr, sz);
                    z.load_lane(g, lane, sz);
                }
            }
        });
    }

    /// Batched image of [`Preconditioner::apply_group`]: every member's
    /// result equals its own [`Preconditioner::apply_block_multi`], bit for
    /// bit. The default applies block by block; [`BlockEvp`] solves a
    /// pack's members back to back.
    fn apply_group_multi(
        &self,
        first: usize,
        r: [Option<&MultiBlockVec>; LANES],
        z: [Option<&mut MultiBlockVec>; LANES],
    ) {
        for (m, (r, z)) in r.into_iter().zip(z).enumerate() {
            if let (Some(r), Some(z)) = (r, z) {
                self.apply_block_multi(first + m, r, z);
            }
        }
    }

    /// Short label used in experiment output ("diagonal", "evp", ...).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod batched_tests {
    use super::*;
    use pop_comm::{DistLayout, MAX_GROUPS};
    use pop_grid::Grid;
    use pop_stencil::NinePoint;

    /// Every preconditioner's batched apply — fused overrides (identity,
    /// diagonal, block-EVP) and the default lane-staging path (block-MG) —
    /// is bitwise identical, per lane, to the single-RHS apply on a real
    /// land-masked grid, ragged tails and coastal band-LU tiles included:
    /// once on 13×9 blocks whose tiles all differ within a block, so
    /// block-EVP packs them across the three blocks of a sweep group
    /// (ragged packs), and the ragged east-edge blocks, each alone in its
    /// group, keep lone tiles; once on 24×20 blocks of 3×3 tiles in two
    /// shapes, all packed, full and ragged packs both. The batched apply is
    /// served from the packs' slabs. Every lane-group count runs: each is its own instance
    /// of the lane kernels.
    #[test]
    fn apply_block_multi_matches_single_rhs_per_lane() {
        for (g, bx, by, tau) in [
            (Grid::gx1_scaled(10, 48, 40), 13, 9, 1800.0),
            (Grid::gx1_scaled(2015, 96, 80), 24, 20, 1100.0),
        ] {
            apply_block_multi_matches_on(&g, bx, by, tau);
        }
    }

    /// Apply `build`'s preconditioner to block 1 of a small coastal operator
    /// with a `z` whose halo (hence stride) is not `r`'s.
    fn apply_to_mismatched_z(build: fn(&NinePoint) -> Box<dyn Preconditioner>, multi: bool) {
        let g = Grid::gx1_scaled(2015, 48, 40);
        let layout = DistLayout::build(&g, 24, 20);
        let op = NinePoint::assemble(&g, &layout, &CommWorld::serial(), 1100.0);
        let pre = build(&op);
        let (nx, ny, halo) = (24, 20, layout.halo);
        if multi {
            let r = MultiBlockVec::zeros(nx, ny, halo, 2);
            pre.apply_block_multi(1, &r, &mut MultiBlockVec::zeros(nx, ny, halo + 4, 2));
        } else {
            let r = BlockVec::zeros(nx, ny, halo);
            pre.apply_block(1, &r, &mut BlockVec::zeros(nx, ny, halo + 4));
        }
    }

    /// `r` / `z` shape agreement is checked in release builds too (the
    /// applies store into `z` at offsets computed from `r`): one case per
    /// preconditioner × {single, batched}.
    macro_rules! mismatched_z_panics {
        ($($name:ident: $build:expr, $multi:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "block geometry")]
            fn $name() {
                apply_to_mismatched_z($build, $multi);
            }
        )*};
    }

    mismatched_z_panics! {
        identity_rejects_mismatched_z: |_| Box::new(Identity), false;
        identity_rejects_mismatched_multi_z: |_| Box::new(Identity), true;
        diagonal_rejects_mismatched_z: |op| Box::new(Diagonal::new(op)), false;
        diagonal_rejects_mismatched_multi_z: |op| Box::new(Diagonal::new(op)), true;
        block_evp_rejects_mismatched_z: |op| Box::new(BlockEvp::with_defaults(op)), false;
        block_evp_rejects_mismatched_multi_z: |op| Box::new(BlockEvp::with_defaults(op)), true;
        block_mg_rejects_mismatched_z: |op| Box::new(BlockMg::with_defaults(op)), false;
        block_mg_rejects_mismatched_multi_z: |op| Box::new(BlockMg::with_defaults(op)), true;
    }

    fn apply_block_multi_matches_on(g: &Grid, bx: usize, by: usize, tau: f64) {
        let layout = DistLayout::build(g, bx, by);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(g, &layout, &world, tau);
        for reduced in [true, false] {
            let c = BlockEvp::new(&op, 8, reduced).census();
            let solved = c.marching.tiles + c.banded.tiles;
            // (Mean live lanes above three: some pack is full.)
            let lone = c.packed.tiles < solved;
            let full = c.packed.tiles > (LANES - 1) * c.packs;
            let ragged = c.packed.tiles < LANES * c.packs;
            assert!(
                c.packs > 0 && ragged && lone == (bx == 13) && full == (bx == 24),
                "{bx}x{by} blocks: {c:?}"
            );
        }
        let pres: Vec<Box<dyn Preconditioner>> = vec![
            Box::new(Identity),
            Box::new(Diagonal::new(&op)),
            Box::new(BlockEvp::with_defaults(&op)),
            Box::new(BlockEvp::new(&op, 8, false)),
            Box::new(BlockMg::with_defaults(&op)),
        ];
        let cases = pres
            .iter()
            .flat_map(|p| (1..=MAX_GROUPS).map(move |g| (p, g)));
        for (pre, groups) in cases {
            for (b, info) in layout.decomp.blocks.iter().enumerate() {
                let mut singles = Vec::new();
                let mut rm = MultiBlockVec::zeros(info.nx, info.ny, layout.halo, groups);
                for l in 0..groups * LANES {
                    let mut r = BlockVec::zeros(info.nx, info.ny, layout.halo);
                    for j in 0..info.ny {
                        for i in 0..info.nx {
                            let q = (i * 31 + j * 7 + l * 13 + b * 3) % 100;
                            r.set(i, j, q as f64 * 0.03 - 1.5);
                        }
                    }
                    rm.load_lane(l / LANES, l % LANES, &r);
                    singles.push(r);
                }
                let mut zm = MultiBlockVec::zeros(info.nx, info.ny, layout.halo, groups);
                pre.apply_block_multi(b, &rm, &mut zm);
                for (l, r) in singles.iter().enumerate() {
                    let mut z = BlockVec::zeros(info.nx, info.ny, layout.halo);
                    pre.apply_block(b, r, &mut z);
                    for j in 0..info.ny {
                        for i in 0..info.nx {
                            let got = zm.at(l / LANES, l % LANES, i as isize, j as isize);
                            let want = z.get(i, j);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{} block {b} groups {groups} lane {l} ({i},{j}): {got:e} vs {want:e}",
                                pre.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
