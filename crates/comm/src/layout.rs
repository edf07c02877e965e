//! The distributed layout: decomposition + halo width + per-block masks.

use crate::group::SweepGroups;
use crate::halo::HaloPlan;
use pop_grid::{Decomposition, Grid};
use std::sync::Arc;

/// Everything a [`crate::DistVec`] needs to know about how the global field
/// is split into blocks, shared by `Arc` between all vectors of a solve.
///
/// The per-block ocean masks are carried here (copied out of the [`Grid`])
/// because POP's `global_sum` masks land points; every masked reduction in
/// the solver consults them.
#[derive(Debug)]
pub struct DistLayout {
    pub decomp: Decomposition,
    /// Halo width: the ring every tile of this layout stores and every
    /// exchange refreshes. 1 from [`DistLayout::build`]; POP's 2 (a matvec
    /// plus a stencil preconditioner between boundary updates) is available
    /// through [`DistLayout::new`], and changes no result.
    pub halo: usize,
    /// Per active block: interior ocean mask, row-major `nx × ny` of the
    /// block — built 1 = ocean, 0 = land; every reader takes any nonzero
    /// byte for ocean. The nine-point sweeps expand it to AND-mask words in
    /// registers (`pop_simd::LaneF64::load_mask`).
    pub masks: Vec<Vec<u8>>,
    /// Per active block: number of ocean points (cached from the mask).
    pub ocean_per_block: Vec<usize>,
    /// The halo exchange of this decomposition at this halo width, as flat
    /// copy lists: what every halo update of a field on this layout
    /// executes, in shared memory ([`crate::CommWorld::halo_update`]) or
    /// across `pop-ranksim`'s ranks.
    pub halo_plan: HaloPlan,
    /// The sweep groups ([`crate::group`]): runs of up to `LANES`
    /// consecutive same-shape blocks, the unit every fused sweep hands its
    /// kernel and the block-EVP preconditioner packs tiles across.
    pub groups: SweepGroups,
}

impl DistLayout {
    /// Build a layout for `grid` under `decomp` with halo width `halo`.
    pub fn new(grid: &Grid, decomp: Decomposition, halo: usize) -> Arc<Self> {
        assert_eq!(decomp.grid_nx, grid.nx, "decomposition/grid mismatch");
        assert_eq!(decomp.grid_ny, grid.ny, "decomposition/grid mismatch");
        assert!(halo >= 1, "stencil needs at least one halo layer");
        let mut masks = Vec::with_capacity(decomp.blocks.len());
        let mut ocean = Vec::with_capacity(decomp.blocks.len());
        for b in &decomp.blocks {
            let mut m = Vec::with_capacity(b.nx * b.ny);
            for j in b.j0..b.j0 + b.ny {
                for i in b.i0..b.i0 + b.nx {
                    m.push(u8::from(grid.mask[j * grid.nx + i]));
                }
            }
            ocean.push(m.iter().filter(|&&v| v != 0).count());
            masks.push(m);
        }
        let halo_plan = HaloPlan::build(&decomp, halo);
        let groups = SweepGroups::new(&decomp.blocks);
        Arc::new(DistLayout {
            decomp,
            halo,
            masks,
            ocean_per_block: ocean,
            halo_plan,
            groups,
        })
    }

    /// Number of active blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.decomp.blocks.len()
    }

    /// Global ocean point count.
    pub fn ocean_points(&self) -> usize {
        self.ocean_per_block.iter().sum()
    }

    /// Is interior point `(i, j)` of block `b` ocean?
    #[inline]
    pub fn is_ocean(&self, b: usize, i: usize, j: usize) -> bool {
        let info = &self.decomp.blocks[b];
        debug_assert!(i < info.nx && j < info.ny);
        self.masks[b][j * info.nx + i] != 0
    }

    /// Convenience constructor: decompose `grid` into blocks of the given
    /// nominal size with a halo of 1 — the reach of the nine-point stencil.
    /// Every sweep that reads a neighbour follows its own exchange, and no
    /// path runs two stencil applications between updates, so a second ring
    /// would only be bytes every sweep streams and nothing reads.
    pub fn build(grid: &Grid, block_nx: usize, block_ny: usize) -> Arc<Self> {
        let d = Decomposition::new(grid, block_nx, block_ny);
        Self::new(grid, d, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_match_grid() {
        let g = Grid::gx1_scaled(5, 64, 48);
        let layout = DistLayout::build(&g, 16, 12);
        assert_eq!(layout.ocean_points(), g.ocean_points());
        for (b, info) in layout.decomp.blocks.iter().enumerate() {
            for j in 0..info.ny {
                for i in 0..info.nx {
                    assert_eq!(
                        layout.is_ocean(b, i, j),
                        g.is_ocean(info.i0 + i, info.j0 + j)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one halo")]
    fn zero_halo_rejected() {
        let g = Grid::idealized_basin(8, 8, 10.0, 1.0);
        let d = Decomposition::new(&g, 4, 4);
        let _ = DistLayout::new(&g, d, 0);
    }
}
