//! Block-Jacobi preconditioning with direct LU sub-block solves.
//!
//! Identical block structure and sub-block matrices as [`super::BlockEvp`]
//! (the raw principal submatrix of the operator over each tile, identity
//! rows on land), but every tile is solved with an LU factorization —
//! banded with half-width `n + 1` for an `n × n` tile, so `O(n³)` work per
//! tile application versus EVP's `O(n²)` (paper §4.1; `O(n⁴)` is the cost
//! of ignoring the band). Kept as the reference the EVP solver is validated
//! against; no `PrecondSpec` names it.
//!
//! Every tile keeps natural (row-major) order, reduced or not, whereas
//! [`super::BlockEvp`] factors a reduced band tile in colour order (DESIGN.md
//! S5). On an operator with no marching tile the two must still agree bit
//! for bit, so `tests/mask_fuzz.rs`'s all-banded `BlockEvp ≡ BlockLu` test
//! is the cross-order oracle.

use super::evp::TILE_SCRATCH;
use super::tiling::{tile_block, Tile};
use super::{assert_same_shape, Preconditioner};
use pop_comm::BlockVec;
use pop_stencil::dense::BandLu;
use pop_stencil::NinePoint;

/// One LU-factored tile.
struct LuTile {
    tile: Tile,
    lu: Option<BandLu>, // None = all-land tile
    mask: Vec<u8>,
}

/// The distributed block-LU preconditioner.
pub struct BlockLu {
    subs: Vec<Vec<LuTile>>,
    tile_size: usize,
    reduced: bool,
}

impl BlockLu {
    /// Build with the same tiling and the same raw tile submatrices as
    /// [`super::BlockEvp::new`], so both preconditioners represent the *same*
    /// matrix `M` and produce identical iteration counts.
    pub fn new(op: &NinePoint, tile_size: usize, reduced: bool) -> Self {
        assert!(tile_size >= 1);
        let mut subs = Vec::with_capacity(op.layout.n_blocks());
        for (b, info) in op.layout.decomp.blocks.iter().enumerate() {
            let mut per_block = Vec::new();
            for t in tile_block(info.nx, info.ny, tile_size) {
                let mask_block = &op.layout.masks[b];
                let any_ocean = (t.j0..t.j0 + t.ny)
                    .any(|j| (t.i0..t.i0 + t.nx).any(|i| mask_block[j * info.nx + i] != 0));
                if !any_ocean {
                    per_block.push(LuTile {
                        tile: t,
                        lu: None,
                        mask: vec![0; t.nx * t.ny],
                    });
                    continue;
                }
                let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                let st = if reduced { raw.reduced() } else { raw };
                let mask: Vec<u8> = (0..t.ny as isize)
                    .flat_map(|j| (0..t.nx as isize).map(move |i| (i, j)))
                    .map(|(i, j)| u8::from(st.a0(i, j) > 0.0))
                    .collect();
                let lu = st
                    .band_lu()
                    .expect("tile principal submatrix must be positive definite");
                per_block.push(LuTile {
                    tile: t,
                    lu: Some(lu),
                    mask,
                });
            }
            subs.push(per_block);
        }
        BlockLu {
            subs,
            tile_size,
            reduced,
        }
    }
}

impl Preconditioner for BlockLu {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        assert_same_shape(r, z);
        TILE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let x = &mut scratch.tile;
            for lt in &self.subs[b] {
                let t = lt.tile;
                match &lt.lu {
                    None => {
                        for j in t.j0..t.j0 + t.ny {
                            for i in t.i0..t.i0 + t.nx {
                                z.set(i, j, 0.0);
                            }
                        }
                    }
                    Some(lu) => {
                        x.clear();
                        for j in t.j0..t.j0 + t.ny {
                            let row = r.interior_row(j);
                            x.extend_from_slice(&row[t.i0..t.i0 + t.nx]);
                        }
                        lu.solve_in_place(x);
                        for j in 0..t.ny {
                            for i in 0..t.nx {
                                let k = j * t.nx + i;
                                let v = if lt.mask[k] != 0 { x[k] } else { 0.0 };
                                z.set(t.i0 + i, t.j0 + j, v);
                            }
                        }
                    }
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        "block-lu"
    }
}

impl BlockLu {
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    pub fn is_reduced(&self) -> bool {
        self.reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::BlockEvp;
    use pop_comm::{CommWorld, DistLayout, DistVec};
    use pop_grid::Grid;

    #[test]
    fn block_lu_and_block_evp_agree() {
        // Same tiling, same raw principal submatrices ⇒ identical
        // preconditioner action up to EVP marching round-off.
        let g = Grid::gx1_scaled(6, 40, 36);
        let layout = DistLayout::build(&g, 10, 9);
        let world = CommWorld::serial();
        let op = pop_stencil::NinePoint::assemble(&g, &layout, &world, 1500.0);
        let lu = BlockLu::new(&op, 9, false);
        let evp = BlockEvp::new(&op, 9, false);

        let mut r = DistVec::zeros(&layout);
        r.fill_with(|i, j| ((i as f64 - 11.5) * 0.2).sin() * ((j as f64) * 0.15).cos());
        let mut z_lu = DistVec::zeros(&layout);
        let mut z_evp = DistVec::zeros(&layout);
        lu.apply(&world, &r, &mut z_lu);
        evp.apply(&world, &r, &mut z_evp);

        let a = z_lu.to_global();
        let b = z_evp.to_global();
        let scale = a.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x - y).abs() < 1e-5 * scale,
                "LU {x} vs EVP {y} (scale {scale})"
            );
        }
    }

    #[test]
    fn land_outputs_zero() {
        let g = Grid::gx1_scaled(14, 36, 30);
        let layout = DistLayout::build(&g, 12, 10);
        let world = CommWorld::serial();
        let op = pop_stencil::NinePoint::assemble(&g, &layout, &world, 1500.0);
        let lu = BlockLu::new(&op, 6, true);
        let mut r = DistVec::zeros(&layout);
        r.fill_with(|_, _| 1.0);
        let mut z = DistVec::zeros(&layout);
        lu.apply(&world, &r, &mut z);
        let global = z.to_global();
        for j in 0..g.ny {
            for i in 0..g.nx {
                if !g.is_ocean(i, j) {
                    assert_eq!(global[j * g.nx + i], 0.0);
                }
            }
        }
    }
}
