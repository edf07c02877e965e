//! The test-only preconditioners: the identity, and block-Jacobi with
//! direct LU sub-block solves.
//!
//! [`BlockLu`] is the oracle block-EVP is validated against (paper §4.1's
//! `O(n³)` yardstick). Identical block structure and sub-block matrices
//! as `BlockEvp` (the raw principal submatrix of the operator over each
//! tile, identity rows on land), but every tile is solved with an LU
//! factorization — banded with half-width `n + 1` for an `n × n` tile, so
//! `O(n³)` work per tile application versus EVP's `O(n²)` (`O(n⁴)` is the
//! cost of ignoring the band). No `PrecondSpec` names it.
//!
//! Every tile keeps natural (row-major) order, reduced or not, whereas
//! `BlockEvp` factors a reduced band tile in colour order (DESIGN.md S5).
//! On an operator with no marching tile the two must still agree bit for
//! bit, so `tests/mask_fuzz.rs`'s all-banded `BlockEvp ≡ BlockLu` test is
//! the cross-order oracle.

use pop_baro::comm::BlockVec;
use pop_baro::core::precond::{tile_block, Preconditioner, Tile};
use pop_baro::stencil::dense::BandLu;
use pop_baro::stencil::NinePoint;

/// No preconditioning (`M = I`); the baseline for convergence comparisons.
pub struct Identity;

impl Preconditioner for Identity {
    fn apply_block(&self, _b: usize, r: &BlockVec, z: &mut BlockVec) {
        assert_same_shape(r, z);
        for j in 0..z.ny {
            z.interior_row_mut(j).copy_from_slice(r.interior_row(j));
        }
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// Panic unless `z` has `r`'s block geometry.
fn assert_same_shape(r: &BlockVec, z: &BlockVec) {
    assert_eq!(
        (r.nx, r.ny, r.halo, r.stride()),
        (z.nx, z.ny, z.halo, z.stride()),
        "r and z must share one block geometry"
    );
}

/// One LU-factored tile.
struct LuTile {
    tile: Tile,
    lu: Option<BandLu>, // None = all-land tile
    mask: Vec<u8>,
}

/// The distributed block-LU preconditioner.
pub struct BlockLu {
    subs: Vec<Vec<LuTile>>,
}

impl BlockLu {
    /// Build with the same tiling and the same raw tile submatrices as
    /// `BlockEvp::new`, so both preconditioners represent the *same* matrix
    /// `M` and produce identical iteration counts.
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
                // Row-major: a nine-point row reaches `nx + 1` columns
                // either side of the diagonal.
                let lu = st
                    .band_lu_in(t.nx + 1, |i, j| j * t.nx + i)
                    .expect("tile principal submatrix must be positive definite");
                per_block.push(LuTile {
                    tile: t,
                    lu: Some(lu),
                    mask,
                });
            }
            subs.push(per_block);
        }
        BlockLu { subs }
    }
}

impl Preconditioner for BlockLu {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        assert_same_shape(r, z);
        let mut x = Vec::new();
        for lt in &self.subs[b] {
            let t = lt.tile;
            let Some(lu) = &lt.lu else {
                for j in t.j0..t.j0 + t.ny {
                    for i in t.i0..t.i0 + t.nx {
                        z.set(i, j, 0.0);
                    }
                }
                continue;
            };
            x.clear();
            for j in t.j0..t.j0 + t.ny {
                x.extend_from_slice(&r.interior_row(j)[t.i0..t.i0 + t.nx]);
            }
            lu.solve_in_place(&mut x);
            for j in 0..t.ny {
                for i in 0..t.nx {
                    let k = j * t.nx + i;
                    let v = if lt.mask[k] != 0 { x[k] } else { 0.0 };
                    z.set(t.i0 + i, t.j0 + j, v);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "block-lu"
    }
}
