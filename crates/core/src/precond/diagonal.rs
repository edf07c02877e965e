//! POP's production diagonal preconditioner, and (for the unit tests) the
//! identity.

use super::{assert_same_shape, assert_same_shape_multi, Preconditioner};
use pop_comm::{BlockVec, DistVec, MultiBlockVec};
use pop_simd::LANES;
use pop_stencil::NinePoint;

/// Diagonal (Jacobi) preconditioning `M = Λ(A)`: the default in CESM-POP,
/// and the baseline every figure of the paper compares against.
#[derive(Debug, Clone)]
pub struct Diagonal {
    inv_diag: DistVec,
}

impl Diagonal {
    /// Precompute `1/A0` on ocean points.
    pub fn new(op: &NinePoint) -> Self {
        let mut inv = DistVec::zeros(&op.layout);
        for (b, info) in op.layout.decomp.blocks.iter().enumerate() {
            for j in 0..info.ny {
                for i in 0..info.nx {
                    let d = op.a0.blocks[b].get(i, j);
                    if d > 0.0 {
                        inv.blocks[b].set(i, j, 1.0 / d);
                    }
                }
            }
        }
        Diagonal { inv_diag: inv }
    }
}

impl Preconditioner for Diagonal {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        assert_same_shape(r, z);
        let inv = &self.inv_diag.blocks[b];
        for j in 0..z.ny {
            let zi = z.interior_row_mut(j);
            let ri = r.interior_row(j);
            let di = inv.interior_row(j);
            for ((zv, rv), dv) in zi.iter_mut().zip(ri).zip(di) {
                *zv = rv * dv;
            }
        }
    }

    /// Fused lane kernel: one load of `1/A0` per grid point serves all four
    /// lanes; each lane performs the scalar `rv * dv`, so per-lane results
    /// are bitwise identical to [`Diagonal::apply_block`]. Plain `f64`
    /// arithmetic in every dispatch mode — a lanewise multiply has one
    /// possible operation sequence, so there is nothing mode-dependent to
    /// mirror.
    fn apply_block_multi(&self, b: usize, r: &MultiBlockVec, z: &mut MultiBlockVec) {
        assert_same_shape_multi(r, z);
        let inv = &self.inv_diag.blocks[b];
        for g in 0..r.groups() {
            for j in 0..r.ny {
                let rows = z
                    .interior_lane_row_mut(g, j)
                    .chunks_exact_mut(LANES)
                    .zip(r.interior_lane_row(g, j).chunks_exact(LANES))
                    .zip(inv.interior_row(j));
                for ((zv, rv), &dv) in rows {
                    for l in 0..LANES {
                        zv[l] = rv[l] * dv;
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "diagonal"
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use pop_comm::{CommWorld, DistLayout};
    use pop_grid::Grid;

    /// No preconditioning (`M = I`); the baseline for convergence
    /// comparisons.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct Identity;

    impl Preconditioner for Identity {
        fn apply_block(&self, _b: usize, r: &BlockVec, z: &mut BlockVec) {
            assert_same_shape(r, z);
            for j in 0..z.ny {
                z.interior_row_mut(j).copy_from_slice(r.interior_row(j));
            }
        }

        fn apply_block_multi(&self, _b: usize, r: &MultiBlockVec, z: &mut MultiBlockVec) {
            assert_same_shape_multi(r, z);
            for g in 0..r.groups() {
                for j in 0..r.ny {
                    z.interior_lane_row_mut(g, j)
                        .copy_from_slice(r.interior_lane_row(g, j));
                }
            }
        }

        fn name(&self) -> &'static str {
            "identity"
        }
    }

    #[test]
    fn diagonal_inverts_diagonal() {
        let g = Grid::gx1_scaled(4, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 1800.0);
        let m = Diagonal::new(&op);

        let mut r = DistVec::zeros(&layout);
        r.fill_with(|i, j| (i + 2 * j) as f64 + 1.0);
        let mut z = DistVec::zeros(&layout);
        m.apply(&world, &r, &mut z);

        // z * A0 must give back r on ocean.
        for (b, info) in layout.decomp.blocks.iter().enumerate() {
            for j in 0..info.ny {
                for i in 0..info.nx {
                    if layout.is_ocean(b, i, j) {
                        let back = z.blocks[b].get(i, j) * op.a0.blocks[b].get(i, j);
                        let want = r.blocks[b].get(i, j);
                        assert!((back - want).abs() < 1e-12 * want.abs().max(1.0));
                    } else {
                        assert_eq!(z.blocks[b].get(i, j), 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn identity_copies() {
        let g = Grid::idealized_basin(10, 10, 100.0, 1.0e4);
        let layout = DistLayout::build(&g, 5, 5);
        let world = CommWorld::serial();
        let mut r = DistVec::zeros(&layout);
        r.fill_with(|i, j| (i * j) as f64);
        let mut z = DistVec::zeros(&layout);
        Identity.apply(&world, &r, &mut z);
        assert_eq!(z.to_global(), r.to_global());
    }
}
