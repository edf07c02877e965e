//! Distributed block vectors: the field type the solvers operate on.

use crate::blockvec::BlockVec;
use crate::layout::DistLayout;
use crate::multivec::MultiBlockVec;
use crate::tile::Tile;
use std::sync::Arc;

/// A field distributed over the active blocks of a [`DistLayout`], one
/// halo-padded [`Tile`] per block, every block in one address space — the
/// shared-memory container. Its two instances are [`DistVec`] and
/// [`MultiDistVec`].
#[derive(Debug, Clone)]
pub struct DistField<T: Tile> {
    pub layout: Arc<DistLayout>,
    pub blocks: Vec<T>,
    /// Values per grid point (1 for a [`DistVec`]); read through
    /// [`CommVec::width`](crate::CommVec::width).
    pub(crate) width: usize,
}

/// The single-RHS field: one [`BlockVec`] per block.
///
/// Purely local element-wise operations live here as plain methods; anything
/// involving communication (halo updates, reductions) goes through
/// [`crate::CommWorld`] so the event is counted and can be parallelized.
pub type DistVec = DistField<BlockVec>;

/// A `k`-wide field: one [`MultiBlockVec`] per block, `k = width()` RHS
/// slots per point.
pub type MultiDistVec = DistField<MultiBlockVec>;

impl<T: Tile> DistField<T> {
    /// A zero-filled field on `layout` carrying `width` values per point.
    pub fn with_width(layout: &Arc<DistLayout>, width: usize) -> Self {
        let blocks = layout
            .decomp
            .blocks
            .iter()
            .map(|b| T::zeros(b.nx, b.ny, layout.halo, width))
            .collect();
        DistField {
            layout: Arc::clone(layout),
            blocks,
            width,
        }
    }
}

impl DistVec {
    /// A zero vector on `layout`.
    pub fn zeros(layout: &Arc<DistLayout>) -> Self {
        Self::with_width(layout, 1)
    }

    /// Scatter a global row-major `nx × ny` field into a distributed vector.
    /// Land points are zeroed regardless of the input value.
    pub fn from_global(layout: &Arc<DistLayout>, global: &[f64]) -> Self {
        let mut v = Self::zeros(layout);
        v.fill_from_global(global);
        v
    }

    /// [`DistVec::from_global`] into this vector's interior, a row at a
    /// time: what [`DistVec::fill_with`] of the field writes.
    pub fn fill_from_global(&mut self, global: &[f64]) {
        let layout = Arc::clone(&self.layout);
        let nx = layout.decomp.grid_nx;
        assert_eq!(
            global.len(),
            nx * layout.decomp.grid_ny,
            "global field size mismatch"
        );
        let parts = layout.decomp.blocks.iter().zip(&layout.masks);
        for (blk, (info, mask)) in self.blocks.iter_mut().zip(parts) {
            for j in 0..info.ny {
                let src = &global[(info.j0 + j) * nx + info.i0..][..info.nx];
                let ocean = &mask[j * info.nx..][..info.nx];
                for ((d, &s), &o) in blk.interior_row_mut(j).iter_mut().zip(src).zip(ocean) {
                    *d = if o != 0 { s } else { 0.0 };
                }
            }
        }
    }

    /// Gather into a global row-major field; positions not covered by any
    /// active block (land blocks) are 0.
    pub fn to_global(&self) -> Vec<f64> {
        let d = &self.layout.decomp;
        let mut out = vec![0.0; d.grid_nx * d.grid_ny];
        self.to_global_into(&mut out);
        out
    }

    /// [`DistVec::to_global`] into a caller-owned `nx × ny` buffer, every
    /// position written exactly once: rows of active blocks copied, rows
    /// under eliminated land blocks zeroed.
    pub fn to_global_into(&self, out: &mut [f64]) {
        let d = &self.layout.decomp;
        let nx = d.grid_nx;
        assert_eq!(out.len(), nx * d.grid_ny, "global field size mismatch");
        for (blk, info) in self.blocks.iter().zip(&d.blocks) {
            for j in 0..info.ny {
                let at = (info.j0 + j) * nx + info.i0;
                out[at..at + info.nx].copy_from_slice(blk.interior_row(j));
            }
        }
        for (k, _) in d.block_at.iter().enumerate().filter(|(_, a)| a.is_none()) {
            let (i0, j0) = (k % d.mx * d.block_nx, k / d.mx * d.block_ny);
            let w = d.block_nx.min(nx - i0);
            for j in j0..(j0 + d.block_ny).min(d.grid_ny) {
                out[j * nx + i0..j * nx + i0 + w].fill(0.0);
            }
        }
    }

    /// Fill the interior with a function of the *global* coordinates,
    /// zeroing land. Useful for manufactured solutions and forcing fields.
    pub fn fill_with(&mut self, f: impl Fn(usize, usize) -> f64) {
        let layout = Arc::clone(&self.layout);
        for (b, info) in layout.decomp.blocks.iter().enumerate() {
            for j in 0..info.ny {
                for i in 0..info.nx {
                    let v = if layout.masks[b][j * info.nx + i] != 0 {
                        f(info.i0 + i, info.j0 + j)
                    } else {
                        0.0
                    };
                    self.blocks[b].set(i, j, v);
                }
            }
        }
    }

    /// Set everything (interior and halo) to zero.
    pub fn set_zero(&mut self) {
        for b in &mut self.blocks {
            b.fill(0.0);
        }
    }

    /// Copy interior values from `src` (same layout).
    pub fn copy_from(&mut self, src: &DistVec) {
        self.check_same_layout(src);
        for (d, s) in self.blocks.iter_mut().zip(&src.blocks) {
            d.raw_mut().copy_from_slice(s.raw());
        }
    }

    /// `self += a * x` over interiors.
    pub fn axpy(&mut self, a: f64, x: &DistVec) {
        self.check_same_layout(x);
        for (d, s) in self.blocks.iter_mut().zip(&x.blocks) {
            for j in 0..d.ny {
                let dst = d.interior_row_mut(j);
                let src = s.interior_row(j);
                for (dv, sv) in dst.iter_mut().zip(src) {
                    *dv += a * sv;
                }
            }
        }
    }

    /// `self = x + a * self` over interiors (the CG search-direction update).
    pub fn xpay(&mut self, x: &DistVec, a: f64) {
        self.check_same_layout(x);
        for (d, s) in self.blocks.iter_mut().zip(&x.blocks) {
            for j in 0..d.ny {
                let dst = d.interior_row_mut(j);
                let src = s.interior_row(j);
                for (dv, sv) in dst.iter_mut().zip(src) {
                    *dv = sv + a * *dv;
                }
            }
        }
    }

    /// `self *= a` over interiors.
    pub fn scale(&mut self, a: f64) {
        for d in &mut self.blocks {
            for j in 0..d.ny {
                for v in d.interior_row_mut(j) {
                    *v *= a;
                }
            }
        }
    }

    /// Land-masked partial dot product of one block: Σ self·other over ocean
    /// points of block `b`.
    pub fn block_dot(&self, other: &DistVec, b: usize) -> f64 {
        let info = &self.layout.decomp.blocks[b];
        let mask = &self.layout.masks[b];
        let mut acc = 0.0;
        for j in 0..info.ny {
            let ra = self.blocks[b].interior_row(j);
            let rb = other.blocks[b].interior_row(j);
            let mrow = &mask[j * info.nx..(j + 1) * info.nx];
            for i in 0..info.nx {
                if mrow[i] != 0 {
                    acc += ra[i] * rb[i];
                }
            }
        }
        acc
    }

    /// Land-masked max |value| of one block.
    pub fn block_max_abs(&self, b: usize) -> f64 {
        let info = &self.layout.decomp.blocks[b];
        let mask = &self.layout.masks[b];
        let mut acc = 0.0f64;
        for j in 0..info.ny {
            let ra = self.blocks[b].interior_row(j);
            let mrow = &mask[j * info.nx..(j + 1) * info.nx];
            for i in 0..info.nx {
                if mrow[i] != 0 {
                    acc = acc.max(ra[i].abs());
                }
            }
        }
        acc
    }

    fn check_same_layout(&self, other: &DistVec) {
        assert!(
            Arc::ptr_eq(&self.layout, &other.layout),
            "vectors from different layouts"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_grid::Grid;

    fn layout() -> Arc<DistLayout> {
        let g = Grid::gx1_scaled(3, 48, 40);
        DistLayout::build(&g, 12, 10)
    }

    #[test]
    fn global_roundtrip_preserves_ocean_values() {
        let g = Grid::gx1_scaled(3, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        let global: Vec<f64> = (0..g.nx * g.ny).map(|k| k as f64 + 0.5).collect();
        let v = DistVec::from_global(&layout, &global);
        let back = v.to_global();
        for j in 0..g.ny {
            for i in 0..g.nx {
                let k = j * g.nx + i;
                if g.is_ocean(i, j) {
                    assert_eq!(back[k], global[k]);
                } else {
                    assert_eq!(back[k], 0.0, "land must be zero");
                }
            }
        }
    }

    #[test]
    fn to_global_into_overwrites_every_position() {
        let g = Grid::gx1_scaled(3, 50, 41); // ragged edge blocks
        let layout = DistLayout::build(&g, 12, 10);
        assert!(layout.decomp.eliminated_blocks > 0, "want land blocks");
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (1 + i + 100 * j) as f64);
        let mut out = vec![f64::NAN; g.nx * g.ny];
        v.to_global_into(&mut out);
        assert_eq!(out, v.to_global());
    }

    #[test]
    fn axpy_and_scale() {
        let l = layout();
        let mut a = DistVec::zeros(&l);
        let mut b = DistVec::zeros(&l);
        a.fill_with(|i, j| (i + j) as f64);
        b.fill_with(|i, _| i as f64);
        a.axpy(2.0, &b);
        a.scale(0.5);
        // a = ((i+j) + 2i)/2 = (3i + j)/2 on ocean
        let g = a.to_global();
        let nx = l.decomp.grid_nx;
        for (bidx, info) in l.decomp.blocks.iter().enumerate() {
            for j in 0..info.ny {
                for i in 0..info.nx {
                    if l.masks[bidx][j * info.nx + i] != 0 {
                        let gi = info.i0 + i;
                        let gj = info.j0 + j;
                        let expect = (3 * gi + gj) as f64 / 2.0;
                        assert!((g[gj * nx + gi] - expect).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn xpay_matches_definition() {
        let l = layout();
        let mut s = DistVec::zeros(&l);
        let mut x = DistVec::zeros(&l);
        s.fill_with(|i, _| i as f64);
        x.fill_with(|_, j| j as f64);
        let mut expect = DistVec::zeros(&l);
        expect.fill_with(|i, j| j as f64 + 3.0 * i as f64);
        s.xpay(&x, 3.0);
        assert_eq!(s.to_global(), expect.to_global());
    }

    #[test]
    fn block_dot_masks_land() {
        let l = layout();
        let mut a = DistVec::zeros(&l);
        a.fill_with(|_, _| 1.0);
        let total: f64 = (0..l.n_blocks()).map(|b| a.block_dot(&a, b)).sum();
        assert_eq!(total, l.ocean_points() as f64);
    }
}
