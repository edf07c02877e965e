//! A halo-padded field tile for one decomposition block.

use crate::tile::extent;
use pop_simd::AlignedVec;

/// One block's worth of a distributed field: the interior plus a halo ring
/// `halo` cells wide, the layout's width — 1 from
/// [`DistLayout::build`](crate::DistLayout::build), the reach of the
/// nine-point stencil, since every sweep that reads a neighbour runs right
/// after its own exchange.
///
/// Storage is row-major; interior indices run `0..nx` × `0..ny`, and halo
/// cells are addressed with negative or past-the-end indices through
/// [`BlockVec::at`] / [`BlockVec::at_mut`]. Rows are
/// [`tile::extent`](crate::tile::extent) long — interior and ring, no lane
/// padding — and the backing buffer is 32-byte aligned; rows themselves
/// start wherever the stride puts them, and the kernels load unaligned.
/// Flat indexing goes through [`BlockVec::stride`].
///
/// The halo exchange of either runtime writes the ring through the raw
/// storage, row by row from the layout's plan ([`crate::halo`]);
/// [`BlockVec::zero_halo`] clears a ring outside an exchange (the multigrid
/// smoother's scratch tile, tests).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVec {
    /// Interior zonal extent.
    pub nx: usize,
    /// Interior meridional extent.
    pub ny: usize,
    /// Halo width on each side.
    pub halo: usize,
    /// Row stride of the storage ([`tile::extent`](crate::tile::extent)).
    stride: usize,
    data: AlignedVec,
}

impl BlockVec {
    /// A zero-filled tile.
    pub fn zeros(nx: usize, ny: usize, halo: usize) -> Self {
        assert!(nx > 0 && ny > 0, "empty block");
        let (stride, rows) = extent(nx, ny, halo);
        BlockVec {
            nx,
            ny,
            halo,
            stride,
            data: AlignedVec::zeros(stride * rows),
        }
    }

    /// Row stride of the storage, `nx + 2·halo` points. Exposed for flat
    /// kernels that index [`BlockVec::raw`] directly.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Linear index of logical position `(i, j)`; accepts halo coordinates
    /// `-halo..nx+halo` × `-halo..ny+halo`.
    #[inline]
    pub fn offset(&self, i: isize, j: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(i >= -h && i < self.nx as isize + h, "i={i} out of range");
        debug_assert!(j >= -h && j < self.ny as isize + h, "j={j} out of range");
        ((j + h) as usize) * self.stride() + (i + h) as usize
    }

    /// Read the value at `(i, j)` (halo coordinates allowed).
    #[inline]
    pub fn at(&self, i: isize, j: isize) -> f64 {
        self.data[self.offset(i, j)]
    }

    /// Mutable access at `(i, j)` (halo coordinates allowed).
    #[inline]
    pub fn at_mut(&mut self, i: isize, j: isize) -> &mut f64 {
        let k = self.offset(i, j);
        &mut self.data[k]
    }

    /// Interior read with `usize` coordinates (the hot-loop form).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nx && j < self.ny);
        self.data[(j + self.halo) * self.stride() + i + self.halo]
    }

    /// Interior write with `usize` coordinates.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nx && j < self.ny);
        let s = self.stride();
        self.data[(j + self.halo) * s + i + self.halo] = v;
    }

    /// The raw storage (interior and halo ring), row-major with
    /// [`BlockVec::stride`].
    #[inline]
    pub fn raw(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable raw padded storage.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// One interior row as a slice (excludes halo columns).
    #[inline]
    pub fn interior_row(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ny);
        let s = self.stride();
        let start = (j + self.halo) * s + self.halo;
        &self.data[start..start + self.nx]
    }

    /// Mutable interior row.
    #[inline]
    pub fn interior_row_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ny);
        let s = self.stride();
        let start = (j + self.halo) * s + self.halo;
        &mut self.data[start..start + self.nx]
    }

    /// Set every cell (interior and halo) to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.as_mut_slice().fill(v);
    }

    /// Zero only the halo ring, leaving the interior untouched, in
    /// `O(ring)`.
    pub fn zero_halo(&mut self) {
        zero_ring(&mut self.data, self.nx, self.ny, self.halo, 1);
    }
}

/// Zero the halo ring of every image in `data`: images of an `nx × ny`
/// interior inside a ring `halo` wide, stored by [`extent`], `point`
/// values per point. The one body behind [`BlockVec::zero_halo`] (one
/// image, `point = 1`) and `MultiBlockVec::zero_halo` (`groups` images,
/// `point = LANES`): `halo` whole rows at the bottom and top of an image,
/// two `halo`-wide segments on every row between.
pub(crate) fn zero_ring(data: &mut [f64], nx: usize, ny: usize, halo: usize, point: usize) {
    let (stride, rows) = extent(nx, ny, halo);
    let (h, nx) = (halo * point, nx * point);
    for (k, row) in data.chunks_exact_mut(stride * point).enumerate() {
        let jj = k % rows;
        if jj < halo || jj >= rows - halo {
            row.fill(0.0);
        } else {
            row[..h].fill(0.0);
            row[nx + h..].fill(0.0);
        }
    }
}

/// Masked partial dot product over one block's interior, accumulating in
/// row-major ocean-point order — the canonical per-block partial that every
/// runtime (shared-memory or rank-based) folds in global block order, so
/// reductions stay bit-identical regardless of execution backend.
#[inline]
pub fn masked_block_dot(a: &BlockVec, b: &BlockVec, mask: &[u8]) -> f64 {
    let nx = a.nx;
    let mut acc = 0.0;
    for j in 0..a.ny {
        let ra = a.interior_row(j);
        let rb = b.interior_row(j);
        let mrow = &mask[j * nx..(j + 1) * nx];
        for i in 0..nx {
            if mrow[i] != 0 {
                acc += ra[i] * rb[i];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut b = BlockVec::zeros(4, 3, 2);
        b.set(2, 1, 7.5);
        assert_eq!(b.get(2, 1), 7.5);
        assert_eq!(b.at(2, 1), 7.5);
        *b.at_mut(-2, -2) = 1.0;
        assert_eq!(b.at(-2, -2), 1.0);
        *b.at_mut(5, 4) = 2.0;
        assert_eq!(b.at(5, 4), 2.0);
    }

    #[test]
    fn zero_halo_preserves_interior() {
        let mut b = BlockVec::zeros(3, 3, 1);
        b.fill(9.0);
        b.zero_halo();
        for j in 0..3 {
            for i in 0..3 {
                assert_eq!(b.get(i, j), 9.0);
            }
        }
        assert_eq!(b.at(-1, 0), 0.0);
        assert_eq!(b.at(3, 3), 0.0);
        assert_eq!(b.at(1, -1), 0.0);
    }

    /// Cell by cell: ring zeroed, interior untouched; a 5×3 block with
    /// halo 2 is stored as exactly 9×7 cells.
    #[test]
    fn zero_halo_touches_exactly_the_ring() {
        let mut b = BlockVec::zeros(5, 3, 2);
        assert_eq!((b.stride(), b.raw().len()), (9, 9 * 7));
        b.fill(9.0);
        b.zero_halo();
        for (jj, row) in b.raw().chunks_exact(b.stride()).enumerate() {
            for (ii, &v) in row.iter().enumerate() {
                let interior = (2..7).contains(&ii) && (2..5).contains(&jj);
                assert_eq!(v, if interior { 9.0 } else { 0.0 }, "({ii},{jj})");
            }
        }
    }

    #[test]
    fn interior_rows_have_right_len() {
        let b = BlockVec::zeros(5, 4, 2);
        for j in 0..4 {
            assert_eq!(b.interior_row(j).len(), 5);
        }
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // bounds checks are debug_assert!s
    fn out_of_range_debug_panics() {
        let b = BlockVec::zeros(3, 3, 1);
        let _ = b.at(5, 0);
    }
}
