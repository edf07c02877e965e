//! The [`Tile`] trait: what a distributed-vector container and a halo
//! exchange need from one block's storage.
//!
//! Containers ([`DistField`](crate::DistField), `pop-ranksim`'s
//! `RankField`) and both runtimes' exchanges never look inside a tile beyond
//! this surface, so they are written once over `T: Tile` and instantiated
//! for the point-vectorised [`BlockVec`] and the lane-vectorised
//! [`MultiBlockVec`]. Dispatch is static; every method forwards to the
//! tile's inherent method of the same name.
//!
//! The two exchanges use different halves of it. The shared-memory exchange
//! ([`CommWorld::halo_update`](crate::CommWorld::halo_update)) copies rows
//! tile to tile from a per-layout plan and needs only the storage itself:
//! [`Tile::raw_mut`] and [`Tile::POINT_WIDTH`]. The rank runtime moves
//! strips as message payloads and needs the buffer operations:
//! [`Tile::zero_halo`], [`Tile::extract_region`], [`Tile::copy_region`].

use crate::blockvec::BlockVec;
use crate::multivec::MultiBlockVec;
use pop_simd::LANES;

/// One block's halo-padded storage, `width` values per grid point.
pub trait Tile: Clone + Send + Sync {
    /// A zero-filled tile carrying `width` values per point. [`BlockVec`]
    /// has width 1; a [`MultiBlockVec`] width is a multiple of [`LANES`].
    fn zeros(nx: usize, ny: usize, halo: usize, width: usize) -> Self;

    /// `f64`s stored side by side per grid point: the flat index of point
    /// `p` of lane-group image `g` is `(g * image_points + p) * POINT_WIDTH`.
    const POINT_WIDTH: usize;

    /// The whole padded storage, every image, halo and stride padding
    /// included.
    fn raw_mut(&mut self) -> &mut [f64];

    /// Set every cell (interior and halo, every lane) to `v`.
    fn fill(&mut self, v: f64);

    /// Zero the halo ring, leaving the interior untouched (`O(ring)`: whole
    /// rows top and bottom, two segments per interior row).
    fn zero_halo(&mut self);

    /// Extract an interior region into `out` (a rank-runtime halo message
    /// payload: `width * w * h` values).
    fn extract_region(&self, si: usize, sj: usize, w: usize, h: usize, out: &mut Vec<f64>);

    /// Scatter a payload produced by [`Tile::extract_region`] (possibly on
    /// another block) at logical origin `(di, dj)`, halo coordinates
    /// allowed, one row `memcpy` per row.
    fn copy_region(&mut self, di: isize, dj: isize, src: &[f64], w: usize, h: usize);
}

impl Tile for BlockVec {
    const POINT_WIDTH: usize = 1;
    #[inline]
    fn raw_mut(&mut self) -> &mut [f64] {
        BlockVec::raw_mut(self)
    }
    #[inline]
    fn zeros(nx: usize, ny: usize, halo: usize, width: usize) -> Self {
        assert_eq!(width, 1, "a single-RHS tile holds one value per point");
        BlockVec::zeros(nx, ny, halo)
    }
    #[inline]
    fn fill(&mut self, v: f64) {
        BlockVec::fill(self, v);
    }
    #[inline]
    fn zero_halo(&mut self) {
        BlockVec::zero_halo(self);
    }
    #[inline]
    fn extract_region(&self, si: usize, sj: usize, w: usize, h: usize, out: &mut Vec<f64>) {
        BlockVec::extract_region(self, si, sj, w, h, out);
    }
    #[inline]
    fn copy_region(&mut self, di: isize, dj: isize, src: &[f64], w: usize, h: usize) {
        BlockVec::copy_region(self, di, dj, src, w, h);
    }
}

impl Tile for MultiBlockVec {
    const POINT_WIDTH: usize = LANES;
    #[inline]
    fn raw_mut(&mut self) -> &mut [f64] {
        MultiBlockVec::raw_mut(self)
    }
    #[inline]
    fn zeros(nx: usize, ny: usize, halo: usize, width: usize) -> Self {
        assert_eq!(width % LANES, 0, "a batched tile holds whole lane groups");
        MultiBlockVec::zeros(nx, ny, halo, width / LANES)
    }
    #[inline]
    fn fill(&mut self, v: f64) {
        MultiBlockVec::fill(self, v);
    }
    #[inline]
    fn zero_halo(&mut self) {
        MultiBlockVec::zero_halo(self);
    }
    #[inline]
    fn extract_region(&self, si: usize, sj: usize, w: usize, h: usize, out: &mut Vec<f64>) {
        MultiBlockVec::extract_region(self, si, sj, w, h, out);
    }
    #[inline]
    fn copy_region(&mut self, di: isize, dj: isize, src: &[f64], w: usize, h: usize) {
        MultiBlockVec::copy_region(self, di, dj, src, w, h);
    }
}
