//! The [`Tile`] trait: what a distributed-vector container and the halo
//! exchange need from one block's storage.
//!
//! Containers ([`DistField`](crate::DistField), `pop-ranksim`'s
//! `RankField`) and both runtimes' exchanges never look inside a tile beyond
//! this surface, so they are written once over `T: Tile` and instantiated
//! for the point-vectorised [`BlockVec`] and the lane-vectorised
//! [`MultiBlockVec`]. Dispatch is static; every method forwards to the
//! tile's inherent method of the same name.
//!
//! The exchange ([`crate::halo`]) needs only the storage itself —
//! [`Tile::raw_mut`] — and how many `f64`s sit side by side per point —
//! [`Tile::POINT_WIDTH`]; every ring row it moves, tile to tile or through
//! a rank runtime's message, it addresses from the layout's plan.
//!
//! Every tile, and the plan that addresses tiles, sizes its storage from
//! one rule: [`extent`]. With a tile's [`Tile::shape`] and its point width
//! that rule locates every row of every lane-group image, which is all a
//! pointwise kernel over both tile types needs.

use crate::blockvec::BlockVec;
use crate::multivec::MultiBlockVec;
use pop_simd::LANES;

/// The storage rule of every block tile: `(stride, rows)`, in points, of a
/// block of `nx × ny` interior points inside a ring `halo` wide. A row
/// holds the interior and the ring on both sides, and nothing else — no
/// lane rounding; the kernels load and store unaligned. An image is
/// `stride × rows` points, and a tile stores one image per lane group.
#[inline]
pub const fn extent(nx: usize, ny: usize, halo: usize) -> (usize, usize) {
    (nx + 2 * halo, ny + 2 * halo)
}

/// One block's halo-padded storage, `width` values per grid point.
pub trait Tile: Clone + Send + Sync {
    /// A zero-filled tile carrying `width` values per point. [`BlockVec`]
    /// has width 1; a [`MultiBlockVec`] width is a multiple of [`LANES`].
    fn zeros(nx: usize, ny: usize, halo: usize, width: usize) -> Self;

    /// `f64`s stored side by side per grid point: the flat index of point
    /// `p` of lane-group image `g` is `(g * image_points + p) * POINT_WIDTH`.
    const POINT_WIDTH: usize;

    /// `(nx, ny, halo)`: the interior extent and the ring width.
    fn shape(&self) -> (usize, usize, usize);

    /// The whole storage, every image, halo ring included.
    fn raw(&self) -> &[f64];

    /// Mutable [`Tile::raw`].
    fn raw_mut(&mut self) -> &mut [f64];

    /// Set every cell (interior and halo, every lane) to `v`.
    fn fill(&mut self, v: f64);
}

impl Tile for BlockVec {
    const POINT_WIDTH: usize = 1;
    #[inline]
    fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.halo)
    }
    #[inline]
    fn raw(&self) -> &[f64] {
        BlockVec::raw(self)
    }
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
}

impl Tile for MultiBlockVec {
    const POINT_WIDTH: usize = LANES;
    #[inline]
    fn shape(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.halo)
    }
    #[inline]
    fn raw(&self) -> &[f64] {
        MultiBlockVec::raw(self)
    }
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
}
