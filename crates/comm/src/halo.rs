//! Halo-exchange region geometry, and the per-layout plan the shared-memory
//! exchange runs from.
//!
//! For each (block, direction) pair [`recv_region`] computes which rectangle
//! of the *neighbour's interior* must be copied into which rectangle of the
//! block's *halo ring*. Blocks at the grid edge can be narrower than the
//! nominal block size — even narrower than the halo — so extents are clamped
//! to what the neighbour actually owns; the remainder of the halo ring stays
//! zero (the Dirichlet land/boundary value).
//!
//! A [`HaloPlan`] is that geometry evaluated once for every block of a
//! decomposition and flattened to storage offsets: per block, the list of
//! *pulls* (rows to copy out of a neighbour's interior) and of *fills* (ring
//! rectangles no neighbour fully covers — eliminated land blocks, domain
//! edges, a neighbour narrower than the halo — which are zeroed instead).
//! [`DistLayout`](crate::DistLayout) builds one at construction;
//! [`CommWorld::halo_update`](crate::CommWorld::halo_update) executes it in
//! a single pass over the blocks (`Exchange`, crate-private).

use crate::world::SendPtr;
use pop_grid::{BlockInfo, Decomposition, Direction};
use std::cell::Cell;

/// One copy operation of the halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRegion {
    /// Origin in the source block's interior coordinates.
    pub src_i: usize,
    pub src_j: usize,
    /// Extent of the copied rectangle.
    pub w: usize,
    pub h: usize,
    /// Destination origin in the receiving block's halo coordinates.
    pub dst_i: isize,
    pub dst_j: isize,
}

/// The region that block `me` receives from neighbour `nb` lying in
/// direction `dir`, with halo width `halo`. Returns `None` when the
/// neighbour is too small to contribute anything.
pub fn recv_region(
    me: &BlockInfo,
    nb: &BlockInfo,
    dir: Direction,
    halo: usize,
) -> Option<CopyRegion> {
    let h = halo;
    // E/W neighbours share bj hence ny; N/S share bi hence nx. Diagonals
    // share neither; clamp both extents.
    let r = match dir {
        Direction::East => CopyRegion {
            src_i: 0,
            src_j: 0,
            w: h.min(nb.nx),
            h: me.ny,
            dst_i: me.nx as isize,
            dst_j: 0,
        },
        Direction::West => {
            let w = h.min(nb.nx);
            CopyRegion {
                src_i: nb.nx - w,
                src_j: 0,
                w,
                h: me.ny,
                dst_i: -(w as isize),
                dst_j: 0,
            }
        }
        Direction::North => CopyRegion {
            src_i: 0,
            src_j: 0,
            w: me.nx,
            h: h.min(nb.ny),
            dst_i: 0,
            dst_j: me.ny as isize,
        },
        Direction::South => {
            let hh = h.min(nb.ny);
            CopyRegion {
                src_i: 0,
                src_j: nb.ny - hh,
                w: me.nx,
                h: hh,
                dst_i: 0,
                dst_j: -(hh as isize),
            }
        }
        Direction::NorthEast => CopyRegion {
            src_i: 0,
            src_j: 0,
            w: h.min(nb.nx),
            h: h.min(nb.ny),
            dst_i: me.nx as isize,
            dst_j: me.ny as isize,
        },
        Direction::NorthWest => {
            let w = h.min(nb.nx);
            CopyRegion {
                src_i: nb.nx - w,
                src_j: 0,
                w,
                h: h.min(nb.ny),
                dst_i: -(w as isize),
                dst_j: me.ny as isize,
            }
        }
        Direction::SouthEast => {
            let hh = h.min(nb.ny);
            CopyRegion {
                src_i: 0,
                src_j: nb.ny - hh,
                w: h.min(nb.nx),
                h: hh,
                dst_i: me.nx as isize,
                dst_j: -(hh as isize),
            }
        }
        Direction::SouthWest => {
            let w = h.min(nb.nx);
            let hh = h.min(nb.ny);
            CopyRegion {
                src_i: nb.nx - w,
                src_j: nb.ny - hh,
                w,
                h: hh,
                dst_i: -(w as isize),
                dst_j: -(hh as isize),
            }
        }
    };
    if r.w == 0 || r.h == 0 {
        None
    } else {
        Some(r)
    }
}

/// `w × h` points at point offset `off` of one tile image (row-major, the
/// owning block's stride).
#[derive(Debug, Clone, Copy)]
struct Rect {
    off: usize,
    w: usize,
    h: usize,
}

/// Rows block `dst` copies out of block `src`'s interior into its own ring.
#[derive(Debug, Clone, Copy)]
struct Pull {
    src: usize,
    /// Point offset of the first source row in `src`'s tile image.
    src_off: usize,
    dst: Rect,
}

/// One block's share of the exchange, in the geometry of its tile: a tile
/// stores `groups` images of `rows × stride` points (a
/// [`BlockVec`](crate::BlockVec) one image of one `f64` per point, a
/// [`MultiBlockVec`](crate::MultiBlockVec) `groups` images of
/// [`LANES`](pop_simd::LANES) per point).
#[derive(Debug, Clone)]
struct BlockPlan {
    stride: usize,
    /// Points per image: `stride × (ny + 2·halo)`.
    image: usize,
    /// This block's slice of [`HaloPlan::fills`] / [`HaloPlan::pulls`].
    fills: std::ops::Range<usize>,
    pulls: std::ops::Range<usize>,
}

/// The halo exchange of one layout as flat copy lists (see the
/// [module docs](self)). Built once per [`DistLayout`](crate::DistLayout).
#[derive(Debug)]
pub struct HaloPlan {
    blocks: Vec<BlockPlan>,
    fills: Vec<Rect>,
    pulls: Vec<Pull>,
    /// Points all pulls move, per value carried: one exchange of a
    /// `width`-wide field is `pulls.len()` messages of
    /// `points × width × 8` bytes in total.
    points: u64,
}

impl HaloPlan {
    /// Evaluate [`recv_region`] for every (block, direction) of `decomp`.
    pub(crate) fn build(decomp: &Decomposition, halo: usize) -> Self {
        let stride_of = |b: &BlockInfo| pop_simd::round_up_lanes(b.nx + 2 * halo);
        // Origin and extent, along one axis of `n` interior points, of the
        // ring part at block offset `d`.
        let span = |d: isize, n: usize| match d {
            -1 => (-(halo as isize), halo),
            0 => (0, n),
            _ => (n as isize, halo),
        };
        let mut plan = HaloPlan {
            blocks: Vec::with_capacity(decomp.blocks.len()),
            fills: Vec::new(),
            pulls: Vec::new(),
            points: 0,
        };
        for (b, me) in decomp.blocks.iter().enumerate() {
            let stride = stride_of(me);
            let rect = |i: isize, j: isize, w: usize, h: usize| Rect {
                off: (j + halo as isize) as usize * stride + (i + halo as isize) as usize,
                w,
                h,
            };
            let (fill0, pull0) = (plan.fills.len(), plan.pulls.len());
            for dir in Direction::ALL {
                // The part of the ring lying in direction `dir`.
                let (di, dj) = dir.offset();
                let ((i, w), (j, h)) = (span(di, me.nx), span(dj, me.ny));
                let pulled = decomp.neighbors[b][dir.index()].and_then(|nb| {
                    let r = recv_region(me, &decomp.blocks[nb], dir, halo)?;
                    let src_stride = stride_of(&decomp.blocks[nb]);
                    plan.pulls.push(Pull {
                        src: nb,
                        src_off: (r.src_j + halo) * src_stride + r.src_i + halo,
                        dst: rect(r.dst_i, r.dst_j, r.w, r.h),
                    });
                    plan.points += (r.w * r.h) as u64;
                    Some((r.w, r.h))
                });
                // Whatever a pull leaves uncovered is zero; a partly covered
                // part is zeroed whole first (a neighbour narrower than the
                // halo is rare enough not to split the rectangle for).
                if pulled != Some((w, h)) {
                    plan.fills.push(rect(i, j, w, h));
                }
            }
            plan.blocks.push(BlockPlan {
                stride,
                image: stride * (me.ny + 2 * halo),
                fills: fill0..plan.fills.len(),
                pulls: pull0..plan.pulls.len(),
            });
        }
        plan
    }

    /// Messages of one exchange: one per non-empty (block, direction) strip.
    pub fn messages(&self) -> u64 {
        self.pulls.len() as u64
    }

    /// Payload bytes of one exchange of a field carrying `width` values per
    /// point.
    pub fn bytes(&self, width: usize) -> u64 {
        self.points * (width * std::mem::size_of::<f64>()) as u64
    }
}

thread_local! {
    /// The tile-pointer table of the exchange this thread last ran, kept for
    /// its capacity so steady-state exchanges allocate nothing.
    static TILE_PTRS: Cell<Vec<SendPtr<f64>>> = const { Cell::new(Vec::new()) };
}

/// One exchange in flight: the plan plus the storage of every tile of the
/// field being exchanged, as raw pointers taken from `&mut` tiles before any
/// block task runs. Rows then move pointer to pointer — no task ever holds a
/// reference to a whole tile, its own or a neighbour's.
pub(crate) struct Exchange<'a> {
    plan: &'a HaloPlan,
    tiles: Vec<SendPtr<f64>>,
    /// `f64`s stored side by side per point ([`Tile::POINT_WIDTH`](crate::Tile::POINT_WIDTH)).
    point: usize,
    /// Images per tile (`width / point`).
    groups: usize,
}

impl<'a> Exchange<'a> {
    /// Start an exchange of a field carrying `width` values per point in
    /// tiles of `point` values side by side. Every tile must then be
    /// [`push`](Exchange::push)ed in block order.
    pub(crate) fn begin(plan: &'a HaloPlan, point: usize, width: usize) -> Self {
        assert!(width % point == 0, "field width {width} is not whole tiles");
        let mut tiles = TILE_PTRS.take();
        tiles.clear();
        Exchange {
            plan,
            tiles,
            point,
            groups: width / point,
        }
    }

    /// Register the next block's tile storage, which stays exclusively
    /// borrowed for as long as the exchange lives. Checked against the
    /// plan's geometry here, in release builds too: the copies below trust
    /// it.
    #[inline]
    pub(crate) fn push(&mut self, tile: &'a mut [f64]) {
        let b = self.tiles.len();
        assert!(
            self.plan
                .blocks
                .get(b)
                .map(|bp| bp.image * self.groups * self.point)
                == Some(tile.len()),
            "tile {b} does not have its layout's shape"
        );
        self.tiles.push(SendPtr(tile.as_mut_ptr()));
    }

    /// Blocks of the exchange; all of them must have been pushed.
    pub(crate) fn n_blocks(&self) -> usize {
        assert_eq!(self.tiles.len(), self.plan.blocks.len(), "tiles missing");
        self.tiles.len()
    }

    /// Block `b`'s whole share of the exchange: zero the ring rectangles
    /// nobody fills, then copy its ring rows straight out of its
    /// neighbours' interiors. The one row copier of the shared-memory
    /// exchange — both tile types, serial and threaded.
    pub(crate) fn run_block(&self, b: usize) {
        let (bp, pt) = (&self.plan.blocks[b], self.point);
        let dst = self.tiles[b].get();
        // SAFETY: `push` checked that every tile holds `groups` images of
        // its block's `image × point` floats, and `HaloPlan::build` keeps
        // every rectangle inside one image, so all rows are in bounds
        // (debug-asserted per row). Source rows lie in a tile's interior and
        // destination rows in a ring: disjoint even when `p.src == b` (a
        // block that is its own east/west neighbour). During an exchange
        // nobody writes an interior, and ring `b` is written by this call
        // alone (one task per block index), so no row is read and written,
        // or written twice, concurrently — and no reference to any tile
        // exists meanwhile.
        unsafe {
            for g in 0..self.groups {
                let at = |r: &Rect, row: usize| {
                    debug_assert!(r.off + row * bp.stride + r.w <= bp.image);
                    dst.add((g * bp.image + r.off + row * bp.stride) * pt)
                };
                for r in &self.plan.fills[bp.fills.clone()] {
                    for row in 0..r.h {
                        at(r, row).write_bytes(0, r.w * pt);
                    }
                }
                for p in &self.plan.pulls[bp.pulls.clone()] {
                    let sp = &self.plan.blocks[p.src];
                    let src = self.tiles[p.src].get().cast_const();
                    for row in 0..p.dst.h {
                        let from = p.src_off + row * sp.stride;
                        debug_assert!(from + p.dst.w <= sp.image);
                        let from = src.add((g * sp.image + from) * pt);
                        std::ptr::copy_nonoverlapping(from, at(&p.dst, row), p.dst.w * pt);
                    }
                }
            }
        }
    }
}

impl Drop for Exchange<'_> {
    fn drop(&mut self) {
        TILE_PTRS.set(std::mem::take(&mut self.tiles));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(nx: usize, ny: usize) -> BlockInfo {
        BlockInfo {
            active_id: 0,
            bi: 0,
            bj: 0,
            i0: 0,
            j0: 0,
            nx,
            ny,
            ocean_points: nx * ny,
        }
    }

    #[test]
    fn east_region_shape() {
        let me = block(8, 6);
        let nb = block(8, 6);
        let r = recv_region(&me, &nb, Direction::East, 2).expect("region");
        assert_eq!((r.src_i, r.src_j, r.w, r.h), (0, 0, 2, 6));
        assert_eq!((r.dst_i, r.dst_j), (8, 0));
    }

    #[test]
    fn west_region_takes_neighbors_east_columns() {
        let me = block(8, 6);
        let nb = block(5, 6);
        let r = recv_region(&me, &nb, Direction::West, 2).expect("region");
        assert_eq!((r.src_i, r.src_j, r.w, r.h), (3, 0, 2, 6));
        assert_eq!((r.dst_i, r.dst_j), (-2, 0));
    }

    #[test]
    fn narrow_neighbor_clamps() {
        let me = block(8, 6);
        let nb = block(1, 6); // narrower than the halo
        let r = recv_region(&me, &nb, Direction::East, 2).expect("region");
        assert_eq!(r.w, 1);
        assert_eq!(r.dst_i, 8);
    }

    #[test]
    fn corner_regions_are_halo_sized() {
        let me = block(8, 6);
        let nb = block(8, 6);
        let r = recv_region(&me, &nb, Direction::SouthWest, 2).expect("region");
        assert_eq!((r.w, r.h), (2, 2));
        assert_eq!((r.src_i, r.src_j), (6, 4));
        assert_eq!((r.dst_i, r.dst_j), (-2, -2));
    }

    #[test]
    fn all_directions_produce_regions_for_regular_blocks() {
        let me = block(8, 6);
        let nb = block(8, 6);
        for d in Direction::ALL {
            assert!(recv_region(&me, &nb, d, 2).is_some(), "{d:?}");
        }
    }
}
