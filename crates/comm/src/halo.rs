//! The halo exchange of both runtimes: one geometry, evaluated once per
//! layout, and the one code that moves ring rows.
//!
//! For each (block, direction) pair `recv_region` computes which rectangle
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
//! Every part of a ring is pulled whole or filled, so an exchange rewrites
//! the whole ring without clearing it first.
//! [`DistLayout`](crate::DistLayout) builds one at construction.
//!
//! An [`Exchange`] runs the plan over the tiles its caller holds.
//! [`CommWorld::halo_update`](crate::CommWorld::halo_update) holds every
//! tile and runs every block, serially or on the pool. The rank runtime
//! (`pop-ranksim`) holds one rank's blocks: it [`pack`](Exchange::pack)s
//! each pull whose destination another rank holds into a message,
//! [`run_block`](Exchange::run_block)s its own blocks (which copies the
//! pulls between them), then [`unpack`](Exchange::unpack)s what arrives.
//! Pulls are numbered in plan order — destination block ascending, then
//! [`Direction::ALL`] — and [`HaloPlan::routes`] gives each one's source
//! block, destination block and point count.

use crate::tile::extent;
use crate::world::SendPtr;
use pop_grid::{BlockInfo, Decomposition, Direction};
use std::cell::Cell;

/// One copy operation of the halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CopyRegion {
    /// Origin in the source block's interior coordinates.
    src_i: usize,
    src_j: usize,
    /// Extent of the copied rectangle.
    w: usize,
    h: usize,
    /// Destination origin in the receiving block's halo coordinates.
    dst_i: isize,
    dst_j: isize,
}

/// The region that block `me` receives from neighbour `nb` lying in
/// direction `dir`, with halo width `halo`. Returns `None` when the
/// neighbour is too small to contribute anything.
fn recv_region(me: &BlockInfo, nb: &BlockInfo, dir: Direction, halo: usize) -> Option<CopyRegion> {
    // Along one axis, with `n` interior points here and `m` in the
    // neighbour at offset `d`: source origin, extent, destination origin.
    // An edge-on neighbour (`d = 0`) shares this block's extent; one beside
    // it sends its nearest `halo` lines, or all it has when it is narrower.
    let axis = |d: isize, n: usize, m: usize| match d {
        0 => (0, n, 0),
        1 => (0, halo.min(m), n as isize),
        _ => {
            let w = halo.min(m);
            (m - w, w, -(w as isize))
        }
    };
    let (di, dj) = dir.offset();
    let ((src_i, w, dst_i), (src_j, h, dst_j)) = (axis(di, me.nx, nb.nx), axis(dj, me.ny, nb.ny));
    (w > 0 && h > 0).then_some(CopyRegion {
        src_i,
        src_j,
        w,
        h,
        dst_i,
        dst_j,
    })
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
    dst: usize,
    /// Point offset of the first source row in `src`'s tile image.
    src_off: usize,
    /// Where the rows land in `dst`'s tile image.
    ring: Rect,
}

/// One block's share of the exchange, in the geometry of its tile: a tile
/// stores `groups` images of `rows × stride` points, sized by
/// [`extent`] (a [`BlockVec`](crate::BlockVec) one image of one `f64` per
/// point, a [`MultiBlockVec`](crate::MultiBlockVec) `groups` images of
/// [`LANES`](pop_simd::LANES) per point).
#[derive(Debug, Clone)]
struct BlockPlan {
    stride: usize,
    /// Points per image: `stride × rows`.
    image: usize,
    /// This block's slice of [`HaloPlan::fills`] / [`HaloPlan::pulls`].
    fills: std::ops::Range<usize>,
    pulls: std::ops::Range<usize>,
}

/// Where one pull of a [`HaloPlan`] runs (see [`HaloPlan::routes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The block whose interior the pull reads.
    pub src: usize,
    /// The block whose ring it writes.
    pub dst: usize,
    /// Points it moves; a `width`-wide field carries `points × width`
    /// values.
    pub points: usize,
}

/// The halo exchange of one layout as flat copy lists (see the
/// [module docs](self)). Built once per [`DistLayout`](crate::DistLayout).
#[derive(Debug)]
pub struct HaloPlan {
    blocks: Vec<BlockPlan>,
    fills: Vec<Rect>,
    /// Every pull, indexed by pull id: destination block ascending, then
    /// [`Direction::ALL`].
    pulls: Vec<Pull>,
    /// Points all pulls move, per value carried: one exchange of a
    /// `width`-wide field is `pulls.len()` messages of
    /// `points × width × 8` bytes in total.
    points: u64,
}

impl HaloPlan {
    /// Evaluate `recv_region` for every (block, direction) of `decomp`.
    pub(crate) fn build(decomp: &Decomposition, halo: usize) -> Self {
        let stride_of = |b: &BlockInfo| extent(b.nx, b.ny, halo).0;
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
            let (stride, rows) = extent(me.nx, me.ny, halo);
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
                        dst: b,
                        src_off: (r.src_j + halo) * src_stride + r.src_i + halo,
                        ring: rect(r.dst_i, r.dst_j, r.w, r.h),
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
                image: stride * rows,
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

    /// Every pull of one exchange; the `k`-th is pull id `k` (plan order:
    /// destination block ascending, then [`Direction::ALL`]).
    pub fn routes(&self) -> impl ExactSizeIterator<Item = Route> + '_ {
        self.pulls.iter().map(|p| Route {
            src: p.src,
            dst: p.dst,
            points: p.ring.w * p.ring.h,
        })
    }
}

thread_local! {
    /// The tile table of the exchange this thread last ran, kept for its
    /// capacity so steady-state exchanges allocate nothing.
    static TILE_PTRS: Cell<Vec<(usize, SendPtr<f64>)>> = const { Cell::new(Vec::new()) };
}

/// One exchange in flight: the plan plus the storage of every tile the
/// caller holds, by global block id, as raw pointers taken from `&mut`
/// tiles before any row moves. Rows then move pointer to pointer, or
/// between a pointer and a message buffer — nothing ever holds a reference
/// to a whole tile, its own or a neighbour's.
pub struct Exchange<'a> {
    plan: &'a HaloPlan,
    /// `(block, storage)` of every held tile, blocks strictly ascending.
    tiles: Vec<(usize, SendPtr<f64>)>,
    /// `f64`s stored side by side per point ([`Tile::POINT_WIDTH`](crate::Tile::POINT_WIDTH)).
    point: usize,
    /// Images per tile (`width / point`).
    groups: usize,
}

impl<'a> Exchange<'a> {
    /// Start an exchange of a field carrying `width` values per point in
    /// tiles of `point` values side by side. The tiles the caller holds must
    /// then be [`push`](Exchange::push)ed in ascending block order.
    pub fn begin(plan: &'a HaloPlan, point: usize, width: usize) -> Self {
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

    /// Hold block `b`'s tile storage, which stays exclusively borrowed for
    /// as long as the exchange lives. Checked against the plan's geometry
    /// and the block order here, in release builds too: the copies below
    /// trust both.
    #[inline]
    pub fn push(&mut self, b: usize, tile: &'a mut [f64]) {
        assert!(
            self.plan
                .blocks
                .get(b)
                .and_then(|bp| bp.image.checked_mul(self.groups * self.point))
                == Some(tile.len()),
            "tile {b} does not have its layout's shape"
        );
        assert!(
            self.tiles.last().is_none_or(|&(last, _)| last < b),
            "tile {b} pushed out of block order"
        );
        self.tiles.push((b, SendPtr(tile.as_mut_ptr())));
    }

    /// Block `b`'s storage if the caller holds it: at index `b` when every
    /// tile is held, found by bisection among a rank's few otherwise.
    #[inline]
    fn tile(&self, b: usize) -> Option<*mut f64> {
        match self.tiles.get(b) {
            Some(&(held, p)) if held == b => Some(p.get()),
            _ => self
                .tiles
                .binary_search_by_key(&b, |&(held, _)| held)
                .ok()
                .map(|k| self.tiles[k].1.get()),
        }
    }

    fn held(&self, b: usize) -> *mut f64 {
        self.tile(b)
            .unwrap_or_else(|| panic!("block {b} is not held by this exchange"))
    }

    /// Call `row(from, to)` for every row of pull `p` in every image, group
    /// by group: the float offsets of the row in `p.src`'s tile and in
    /// `p.dst`'s, each row `p.ring.w × point` floats long. The one row
    /// geometry behind [`run_block`](Exchange::run_block),
    /// [`pack`](Exchange::pack) and [`unpack`](Exchange::unpack); the
    /// `debug_assert!` shadows the bound `push` and `HaloPlan::build`
    /// establish.
    #[inline(always)]
    fn for_rows(&self, p: &Pull, mut row: impl FnMut(usize, usize)) {
        let (sp, dp) = (&self.plan.blocks[p.src], &self.plan.blocks[p.dst]);
        for g in 0..self.groups {
            for r in 0..p.ring.h {
                let from = p.src_off + r * sp.stride;
                let to = p.ring.off + r * dp.stride;
                debug_assert!(from + p.ring.w <= sp.image && to + p.ring.w <= dp.image);
                row(
                    (g * sp.image + from) * self.point,
                    (g * dp.image + to) * self.point,
                );
            }
        }
    }

    /// Block `b`'s share of the exchange: zero the ring rectangles nobody
    /// fills, then copy every pull of its ring whose source tile is held
    /// straight out of that tile's interior. A pull whose source is held
    /// elsewhere is left for [`Exchange::unpack`], which must come after.
    pub fn run_block(&mut self, b: usize) {
        // SAFETY: `&mut self` — no other call of this exchange runs.
        unsafe { self.run_block_shared(b) }
    }

    /// [`Exchange::run_block`] through a shared reference, for one task per
    /// block on the pool.
    ///
    /// # Safety
    ///
    /// No other call may write block `b`'s ring while this one runs:
    /// concurrent calls name distinct blocks, and none is an
    /// [`Exchange::unpack`] (which `&mut self` already excludes).
    pub(crate) unsafe fn run_block_shared(&self, b: usize) {
        let (bp, pt) = (&self.plan.blocks[b], self.point);
        let dst = self.held(b);
        // SAFETY: `push` checked that every held tile holds `groups` images
        // of its block's `image × point` floats, and `HaloPlan::build` keeps
        // every rectangle inside one image, so every row is in bounds
        // (debug-asserted per row, here and in `for_rows`). Pulls whose
        // source is not held are skipped, so every pointer read was pushed.
        // Source rows lie in a tile's interior and destination rows in a
        // ring: disjoint even when `p.src == b` (a block that is its own
        // east/west neighbour). During an exchange nobody writes an
        // interior, and ring `b` is written by this call alone (the caller's
        // contract), so no row is read and written, or written twice,
        // concurrently — and no reference to any tile exists meanwhile.
        unsafe {
            for g in 0..self.groups {
                for r in &self.plan.fills[bp.fills.clone()] {
                    for row in 0..r.h {
                        let at = r.off + row * bp.stride;
                        debug_assert!(at + r.w <= bp.image);
                        zero_row(dst.add((g * bp.image + at) * pt), r.w * pt);
                    }
                }
            }
            for p in &self.plan.pulls[bp.pulls.clone()] {
                let Some(src) = self.tile(p.src) else {
                    continue;
                };
                let n = p.ring.w * pt;
                self.for_rows(p, |from, to| copy_row(src.add(from), dst.add(to), n));
            }
        }
    }

    /// Pull `id`'s rows out of its source tile, which must be held: the
    /// payload of the message that carries the pull to the rank holding
    /// its destination — `points × width` floats, image by image, row by
    /// row.
    pub fn pack(&self, id: usize) -> Vec<f64> {
        let p = &self.plan.pulls[id];
        let src = self.held(p.src);
        let n = p.ring.w * self.point;
        let mut out = Vec::with_capacity(self.groups * p.ring.h * n);
        self.for_rows(p, |from, _| {
            // SAFETY: `src` was pushed with the plan's shape and `for_rows`
            // keeps the row inside it (see `run_block_shared`); the row lies
            // in the interior, which nothing writes while the exchange
            // borrows the tile, and `&self` excludes `run_block`/`unpack`.
            out.extend_from_slice(unsafe { std::slice::from_raw_parts(src.add(from), n) });
        });
        out
    }

    /// Write a payload [`Exchange::pack`] made for pull `id` — on whichever
    /// rank holds its source — into the ring of its destination tile, which
    /// must be held. Comes after the destination's
    /// [`run_block`](Exchange::run_block), whose fills would zero it again.
    pub fn unpack(&mut self, id: usize, data: &[f64]) {
        let p = &self.plan.pulls[id];
        let dst = self.held(p.dst);
        let n = p.ring.w * self.point;
        assert_eq!(
            data.len(),
            self.groups * p.ring.h * n,
            "pull {id}: payload of the wrong length"
        );
        let mut rows = data.chunks_exact(n);
        self.for_rows(p, |_, to| {
            let row = rows.next().expect("one payload row per ring row");
            // SAFETY: `dst` was pushed with the plan's shape and `for_rows`
            // keeps the row inside it; `&mut self` makes this the only
            // writer, and `row` is the caller's buffer, not a tile.
            unsafe { std::ptr::copy_nonoverlapping(row.as_ptr(), dst.add(to), n) };
        });
    }
}

/// Rows up to this many floats [`copy_row`] and [`zero_row`] write inline.
const SHORT_ROW: usize = 8;

/// Copy one row of `n` floats. A runtime-length `copy_nonoverlapping` is a
/// `memcpy` call, and most rows of an exchange are short — an east or west
/// pull moves one point per row — so rows of at most [`SHORT_ROW`] floats
/// are copied by an inline loop instead.
///
/// # Safety
/// As `copy_nonoverlapping`: `src .. src + n` readable, `dst .. dst + n`
/// writable, the two disjoint.
#[inline(always)]
unsafe fn copy_row(src: *const f64, dst: *mut f64, n: usize) {
    if n <= SHORT_ROW {
        for k in 0..n {
            dst.add(k).write(src.add(k).read());
        }
    } else {
        std::ptr::copy_nonoverlapping(src, dst, n);
    }
}

/// Zero one row of `n` floats. As in [`copy_row`], a runtime-length
/// `write_bytes` is a `memset` call and an east or west fill is one point
/// per row, so rows of at most [`SHORT_ROW`] floats are zeroed inline: by
/// two fixed-width stores, one from each end, that overlap when `n` is not
/// their sum (a store loop would be compiled back into the `memset` call).
/// `+0.0` is all-zero bits, so either way the row ends the same.
///
/// # Safety
/// As `write_bytes`: `dst .. dst + n` writable.
#[inline(always)]
unsafe fn zero_row(dst: *mut f64, n: usize) {
    unsafe fn ends<const W: usize>(dst: *mut f64, n: usize) {
        dst.cast::<[f64; W]>().write([0.0; W]);
        dst.add(n - W).cast::<[f64; W]>().write([0.0; W]);
    }
    match n {
        0 => {}
        1 => dst.write(0.0),
        2..=3 => ends::<2>(dst, n),
        4..=SHORT_ROW => ends::<4>(dst, n),
        _ => dst.write_bytes(0, n),
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
