//! Sweep groups: the unit a fused sweep hands its kernel.
//!
//! A group is a run of up to [`GROUP_BLOCKS`] (= [`LANES`]) consecutive
//! active blocks that share an interior shape. [`SweepGroups::new`] is the
//! one place the partition is computed; every
//! [`DistLayout`](crate::DistLayout) carries its own, and both the
//! fused-sweep executors (one pool task per group in
//! [`CommWorld`](crate::CommWorld); a rank runtime's walk over the blocks
//! it owns) and `pop-core`'s block-EVP preconditioner read it. A kernel
//! that sees a whole group can solve same-shape EVP tiles of different
//! blocks side by side on the lanes, which is why the run is at most
//! [`LANES`] long.
//!
//! Under a rank runtime a group may straddle ranks: each rank's kernel sees
//! only the members it owns ([`Group::tiles`] is `None` for the others).

use crate::communicator::CommVec;
use crate::tile::Tile;
use crate::world::SweepPartials;
use pop_grid::BlockInfo;
use pop_simd::LANES;
use std::ops::Range;

/// The most blocks a sweep group holds: one per SIMD lane.
pub const GROUP_BLOCKS: usize = LANES;

/// A layout's partition of its active blocks into sweep groups.
#[derive(Debug, Clone)]
pub struct SweepGroups {
    /// Group `g` is blocks `starts[g]..starts[g + 1]`.
    starts: Vec<usize>,
    /// Per active block, the group holding it.
    of_block: Vec<u32>,
}

impl SweepGroups {
    /// The group rule: walking the active blocks in order, a block joins
    /// the open group if it has the group's interior shape and the group
    /// holds fewer than [`GROUP_BLOCKS`]; otherwise it opens a new one.
    pub fn new(blocks: &[BlockInfo]) -> Self {
        let mut starts = vec![0];
        let mut of_block = Vec::with_capacity(blocks.len());
        for (b, info) in blocks.iter().enumerate() {
            let open = *starts.last().expect("starts holds 0");
            let head = &blocks[open];
            if b > open && (b - open == GROUP_BLOCKS || (head.nx, head.ny) != (info.nx, info.ny)) {
                starts.push(b);
            }
            of_block.push((starts.len() - 1) as u32);
        }
        starts.push(blocks.len());
        SweepGroups { starts, of_block }
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Does the layout have no blocks?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocks of group `g`.
    #[inline]
    pub fn range(&self, g: usize) -> Range<usize> {
        self.starts[g]..self.starts[g + 1]
    }

    /// The group holding block `b`.
    #[inline]
    pub fn of(&self, b: usize) -> usize {
        self.of_block[b] as usize
    }

    /// Every group's blocks, in order.
    pub fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.starts.windows(2).map(|w| w[0]..w[1])
    }
}

/// One sweep group as a fused kernel sees it: member `m` is block
/// `first + m`.
///
/// Each member has a partial row for the sweep's reduction. A kernel that
/// reduces something takes the rows through [`Group::members_with_rows`],
/// which zeroes them first; a kernel that never does leaves them alone,
/// and the executor then skips its reduction work (a sweep no kernel wrote
/// rows in yields zero partials).
pub struct Group<'a, T, const M: usize> {
    /// Global id of member 0.
    pub first: usize,
    /// Member `m`'s tile of every mutable operand; `None` for members this
    /// runtime does not own, and past the group's end.
    pub tiles: [Option<[&'a mut T; M]>; GROUP_BLOCKS],
    /// One partial row per member, as the executor last left it until the
    /// kernel asks for them.
    rows: &'a mut [SweepPartials],
    /// Has the kernel taken its rows?
    wrote_rows: bool,
}

impl<'a, T: Tile, const M: usize> Group<'a, T, M> {
    /// A group whose kernel has not touched `rows` yet (one per member,
    /// any contents).
    pub fn new(
        first: usize,
        tiles: [Option<[&'a mut T; M]>; GROUP_BLOCKS],
        rows: &'a mut [SweepPartials],
    ) -> Self {
        Group {
            first,
            tiles,
            rows,
            wrote_rows: false,
        }
    }

    /// The owned members in ascending order: `(m, tiles)`.
    pub fn members(&mut self) -> impl Iterator<Item = (usize, &mut [&'a mut T; M])> {
        self.tiles
            .iter_mut()
            .enumerate()
            .filter_map(|(m, t)| t.as_mut().map(|t| (m, t)))
    }

    /// [`Group::members`] with each one's partial row, zeroed on the
    /// group's first call: only owned members' rows reach the reduction,
    /// in block order.
    pub fn members_with_rows(
        &mut self,
    ) -> impl Iterator<Item = (usize, &mut [&'a mut T; M], &mut SweepPartials)> {
        if !self.wrote_rows {
            self.rows.fill([0.0; crate::MAX_SWEEP_PARTIALS]);
            self.wrote_rows = true;
        }
        self.tiles
            .iter_mut()
            .zip(self.rows.iter_mut())
            .enumerate()
            .filter_map(|(m, (t, row))| t.as_mut().map(|t| (m, t, row)))
    }

    /// Did the kernel take its rows? If not, they hold whatever they held
    /// before, and the group's partials are zero.
    pub fn wrote_rows(&self) -> bool {
        self.wrote_rows
    }

    /// Member `m`'s partial row as the reduction should see it.
    pub fn row(&self, m: usize) -> SweepPartials {
        if self.wrote_rows {
            self.rows[m]
        } else {
            [0.0; crate::MAX_SWEEP_PARTIALS]
        }
    }

    /// Which members this runtime owns.
    pub fn owned(&self) -> [bool; GROUP_BLOCKS] {
        std::array::from_fn(|m| self.tiles[m].is_some())
    }

    /// The owned members' tiles of a whole-field vector, slot `m` holding
    /// block `first + m`'s.
    pub fn blocks_of<'v, V: CommVec<Tile = T>>(&self, v: &'v V) -> [Option<&'v T>; GROUP_BLOCKS] {
        std::array::from_fn(|m| self.tiles[m].is_some().then(|| v.block(self.first + m)))
    }

    /// Operand `i` of the owned members, slot `m` holding member `m`'s.
    pub fn operand(&mut self, i: usize) -> [Option<&mut T>; GROUP_BLOCKS] {
        self.tiles
            .each_mut()
            .map(|t| t.as_mut().map(|t| &mut *t[i]))
    }

    /// Operands `read` and `write` (`read < write`) of the owned members as
    /// a group apply takes them.
    pub fn operands(&mut self, read: usize, write: usize) -> Operands<'_, T> {
        assert!(read < write, "operands are read below write");
        let (mut rs, mut zs) = ([None; GROUP_BLOCKS], [(); GROUP_BLOCKS].map(|_| None));
        for (m, t) in self.members() {
            let (lo, hi) = t.split_at_mut(write);
            (rs[m], zs[m]) = (Some(&*lo[read]), Some(&mut *hi[0]));
        }
        (rs, zs)
    }

    /// `(nx, ny, halo)` of the group's tiles (every member shares it).
    pub fn shape(&self) -> (usize, usize, usize) {
        self.tiles
            .iter()
            .flatten()
            .map(|t| t[0].shape())
            .next()
            .expect("a group hands its kernel at least one owned member")
    }
}

/// What a group apply takes: slot `m` holds member `m`'s tile to read and
/// its tile to write, `None` for a member not handed in.
pub type Operands<'a, T> = (
    [Option<&'a T>; GROUP_BLOCKS],
    [Option<&'a mut T>; GROUP_BLOCKS],
);

/// Member `m` alone as a group apply's operands.
pub fn alone<'a, T>(m: usize, r: &'a T, z: &'a mut T) -> Operands<'a, T> {
    let (mut rs, mut zs) = ([None; GROUP_BLOCKS], [(); GROUP_BLOCKS].map(|_| None));
    (rs[m], zs[m]) = (Some(r), Some(z));
    (rs, zs)
}

/// A per-block kernel as a group kernel: each owned member's row is
/// `kernel(block, tiles)`. This is how [`Communicator::for_each_block_fused`]
/// runs on the group walker.
///
/// [`Communicator::for_each_block_fused`]: crate::Communicator::for_each_block_fused
pub fn blockwise<T: Tile, const M: usize, F>(kernel: F) -> impl Fn(&mut Group<'_, T, M>) + Sync
where
    F: Fn(usize, &mut [&mut T; M]) -> SweepPartials + Sync,
{
    move |g: &mut Group<'_, T, M>| {
        // Every owned row is written whole: no zeroing first.
        g.wrote_rows = true;
        let first = g.first;
        let rows = g.rows.iter_mut();
        for (m, (t, row)) in g.tiles.iter_mut().zip(rows).enumerate() {
            if let Some(tiles) = t {
                *row = kernel(first + m, tiles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_grid::{Decomposition, Grid};

    #[test]
    fn groups_are_same_shape_runs_of_at_most_four() {
        // 70 × 30 in 16 × 12 blocks: a ragged 6-wide column and 6-tall row.
        let g = Grid::idealized_basin(70, 30, 100.0, 1.0e4);
        let d = Decomposition::new(&g, 16, 12);
        let groups = SweepGroups::new(&d.blocks);
        let mut next = 0;
        for (gi, r) in groups.iter().enumerate() {
            assert_eq!(r.start, next);
            assert!((1..=LANES).contains(&r.len()));
            let shape = |b: usize| (d.blocks[b].nx, d.blocks[b].ny);
            assert!(r.clone().all(|b| shape(b) == shape(r.start)));
            assert!(r.clone().all(|b| groups.of(b) == gi));
            // Maximal: the next block could not have joined.
            if r.end < d.blocks.len() {
                assert!(r.len() == LANES || shape(r.end) != shape(r.start));
            }
            next = r.end;
        }
        assert_eq!(next, d.blocks.len());
        // Rows of 4 + 1 blocks: each row is a group of four and a ragged one.
        assert_eq!(
            groups.iter().map(|r| r.len()).collect::<Vec<_>>(),
            [4, 1, 4, 1, 4, 1]
        );
    }
}
