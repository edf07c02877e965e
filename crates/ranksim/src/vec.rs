//! [`RankField`]: the slice of a distributed field that one simulated rank
//! privately owns.
//!
//! Unlike [`DistField`], which holds every block of the decomposition in one
//! address space, a `RankField` holds only the blocks assigned to one rank.
//! Blocks are still addressed by **global** active block id — the id space
//! the solver kernels speak — and touching a block the rank does not own is
//! a hard panic: under the rank runtime there is no shared memory to
//! silently read through, exactly as on real MPI ranks.

use pop_comm::{BlockVec, CommVec, DistField, DistLayout, MultiBlockVec, Tile};
use std::sync::Arc;

/// One rank's private blocks of a distributed field. Its two instances are
/// [`RankVec`] and [`MultiRankVec`].
#[derive(Debug, Clone)]
pub struct RankField<T: Tile> {
    layout: Arc<DistLayout>,
    /// Global ids of the blocks this rank owns, sorted ascending.
    owned: Arc<Vec<usize>>,
    /// Global block id -> index into `blocks`; `u32::MAX` marks blocks
    /// owned by other ranks.
    local_of: Arc<Vec<u32>>,
    /// Values per grid point — stored, so a rank that owns no blocks still
    /// knows the width of the batch it takes part in.
    width: usize,
    pub(crate) blocks: Vec<T>,
}

/// One rank's slice of a single-RHS field.
pub type RankVec = RankField<BlockVec>;

/// One rank's slice of a `k`-wide batched field.
pub type MultiRankVec = RankField<MultiBlockVec>;

impl<T: Tile> RankField<T> {
    /// A zero-filled rank-private field over `owned`, `width` values per
    /// point.
    pub(crate) fn zeros(
        layout: &Arc<DistLayout>,
        owned: &Arc<Vec<usize>>,
        local_of: &Arc<Vec<u32>>,
        width: usize,
    ) -> Self {
        let blocks = owned
            .iter()
            .map(|&gb| {
                let info = &layout.decomp.blocks[gb];
                T::zeros(info.nx, info.ny, layout.halo, width)
            })
            .collect();
        RankField {
            layout: Arc::clone(layout),
            owned: Arc::clone(owned),
            local_of: Arc::clone(local_of),
            width,
            blocks,
        }
    }

    /// Copy this rank's blocks (interior and halo) out of a full
    /// shared-memory field.
    pub(crate) fn from_dist(
        src: &DistField<T>,
        owned: &Arc<Vec<usize>>,
        local_of: &Arc<Vec<u32>>,
    ) -> Self {
        let blocks = owned.iter().map(|&gb| src.blocks[gb].clone()).collect();
        RankField {
            layout: Arc::clone(&src.layout),
            owned: Arc::clone(owned),
            local_of: Arc::clone(local_of),
            width: src.width(),
            blocks,
        }
    }

    /// The global ids of the blocks this field holds, sorted ascending.
    pub fn owned_blocks(&self) -> &[usize] {
        &self.owned
    }

    /// Shared ownership marker: two fields with the same `owned` Arc belong
    /// to the same rank's view.
    pub(crate) fn owned_arc(&self) -> &Arc<Vec<usize>> {
        &self.owned
    }

    #[inline]
    fn local(&self, gb: usize) -> usize {
        let li = self.local_of[gb];
        assert!(
            li != u32::MAX,
            "block {gb} is owned by another rank; rank-private vectors have no shared memory to read through"
        );
        li as usize
    }

    /// Mutable access to the tile of global block `gb`. Panics if the rank
    /// does not own it.
    #[inline]
    pub fn block_mut(&mut self, gb: usize) -> &mut T {
        let li = self.local(gb);
        &mut self.blocks[li]
    }

    /// Consume the field into `(global_block_id, tile)` pairs, for
    /// assembling a full field from per-rank results.
    pub fn into_blocks(self) -> Vec<(usize, T)> {
        self.owned.iter().copied().zip(self.blocks).collect()
    }
}

impl<T: Tile> CommVec for RankField<T> {
    type Tile = T;

    #[inline]
    fn layout(&self) -> &Arc<DistLayout> {
        &self.layout
    }

    #[inline]
    fn width(&self) -> usize {
        self.width
    }

    #[inline]
    fn block(&self, gb: usize) -> &T {
        let li = self.local(gb);
        &self.blocks[li]
    }

    fn zero_fill(&mut self) {
        for b in &mut self.blocks {
            b.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::DistVec;
    use pop_grid::Grid;

    fn setup() -> (Arc<DistLayout>, Arc<Vec<usize>>, Arc<Vec<u32>>) {
        let g = Grid::gx1_scaled(3, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        let n = layout.n_blocks();
        let owned: Vec<usize> = (0..n).filter(|b| b % 2 == 0).collect();
        let mut local_of = vec![u32::MAX; n];
        for (li, &gb) in owned.iter().enumerate() {
            local_of[gb] = li as u32;
        }
        (layout, Arc::new(owned), Arc::new(local_of))
    }

    #[test]
    fn owns_only_assigned_blocks() {
        let (layout, owned, local_of) = setup();
        let v = RankVec::zeros(&layout, &owned, &local_of, 1);
        assert_eq!(v.owned_blocks().len(), owned.len());
        let gb = owned[0];
        assert_eq!(v.block(gb).nx, layout.decomp.blocks[gb].nx);
    }

    #[test]
    #[should_panic(expected = "owned by another rank")]
    fn foreign_block_panics() {
        let (layout, owned, local_of) = setup();
        let v = RankVec::zeros(&layout, &owned, &local_of, 1);
        let _ = v.block(1); // odd ids belong to the "other rank"
    }

    #[test]
    fn from_dist_copies_bitwise() {
        let (layout, owned, local_of) = setup();
        let mut d = DistVec::zeros(&layout);
        d.fill_with(|i, j| (i * 31 + j) as f64 * 0.25);
        let v = RankVec::from_dist(&d, &owned, &local_of);
        for &gb in owned.iter() {
            assert_eq!(v.block(gb).raw(), d.blocks[gb].raw());
        }
        let pairs = v.into_blocks();
        assert_eq!(pairs.len(), owned.len());
        assert_eq!(pairs[0].0, owned[0]);
    }
}
