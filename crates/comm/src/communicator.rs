//! The [`Communicator`] trait: the communication surface the solvers use.
//!
//! The four barotropic solvers are written once, generically, against this
//! trait (`pop_core::solvers::CommSolver`); two runtimes implement it:
//!
//! - [`CommWorld`] — the shared-memory world (serial or
//!   thread-pool), where every "message" is a row copy inside one address
//!   space (straight from a neighbour's interior into a ring, following the
//!   layout's [`HaloPlan`](crate::halo::HaloPlan)) and reductions are
//!   block-ordered folds.
//! - `RankWorld`/`RankComm` (crate `pop-ranksim`) — a message-passing
//!   runtime of simulated ranks (OS threads in small worlds, fibers in large
//!   ones) where halo updates are explicit point-to-point sends of boundary
//!   strips and global reductions run a selectable message schedule
//!   (binomial tree, recursive doubling, Rabenseifner, hierarchical), with a
//!   pluggable network model charging simulated time.
//!
//! # One surface for both tile types
//!
//! A distributed vector is a container of per-block [`Tile`]s — the
//! point-vectorised [`BlockVec`] of a single right-hand side or the
//! lane-vectorised [`MultiBlockVec`](crate::MultiBlockVec) of a batch — and
//! neither a container nor an exchange looks inside a tile beyond the
//! [`Tile`] surface. So each runtime has **one** container
//! ([`DistField`] here, `RankField` in `pop-ranksim`), and the trait has
//! one [`alloc`](Communicator::alloc), one
//! [`halo_update`](Communicator::halo_update) and one fused sweep, each
//! generic over the tile type: `C::Vec<BlockVec>` is what a single-RHS loop
//! holds, `C::Vec<MultiBlockVec>` what a batched one does. Dispatch is
//! static; the kernels a sweep runs inside a tile stay two families (point-
//! and lane-vectorised — each is the faster one on a gated workload).
//!
//! # Deferred reduction semantics
//!
//! The key design point is how fused-sweep partials become global values.
//! [`Communicator::for_each_group_fused`] returns an opaque
//! [`Communicator::Sweep`] handle; the partials it carries are **not yet
//! global**. Only [`Communicator::reduce_sweep`] turns them into globally
//! combined sums — and *that* call is the allreduce: it is counted in
//! [`StatsSnapshot`], it pays simulated latency under a rank runtime, and a
//! solver that never calls it between convergence checks genuinely performs
//! no global communication there. This is what lets P-CSI's
//! communication-avoidance be *executed* rather than merely counted: its
//! loop body produces a residual-norm sweep handle every iteration but only
//! reduces it every `check_every` iterations.
//!
//! # Determinism contract
//!
//! `reduce_sweep` must combine the per-block partial rows of the sweep in
//! **global active-block order** with a flat left-fold starting from zero —
//! exactly what [`CommWorld`] does in shared memory. Any
//! implementation honouring this produces bit-identical reduction values,
//! hence bit-identical solver trajectories, regardless of how many ranks
//! the blocks are spread over (`tests/ranksim_equivalence.rs` pins this).

use crate::blockvec::BlockVec;
use crate::distvec::{DistField, DistVec};
use crate::group::{blockwise, Group};
use crate::layout::DistLayout;
use crate::tile::Tile;
use crate::world::{CommWorld, StatsSnapshot, SweepPartials};
use std::sync::Arc;

/// A distributed field as seen by one communicator: block tiles addressed
/// by **global** active-block id.
///
/// [`DistField`] (all blocks in one storage) and `pop-ranksim`'s `RankField`
/// (only the blocks a rank privately owns) both implement this, so solver
/// kernels can read side operands with `v.block(bk)` under either runtime.
pub trait CommVec: Send + Sync {
    /// The per-block storage: [`BlockVec`] for a single right-hand side,
    /// [`MultiBlockVec`](crate::MultiBlockVec) for a batch.
    type Tile: Tile;

    /// The global layout this vector's blocks belong to.
    fn layout(&self) -> &Arc<DistLayout>;

    /// Values per grid point: 1 for a single-RHS vector, the batch's slot
    /// count for a batched one. Stored in the container, so a view that
    /// holds no blocks still knows it.
    fn width(&self) -> usize;

    /// Read-only access to the tile of global active block `gb`. Panics if
    /// this vector's view does not contain the block (a rank-private vector
    /// only holds the owning rank's blocks).
    fn block(&self, gb: usize) -> &Self::Tile;

    /// Zero every cell (interior and halo) of every block in this view,
    /// exactly as a freshly allocated vector would be.
    fn zero_fill(&mut self);
}

impl<T: Tile> CommVec for DistField<T> {
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
        &self.blocks[gb]
    }

    fn zero_fill(&mut self) {
        for b in &mut self.blocks {
            b.fill(0.0);
        }
    }
}

/// The communication surface of the barotropic solvers: halo updates, fused
/// block sweeps, deferred global reductions, and event statistics.
///
/// See the [module docs](self) for the deferred-reduction semantics, the
/// determinism contract and the tile-generic methods.
pub trait Communicator {
    /// The distributed-vector type this communicator drives, per tile type:
    /// `Vec<BlockVec>` is the single-RHS vector, `Vec<MultiBlockVec>` the
    /// batched one.
    type Vec<T: Tile>: CommVec<Tile = T>;

    /// Opaque handle to one fused sweep's per-block partial reductions.
    /// For [`CommWorld`] this is just the block-ordered fold
    /// ([`SweepPartials`]); a rank runtime keeps the per-block rows so a
    /// later [`Communicator::reduce_sweep`] can reproduce the exact fold.
    type Sweep;

    /// Snapshot of the communication counters *as seen by this
    /// communicator* (per-rank under a rank runtime).
    fn stats(&self) -> StatsSnapshot;

    /// Allocate a zeroed vector of `width` values per point with the same
    /// view (layout and block ownership) as `model`.
    fn alloc<T: Tile>(&self, model: &Self::Vec<BlockVec>, width: usize) -> Self::Vec<T>;

    /// Update the halo ring of every block in `v`'s view from its
    /// neighbours' interiors (point-to-point messages under a rank
    /// runtime; shared-memory copies under [`CommWorld`]). Each boundary
    /// strip travels once carrying every value of its points, so the
    /// message count is flat in `v.width()` and the bytes scale with it.
    fn halo_update<T: Tile>(&self, v: &mut Self::Vec<T>);

    /// The fused execution primitive: walk every sweep group
    /// ([`crate::group`]) of the view once, handing the kernel every block
    /// of a group this runtime owns — each block's tiles of all mutable
    /// operands — and collect up to
    /// [`MAX_SWEEP_PARTIALS`](crate::MAX_SWEEP_PARTIALS) partial reductions
    /// per block ([`Group::members_with_rows`]). Local work only — nothing
    /// global happens (and nothing is counted) until the returned handle is
    /// passed to [`Communicator::reduce_sweep`]. A batched kernel puts per-RHS
    /// partials in per-lane slots of the same row, so one `reduce_sweep` —
    /// **one** allreduce message — reduces all `k` residuals at once.
    fn for_each_group_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut Self::Vec<T>; M],
        kernel: F,
    ) -> Self::Sweep
    where
        F: Fn(&mut Group<'_, T, M>) + Sync;

    /// [`Communicator::for_each_group_fused`] with a per-block kernel: block
    /// `gb`'s partial row is `kernel(gb, tiles)` ([`blockwise`]).
    fn for_each_block_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut Self::Vec<T>; M],
        kernel: F,
    ) -> Self::Sweep
    where
        F: Fn(usize, &mut [&mut T; M]) -> SweepPartials + Sync,
    {
        self.for_each_group_fused(muts, blockwise(kernel))
    }

    /// A halo update of `muts[0]` immediately followed by a fused group
    /// sweep over `muts` — the shape every solver iteration has (exchange
    /// `x`, then sweep a residual/stencil that reads `x`'s tile and ring,
    /// and perhaps goes on to update `x` itself). A per-block kernel passes
    /// through [`blockwise`].
    ///
    /// Semantically identical to `halo_update(muts[0])` followed by
    /// `for_each_group_fused(muts, …)` — and that is exactly this default
    /// implementation. The exchanged vector is handed to the kernel mutably:
    /// every kernel reads only its own block's tile and ring, and the
    /// exchange has filled every ring (a split-phase exchange packs its
    /// strips when it posts them) before any block's kernel runs, so a
    /// kernel that writes the interior of `muts[0]` never changes what a
    /// neighbour reads. The seam exists so a communicator that models
    /// communication time can run the exchange *split-phase*: post the
    /// strips, charge the interior stencil points while they fly, and wait
    /// only before the halo-reading edge points. Implementations must keep
    /// the numeric sweep order canonical so results stay bit-identical to
    /// the default.
    fn halo_sweep_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut Self::Vec<T>; M],
        kernel: F,
    ) -> Self::Sweep
    where
        F: Fn(&mut Group<'_, T, M>) + Sync,
    {
        self.halo_update(&mut *muts[0]);
        self.for_each_group_fused(muts, kernel)
    }

    /// THE global reduction: combine `sweep`'s per-block partials over all
    /// blocks of the *global* layout, in global block order, and return the
    /// sums on every rank. Records one allreduce of `scalars` values (and
    /// pays its simulated cost under a rank runtime). May be called more
    /// than once on the same handle — each call is a fresh collective with
    /// identical results.
    fn reduce_sweep(&self, sweep: &Self::Sweep, scalars: u64) -> SweepPartials;

    /// Masked global dot product via a fused sweep plus one reduction.
    fn dot_fused(&self, x: &Self::Vec<BlockVec>, y: &Self::Vec<BlockVec>) -> f64;
}

impl Communicator for CommWorld {
    type Vec<T: Tile> = DistField<T>;
    type Sweep = SweepPartials;

    fn stats(&self) -> StatsSnapshot {
        CommWorld::stats(self)
    }

    fn alloc<T: Tile>(&self, model: &DistVec, width: usize) -> DistField<T> {
        DistField::with_width(&model.layout, width)
    }

    fn halo_update<T: Tile>(&self, v: &mut DistField<T>) {
        CommWorld::halo_update(self, v);
    }

    fn for_each_group_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut DistField<T>; M],
        kernel: F,
    ) -> SweepPartials
    where
        F: Fn(&mut Group<'_, T, M>) + Sync,
    {
        CommWorld::for_each_group_fused(self, muts, kernel)
    }

    /// In shared memory the sweep's fold is already the global value;
    /// consuming it just records the allreduce the fold stood in for.
    fn reduce_sweep(&self, sweep: &SweepPartials, scalars: u64) -> SweepPartials {
        self.record_allreduce(scalars);
        *sweep
    }

    fn dot_fused(&self, x: &DistVec, y: &DistVec) -> f64 {
        CommWorld::dot_fused(self, x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_grid::Grid;

    /// Exercise the whole trait surface through a generic function, driven
    /// by the shared-memory world, and pin it against the inherent methods.
    fn trait_norm2<C: Communicator>(comm: &C, v: &C::Vec<BlockVec>) -> (f64, StatsSnapshot) {
        let before = comm.stats();
        let mut w: C::Vec<BlockVec> = comm.alloc(v, 1);
        let sweep = comm.for_each_block_fused([&mut w], |gb, [wb]| {
            let src = v.block(gb);
            for j in 0..wb.ny {
                wb.interior_row_mut(j).copy_from_slice(src.interior_row(j));
            }
            let mut p = [0.0; crate::MAX_SWEEP_PARTIALS];
            p[0] = crate::blockvec::masked_block_dot(src, src, &v.layout().masks[gb]);
            p
        });
        let total = comm.reduce_sweep(&sweep, 1)[0];
        (total, comm.stats().since(&before))
    }

    #[test]
    fn commworld_trait_surface_matches_inherent() {
        let g = Grid::gx1_scaled(5, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        for world in [CommWorld::serial(), CommWorld::threaded()] {
            let mut v = DistVec::zeros(&layout);
            v.fill_with(|i, j| ((i * 3 + j * 7) as f64 * 0.11).sin());
            let direct = CommWorld::dot_fused(&world, &v, &v);
            let (via_trait, diff) = trait_norm2(&world, &v);
            assert_eq!(direct.to_bits(), via_trait.to_bits());
            assert_eq!(diff.allreduces, 1, "reduce_sweep must count once");
            assert_eq!(diff.allreduce_scalars, 1);
        }
    }

    #[test]
    fn reduce_sweep_can_be_repeated() {
        let g = Grid::idealized_basin(12, 12, 50.0, 1.0);
        let layout = DistLayout::build(&g, 6, 6);
        let world = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, _| i as f64);
        let sweep = Communicator::for_each_block_fused(&world, [&mut v], |gb, [vb]| {
            let mut p = [0.0; crate::MAX_SWEEP_PARTIALS];
            p[0] = vb.interior_row(0)[0] + gb as f64;
            p
        });
        let a = world.reduce_sweep(&sweep, 1);
        let b = world.reduce_sweep(&sweep, 1);
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        assert_eq!(world.stats().allreduces, 2);
    }
}
