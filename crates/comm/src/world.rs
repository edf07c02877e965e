//! The communication world: executes collectives and counts them.

use crate::distvec::{DistField, DistVec};
use crate::group::{blockwise, Group};
use crate::halo::Exchange;
use crate::pool;
use crate::tile::Tile;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How block-level work is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecPolicy {
    /// One thread, blocks processed in order. Deterministic reference.
    Serial,
    /// Blocks processed on the crate's persistent worker pool
    /// ([`crate::pool`]). Reductions still combine partials in block order,
    /// so results are bit-identical to [`ExecPolicy::Serial`].
    Threaded,
}

/// Width of the per-block partial-reduction slot of a fused sweep. Wide
/// enough for the hungriest solver at the widest RHS batch (ChronGear
/// fuses two dot products per RHS; a 16-wide batch needs 32 slots);
/// unused lanes stay `0.0` and add nothing. Both runtimes charge allreduce
/// cost by the *requested* scalar count, not this capacity, so widening the
/// slot is free.
pub const MAX_SWEEP_PARTIALS: usize = 64;

/// Per-block (and combined) partial reductions of a fused sweep.
pub type SweepPartials = [f64; MAX_SWEEP_PARTIALS];

/// A raw pointer that may cross threads. Every use in this crate hands each
/// worker a *disjoint* referent (one element per claimed block index; in the
/// halo exchange, one ring per block), so no two threads ever alias.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: a `SendPtr` only carries an address across threads; every
// dereference is an `unsafe` site of its own with its own argument. Each
// constructor takes the pointer from a `&mut` borrow that outlives every
// task it is handed to (`for_each_block` and the sweeps block on the pool
// until all indices are done; an `Exchange` borrows its tiles for its
// lifetime), and the tasks write disjoint elements — one per claimed index,
// or one ring per block — so sharing the address races on nothing.
// `T: Send` because those tasks write (and so take over) `T`s on other
// threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: shared access only copies the address out.
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Counters for every communication event issued through a [`CommWorld`].
///
/// These are the quantities the paper's cost model consumes: the number of
/// global reductions (ChronGear: one fused allreduce per iteration; P-CSI:
/// only the periodic convergence check), the number of halo updates, and the
/// halo byte volume.
#[derive(Debug, Default)]
pub struct CommStats {
    pub halo_updates: AtomicU64,
    pub halo_messages: AtomicU64,
    pub halo_bytes: AtomicU64,
    pub allreduces: AtomicU64,
    pub allreduce_scalars: AtomicU64,
    /// Collective messages put on the wire by reduction trees. Zero on the
    /// shared-memory backends (no wire); the rank runtime counts each hop
    /// of whatever `ReduceAlgo` schedule it executes.
    pub allreduce_steps: AtomicU64,
    /// Modelled payload bytes of those collective messages — what makes
    /// Rabenseifner's halving schedule observable against full-payload
    /// exchanges.
    pub allreduce_bytes_on_wire: AtomicU64,
    pub barriers: AtomicU64,
    /// Messages retransmitted after a (simulated) drop. Always zero on the
    /// shared-memory backends; the ranksim fault layer feeds it.
    pub retries: AtomicU64,
    /// Duplicate deliveries discarded by sequence-number dedup.
    pub duplicates: AtomicU64,
    /// Messages whose payload arrived corrupted or permanently failed
    /// (surfaced to the solver instead of panicking).
    pub delivery_failures: AtomicU64,
}

/// A plain-data copy of [`CommStats`] at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub halo_updates: u64,
    pub halo_messages: u64,
    pub halo_bytes: u64,
    pub allreduces: u64,
    pub allreduce_scalars: u64,
    /// Collective messages reduction trees put on the wire (ranksim only).
    pub allreduce_steps: u64,
    /// Modelled payload bytes of those messages (ranksim only).
    pub allreduce_bytes_on_wire: u64,
    pub barriers: u64,
    /// Messages retransmitted after a simulated drop (ranksim fault layer).
    pub retries: u64,
    /// Duplicate deliveries idempotently discarded via sequence numbers.
    pub duplicates: u64,
    /// Deliveries that arrived corrupted or permanently failed.
    pub delivery_failures: u64,
}

impl StatsSnapshot {
    /// Event-count difference `self - earlier` (used to attribute counts to
    /// a single solve). Saturating: if `reset_stats` ran between the two
    /// snapshots a counter can go backwards, and the difference clamps to
    /// zero instead of panicking in debug builds.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            halo_updates: self.halo_updates.saturating_sub(earlier.halo_updates),
            halo_messages: self.halo_messages.saturating_sub(earlier.halo_messages),
            halo_bytes: self.halo_bytes.saturating_sub(earlier.halo_bytes),
            allreduces: self.allreduces.saturating_sub(earlier.allreduces),
            allreduce_scalars: self
                .allreduce_scalars
                .saturating_sub(earlier.allreduce_scalars),
            allreduce_steps: self.allreduce_steps.saturating_sub(earlier.allreduce_steps),
            allreduce_bytes_on_wire: self
                .allreduce_bytes_on_wire
                .saturating_sub(earlier.allreduce_bytes_on_wire),
            barriers: self.barriers.saturating_sub(earlier.barriers),
            retries: self.retries.saturating_sub(earlier.retries),
            duplicates: self.duplicates.saturating_sub(earlier.duplicates),
            delivery_failures: self
                .delivery_failures
                .saturating_sub(earlier.delivery_failures),
        }
    }
}

/// Executes collectives over the blocks of [`DistVec`]s and records
/// communication statistics.
#[derive(Debug)]
pub struct CommWorld {
    policy: ExecPolicy,
    stats: CommStats,
    /// Reusable per-block partial-reduction slots for fused sweeps and
    /// `dot_many`, and per-task "rows written" flags, so steady-state
    /// solver iterations allocate nothing.
    sweep_scratch: Mutex<(Vec<SweepPartials>, Vec<bool>)>,
}

impl CommWorld {
    fn new(policy: ExecPolicy) -> Self {
        CommWorld {
            policy,
            stats: CommStats::default(),
            sweep_scratch: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    /// Serial deterministic world: one thread, blocks processed in order.
    pub fn serial() -> Self {
        Self::new(ExecPolicy::Serial)
    }

    /// Thread-pool world: blocks processed on the crate's persistent worker
    /// pool ([`crate::pool`]). Reductions still combine partials in block
    /// order, so results are bit-identical to [`CommWorld::serial`]'s.
    pub fn threaded() -> Self {
        Self::new(ExecPolicy::Threaded)
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            halo_updates: self.stats.halo_updates.load(Ordering::Relaxed),
            halo_messages: self.stats.halo_messages.load(Ordering::Relaxed),
            halo_bytes: self.stats.halo_bytes.load(Ordering::Relaxed),
            allreduces: self.stats.allreduces.load(Ordering::Relaxed),
            allreduce_scalars: self.stats.allreduce_scalars.load(Ordering::Relaxed),
            allreduce_steps: self.stats.allreduce_steps.load(Ordering::Relaxed),
            allreduce_bytes_on_wire: self.stats.allreduce_bytes_on_wire.load(Ordering::Relaxed),
            barriers: self.stats.barriers.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            duplicates: self.stats.duplicates.load(Ordering::Relaxed),
            delivery_failures: self.stats.delivery_failures.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero.
    pub fn reset_stats(&self) {
        self.stats.halo_updates.store(0, Ordering::Relaxed);
        self.stats.halo_messages.store(0, Ordering::Relaxed);
        self.stats.halo_bytes.store(0, Ordering::Relaxed);
        self.stats.allreduces.store(0, Ordering::Relaxed);
        self.stats.allreduce_scalars.store(0, Ordering::Relaxed);
        self.stats.allreduce_steps.store(0, Ordering::Relaxed);
        self.stats
            .allreduce_bytes_on_wire
            .store(0, Ordering::Relaxed);
        self.stats.barriers.store(0, Ordering::Relaxed);
        self.stats.retries.store(0, Ordering::Relaxed);
        self.stats.duplicates.store(0, Ordering::Relaxed);
        self.stats.delivery_failures.store(0, Ordering::Relaxed);
    }

    /// Total parallelism behind this world (1 for [`CommWorld::serial`]).
    pub fn threads(&self) -> usize {
        match self.policy {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threaded => pool::global().n_threads(),
        }
    }

    /// Run `f(i)` once for every `i` in `0..n`: in order under
    /// [`ExecPolicy::Serial`], as pool tasks under [`ExecPolicy::Threaded`].
    /// The one place the policy is read for block work.
    fn each<F: Fn(usize) + Sync>(&self, n: usize, f: F) {
        match self.policy {
            ExecPolicy::Serial => (0..n).for_each(f),
            ExecPolicy::Threaded => pool::global().run_indexed(n, &f),
        }
    }

    /// Run `f` over an indexed mutable slice, serially or on the pool.
    pub fn for_each_block<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let base = SendPtr(items.as_mut_ptr());
        self.each(items.len(), |k| {
            // SAFETY: `each` runs each index exactly once, so every call
            // gets a disjoint element.
            let it = unsafe { &mut *base.get().add(k) };
            f(k, it);
        });
    }

    /// The fused execution primitive: walk the layout's sweep groups
    /// ([`crate::group`]) **once**, one pool task per group, handing the
    /// kernel every block of a group — each block's tiles of every mutable
    /// operand — while they are cache-hot, with one partial row of up to
    /// [`MAX_SWEEP_PARTIALS`] reductions per block.
    ///
    /// The returned partials are combined in block order (deterministic under
    /// both policies). Nothing is recorded in [`CommStats`]: a fused sweep is
    /// local work. When the caller *consumes* the combined partials as a
    /// global value (a dot product, a norm), it must account for the implied
    /// communication with [`CommWorld::record_allreduce`].
    ///
    /// All operands must share a layout; read-only operands are captured by
    /// the kernel closure directly.
    pub fn for_each_group_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut DistField<T>; M],
        kernel: F,
    ) -> SweepPartials
    where
        F: Fn(&mut Group<'_, T, M>) + Sync,
    {
        assert!(M > 0, "fused sweep needs a mutable operand");
        let layout = Arc::clone(&muts[0].layout);
        for v in muts.iter().skip(1) {
            assert!(
                Arc::ptr_eq(&layout, &v.layout),
                "fused sweep operands must share a layout"
            );
        }
        let groups = &layout.groups;
        // Distinct `&mut DistField` arguments are guaranteed disjoint by the
        // borrow checker, so per-block tiles never alias across operands.
        let bases: [SendPtr<T>; M] = muts.map(|v| SendPtr(v.blocks.as_mut_ptr()));
        let kernel = &kernel;
        let span = |g: usize| groups.range(g);
        self.run_fused(groups.len(), layout.n_blocks(), span, move |g, rows| {
            let span = groups.range(g);
            // SAFETY: each task owns a disjoint block range; disjoint
            // vectors per the borrow argument above.
            let tiles = std::array::from_fn(|m| {
                (m < span.len()).then(|| {
                    std::array::from_fn(|k| unsafe { &mut *bases[k].get().add(span.start + m) })
                })
            });
            let mut group = Group::new(span.start, tiles, rows);
            kernel(&mut group);
            group.wrote_rows()
        })
    }

    /// [`CommWorld::for_each_group_fused`] with a per-block kernel
    /// ([`blockwise`]): block `b`'s partial row is `kernel(b, tiles)`.
    pub fn for_each_block_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut DistField<T>; M],
        kernel: F,
    ) -> SweepPartials
    where
        F: Fn(usize, &mut [&mut T; M]) -> SweepPartials + Sync,
    {
        self.for_each_group_fused(muts, blockwise(kernel))
    }

    /// Read-only fused sweep over `0..n` blocks, one partial row each,
    /// combined **in block order**. Same accounting rules as
    /// [`CommWorld::for_each_group_fused`].
    pub fn reduce_blocks_fused<F>(&self, n: usize, f: F) -> SweepPartials
    where
        F: Fn(usize) -> SweepPartials + Sync,
    {
        self.run_fused(
            n,
            n,
            |b| b..b + 1,
            |b, rows| {
                rows[0] = f(b);
                true
            },
        )
    }

    /// The one executor of fused sweeps: `task(t, rows)` for every task
    /// `t < tasks`, handed the scratch rows `span(t)` of `0..n` (disjoint
    /// per task, any contents) and returning whether it wrote them; then
    /// every row combined **in row order**, an unwritten one counting as
    /// zero. This fixed combine order is what keeps fused reductions
    /// bit-identical between the serial and threaded backends. A sweep no
    /// task wrote rows in is zero without a fold. Allocation-free once the
    /// scratch has grown to `n` rows and `tasks` flags.
    fn run_fused<S, F>(&self, tasks: usize, n: usize, span: S, task: F) -> SweepPartials
    where
        S: Fn(usize) -> Range<usize> + Sync,
        F: Fn(usize, &mut [SweepPartials]) -> bool + Sync,
    {
        let mut scratch = self.sweep_scratch.lock().expect("sweep scratch poisoned");
        let (partials, wrote) = &mut *scratch;
        if partials.len() != n {
            partials.clear();
            partials.resize(n, [0.0; MAX_SWEEP_PARTIALS]);
        }
        wrote.clear();
        wrote.resize(tasks, false);
        let (base, flags) = (SendPtr(partials.as_mut_ptr()), SendPtr(wrote.as_mut_ptr()));
        self.each(tasks, |t| {
            let rows = span(t);
            assert!(rows.end <= n);
            // SAFETY: the spans of distinct tasks are disjoint and `each`
            // runs each task exactly once, so each also owns its flag.
            unsafe {
                let rows = std::slice::from_raw_parts_mut(base.get().add(rows.start), rows.len());
                *flags.get().add(t) = task(t, rows);
            }
        });
        let mut acc = [0.0; MAX_SWEEP_PARTIALS];
        if !wrote.contains(&true) {
            return acc;
        }
        for t in (0..tasks).filter(|&t| !wrote[t]) {
            partials[span(t)].fill([0.0; MAX_SWEEP_PARTIALS]);
        }
        for row in partials.iter() {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += *v;
            }
        }
        acc
    }

    /// Record one allreduce of `scalars` values whose arithmetic was carried
    /// by a fused sweep's partials. Keeps the fused solver paths'
    /// communication accounting identical to the unfused ones.
    pub fn record_allreduce(&self, scalars: u64) {
        self.stats.allreduces.fetch_add(1, Ordering::Relaxed);
        self.stats
            .allreduce_scalars
            .fetch_add(scalars, Ordering::Relaxed);
    }

    /// Masked global dot product via a fused sweep: bit-identical to
    /// [`CommWorld::dot`], allocation-free in steady state, one recorded
    /// allreduce.
    pub fn dot_fused(&self, x: &DistVec, y: &DistVec) -> f64 {
        let n = x.layout.n_blocks();
        let acc = self.reduce_blocks_fused(n, |b| {
            let mut p = [0.0; MAX_SWEEP_PARTIALS];
            p[0] = x.block_dot(y, b);
            p
        });
        self.record_allreduce(1);
        acc[0]
    }

    /// Update the halo ring of every block of `v` from its neighbours'
    /// interiors, zero-filling halo cells with no owner (land neighbours and
    /// domain boundaries). One call corresponds to one `update_halo` in the
    /// paper's pseudocode (a message to each of up to 8 neighbours). A
    /// `k`-wide field sends the same messages — each (block, direction)
    /// strip travels once carrying all `k` values of its points — with
    /// honestly `k×` the byte volume.
    ///
    /// In shared memory a "message" is a row copy: the layout's
    /// [`HaloPlan`](crate::halo::HaloPlan) lists, per block, the rows to
    /// pull out of its neighbours' interiors and the ring rectangles to
    /// zero, and one pass over the blocks does both (interiors are only
    /// read and each ring has one writer, so blocks need no ordering).
    pub fn halo_update<T: Tile>(&self, v: &mut DistField<T>) {
        // The generic shell only collects tile storage; everything else is
        // compiled once, in this crate.
        let (plan, n) = (&v.layout.halo_plan, v.blocks.len());
        let mut exchange = Exchange::begin(plan, T::POINT_WIDTH, v.width);
        for (b, tile) in v.blocks.iter_mut().enumerate() {
            exchange.push(b, tile.raw_mut());
        }
        self.each(n, |b| {
            // SAFETY: `each` runs each block index exactly once, so no two
            // calls write the same ring.
            unsafe { exchange.run_block_shared(b) }
        });
        self.stats.halo_updates.fetch_add(1, Ordering::Relaxed);
        self.stats
            .halo_messages
            .fetch_add(plan.messages(), Ordering::Relaxed);
        self.stats
            .halo_bytes
            .fetch_add(plan.bytes(v.width), Ordering::Relaxed);
    }

    /// Masked global dot products of several vector pairs, fused into a
    /// *single* recorded allreduce. ChronGear's step 9 fuses exactly two
    /// (`ρ̃`, `δ̃`); the convergence check uses one.
    pub fn dot_many(&self, pairs: &[(&DistVec, &DistVec)]) -> Vec<f64> {
        let k = pairs.len();
        assert!(k > 0, "no dot products requested");
        assert!(
            k <= MAX_SWEEP_PARTIALS,
            "more dot products than sweep partials"
        );
        let n = pairs[0].0.layout.n_blocks();
        let acc = self.reduce_blocks_fused(n, |b| {
            let mut p = [0.0; MAX_SWEEP_PARTIALS];
            for (slot, (x, y)) in p.iter_mut().zip(pairs) {
                *slot = x.block_dot(y, b);
            }
            p
        });
        self.record_allreduce(k as u64);
        acc[..k].to_vec()
    }

    /// Masked global dot product (one allreduce).
    pub fn dot(&self, x: &DistVec, y: &DistVec) -> f64 {
        self.dot_many(&[(x, y)])[0]
    }

    /// Masked global squared 2-norm (one allreduce).
    pub fn norm2_sq(&self, x: &DistVec) -> f64 {
        self.dot(x, x)
    }
}

// The exchange itself is pinned cell by cell in `tests/halo_exchange.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::DistLayout;
    use pop_grid::Grid;

    #[test]
    fn serial_and_threaded_identical() {
        let g = Grid::gx1_scaled(5, 64, 48);
        let layout = DistLayout::build(&g, 16, 12);
        let mk = |world: &CommWorld| {
            let mut v = DistVec::zeros(&layout);
            v.fill_with(|i, j| ((i * 31 + j * 17) as f64).sin());
            world.halo_update(&mut v);
            let d = world.dot(&v, &v);
            (v.to_global(), d)
        };
        let (gs, ds) = mk(&CommWorld::serial());
        let (gt, dt) = mk(&CommWorld::threaded());
        assert_eq!(gs, gt, "fields must be bit-identical");
        assert_eq!(
            ds.to_bits(),
            dt.to_bits(),
            "reductions must be bit-identical"
        );
    }

    #[test]
    fn stats_count_events() {
        let g = Grid::idealized_basin(16, 16, 100.0, 1.0);
        let layout = DistLayout::build(&g, 8, 8);
        let world = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|_, _| 1.0);
        world.halo_update(&mut v);
        world.dot_many(&[(&v, &v), (&v, &v)]);
        world.dot(&v, &v);
        let s = world.stats();
        assert_eq!(s.halo_updates, 1);
        assert!(s.halo_messages > 0);
        assert!(s.halo_bytes > 0);
        assert_eq!(s.allreduces, 2, "fused pair counts once");
        assert_eq!(s.allreduce_scalars, 3);
        world.reset_stats();
        assert_eq!(world.stats(), StatsSnapshot::default());
    }

    #[test]
    fn since_saturates_across_reset() {
        let g = Grid::idealized_basin(8, 8, 100.0, 1.0);
        let layout = DistLayout::build(&g, 4, 4);
        let world = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|_, _| 1.0);
        world.halo_update(&mut v);
        world.dot(&v, &v);
        let before = world.stats();
        world.reset_stats();
        world.dot(&v, &v);
        // Counters went backwards across the reset; the difference must
        // clamp to zero, not panic.
        let d = world.stats().since(&before);
        assert_eq!(d.halo_updates, 0);
        assert_eq!(d.allreduces, 0);
        assert_eq!(d.allreduce_scalars, 0);
    }

    #[test]
    fn dot_counts_only_ocean() {
        let g = Grid::gx1_scaled(2, 48, 40);
        let layout = DistLayout::build(&g, 16, 10);
        let world = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|_, _| 2.0);
        let d = world.dot(&v, &v);
        assert_eq!(d, 4.0 * layout.ocean_points() as f64);
    }

    #[test]
    fn periodic_seam_halo_wraps() {
        // Periodic strip: east halo of the easternmost block must contain the
        // westernmost block's values.
        let g = Grid::gx1_scaled(33, 64, 32);
        let layout = DistLayout::build(&g, 16, 16);
        let world = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (i * 1000 + j) as f64);
        world.halo_update(&mut v);
        // Find an active block on the east edge with an active west-edge
        // neighbour through the seam.
        let mx = layout.decomp.mx;
        for info in &layout.decomp.blocks {
            if info.bi == mx - 1 && info.i0 + info.nx == g.nx {
                if let Some(_e) =
                    layout.decomp.neighbors[info.active_id][pop_grid::Direction::East.index()]
                {
                    let b = info.active_id;
                    for j in 0..info.ny as isize {
                        let gj = info.j0 + j as usize;
                        let expect = if g.is_ocean(0, gj) {
                            gj as f64 // i = 0 at the wrapped west edge
                        } else {
                            0.0
                        };
                        assert_eq!(v.blocks[b].at(info.nx as isize, j), expect);
                    }
                    return;
                }
            }
        }
    }

    #[test]
    fn fused_sweep_matches_unfused_ops_bitwise() {
        let g = Grid::gx1_scaled(9, 64, 48);
        let layout = DistLayout::build(&g, 16, 12);
        let run = |world: &CommWorld| {
            let mut x = DistVec::zeros(&layout);
            let mut y = DistVec::zeros(&layout);
            x.fill_with(|i, j| ((i * 13 + j * 7) as f64 * 0.01).sin());
            y.fill_with(|i, j| ((i + 3 * j) as f64 * 0.02).cos());
            // Unfused: two separate passes plus a separate dot.
            let mut xu = x.clone();
            let mut yu = y.clone();
            yu.axpy(0.25, &xu);
            xu.scale(1.5);
            let du = world.dot(&xu, &yu);
            // Fused: one sweep doing both updates and the dot partial.
            let masks = &layout.masks;
            let acc = world.for_each_block_fused([&mut x, &mut y], |b, tiles| {
                let (nx, ny) = (tiles[0].nx, tiles[0].ny);
                let mask = &masks[b];
                let mut dot = 0.0;
                for j in 0..ny {
                    for i in 0..nx {
                        let xv = tiles[0].get(i, j);
                        let yv = tiles[1].get(i, j) + 0.25 * xv;
                        let xv = xv * 1.5;
                        tiles[1].set(i, j, yv);
                        tiles[0].set(i, j, xv);
                        if mask[j * nx + i] != 0 {
                            dot += xv * yv;
                        }
                    }
                }
                let mut p = [0.0; MAX_SWEEP_PARTIALS];
                p[0] = dot;
                p
            });
            world.record_allreduce(1);
            assert_eq!(x.to_global(), xu.to_global(), "fused x update differs");
            assert_eq!(y.to_global(), yu.to_global(), "fused y update differs");
            assert_eq!(acc[0].to_bits(), du.to_bits(), "fused dot differs");
            acc[0]
        };
        let ds = run(&CommWorld::serial());
        let dt = run(&CommWorld::threaded());
        assert_eq!(ds.to_bits(), dt.to_bits(), "policies must agree bitwise");
    }

    #[test]
    fn dot_fused_matches_dot_and_counts_once() {
        let g = Grid::gx1_scaled(4, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        let world = CommWorld::threaded();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 7 + j) as f64).sin());
        let a = world.dot(&v, &v);
        let before = world.stats();
        let b = world.dot_fused(&v, &v);
        let after = world.stats();
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(after.allreduces - before.allreduces, 1);
        assert_eq!(after.allreduce_scalars - before.allreduce_scalars, 1);
    }

    #[test]
    fn reduce_blocks_fused_combines_in_block_order() {
        let world = CommWorld::threaded();
        let n = 37;
        // Partials that are order-sensitive in floating point: combining in
        // any order other than 0..n would (with high probability) change the
        // bits. Compare against the explicit serial left-fold.
        let vals: Vec<f64> = (0..n)
            .map(|b| ((b * b) as f64 * 0.3).sin() * 1e10)
            .collect();
        let acc = world.reduce_blocks_fused(n, |b| {
            let mut p = [0.0; MAX_SWEEP_PARTIALS];
            p[0] = vals[b];
            p[1] = 2.0 * vals[b];
            p
        });
        let mut expect = [0.0; MAX_SWEEP_PARTIALS];
        for v in &vals {
            expect[0] += *v;
            expect[1] += 2.0 * *v;
        }
        assert_eq!(acc[0].to_bits(), expect[0].to_bits());
        assert_eq!(acc[1].to_bits(), expect[1].to_bits());
    }

    /// The one generic exchange is lane-transparent: every lane of a
    /// batched field comes out bitwise as the single-RHS exchange of its
    /// source, in the same messages carrying `width×` the bytes.
    #[test]
    fn halo_update_is_lane_transparent() {
        use crate::{BlockVec, MultiDistVec};
        use pop_simd::LANES;
        let g = Grid::gx1_scaled(21, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        for k in [1usize, 3, 5] {
            let width = k.next_multiple_of(LANES);
            for world in [CommWorld::serial(), CommWorld::threaded()] {
                let mut srcs: Vec<DistVec> = (0..k)
                    .map(|l| {
                        let mut v = DistVec::zeros(&layout);
                        // Stale halos, so the exchange has something to fix.
                        v.blocks.iter_mut().for_each(|b| b.fill(9.5));
                        v.fill_with(|i, j| ((1 + l) * (1 + i * 7 + j * 131)) as f64);
                        v
                    })
                    .collect();
                let mut mv = MultiDistVec::with_width(&layout, width);
                for (l, src) in srcs.iter().enumerate() {
                    for (mb, sb) in mv.blocks.iter_mut().zip(&src.blocks) {
                        mb.load_lane(l / LANES, l % LANES, sb);
                    }
                }
                world.halo_update(&mut mv);
                let multi = world.stats();
                for (l, src) in srcs.iter_mut().enumerate() {
                    world.reset_stats();
                    world.halo_update(src);
                    let single = world.stats();
                    assert_eq!(multi.halo_messages, single.halo_messages, "k={k}");
                    assert_eq!(multi.halo_bytes, width as u64 * single.halo_bytes, "k={k}");
                    for (mb, sb) in mv.blocks.iter().zip(&src.blocks) {
                        let mut got = BlockVec::zeros(sb.nx, sb.ny, sb.halo);
                        mb.store_lane(l / LANES, l % LANES, &mut got);
                        let bits =
                            |t: &BlockVec| t.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(sb), "k={k} lane {l}");
                    }
                }
            }
        }
    }
}
