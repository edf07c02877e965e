//! The rank runtime: every simulated MPI rank runs the same SPMD body over
//! its private blocks, exchanges real messages through the fabric (`fabric.rs`),
//! and carries a simulated clock charged by a [`NetworkModel`].
//!
//! # Execution model
//!
//! [`RankWorld::run`] starts one worker per rank — an OS thread in small
//! worlds, a cooperative fiber in large ones (`executor.rs` decides;
//! the choice is bitwise invisible). Each worker gets a [`RankComm`] — its
//! private communicator — and runs the body. A rank owns a private
//! [`RankVec`] slice of every field (the blocks the space-filling-curve
//! assignment gave it) and can only learn about remote data through
//! messages:
//!
//! - **Halo updates** run the layout's
//!   [`HaloPlan`](pop_comm::halo::HaloPlan) — the one
//!   [`CommWorld`](pop_comm::CommWorld) runs — over the rank's own tiles: a
//!   pull between two ranks' blocks travels as one point-to-point message,
//!   packed and unpacked by the plan's own row code, and a pull between one
//!   rank's blocks is a row copy that costs no wire time. Messages and bytes
//!   are counted as shared memory counts them. All this crate adds to the
//!   plan is who holds which block (`RankHalo`).
//! - **Global reductions** move per-block partial rows along the message
//!   schedule [`RankSimConfig::reduce_algo`] selects — a binomial
//!   gather/broadcast tree (`2·⌈log₂ p⌉` hops on the critical path, the
//!   `log₂ p` scaling the paper's reduction model assumes), a butterfly, or
//!   a node-aware mix of the two; see [`crate::collective`].
//!
//! # Simulated time
//!
//! Each rank carries a clock (seconds, starting at 0). Compute sweeps
//! advance it by `owned points × compute_per_point`; every message carries
//! an `avail_at` stamp of `sender clock + network cost`, and a receiver
//! waits by advancing its clock to the latest arrival it consumed. Causality
//! does the rest: reduction trees cost their critical path, neighbour skew
//! propagates, and an allreduce-per-iteration solver accumulates exactly
//! the latency the paper measures — while P-CSI's reduction-free loop body
//! accumulates none.
//!
//! # Determinism
//!
//! Reductions honour the [`Communicator`] contract: whichever rank holds
//! the complete set of `(global block id, partials)` rows places each into
//! a slot array and folds slots `0..n_blocks` left-to-right from zero —
//! bit-identical to [`CommWorld`](pop_comm::CommWorld)'s block-ordered
//! fold, for *any* rank count, block assignment or schedule.
//! `tests/ranksim_equivalence.rs` pins this.

use crate::collective::ReduceAlgo;
use crate::executor::{self, Executor};
use crate::fabric::{Fabric, HaloArrival, Mailbox, Msg, PoisonOnPanic, RowRope};
use crate::fault::{shuffle, FaultPlan};
use crate::net::NetworkModel;
use crate::trace::{Span, SpanKind};
use crate::vec::{RankField, RankVec};
use pop_comm::halo::Exchange;
use pop_comm::{
    masked_block_dot, CommVec, Communicator, DistLayout, DistVec, Group, StatsSnapshot,
    SweepPartials, Tile, GROUP_BLOCKS, MAX_SWEEP_PARTIALS,
};
use pop_grid::sfc::CurveKind;
use pop_grid::RankAssignment;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning knobs of the simulation (the network model rides separately).
#[derive(Debug, Clone, Copy)]
pub struct RankSimConfig {
    /// Seconds of simulated compute charged per owned grid point per fused
    /// sweep (and per dot sweep). Zero leaves the clock to communication.
    pub compute_per_point: f64,
    /// Record per-rank [`Span`]s for the Chrome trace dump.
    pub record_trace: bool,
    /// Seeded network fault plan; [`FaultPlan::none()`] leaves the runtime
    /// bit-for-bit identical to one without a fault layer.
    pub faults: FaultPlan,
    /// Which allreduce exchange pattern collectives execute
    /// ([`ReduceAlgo::Auto`] picks per collective from ranks, payload, and
    /// the network's node topology). Every algorithm folds the same rows in
    /// the same block order, so this changes simulated time only.
    pub reduce_algo: ReduceAlgo,
    /// Split-phase halo exchange: `Communicator::halo_sweep_fused` charges
    /// the interior stencil points *concurrently* with strip flight time,
    /// waiting only before the halo-reading edge points. Numerics are
    /// unchanged (the sweep still runs in canonical block order after every
    /// strip arrives); only the simulated clocks see the overlap.
    pub overlap_halo: bool,
}

impl Default for RankSimConfig {
    fn default() -> Self {
        RankSimConfig {
            compute_per_point: 0.0,
            record_trace: false,
            faults: FaultPlan::none(),
            reduce_algo: ReduceAlgo::Binomial,
            overlap_halo: false,
        }
    }
}

impl RankSimConfig {
    /// Charge compute from a calibrated machine: a fused solver sweep costs
    /// roughly 25 flops per point (nine-point stencil multiply–adds plus
    /// the fused vector updates) at the machine's effective `theta`.
    pub fn modeled(m: &pop_perfmodel::machine::MachineModel) -> Self {
        RankSimConfig {
            compute_per_point: 25.0 * m.theta,
            ..RankSimConfig::default()
        }
    }

    /// This config with a fault plan installed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// This config with a collective algorithm selected.
    pub fn with_reduce_algo(mut self, algo: ReduceAlgo) -> Self {
        self.reduce_algo = algo;
        self
    }

    /// This config with split-phase halo/compute overlap toggled.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_halo = overlap;
        self
    }
}

/// One rank's share of the layout's halo exchange, as pull ids of its
/// [`HaloPlan`](pop_comm::halo::HaloPlan) in plan order. Built once per
/// world from the plan and the rank assignment. Pulls between the rank's
/// own blocks need no list: [`Exchange::run_block`] copies every pull whose
/// source tile it holds.
#[derive(Debug, Default)]
struct RankHalo {
    /// Pulls whose source this rank holds and whose destination another
    /// rank does, with that rank — in plan order, the order their sequence
    /// numbers (and so their fault draws) are allocated in.
    sends: Vec<(usize, usize)>,
    /// Pulls into this rank's rings out of other ranks' blocks.
    recvs: Vec<usize>,
    /// Messages and points of one exchange, counted as
    /// [`CommWorld`](pop_comm::CommWorld) counts them: every pull into this
    /// rank's rings, rank-local ones included.
    messages: u64,
    points: u64,
}

impl RankHalo {
    /// Every rank's share of `layout`'s exchange under `ra`.
    fn split(layout: &DistLayout, ra: &RankAssignment) -> Vec<RankHalo> {
        let mut halos: Vec<RankHalo> = (0..ra.p).map(|_| RankHalo::default()).collect();
        for (id, r) in layout.halo_plan.routes().enumerate() {
            let (from, to) = (ra.rank_of_block[r.src], ra.rank_of_block[r.dst]);
            let h = &mut halos[to];
            h.messages += 1;
            h.points += r.points as u64;
            if from != to {
                h.recvs.push(id);
                halos[from].sends.push((id, to));
            }
        }
        halos
    }
}

/// Per-rank communication counters (single-threaded, hence `Cell`s).
#[derive(Debug, Default)]
struct LocalStats {
    halo_updates: Cell<u64>,
    halo_messages: Cell<u64>,
    halo_bytes: Cell<u64>,
    allreduces: Cell<u64>,
    allreduce_scalars: Cell<u64>,
    /// Collective (allreduce) messages this rank put on the wire.
    allreduce_steps: Cell<u64>,
    /// Modelled payload bytes of those messages — what distinguishes
    /// Rabenseifner's halving schedule from full-payload exchanges.
    allreduce_bytes_on_wire: Cell<u64>,
    /// Retransmissions this rank performed as a sender (fault plan).
    retries: Cell<u64>,
    /// Poisoned halo strips this rank received (corruption or exhausted
    /// retry budget), surfaced instead of panicking.
    delivery_failures: Cell<u64>,
}

/// The handle a fused sweep returns under the rank runtime: the per-block
/// partial rows, kept un-reduced so [`Communicator::reduce_sweep`] can run
/// the real collective (and can run it again — each call is a fresh tree).
pub struct RankSweep {
    rows: Vec<(u32, SweepPartials)>,
}

/// One simulated rank's communicator: private blocks, the shared fabric, a
/// mailbox, a clock. Not `Sync` — it lives on its rank's thread or fiber.
pub struct RankComm {
    rank: usize,
    p: usize,
    pub(crate) layout: Arc<DistLayout>,
    owned: Arc<Vec<usize>>,
    local_of: Arc<Vec<u32>>,
    /// Sum of owned blocks' interior extents, for compute charging.
    owned_points: f64,
    /// Of `owned_points`, the points whose nine-point stencil reads no halo
    /// cell (each block's core, one ring in from its interior edge) — the
    /// work a split-phase sweep can do while strips are in flight.
    owned_core_points: f64,
    /// The halo-adjacent remainder (`owned_points − owned_core_points`),
    /// charged after the strips land.
    owned_edge_points: f64,
    halos: Arc<[RankHalo]>,
    pub(crate) net: Arc<dyn NetworkModel>,
    cfg: RankSimConfig,
    pub(crate) fabric: Arc<Fabric>,
    inbox: RefCell<Mailbox>,
    clock: Cell<f64>,
    halo_epoch: Cell<u64>,
    reduce_epoch: Cell<u64>,
    /// Next sequence number per directed link `self → dst` (seqs start
    /// at 1; 0 means nothing sent yet). Keyed lazily for the same O(p²)
    /// reason as `Mailbox::seen`.
    next_seq: RefCell<HashMap<u32, u64>>,
    /// Monotone operation counter keying stall draws.
    fault_op: Cell<u64>,
    stats: LocalStats,
    spans: RefCell<Vec<Span>>,
    pub(crate) fold_scratch: RefCell<Vec<SweepPartials>>,
}

impl RankComm {
    /// This rank's id, `0..n_ranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of simulated ranks in the world.
    pub fn n_ranks(&self) -> usize {
        self.p
    }

    /// Global ids of the blocks this rank owns, sorted ascending.
    pub fn owned_blocks(&self) -> &[usize] {
        &self.owned
    }

    /// Current simulated time on this rank's clock (s).
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// A zeroed rank-private vector over this rank's blocks.
    pub fn zeros(&self) -> RankVec {
        RankVec::zeros(&self.layout, &self.owned, &self.local_of, 1)
    }

    /// Copy this rank's slice out of a full shared-memory vector (the
    /// "initial scatter" a real MPI run would do once at startup).
    pub fn import(&self, src: &DistVec) -> RankVec {
        assert!(
            Arc::ptr_eq(&self.layout, &src.layout),
            "import source uses a different layout"
        );
        RankVec::from_dist(src, &self.owned, &self.local_of)
    }

    /// Allocate the next sequence number on the link to `dst` and draw the
    /// plan's faults for that message. Retries are charged here (the sender
    /// performed them).
    fn next_message(&self, dst: usize, data_plane: bool) -> (u64, crate::fault::MessageFaults) {
        let mut seqs = self.next_seq.borrow_mut();
        let counter = seqs.entry(dst as u32).or_insert(0);
        *counter += 1;
        let seq = *counter;
        let f = self.cfg.faults.message(self.rank, dst, seq, data_plane);
        if f.retries > 0 {
            self.stats
                .retries
                .set(self.stats.retries.get() + u64::from(f.retries));
        }
        (seq, f)
    }

    /// Draw (and charge) a whole-rank stall for the next halo/reduction
    /// operation.
    fn charge_stall(&self) {
        let op = self.fault_op.get();
        self.fault_op.set(op + 1);
        let s = self.cfg.faults.stall(self.rank, op);
        if s > 0.0 {
            let t0 = self.clock.get();
            self.clock.set(t0 + s);
            self.push_span(SpanKind::Stall, t0, t0 + s);
        }
    }

    fn push_span(&self, kind: SpanKind, t0: f64, t1: f64) {
        if self.cfg.record_trace {
            self.spans.borrow_mut().push(Span { kind, t0, t1 });
        }
    }

    /// Advance the clock by `dt` of local work.
    fn charge_compute(&self) {
        let t0 = self.clock.get();
        let t1 = t0 + self.owned_points * self.cfg.compute_per_point;
        self.clock.set(t1);
        self.push_span(SpanKind::Compute, t0, t1);
    }

    fn check_view<T: Tile>(&self, v: &RankField<T>) {
        assert!(
            Arc::ptr_eq(&self.layout, v.layout()),
            "operand uses a different layout"
        );
        assert!(
            Arc::ptr_eq(&self.owned, v.owned_arc()),
            "operand belongs to a different rank's view"
        );
    }

    /// Charge one collective hop of `bytes` modelled payload to world rank
    /// `dst` on the (topology-aware) network, count it on the wire, and post
    /// the message `msg` builds from its arrival time.
    fn send_collective(&self, dst: usize, bytes: usize, msg: impl FnOnce(f64) -> Msg) {
        let (seq, f) = self.next_message(dst, false);
        let avail = self.clock.get() + self.net.hop_between(self.rank, dst, bytes) + f.extra_delay;
        let stats = &self.stats;
        stats.allreduce_steps.set(stats.allreduce_steps.get() + 1);
        stats
            .allreduce_bytes_on_wire
            .set(stats.allreduce_bytes_on_wire.get() + bytes as u64);
        self.fabric
            .post(self.rank, dst, seq, f.duplicate, msg(avail));
    }

    /// Send partial rows to world rank `dst` under reorder-buffer slot
    /// `round` (a butterfly stage index, `GATHER_ROUND` or `PREAMBLE_ROUND`).
    pub(crate) fn send_rows(
        &self,
        dst: usize,
        epoch: u64,
        round: u32,
        rows: RowRope,
        bytes: usize,
    ) {
        self.send_collective(dst, bytes, |avail_at| Msg::Rows {
            epoch,
            round,
            rows,
            avail_at,
        });
    }

    /// Send the folded result down to world rank `dst`.
    pub(crate) fn send_result(&self, dst: usize, epoch: u64, vals: SweepPartials, bytes: usize) {
        self.send_collective(dst, bytes, |avail_at| Msg::Bcast {
            epoch,
            vals: Box::new(vals),
            avail_at,
        });
    }

    /// Receive the rows world rank `from` sent under `round`, advancing the
    /// clock to their arrival.
    pub(crate) fn recv_rows(&self, epoch: u64, round: u32, from: usize) -> RowRope {
        let (rows, avail) = self.inbox.borrow_mut().recv_rows(epoch, round, from as u32);
        self.clock.set(self.clock.get().max(avail));
        rows
    }

    /// Receive the folded result, advancing the clock to its arrival.
    pub(crate) fn recv_result(&self, epoch: u64) -> SweepPartials {
        let (vals, avail) = self.inbox.borrow_mut().recv_bcast(epoch);
        self.clock.set(self.clock.get().max(avail));
        vals
    }

    /// One allreduce of this rank's per-block `rows`, as the solvers see it:
    /// stall draw, counters, a fresh reduce epoch, the message schedule
    /// [`RankSimConfig::reduce_algo`] resolves to for this payload (run by
    /// `collective.rs`), and the span it took on the simulated clock.
    fn reduce_rows(&self, rows: &[(u32, SweepPartials)], scalars: u64) -> SweepPartials {
        self.charge_stall();
        self.stats.allreduces.set(self.stats.allreduces.get() + 1);
        self.stats
            .allreduce_scalars
            .set(self.stats.allreduce_scalars.get() + scalars);
        let epoch = self.reduce_epoch.get();
        self.reduce_epoch.set(epoch + 1);
        let t0 = self.clock.get();
        let algo = self
            .cfg
            .reduce_algo
            .resolve(self.p, scalars, self.net.ranks_per_node());
        let result = self.allreduce(algo, epoch, rows, scalars);
        self.push_span(SpanKind::Allreduce, t0, self.clock.get());
        result
    }

    /// The wire phase of a halo exchange, on the layout's plan: post every
    /// pull another rank's ring waits for, run the owned blocks (fills
    /// zeroed, rank-local pulls copied), unpack every arrival over them, and
    /// count messages/bytes. Returns the latest arrival time *without*
    /// touching the clock or pushing spans — callers decide whether the
    /// wait is eager ([`Communicator::halo_update`]) or overlapped with
    /// interior compute (`halo_sweep_fused` under
    /// [`RankSimConfig::overlap_halo`]).
    fn halo_exchange_data<T: Tile>(&self, v: &mut RankField<T>) -> f64 {
        let epoch = self.halo_epoch.get();
        self.halo_epoch.set(epoch + 1);
        self.stats
            .halo_updates
            .set(self.stats.halo_updates.get() + 1);
        let halo = &self.halos[self.rank];
        let width = v.width();
        let mut exchange = Exchange::begin(&self.layout.halo_plan, T::POINT_WIDTH, width);
        for (&b, tile) in self.owned.iter().zip(v.blocks.iter_mut()) {
            exchange.push(b, tile.raw_mut());
        }

        // Post all sends first so no pair of ranks can deadlock. Sequence
        // numbers are allocated in plan order (the logical send order); a
        // reorder fault only permutes the physical posting of this one
        // burst, so no strip is ever held back across epochs.
        let mut burst: Vec<(usize, u64, bool, Msg)> = Vec::with_capacity(halo.sends.len());
        for &(id, dst_rank) in &halo.sends {
            let mut data = exchange.pack(id);
            let (seq, f) = self.next_message(dst_rank, true);
            if f.poison {
                data.fill(f64::NAN);
            }
            let avail = self.clock.get()
                + self.net.p2p_between(self.rank, dst_rank, data.len() * 8)
                + f.extra_delay;
            burst.push((
                dst_rank,
                seq,
                f.duplicate,
                Msg::Halo {
                    epoch,
                    pull: id as u32,
                    data,
                    poisoned: f.poison,
                    avail_at: avail,
                },
            ));
        }
        if let Some(shuffle_seed) = self.cfg.faults.reorder(self.rank, epoch) {
            shuffle(&mut burst, shuffle_seed);
        }
        for (dst, seq, dup, msg) in burst {
            self.fabric.post(self.rank, dst, seq, dup, msg);
        }

        for &b in self.owned.iter() {
            exchange.run_block(b);
        }

        let mut arrive = self.clock.get();
        for &id in &halo.recvs {
            let HaloArrival {
                data,
                avail_at,
                poisoned,
            } = self.inbox.borrow_mut().recv_halo(epoch, id as u32);
            if poisoned {
                // Surfaced, not panicked: the NaN strip propagates into the
                // next residual reduction, where the solvers' recovery
                // logic restarts every rank in lockstep.
                self.stats
                    .delivery_failures
                    .set(self.stats.delivery_failures.get() + 1);
            }
            exchange.unpack(id, &data);
            arrive = arrive.max(avail_at);
        }

        // Only the *wire time* distinguishes a remote pull from a local one.
        self.stats
            .halo_messages
            .set(self.stats.halo_messages.get() + halo.messages);
        self.stats.halo_bytes.set(
            self.stats.halo_bytes.get() + halo.points * (width * std::mem::size_of::<f64>()) as u64,
        );
        arrive
    }

    /// The fused-sweep loop with no compute charge: the layout's sweep
    /// groups, cut to the blocks this rank owns, handed to the kernel in
    /// ascending block order (a member another rank owns is `None`). Callers
    /// charge the clock themselves ([`Communicator::for_each_group_fused`]
    /// charges the whole sweep after; the split-phase path charges core and
    /// edge points around the strip wait instead).
    fn sweep_groups<T: Tile, const M: usize, F>(
        &self,
        mut muts: [&mut RankField<T>; M],
        kernel: F,
    ) -> RankSweep
    where
        F: Fn(&mut Group<'_, T, M>),
    {
        assert!(M > 0, "fused sweep needs a mutable operand");
        for v in &muts {
            self.check_view(v);
        }
        let groups = &self.layout.groups;
        let bases: [*mut T; M] = muts.each_mut().map(|v| v.blocks.as_mut_ptr());
        let mut rows = Vec::with_capacity(self.owned.len());
        let mut partials = [[0.0; MAX_SWEEP_PARTIALS]; GROUP_BLOCKS];
        let mut li = 0;
        while li < self.owned.len() {
            // The owned members of one group: a run of `owned`.
            let span = groups.range(groups.of(self.owned[li]));
            let end = li
                + self.owned[li..]
                    .iter()
                    .take_while(|&&gb| gb < span.end)
                    .count();
            let mut tiles: [Option<[&mut T; M]>; GROUP_BLOCKS] = Default::default();
            for (at, &gb) in (li..end).zip(&self.owned[li..end]) {
                // SAFETY: distinct `&mut RankField` operands are disjoint by
                // the borrow checker, the loop is single-threaded, and each
                // local index names a distinct tile of each operand.
                tiles[gb - span.start] =
                    Some(std::array::from_fn(|m| unsafe { &mut *bases[m].add(at) }));
            }
            let mut group = Group::new(span.start, tiles, &mut partials[..span.len()]);
            kernel(&mut group);
            for &gb in &self.owned[li..end] {
                rows.push((gb as u32, group.row(gb - span.start)));
            }
            li = end;
        }
        RankSweep { rows }
    }

    fn into_report<R>(self, result: R) -> RankReport<R> {
        RankReport {
            rank: self.rank,
            clock: self.clock.get(),
            stats: Communicator::stats(&self),
            spans: self.spans.into_inner(),
            result,
        }
    }
}

impl Communicator for RankComm {
    type Vec<T: Tile> = RankField<T>;
    type Sweep = RankSweep;

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            halo_updates: self.stats.halo_updates.get(),
            halo_messages: self.stats.halo_messages.get(),
            halo_bytes: self.stats.halo_bytes.get(),
            allreduces: self.stats.allreduces.get(),
            allreduce_scalars: self.stats.allreduce_scalars.get(),
            allreduce_steps: self.stats.allreduce_steps.get(),
            allreduce_bytes_on_wire: self.stats.allreduce_bytes_on_wire.get(),
            barriers: 0,
            retries: self.stats.retries.get(),
            duplicates: self.inbox.borrow().duplicates,
            delivery_failures: self.stats.delivery_failures.get(),
        }
    }

    fn alloc<T: Tile>(&self, model: &RankVec, width: usize) -> RankField<T> {
        self.check_view(model);
        RankField::zeros(&self.layout, &self.owned, &self.local_of, width)
    }

    /// The halo exchange as real point-to-point traffic: post every remote
    /// pull as a message, copy rank-local pulls directly, then wait for
    /// the expected arrivals and advance the clock to the latest one. A
    /// `k`-wide field uses the same plan, epochs and one `Msg::Halo` per
    /// pull, each payload carrying all `k` values of its points (`k×`
    /// bytes, message count flat in `k`). A halo epoch is globally one
    /// width (SPMD lockstep), so payload shapes never mix.
    fn halo_update<T: Tile>(&self, v: &mut RankField<T>) {
        self.check_view(v);
        self.charge_stall();
        let t0 = self.clock.get();
        let arrive = self.halo_exchange_data(v);
        self.clock.set(arrive);
        self.push_span(SpanKind::Halo, t0, self.clock.get());
    }

    /// Split-phase halo + sweep. With [`RankSimConfig::overlap_halo`] off
    /// this is the trait default (eager wait, then the whole sweep); with it
    /// on, the strips fly while the interior core points are charged, the
    /// clock waits only for the *later* of core-compute-done and
    /// last-strip-arrival, and the halo-reading edge points are charged
    /// after. The numeric sweep is untouched — it still runs over every
    /// block in canonical order with all halos in place — so results are
    /// bit-identical; only the simulated clocks (and the span shapes) see
    /// the overlap. Total charged compute equals the eager path's, hence
    /// overlap can only ever *shorten* the simulated iteration.
    fn halo_sweep_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut RankField<T>; M],
        kernel: F,
    ) -> RankSweep
    where
        F: Fn(&mut Group<'_, T, M>) + Sync,
    {
        if !self.cfg.overlap_halo {
            self.halo_update(&mut *muts[0]);
            return self.for_each_group_fused(muts, kernel);
        }
        self.check_view(&*muts[0]);
        self.charge_stall();
        let t0 = self.clock.get();
        let arrive = self.halo_exchange_data(&mut *muts[0]);
        // Core points (no halo cell in their stencil) run while strips fly.
        let t1 = t0 + self.owned_core_points * self.cfg.compute_per_point;
        self.push_span(SpanKind::Compute, t0, t1);
        // Wait only for whatever flight time the core sweep didn't cover.
        let t2 = t1.max(arrive);
        self.push_span(SpanKind::Halo, t1, t2);
        // Edge points need the halos; they finish the sweep.
        let t3 = t2 + self.owned_edge_points * self.cfg.compute_per_point;
        self.push_span(SpanKind::Compute, t2, t3);
        self.clock.set(t3);
        self.sweep_groups(muts, kernel)
    }

    fn for_each_group_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut RankField<T>; M],
        kernel: F,
    ) -> RankSweep
    where
        F: Fn(&mut Group<'_, T, M>) + Sync,
    {
        let sweep = self.sweep_groups(muts, kernel);
        self.charge_compute();
        sweep
    }

    fn reduce_sweep(&self, sweep: &RankSweep, scalars: u64) -> SweepPartials {
        self.reduce_rows(&sweep.rows, scalars)
    }

    fn dot_fused(&self, x: &RankVec, y: &RankVec) -> f64 {
        self.check_view(x);
        self.check_view(y);
        let rows: Vec<(u32, SweepPartials)> = self
            .owned
            .iter()
            .map(|&gb| {
                let mut p = [0.0; MAX_SWEEP_PARTIALS];
                p[0] = masked_block_dot(x.block(gb), y.block(gb), &self.layout.masks[gb]);
                (gb as u32, p)
            })
            .collect();
        self.charge_compute();
        self.reduce_rows(&rows, 1)[0]
    }
}

/// What one rank produced: its result, final clock, counters, and trace.
#[derive(Debug)]
pub struct RankReport<R> {
    pub rank: usize,
    /// Final simulated time on this rank's clock (s).
    pub clock: f64,
    /// This rank's communication counters.
    pub stats: StatsSnapshot,
    /// Recorded spans (empty unless [`RankSimConfig::record_trace`]).
    pub spans: Vec<Span>,
    pub result: R,
}

/// Simulated wall time of a run: the slowest rank's clock.
pub fn sim_time<R>(reports: &[RankReport<R>]) -> f64 {
    reports.iter().fold(0.0, |t, r| t.max(r.clock))
}

/// The world: a layout, a rank assignment, a network model. Reusable —
/// each [`RankWorld::run`] starts a fresh set of ranks on a fresh fabric.
#[derive(Debug)]
pub struct RankWorld {
    layout: Arc<DistLayout>,
    assignment: Arc<RankAssignment>,
    net: Arc<dyn NetworkModel>,
    cfg: RankSimConfig,
    /// Per rank: its share of the layout's halo exchange.
    halos: Arc<[RankHalo]>,
    /// Per rank: owned global block ids, sorted ascending.
    owned: Vec<Arc<Vec<usize>>>,
    /// Per rank: global block id -> local index (or `u32::MAX`).
    local_of: Vec<Arc<Vec<u32>>>,
}

impl RankWorld {
    /// Assign the layout's blocks to `p` ranks along a Hilbert curve
    /// (POP's production choice) and build the world.
    pub fn new(
        layout: &Arc<DistLayout>,
        p: usize,
        net: Arc<dyn NetworkModel>,
        cfg: RankSimConfig,
    ) -> Self {
        let assignment = layout.decomp.assign_ranks(p, CurveKind::Hilbert);
        Self::with_assignment(layout, assignment, net, cfg)
    }

    /// Build the world over an explicit block-to-rank assignment.
    pub fn with_assignment(
        layout: &Arc<DistLayout>,
        assignment: RankAssignment,
        net: Arc<dyn NetworkModel>,
        cfg: RankSimConfig,
    ) -> Self {
        let n = layout.n_blocks();
        assert_eq!(
            assignment.rank_of_block.len(),
            n,
            "assignment does not cover the layout's blocks"
        );
        let halos = RankHalo::split(layout, &assignment).into();
        let mut owned = Vec::with_capacity(assignment.p);
        let mut local_of = Vec::with_capacity(assignment.p);
        for r in 0..assignment.p {
            let mut blocks = assignment.blocks_of_rank[r].clone();
            blocks.sort_unstable();
            let mut map = vec![u32::MAX; n];
            for (li, &gb) in blocks.iter().enumerate() {
                map[gb] = li as u32;
            }
            owned.push(Arc::new(blocks));
            local_of.push(Arc::new(map));
        }
        RankWorld {
            layout: Arc::clone(layout),
            assignment: Arc::new(assignment),
            net,
            cfg,
            halos,
            owned,
            local_of,
        }
    }

    /// Number of simulated ranks.
    pub fn n_ranks(&self) -> usize {
        self.assignment.p
    }

    /// The block-to-rank assignment driving this world.
    pub fn assignment(&self) -> &RankAssignment {
        &self.assignment
    }

    /// The layout this world distributes.
    pub fn layout(&self) -> &Arc<DistLayout> {
        &self.layout
    }

    /// The simulation config this world runs under.
    pub fn sim_config(&self) -> RankSimConfig {
        self.cfg
    }

    /// Run `body` as an SPMD program: one worker per rank (threads or
    /// fibers, by world size), each with its own [`RankComm`]. Returns the
    /// per-rank reports in rank order. A panic in any rank unwinds its
    /// blocked peers and propagates; the world stays usable.
    pub fn run<R, F>(&self, body: F) -> Vec<RankReport<R>>
    where
        R: Send,
        F: Fn(&RankComm) -> R + Sync,
    {
        self.run_on(Executor::for_world(self.assignment.p), body)
    }

    /// [`RankWorld::run`] on a given executor (the equivalence tests pin
    /// each side).
    fn run_on<R, F>(&self, executor: Executor, body: F) -> Vec<RankReport<R>>
    where
        R: Send,
        F: Fn(&RankComm) -> R + Sync,
    {
        let p = self.assignment.p;
        let fabric = Arc::new(Fabric::new(p));
        let body = &body;
        let workers: Vec<_> = (0..p)
            .map(|r| {
                let fabric = Arc::clone(&fabric);
                move || {
                    // If this rank's body panics, poison the fabric so
                    // every peer blocked on a receive fails fast instead
                    // of deadlocking the world.
                    let _guard = PoisonOnPanic(Arc::clone(&fabric));
                    let info = &self.layout.decomp.blocks;
                    let mut owned_points = 0.0;
                    let mut owned_core_points = 0.0;
                    for &gb in self.owned[r].iter() {
                        let (nx, ny) = (info[gb].nx, info[gb].ny);
                        owned_points += (nx * ny) as f64;
                        owned_core_points += (nx.saturating_sub(2) * ny.saturating_sub(2)) as f64;
                    }
                    let comm = RankComm {
                        rank: r,
                        p,
                        layout: Arc::clone(&self.layout),
                        owned: Arc::clone(&self.owned[r]),
                        local_of: Arc::clone(&self.local_of[r]),
                        owned_points,
                        owned_core_points,
                        owned_edge_points: owned_points - owned_core_points,
                        halos: Arc::clone(&self.halos),
                        net: Arc::clone(&self.net),
                        cfg: self.cfg,
                        fabric: Arc::clone(&fabric),
                        inbox: RefCell::new(Mailbox::new(fabric, r)),
                        clock: Cell::new(0.0),
                        halo_epoch: Cell::new(0),
                        reduce_epoch: Cell::new(0),
                        next_seq: RefCell::new(HashMap::new()),
                        fault_op: Cell::new(0),
                        stats: LocalStats::default(),
                        spans: RefCell::new(Vec::new()),
                        fold_scratch: RefCell::new(Vec::new()),
                    };
                    let result = body(&comm);
                    comm.into_report(result)
                }
            })
            .collect();
        // A rank that cannot be started, or a protocol deadlock the fiber
        // scheduler detects, must not leave its peers waiting forever.
        executor::run_all(executor, workers, || fabric.poison())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LatencyBandwidth, ZeroCost};
    use pop_comm::{BlockVec, CommWorld};
    use pop_grid::Grid;
    use pop_perfmodel::machine::MachineModel;

    fn layout() -> Arc<DistLayout> {
        let g = Grid::gx1_scaled(7, 60, 48);
        DistLayout::build(&g, 10, 8)
    }

    fn world(layout: &Arc<DistLayout>, p: usize) -> RankWorld {
        RankWorld::new(layout, p, Arc::new(ZeroCost), RankSimConfig::default())
    }

    /// The binomial-tree allreduce must reproduce CommWorld's block-ordered
    /// fold bit-for-bit at every rank count, including non-powers of two.
    #[test]
    fn tree_reduce_matches_shared_memory_fold() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 13 + j * 7) as f64 * 0.03).sin() * 1e8);
        let want = CommWorld::dot_fused(&shared, &v, &v);

        for p in [1, 2, 3, 5, 8, 13, 16] {
            let w = world(&layout, p);
            let reports = w.run(|comm| {
                let rv = comm.import(&v);
                comm.dot_fused(&rv, &rv)
            });
            assert_eq!(reports.len(), p);
            for rep in &reports {
                assert_eq!(
                    rep.result.to_bits(),
                    want.to_bits(),
                    "p={p} rank {} disagrees with shared-memory fold",
                    rep.rank
                );
                assert_eq!(rep.stats.allreduces, 1);
                assert_eq!(rep.stats.allreduce_scalars, 1);
            }
        }
    }

    fn custom_grid(
        nx: usize,
        ny: usize,
        periodic: bool,
        ocean: impl Fn(usize, usize) -> bool,
    ) -> Grid {
        use pop_grid::{Bathymetry, GridKind, Metrics};
        let depth = (0..nx * ny)
            .map(|k| if ocean(k % nx, k / nx) { 300.0 } else { 0.0 })
            .collect();
        Grid::from_parts(
            GridKind::Custom,
            Metrics::uniform(nx, ny, 5.0e4),
            &Bathymetry { nx, ny, depth },
            periodic,
        )
    }

    /// The layouts where halo geometry bites (the custom grids of
    /// `pop-comm`'s cell-by-cell exchange oracle), this module's regular
    /// one, and the layouts of the four gated benchmark workloads.
    fn exchange_layouts() -> Vec<(&'static str, Arc<DistLayout>)> {
        let narrow = custom_grid(17, 12, true, |_, j| (1..11).contains(&j));
        let wide = custom_grid(12, 18, true, |i, j| (i + 2 * j) % 7 != 0);
        let column = custom_grid(1, 8, true, |_, _| true);
        let islands = custom_grid(30, 12, false, |i, j| {
            (4..8).contains(&j) && (i / 6) % 2 == 1
        });
        let column_decomp = pop_grid::Decomposition::new(&column, 1, 4);
        vec![
            (
                "edge block narrower than the halo",
                DistLayout::new(&narrow, pop_grid::Decomposition::new(&narrow, 8, 6), 2),
            ),
            (
                "edge block one column wide",
                DistLayout::build(&narrow, 8, 6),
            ),
            ("periodic, one block wide", DistLayout::build(&wide, 12, 6)),
            (
                "periodic, one column",
                DistLayout::new(&column, column_decomp, 2),
            ),
            (
                "every neighbour eliminated",
                DistLayout::build(&islands, 6, 4),
            ),
            ("gx1 scaled 10x8", layout()),
            ("gx1 40x48", DistLayout::build(&Grid::gx1(2015), 40, 48)),
            (
                "0.1deg 45x30",
                DistLayout::build(&Grid::gx01_scaled(2015, 900, 600), 45, 30),
            ),
            (
                "gyre 16x12",
                DistLayout::build(&Grid::idealized_basin(64, 48, 500.0, 2.0e4), 16, 12),
            ),
            (
                "serve 8x8",
                DistLayout::build(&Grid::gx1_scaled(2015, 96, 80), 8, 8),
            ),
        ]
    }

    /// The message-passing exchange leaves every tile bitwise as the
    /// shared-memory exchange does — starting from stale halos, so a ring
    /// part neither pulled nor filled would show — single-RHS and five
    /// lanes wide, from one rank (every pull local, self-pulls included) to
    /// more ranks than blocks, on both executors; and the ranks' message and
    /// byte counts sum to the plan's.
    #[test]
    fn halo_exchange_matches_shared_memory() {
        use crate::vec::MultiRankVec;
        use pop_simd::LANES;
        let shared = CommWorld::serial();
        let bits = |t: &BlockVec| t.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (name, layout) in exchange_layouts() {
            let n = layout.n_blocks();
            for k in [1usize, 5] {
                let width = if k == 1 { 1 } else { k.next_multiple_of(LANES) };
                let srcs: Vec<DistVec> = (0..k)
                    .map(|l| {
                        let mut v = DistVec::zeros(&layout);
                        v.blocks.iter_mut().for_each(|b| b.fill(9.5));
                        v.fill_with(|i, j| ((1 + l) * (1 + i * 7 + j * 131)) as f64);
                        v
                    })
                    .collect();
                let want: Vec<DistVec> = srcs
                    .iter()
                    .map(|src| {
                        let mut v = src.clone();
                        shared.halo_update(&mut v);
                        v
                    })
                    .collect();
                for p in [1, 2, 3, n + 3] {
                    for exec in executors() {
                        let w = world(&layout, p);
                        let reports = w.run_on(exec, |comm| {
                            // Every owned block's lanes after one exchange.
                            let lanes: Vec<(usize, Vec<BlockVec>)> = if k == 1 {
                                let mut rv = comm.import(&srcs[0]);
                                comm.halo_update(&mut rv);
                                rv.into_blocks()
                                    .into_iter()
                                    .map(|(gb, t)| (gb, vec![t]))
                                    .collect()
                            } else {
                                let mut mv: MultiRankVec = comm.alloc(&comm.zeros(), width);
                                for (l, src) in srcs.iter().enumerate() {
                                    for &gb in comm.owned_blocks() {
                                        mv.block_mut(gb).load_lane(
                                            l / LANES,
                                            l % LANES,
                                            &src.blocks[gb],
                                        );
                                    }
                                }
                                comm.halo_update(&mut mv);
                                mv.into_blocks()
                                    .into_iter()
                                    .map(|(gb, mb)| {
                                        let lane = |l: usize| {
                                            let mut t = srcs[l].blocks[gb].clone();
                                            mb.store_lane(l / LANES, l % LANES, &mut t);
                                            t
                                        };
                                        (gb, (0..k).map(lane).collect())
                                    })
                                    .collect()
                            };
                            (comm.stats(), lanes)
                        });
                        let tag = format!("{name} k={k} p={p} {exec:?}");
                        let (mut msgs, mut bytes, mut seen) = (0, 0, 0);
                        for rep in reports {
                            let (stats, blocks) = rep.result;
                            assert_eq!(stats.halo_updates, 1, "{tag}");
                            msgs += stats.halo_messages;
                            bytes += stats.halo_bytes;
                            for (gb, lanes) in blocks {
                                seen += 1;
                                for (l, t) in lanes.iter().enumerate() {
                                    assert_eq!(
                                        bits(t),
                                        bits(&want[l].blocks[gb]),
                                        "{tag}: block {gb} lane {l} differs"
                                    );
                                }
                            }
                        }
                        assert_eq!(seen, n, "{tag}: blocks");
                        assert_eq!(msgs, layout.halo_plan.messages(), "{tag}: messages");
                        assert_eq!(bytes, layout.halo_plan.bytes(width), "{tag}: bytes");
                    }
                }
            }
        }
    }

    /// The one generic exchange is lane-transparent under message passing
    /// too: every lane of a batched field comes out bitwise as the
    /// shared-memory single-RHS exchange of its source, each rank sending
    /// the same messages with `width×` the bytes — with idle ranks in the
    /// world and under a benign (delay + reorder + duplicate) fault plan.
    #[test]
    fn halo_update_is_lane_transparent() {
        use crate::fault::FaultConfig;
        use crate::vec::MultiRankVec;
        use pop_simd::LANES;
        let layout = layout();
        let shared = CommWorld::serial();
        let quiet = RankSimConfig::default();
        let benign = quiet.with_faults(FaultPlan::seeded(2015, FaultConfig::benign()));
        for k in [1usize, 3, 5] {
            let width = k.next_multiple_of(LANES);
            // Stale halos everywhere, so the exchange has something to fix.
            let srcs: Vec<DistVec> = (0..k)
                .map(|l| {
                    let mut v = DistVec::zeros(&layout);
                    v.blocks.iter_mut().for_each(|b| b.fill(9.5));
                    v.fill_with(|i, j| ((1 + l) * (1 + i * 7 + j * 131)) as f64);
                    v
                })
                .collect();
            let want: Vec<DistVec> = srcs
                .iter()
                .map(|src| {
                    let mut v = src.clone();
                    shared.halo_update(&mut v);
                    v
                })
                .collect();
            let cases = [
                (1, quiet),
                (3, quiet),
                (3, benign),
                (layout.n_blocks() + 3, quiet),
            ];
            for (p, cfg) in cases {
                let w = RankWorld::new(&layout, p, Arc::new(ZeroCost), cfg);
                let reports = w.run(|comm| {
                    let mut sv = comm.import(&srcs[0]);
                    comm.halo_update(&mut sv);
                    let single = comm.stats();
                    let mut mv: MultiRankVec = comm.alloc(&sv, width);
                    for (l, src) in srcs.iter().enumerate() {
                        for &gb in comm.owned_blocks() {
                            mv.block_mut(gb)
                                .load_lane(l / LANES, l % LANES, &src.blocks[gb]);
                        }
                    }
                    comm.halo_update(&mut mv);
                    (single, comm.stats().since(&single), mv.into_blocks())
                });
                for rep in reports {
                    let (single, multi, blocks) = rep.result;
                    let tag = format!("k={k} p={p} rank {}", rep.rank);
                    assert_eq!(multi.halo_messages, single.halo_messages, "{tag}");
                    assert_eq!(multi.halo_bytes, width as u64 * single.halo_bytes, "{tag}");
                    assert_eq!(multi.delivery_failures, 0, "{tag}");
                    for (gb, mb) in blocks {
                        for (l, v) in want.iter().enumerate() {
                            let wb = &v.blocks[gb];
                            let mut got = BlockVec::zeros(wb.nx, wb.ny, wb.halo);
                            mb.store_lane(l / LANES, l % LANES, &mut got);
                            let bits = |t: &BlockVec| {
                                t.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(&got), bits(wb), "{tag} block {gb} lane {l}");
                        }
                    }
                }
            }
        }
    }

    /// Under a latency model the reduction's simulated cost must grow with
    /// the tree depth — the paper's log₂(p) term, actually executed.
    #[test]
    fn reduction_cost_grows_logarithmically() {
        let layout = layout();
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        let mut cost_at = Vec::new();
        for p in [2usize, 4, 16] {
            let w = RankWorld::new(&layout, p, net.clone(), RankSimConfig::default());
            let reports = w.run(|comm| {
                let x = comm.zeros();
                for _ in 0..10 {
                    comm.dot_fused(&x, &x);
                }
            });
            cost_at.push(sim_time(&reports));
        }
        let per_reduce = net.collective_hop(8);
        // p=2: exactly 2 hops per allreduce on the critical path.
        assert!(
            (cost_at[0] - 10.0 * 2.0 * per_reduce).abs() < 1e-12,
            "p=2 cost {} vs expected {}",
            cost_at[0],
            10.0 * 2.0 * per_reduce
        );
        assert!(cost_at[1] > cost_at[0], "deeper tree must cost more");
        assert!(cost_at[2] > cost_at[1]);
        // p=16: critical path is 2·log₂(16) = 8 hops, not p-1 = 15.
        assert!(
            (cost_at[2] - 10.0 * 8.0 * per_reduce).abs() < 1e-12,
            "p=16 cost {} should be the tree critical path {}",
            cost_at[2],
            10.0 * 8.0 * per_reduce
        );
    }

    /// Halo wire time is charged for remote strips only; a single rank
    /// (everything local) advances no clock under any network model.
    #[test]
    fn local_halo_costs_no_wire_time() {
        let layout = layout();
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        let one = RankWorld::new(&layout, 1, net.clone(), RankSimConfig::default());
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (i + j) as f64);
        let reports = one.run(|comm| {
            let mut rv = comm.import(&v);
            comm.halo_update(&mut rv);
        });
        assert_eq!(sim_time(&reports), 0.0);

        let four = RankWorld::new(&layout, 4, net, RankSimConfig::default());
        let reports = four.run(|comm| {
            let mut rv = comm.import(&v);
            comm.halo_update(&mut rv);
        });
        assert!(sim_time(&reports) > 0.0, "remote strips must cost time");
    }

    /// Re-reducing the same sweep handle is a fresh collective with
    /// identical results, as `Communicator::reduce_sweep` promises.
    #[test]
    fn repeated_reduce_is_fresh_collective() {
        let layout = layout();
        let w = world(&layout, 5);
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i + 2 * j) as f64 * 0.01).cos());
        let masks = &layout.masks;
        let reports = w.run(|comm| {
            let mut x = comm.import(&v);
            let sweep = comm.for_each_block_fused([&mut x], |gb, [xb]| {
                let mut p = [0.0; MAX_SWEEP_PARTIALS];
                p[0] = masked_block_dot(xb, xb, &masks[gb]);
                p
            });
            let a = comm.reduce_sweep(&sweep, 1);
            let b = comm.reduce_sweep(&sweep, 1);
            (a[0].to_bits(), b[0].to_bits(), comm.stats().allreduces)
        });
        for rep in reports {
            let (a, b, n) = rep.result;
            assert_eq!(a, b);
            assert_eq!(n, 2);
        }
    }

    /// The fabric's fold memo keeps an epoch only until every rank that
    /// folds it has read it: after a P-CSI + EVP solve it is empty — under
    /// every collective schedule at 64 ranks (each rank folds and checks
    /// the memo), and past the independent-fold bound at 96 ranks (ranks
    /// reuse the memo; a ragged world, so the butterfly has a preamble).
    #[test]
    fn fold_memo_is_empty_after_a_solve() {
        use crate::driver::SolverKind;
        use pop_core::solvers::SolveOutcome;
        use pop_core::{estimate_bounds, BlockEvp, LanczosConfig, SolverConfig, SolverWorkspace};
        use pop_stencil::NinePoint;
        use std::sync::Mutex;

        let g = Grid::gx1_scaled(7, 96, 80);
        let layout = DistLayout::build(&g, 12, 10);
        let shared = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &shared, 1800.0);
        let pre = BlockEvp::with_defaults(&op);
        let (bounds, _) = estimate_bounds(&op, &pre, &shared, &LanczosConfig::default());
        let mut field = DistVec::zeros(&layout);
        field.fill_with(|i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        shared.halo_update(&mut field);
        let mut b = DistVec::zeros(&layout);
        op.apply(&shared, &field, &mut b);
        let cfg = SolverConfig::with_tol(1e-10);
        let topo = pop_perfmodel::machine::NodeTopology::yellowstone();
        let net: Arc<dyn NetworkModel> = Arc::new(crate::net::HierarchicalNet::from_machine(
            &MachineModel::yellowstone(),
            &topo,
        ));
        let runs = ReduceAlgo::ALL.map(|a| (64, a)).into_iter().chain([
            (96, ReduceAlgo::RecursiveDoubling),
            (96, ReduceAlgo::Hierarchical),
        ]);
        for (p, algo) in runs {
            let sim = RankSimConfig::default().with_reduce_algo(algo);
            let w = RankWorld::new(&layout, p, Arc::clone(&net), sim);
            let fabric = Mutex::new(None);
            let reports = w.run(|comm| {
                fabric
                    .lock()
                    .unwrap()
                    .get_or_insert(Arc::clone(&comm.fabric));
                let rb = comm.import(&b);
                let mut rx = comm.zeros();
                let mut ws = SolverWorkspace::new();
                SolverKind::Pcsi(bounds).solve(&op, &pre, comm, &rb, &mut rx, &cfg, &mut ws)
            });
            let st = &reports[0].result;
            assert_eq!(st.outcome, SolveOutcome::Converged, "{algo:?} p={p}");
            let fabric = fabric.into_inner().unwrap().expect("a rank ran");
            let left = fabric.fold_memo().len();
            assert_eq!(left, 0, "{algo:?} p={p}: {left} folds left in the memo");
        }
    }

    /// Compute charging: points × compute_per_point per sweep, recorded as
    /// trace spans when asked.
    #[test]
    fn compute_charge_and_trace_spans() {
        let layout = layout();
        let cfg = RankSimConfig {
            compute_per_point: 1e-9,
            record_trace: true,
            ..RankSimConfig::default()
        };
        let w = RankWorld::new(&layout, 3, Arc::new(ZeroCost), cfg);
        let reports = w.run(|comm| {
            let mut x = comm.zeros();
            comm.for_each_block_fused([&mut x], |_, _| [0.0; MAX_SWEEP_PARTIALS]);
            comm.dot_fused(&x, &x);
        });
        // Each rank pays two compute charges (sweep + dot) over its own
        // points; the allreduce then synchronizes every clock to the
        // slowest rank — the load imbalance becomes wait time, exactly as
        // on real ranks.
        let blocks = &layout.decomp.blocks;
        let slowest = w
            .assignment()
            .blocks_of_rank
            .iter()
            .map(|bs| {
                bs.iter()
                    .map(|&b| (blocks[b].nx * blocks[b].ny) as f64)
                    .sum::<f64>()
            })
            .fold(0.0f64, |a, pts| a.max(2.0 * pts * 1e-9));
        for rep in &reports {
            assert!(
                (rep.clock - slowest).abs() < 1e-15,
                "rank {} clock {} vs synchronized {}",
                rep.rank,
                rep.clock,
                slowest
            );
        }
        for rep in &reports {
            let kinds: Vec<_> = rep.spans.iter().map(|s| s.kind).collect();
            assert!(kinds.contains(&SpanKind::Compute));
            assert!(kinds.contains(&SpanKind::Allreduce));
        }
    }

    /// Every collective algorithm — including auto selection, including
    /// non-power-of-two worlds, on both a flat and a node-aware network —
    /// must reproduce CommWorld's block-ordered fold bit-for-bit. The tree
    /// shape may only ever change simulated time.
    #[test]
    fn every_reduce_algo_matches_shared_memory_fold() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 13 + j * 7) as f64 * 0.03).sin() * 1e8);
        let want = CommWorld::dot_fused(&shared, &v, &v);

        let m = MachineModel::yellowstone();
        let topo = pop_perfmodel::machine::NodeTopology::yellowstone();
        let nets: [Arc<dyn NetworkModel>; 2] = [
            Arc::new(ZeroCost),
            Arc::new(crate::net::HierarchicalNet::from_machine(&m, &topo)),
        ];
        for net in nets {
            for algo in ReduceAlgo::ALL.into_iter().chain([ReduceAlgo::Auto]) {
                for p in [2usize, 3, 5, 8, 13, 16, 24] {
                    let cfg = RankSimConfig::default().with_reduce_algo(algo);
                    let w = RankWorld::new(&layout, p, Arc::clone(&net), cfg);
                    let reports = w.run(|comm| {
                        let rv = comm.import(&v);
                        comm.dot_fused(&rv, &rv)
                    });
                    for rep in &reports {
                        assert_eq!(
                            rep.result.to_bits(),
                            want.to_bits(),
                            "net={} algo={} p={p} rank {} diverged",
                            net.name(),
                            algo.name(),
                            rep.rank
                        );
                    }
                }
            }
        }
    }

    /// On a node-aware network the hierarchical algorithm's inter-node
    /// critical path is `log₂(p/m)` stages instead of `log₂ p`, so it must
    /// strictly beat the flat binomial tree at scale — the tentpole claim,
    /// pinned at 1024 ranks (the bench extends it to 16384).
    #[test]
    fn hierarchical_beats_binomial_under_node_topology() {
        let layout = layout();
        let m = MachineModel::yellowstone();
        let topo = pop_perfmodel::machine::NodeTopology::yellowstone();
        let net: Arc<dyn NetworkModel> =
            Arc::new(crate::net::HierarchicalNet::from_machine(&m, &topo));
        let p = 1024;
        let cost_of = |algo: ReduceAlgo| {
            let cfg = RankSimConfig::default().with_reduce_algo(algo);
            let w = RankWorld::new(&layout, p, Arc::clone(&net), cfg);
            let reports = w.run(|comm| {
                let x = comm.zeros();
                for _ in 0..4 {
                    comm.dot_fused(&x, &x);
                }
            });
            sim_time(&reports)
        };
        let binomial = cost_of(ReduceAlgo::Binomial);
        let doubling = cost_of(ReduceAlgo::RecursiveDoubling);
        let hier = cost_of(ReduceAlgo::Hierarchical);
        // Recursive doubling halves the stage count of gather+broadcast.
        assert!(
            doubling < binomial,
            "recursive doubling {doubling} should beat binomial {binomial}"
        );
        // Hierarchy's critical path is 8 intra + 6 inter stages against
        // binomial's 8 intra + 12 inter (clustered placement lets both
        // trees ride intra links for their low-distance hops). Recursive
        // doubling lands near the hierarchical time in this pure-latency
        // model — its real-world penalty, every rank crossing the NIC on
        // every high stage instead of one leader per node, is congestion
        // the per-message model doesn't charge.
        assert!(
            hier < binomial,
            "hierarchical {hier} should beat binomial {binomial} at p={p}"
        );
    }

    /// `ReduceAlgo::Binomial` is the hierarchical schedule with one node
    /// spanning the world: on a node-aware network whose nodes hold at least
    /// `p` ranks the two algorithms must agree per rank on the result, the
    /// simulated clock, and both wire counters — for narrow and wide
    /// payloads, powers of two and not.
    #[test]
    fn hierarchical_on_one_node_is_the_binomial_tree() {
        let layout = layout();
        let m = MachineModel::yellowstone();
        let topo = pop_perfmodel::machine::NodeTopology {
            ranks_per_node: 32,
            ..pop_perfmodel::machine::NodeTopology::yellowstone()
        };
        let net: Arc<dyn NetworkModel> =
            Arc::new(crate::net::HierarchicalNet::from_machine(&m, &topo));
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 13 + j * 7) as f64 * 0.03).sin() * 1e8);
        let masks = &layout.masks;
        for p in [2usize, 3, 5, 8, 13, 16, 24] {
            assert!(net.ranks_per_node() >= p);
            for scalars in [48usize, 1] {
                let run = |algo: ReduceAlgo| {
                    // Modelled compute makes the ranks enter the collective
                    // at different times, so the clocks see the tree shape.
                    let cfg = RankSimConfig::modeled(&m).with_reduce_algo(algo);
                    let w = RankWorld::new(&layout, p, Arc::clone(&net), cfg);
                    w.run(|comm| {
                        let mut x = comm.import(&v);
                        let sweep = comm.for_each_block_fused([&mut x], |gb, [xb]| {
                            let d = masked_block_dot(xb, xb, &masks[gb]);
                            let mut part = [0.0; MAX_SWEEP_PARTIALS];
                            for (k, slot) in part.iter_mut().take(scalars).enumerate() {
                                *slot = d * (k + 1) as f64;
                            }
                            part
                        });
                        comm.reduce_sweep(&sweep, scalars as u64).map(f64::to_bits)
                    })
                };
                let binomial = run(ReduceAlgo::Binomial);
                let hier = run(ReduceAlgo::Hierarchical);
                for (b, h) in binomial.iter().zip(hier.iter()) {
                    let tag = format!("p={p} scalars={scalars} rank {}", b.rank);
                    assert_eq!(b.result, h.result, "{tag}: result");
                    assert_eq!(b.clock.to_bits(), h.clock.to_bits(), "{tag}: clock");
                    assert!(b.clock > 0.0, "{tag}: the collective must cost time");
                    assert_eq!(
                        b.stats.allreduce_steps, h.stats.allreduce_steps,
                        "{tag}: steps"
                    );
                    assert_eq!(
                        b.stats.allreduce_bytes_on_wire, h.stats.allreduce_bytes_on_wire,
                        "{tag}: wire bytes"
                    );
                }
            }
        }
    }

    /// Rabenseifner's halving payload schedule must show up in the wire-byte
    /// counter: fewer modelled bytes than recursive doubling for wide
    /// payloads, at the cost of more messages.
    #[test]
    fn rabenseifner_moves_fewer_bytes_for_wide_payloads() {
        let layout = layout();
        let stats_of = |algo: ReduceAlgo| {
            let cfg = RankSimConfig::default().with_reduce_algo(algo);
            let w = RankWorld::new(&layout, 8, Arc::new(ZeroCost), cfg);
            let reports = w.run(|comm| {
                let mut x = comm.zeros();
                let sweep = comm.for_each_block_fused([&mut x], |_, _| [0.0; MAX_SWEEP_PARTIALS]);
                comm.reduce_sweep(&sweep, 48);
            });
            let steps: u64 = reports.iter().map(|r| r.stats.allreduce_steps).sum();
            let bytes: u64 = reports
                .iter()
                .map(|r| r.stats.allreduce_bytes_on_wire)
                .sum();
            (steps, bytes)
        };
        let (rd_steps, rd_bytes) = stats_of(ReduceAlgo::RecursiveDoubling);
        let (rab_steps, rab_bytes) = stats_of(ReduceAlgo::Rabenseifner);
        // p=8: recursive doubling is 3 full-payload exchanges per rank,
        // Rabenseifner 6 exchanges at half/quarter/eighth payload.
        assert_eq!(rd_steps, 8 * 3);
        assert_eq!(rab_steps, 8 * 6);
        assert_eq!(rd_bytes, 8 * 3 * 48 * 8);
        assert!(
            rab_bytes < rd_bytes,
            "rabenseifner bytes {rab_bytes} must undercut recursive doubling {rd_bytes}"
        );
    }

    /// Split-phase overlap must be bit-identical to the eager exchange and
    /// never slower on simulated time — and strictly faster when there is
    /// both flight time to hide and interior compute to hide it behind.
    #[test]
    fn overlap_halo_is_bitwise_identical_and_faster() {
        let layout = layout();
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 5 + j * 3) as f64 * 0.07).cos());
        let run = |overlap: bool| {
            let cfg = RankSimConfig {
                compute_per_point: 1e-8,
                ..RankSimConfig::default()
            }
            .with_overlap(overlap);
            let w = RankWorld::new(&layout, 6, net.clone(), cfg);
            let reports = w.run(|comm| {
                let mut x = comm.import(&v);
                let mut work = comm.zeros();
                // The kernel reads the freshly exchanged halo cells (the
                // whole raw tile, ring included), so any exchange defect
                // changes the reduced value; then it rewrites the exchanged
                // vector's interior, which the second sweep's exchange
                // must carry to the neighbours' rings.
                let mut sweep = || {
                    let kernel = |_: usize, [xb, wb]: &mut [&mut BlockVec; 2]| {
                        let mut p = [0.0; MAX_SWEEP_PARTIALS];
                        p[0] = xb.raw().iter().sum::<f64>() + wb.raw()[0];
                        for j in 0..xb.ny {
                            xb.interior_row_mut(j).iter_mut().for_each(|v| *v *= 0.5);
                        }
                        p
                    };
                    comm.halo_sweep_fused([&mut x, &mut work], pop_comm::blockwise(kernel))
                };
                let _ = sweep();
                comm.reduce_sweep(&sweep(), 1)[0]
            });
            (reports[0].result.to_bits(), sim_time(&reports))
        };
        let (eager_bits, eager_t) = run(false);
        let (overlap_bits, overlap_t) = run(true);
        assert_eq!(eager_bits, overlap_bits, "overlap changed the numerics");
        assert!(
            overlap_t < eager_t,
            "overlap time {overlap_t} should undercut eager {eager_t}"
        );
    }

    /// More ranks than blocks: the surplus ranks idle but participate in
    /// collectives, and results stay correct.
    #[test]
    fn idle_ranks_participate() {
        let g = Grid::idealized_basin(16, 16, 300.0, 5.0e4);
        let layout = DistLayout::build(&g, 8, 8); // 4 active blocks
        let p = 7;
        let w = world(&layout, p);
        assert!(w.assignment().idle_ranks() > 0);
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (i * j + 1) as f64);
        let want = CommWorld::dot_fused(&shared, &v, &v);
        let reports = w.run(|comm| {
            let rv = comm.import(&v);
            comm.dot_fused(&rv, &rv)
        });
        for rep in reports {
            assert_eq!(rep.result.to_bits(), want.to_bits());
        }
    }

    /// The executors this platform has: threads everywhere, fibers where the
    /// context-switch ABI is supported.
    fn executors() -> Vec<Executor> {
        let mut all = vec![Executor::Threads];
        if Executor::for_world(usize::MAX) == Executor::Fibers {
            all.push(Executor::Fibers);
        }
        all
    }

    /// Swapping the executor must change nothing observable: results,
    /// counters, and simulated clocks stay bit-for-bit identical between
    /// fibers and threads (and match shared memory), including under
    /// split-phase halo overlap and a non-trivial network.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
    fn fiber_executor_is_bitwise_identical_to_threads() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 11 + j * 5) as f64 * 0.013).sin() * 3e7);
        let want = CommWorld::dot_fused(&shared, &v, &v);
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        for p in [1, 3, 16] {
            let run = |exec: Executor| {
                let cfg = RankSimConfig::modeled(&MachineModel::yellowstone()).with_overlap(true);
                let w = RankWorld::new(&layout, p, net.clone(), cfg);
                w.run_on(exec, |comm| {
                    let mut x = comm.import(&v);
                    comm.halo_update(&mut x);
                    comm.dot_fused(&x, &x)
                })
            };
            let threads = run(Executor::Threads);
            let fibers = run(Executor::Fibers);
            assert_eq!(threads.len(), fibers.len());
            for (t, f) in threads.iter().zip(fibers.iter()) {
                assert_eq!(t.rank, f.rank);
                assert_eq!(
                    t.result.to_bits(),
                    f.result.to_bits(),
                    "p={p} rank {}: executor changed the numerics",
                    t.rank
                );
                assert_eq!(
                    f.result.to_bits(),
                    want.to_bits(),
                    "p={p} differs from shared"
                );
                assert_eq!(
                    t.clock.to_bits(),
                    f.clock.to_bits(),
                    "p={p} rank {}: executor changed the simulated clock",
                    t.rank
                );
                assert_eq!(
                    t.stats, f.stats,
                    "p={p} rank {}: executor changed comm counters",
                    t.rank
                );
            }
        }
    }

    /// The fault draws a halo-heavy loop implies, pinned. Each message's
    /// delay, duplicate, drop and poison are drawn from `(src, dst, seq)`,
    /// and sequence numbers follow each rank's send order, so a permuted
    /// send order moves these numbers where the conformance suites (which
    /// check results, not which strip got which draw) see nothing. Recorded
    /// on the exchange that built its own plan and moved every strip through
    /// a buffer; the fiber executor makes the duplicate count (which
    /// depends on how far each mailbox got pumped) deterministic. The
    /// clocks follow from payload lengths, so the layout keeps the halo of
    /// 2 they were recorded at.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
    fn hostile_fault_draws_follow_the_send_order() {
        use crate::fault::FaultConfig;
        use crate::vec::MultiRankVec;
        use pop_simd::LANES;
        let g = Grid::gx1_scaled(7, 60, 48);
        let layout = DistLayout::new(&g, pop_grid::Decomposition::new(&g, 10, 8), 2);
        let m = MachineModel::yellowstone();
        let faults = FaultConfig {
            corrupt_prob: 0.01,
            fail_prob: 5e-3,
            ..FaultConfig::hostile()
        };
        let cfg = RankSimConfig::modeled(&m).with_faults(FaultPlan::seeded(2015, faults));
        let net = Arc::new(LatencyBandwidth::from_machine(&m));
        let w = RankWorld::new(&layout, 6, net, cfg);
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (1 + i * 7 + j * 131) as f64);
        let reports = w.run_on(Executor::Fibers, |comm| {
            let mut x = comm.import(&v);
            let mut mx: MultiRankVec = comm.alloc(&x, 2 * LANES);
            for it in 0..30 {
                comm.halo_update(&mut x);
                comm.halo_update(&mut mx);
                if it % 5 == 4 {
                    comm.dot_fused(&x, &x);
                }
            }
        });
        let got: Vec<(u64, u64, u64, u64)> = reports
            .iter()
            .map(|r| {
                let s = &r.stats;
                (
                    r.clock.to_bits(),
                    s.retries,
                    s.duplicates,
                    s.delivery_failures,
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                (4585704624509105886, 72, 103, 16),
                (4585705274036258544, 117, 183, 30),
                (4585753444613724410, 80, 89, 21),
                (4585754094140877068, 98, 129, 29),
                (4585705274036258544, 85, 166, 19),
                (4585705923563411202, 63, 100, 16),
            ]
        );
    }

    /// A panicking rank must fail the whole run under either executor —
    /// peers blocked on it unwind off the poisoned fabric instead of hanging
    /// the join or wedging the cooperative scheduler — and leave the world
    /// usable for the next run.
    #[test]
    fn both_executors_propagate_rank_panics() {
        let layout = layout();
        let w = world(&layout, 4);
        for exec in executors() {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                w.run_on(exec, |comm| {
                    if comm.rank() == 1 {
                        panic!("injected rank failure");
                    }
                    let x = comm.import(&DistVec::zeros(&layout));
                    comm.dot_fused(&x, &x)
                })
            }));
            assert!(
                out.is_err(),
                "{exec:?}: rank panic must propagate out of the world"
            );
            let again = w.run_on(exec, |comm| {
                let x = comm.import(&DistVec::zeros(&layout));
                comm.dot_fused(&x, &x)
            });
            assert_eq!(
                again.len(),
                4,
                "{exec:?}: world unusable after a rank panic"
            );
            assert!(again.iter().all(|rep| rep.result == 0.0));
        }
    }

    /// A protocol deadlock (one rank waits on a collective its peers never
    /// join) is detected by the fiber scheduler and fails fast. The thread
    /// executor would hang here — detectability is a fiber-mode bonus.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
    fn fiber_deadlock_is_detected_not_hung() {
        let layout = layout();
        let w = world(&layout, 4);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_on(Executor::Fibers, |comm| {
                if comm.rank() == 0 {
                    let x = comm.import(&DistVec::zeros(&layout));
                    comm.dot_fused(&x, &x); // peers never reduce: deadlock
                }
            })
        }));
        assert!(out.is_err(), "deadlock must panic, not hang");
    }
}
