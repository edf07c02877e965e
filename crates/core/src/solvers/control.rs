//! Solve control (DESIGN.md §10): the one place that classifies a checked
//! residual, keeps the restart budget, retires and restarts right-hand
//! sides, and assembles [`SolveStats`].
//!
//! Each solver's recurrence is one loop, generic over the tile
//! ([`super::kernels`]), run at width 1 by `solve_comm` and at `k` lanes by
//! `solve_batch_comm`. The loop drives its kernels itself and hands
//! everything that happens at check cadence, at a restart, or when the
//! iteration cap falls to a [`Control`]: one [`SolveCtl`] per right-hand
//! side, plus the lane plumbing that carries the answers out onto the
//! iterate, its last good snapshot and the caller's vectors. At width 1 a
//! lane is the whole vector, so the same calls are plain vector copies.

use super::kernels::TileKernels;
use super::{RecoveryConfig, SolveOutcome, SolveStats, SolverConfig, SolverWorkspace, ZEROS};
use pop_comm::{BlockVec, CommVec, Communicator, StatsSnapshot, SweepPartials};
use pop_obs::SolveObs;

/// Restart bookkeeping: feed it every *reduced* relative residual, act on
/// the verdict.
#[derive(Debug)]
struct RecoveryMonitor {
    cfg: RecoveryConfig,
    /// Best (smallest) healthy relative residual seen so far.
    best_rel: f64,
    /// Restarts performed.
    restarts: usize,
}

/// What a checked residual means for the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The recurrence is healthy; `improved` says the snapshot should be
    /// refreshed from the current iterate.
    Healthy { improved: bool },
    /// Broken, budget left: restart the recurrence from the snapshot.
    Restart,
    /// Broken, budget exhausted: restore the snapshot and give up.
    Abort,
}

impl RecoveryMonitor {
    fn new(cfg: RecoveryConfig) -> Self {
        RecoveryMonitor {
            cfg,
            best_rel: f64::INFINITY,
            restarts: 0,
        }
    }

    /// Classify one reduced relative residual. Every rank of an SPMD solve
    /// sees the same `rel`, so every rank gets the same verdict.
    fn assess(&mut self, rel: f64) -> Verdict {
        let diverged = !rel.is_finite()
            || (self.best_rel.is_finite() && rel > self.cfg.divergence_factor * self.best_rel);
        if diverged {
            if self.restarts < self.cfg.max_restarts {
                self.restarts += 1;
                Verdict::Restart
            } else {
                Verdict::Abort
            }
        } else {
            let improved = rel < self.best_rel;
            if improved {
                self.best_rel = rel;
            }
            Verdict::Healthy { improved }
        }
    }
}

/// What one convergence check asks of the loop that ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// Healthy, nothing to do.
    Continue,
    /// Healthy and improved: refresh the snapshot from the iterate.
    Snapshot,
    /// Broken with restart budget left: restart from the snapshot.
    Restart,
    /// The solve is over (outcome recorded, telemetry flushed). A
    /// [`SolveOutcome::Diverged`] solve's answer is the last good snapshot;
    /// any other outcome's is the iterate.
    Done(SolveOutcome),
}

/// One right-hand side's solve state: its recovery monitor, its counters
/// (frozen when the solve ends — a batch lane reports its own iteration
/// count, never the batch maximum), its convergence history, and its
/// observability handle.
pub(crate) struct SolveCtl {
    solver: &'static str,
    precond: &'static str,
    start: StatsSnapshot,
    monitor: RecoveryMonitor,
    pub(crate) obs: SolveObs,
    history: Vec<(usize, f64)>,
    /// `‖b‖₂` (floored); set by whoever reduced it.
    pub(crate) bnorm: f64,
    final_rel: f64,
    matvecs: usize,
    precond_applies: usize,
    iterations: usize,
    /// `None` while the solve is running.
    outcome: Option<SolveOutcome>,
}

impl SolveCtl {
    /// A control whose `bnorm` the caller still has to set. `start` is the
    /// communicator's counters from the top of the solve; `history` is a
    /// reusable buffer ([`SolverWorkspace`]), cleared and reserved for the
    /// worst case here so that no check allocates.
    pub(crate) fn new(
        cfg: &SolverConfig,
        solver: &'static str,
        precond: &'static str,
        start: StatsSnapshot,
        mut history: Vec<(usize, f64)>,
    ) -> Self {
        history.clear();
        history.reserve(cfg.max_iters / cfg.check_interval() + 2);
        SolveCtl {
            solver,
            precond,
            start,
            monitor: RecoveryMonitor::new(cfg.recovery),
            obs: cfg.obs.begin_solve(solver, precond, start),
            history,
            bnorm: f64::NAN,
            final_rel: f64::INFINITY,
            matvecs: 0,
            precond_applies: 0,
            iterations: 0,
            outcome: None,
        }
    }

    #[inline]
    fn running(&self) -> bool {
        self.outcome.is_none()
    }

    /// Count one iteration: every solver spends exactly one matvec and one
    /// preconditioner application per iteration.
    #[inline]
    fn tick(&mut self) {
        self.iterations += 1;
        self.matvecs += 1;
        self.precond_applies += 1;
    }

    /// Count the sweeps of a start function.
    #[inline]
    pub(crate) fn charge(&mut self, matvecs: usize, precond_applies: usize) {
        self.matvecs += matvecs;
        self.precond_applies += precond_applies;
    }

    /// Has no residual of this solve been reduced yet? (The iteration cap
    /// fell before the first check.)
    fn unsettled(&self) -> bool {
        self.final_rel.is_infinite()
    }

    /// `‖r‖ / ‖b‖` from a reduced `‖r‖²`. A NaN is reported as the canonical
    /// `f64::NAN`: which NaN an arithmetic chain hands back (sign, payload)
    /// depends on operand order the compiler is free to choose, so the raw
    /// bits differ between the point- and lane-vectorised kernels.
    fn relative(&self, rr: f64) -> f64 {
        let rel = rr.sqrt() / self.bnorm;
        if rel.is_nan() {
            f64::NAN
        } else {
            rel
        }
    }

    /// Feed one reduced `‖r‖²` through the recovery monitor. `now` reads
    /// the communicator's counters if the solve ends here.
    fn check(&mut self, cfg: &SolverConfig, rr: f64, now: &dyn Fn() -> StatsSnapshot) -> Check {
        let rel = self.relative(rr);
        self.final_rel = rel;
        self.history.push((self.iterations, rel));
        match self.monitor.assess(rel) {
            Verdict::Healthy { .. } if rel < cfg.tol => self.retire(SolveOutcome::Converged, now),
            Verdict::Healthy { improved: true } => Check::Snapshot,
            Verdict::Healthy { improved: false } => Check::Continue,
            Verdict::Restart => {
                self.obs.restart(self.iterations);
                Check::Restart
            }
            Verdict::Abort => self.retire(SolveOutcome::Diverged, now),
        }
    }

    /// The iteration cap fell on a running solve: settle its residual (`rr`
    /// is the reduced standing `‖r‖²` when no check ever ran) and classify.
    fn settle(
        &mut self,
        cfg: &SolverConfig,
        rr: Option<f64>,
        now: &dyn Fn() -> StatsSnapshot,
    ) -> SolveOutcome {
        if let Some(rr) = rr {
            self.final_rel = self.relative(rr);
            self.history.push((self.iterations, self.final_rel));
        }
        let outcome = if self.final_rel < cfg.tol {
            SolveOutcome::Converged
        } else if self.final_rel.is_finite() {
            SolveOutcome::MaxIters
        } else {
            SolveOutcome::Diverged
        };
        self.retire(outcome, now);
        outcome
    }

    /// Freeze the solve and flush its observability handle. A diverged
    /// solve reports the best residual it saw (`∞`: no healthy check ever
    /// completed), never the broken one.
    fn retire(&mut self, outcome: SolveOutcome, now: &dyn Fn() -> StatsSnapshot) -> Check {
        if outcome == SolveOutcome::Diverged {
            self.final_rel = self.monitor.best_rel;
        }
        self.outcome = Some(outcome);
        std::mem::replace(&mut self.obs, SolveObs::noop()).finish(
            outcome.label(),
            self.final_rel,
            self.iterations,
            self.matvecs,
            self.precond_applies,
            &self.history,
            now,
        );
        Check::Done(outcome)
    }

    /// The finished solve's report, and its history buffer back for reuse;
    /// `now` is the communicator's counters at the end of the solve (of the
    /// whole batch, for a lane: events are shared across lanes by
    /// construction, DESIGN.md §12).
    pub(crate) fn into_stats(self, now: StatsSnapshot) -> (SolveStats, Vec<(usize, f64)>) {
        let outcome = self.outcome.expect("into_stats on a running solve");
        // Callers keep the stats, so they get an exact-size copy of the
        // worst-case buffer.
        let stats = SolveStats {
            solver: self.solver,
            preconditioner: self.precond,
            iterations: self.iterations,
            converged: outcome == SolveOutcome::Converged,
            outcome,
            restarts: self.monitor.restarts,
            final_relative_residual: self.final_rel,
            matvecs: self.matvecs,
            precond_applies: self.precond_applies,
            comm: now.since(&self.start),
            residual_history: self.history.clone(),
        };
        (stats, self.history)
    }
}

/// A set of lanes of one solve, iterated in ascending order. A bit mask, so
/// the per-check bookkeeping of a batch allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneSet(u32);

impl LaneSet {
    fn insert(&mut self, lane: usize) {
        self.0 |= 1 << lane;
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Iterator for LaneSet {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        (self.0 != 0).then(|| {
            let lane = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            lane
        })
    }
}

/// The control of one solve at width `w`: a [`SolveCtl`] per right-hand
/// side, what a recurrence needs to restart one of them at width 1, and
/// where each one's answer goes.
///
/// At width 1 the recurrence iterates on the caller's own `x`, so there is
/// nothing to hand back. A batch iterates on `w`-wide copies; a lane that
/// retires is gathered out into its caller's vector right away (its lane
/// then keeps computing harmless garbage that no reduction slot or other
/// lane ever reads). Only a width-1 solve attributes its events to phases:
/// a batch's sweeps are shared by all its lanes.
pub(crate) struct Control<'a, 'o, C: Communicator> {
    pub(crate) comm: &'a C,
    pub(crate) cfg: &'a SolverConfig,
    lanes: &'a mut [SolveCtl],
    /// Each lane's right-hand side at width 1, for its restarts.
    bs: &'a [&'a C::Vec<BlockVec>],
    /// Each lane's answer; empty at width 1, where the iterate is the answer.
    answers: &'a mut [&'o mut C::Vec<BlockVec>],
    /// Width-1 vectors a lane restart runs its start function on.
    stage: &'a mut SolverWorkspace<C::Vec<BlockVec>>,
    /// The `‖r‖²` sweep of each lane restarted this iteration: until the
    /// next iteration refreshes the shared residual sweep, it is the only
    /// one that describes that lane.
    restarted: Vec<(usize, C::Sweep)>,
    width: usize,
    iterations: usize,
}

impl<'a, 'o, C: Communicator> Control<'a, 'o, C> {
    /// Control `lanes` (their `‖b‖` already reduced) over `w`-wide vectors.
    pub(crate) fn new(
        comm: &'a C,
        cfg: &'a SolverConfig,
        lanes: &'a mut [SolveCtl],
        bs: &'a [&'a C::Vec<BlockVec>],
        answers: &'a mut [&'o mut C::Vec<BlockVec>],
        stage: &'a mut SolverWorkspace<C::Vec<BlockVec>>,
        width: usize,
    ) -> Self {
        Control {
            comm,
            cfg,
            lanes,
            bs,
            answers,
            stage,
            restarted: Vec::new(),
            width,
            iterations: 0,
        }
    }

    /// Values per point of the solve's vectors: 1, or the batch's slots.
    #[inline]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The view every vector of the solve shares (workspace key).
    pub(crate) fn model(&self) -> &'a C::Vec<BlockVec> {
        self.bs[0]
    }

    /// Every lane's control (a start function charges its sweeps to them).
    pub(crate) fn lanes(&mut self) -> &mut [SolveCtl] {
        self.lanes
    }

    /// Iterations run so far.
    #[inline]
    pub(crate) fn iteration(&self) -> usize {
        self.iterations
    }

    /// Start the next iteration, if the cap allows and a lane still runs.
    pub(crate) fn next(&mut self) -> bool {
        if self.iterations >= self.cfg.max_iters || !self.lanes.iter().any(SolveCtl::running) {
            return false;
        }
        self.iterations += 1;
        self.restarted.clear();
        self.lanes
            .iter_mut()
            .filter(|l| l.running())
            .for_each(SolveCtl::tick);
        true
    }

    /// Close a phase of a width-1 solve's telemetry.
    pub(crate) fn phase(&mut self, name: &'static str) {
        if self.width == 1 {
            let comm = self.comm;
            self.lanes[0].obs.phase(name, || comm.stats());
        }
    }

    /// The periodic check's reduction: every lane's `‖r‖²` from the
    /// partials the last residual sweep carried, in one allreduce.
    pub(crate) fn reduce_check(&mut self, rr: &C::Sweep) -> SweepPartials {
        self.phase("iterate");
        let red = self.comm.reduce_sweep(rr, self.width as u64);
        self.phase("check");
        red
    }

    /// Feed every running lane's reduced `‖r‖²` (at `rr[l]`) through its
    /// control and carry out the answers that need no recurrence state:
    /// refresh improved lanes' snapshots, hand finished lanes' answers out.
    /// Returns the lanes the recurrence must [`Control::restart`].
    pub(crate) fn check<T: TileKernels>(
        &mut self,
        rr: &[f64],
        x: &mut C::Vec<T>,
        x_good: &mut C::Vec<T>,
    ) -> LaneSet {
        let (comm, cfg) = (self.comm, self.cfg);
        let [mut snapshot, mut restart, mut retired] = [LaneSet::default(); 3];
        for (l, &rr) in rr.iter().enumerate().take(self.lanes.len()) {
            let lane = &mut self.lanes[l];
            if !lane.running() {
                continue;
            }
            match lane.check(cfg, rr, &|| comm.stats()) {
                Check::Continue => {}
                Check::Snapshot => snapshot.insert(l),
                Check::Restart => restart.insert(l),
                Check::Done(outcome) => {
                    retired.insert(l);
                    self.answer(l, outcome, x, x_good);
                }
            }
        }
        if !snapshot.is_empty() {
            // Skip any (block, lane) holding a non-finite value: a healthy
            // verdict vouches for the reduced ocean-point `‖r‖²`, not for
            // every value of the lane (its halo ring, its land points), and
            // restarts must always restore a finite field.
            let x = &*x;
            let _ = comm.for_each_block_fused([x_good], |bk, [good]| {
                for l in snapshot {
                    if x.block(bk).lane_finite(l) {
                        T::lane_copy(x.block(bk), good, l);
                    }
                }
                ZEROS
            });
        }
        if self.width > 1 && !(restart.is_empty() && retired.is_empty()) {
            self.record_batch_metrics(restart.count());
        }
        restart
    }

    /// Restart lane `l` from its last good snapshot: gather the snapshot
    /// into width-1 staging, run the solver's single-RHS `start` there, and
    /// scatter the staged vectors back into lane `l` of `dst` (the first is
    /// the iterate), so the lane rejoins its single-RHS trajectory. Staged
    /// vectors `start` leaves alone scatter zeros. `start` returns the
    /// `‖r‖²` sweep of its residual.
    pub(crate) fn restart<T: TileKernels, const N: usize>(
        &mut self,
        l: usize,
        x_good: &C::Vec<T>,
        dst: [&mut C::Vec<T>; N],
        start: impl FnOnce(&C::Vec<BlockVec>, [&mut C::Vec<BlockVec>; N], &mut [SolveCtl]) -> C::Sweep,
    ) {
        let comm = self.comm;
        let b = self.bs[l];
        let mut staged = self.stage.take::<N, C>(comm, b, 1);
        let _ = comm.for_each_block_fused([&mut *staged[0]], |bk, [sx]| {
            x_good.block(bk).store_lane(l, sx);
            ZEROS
        });
        let lane = std::slice::from_mut(&mut self.lanes[l]);
        let rr = start(b, staged.each_mut().map(|v| &mut **v), lane);
        self.restarted.push((l, rr));
        for (src, dst) in staged.into_iter().zip(dst) {
            let src = &*src;
            let _ = comm.for_each_block_fused([dst], |bk, [d]| {
                d.load_lane(l, src.block(bk));
                ZEROS
            });
        }
        self.phase("setup");
    }

    /// The iteration cap fell: settle every running lane — a lane no check
    /// ever reduced takes its `‖r‖²` from `rr`, the last iteration's
    /// residual sweep (or from its own restart, if it restarted on the last
    /// iteration) — classify it, and hand its answer out.
    pub(crate) fn settle<T: TileKernels>(
        &mut self,
        rr: &C::Sweep,
        x: &mut C::Vec<T>,
        x_good: &mut C::Vec<T>,
    ) {
        let (comm, cfg) = (self.comm, self.cfg);
        let shared = (0..self.lanes.len())
            .any(|l| {
                let lane = &self.lanes[l];
                lane.running() && lane.unsettled() && self.restarted(l).is_none()
            })
            .then(|| comm.reduce_sweep(rr, self.width as u64));
        for l in 0..self.lanes.len() {
            if !self.lanes[l].running() {
                continue;
            }
            let rr = self.lanes[l]
                .unsettled()
                .then(|| match self.restarted(l) {
                    Some(sweep) => Some(comm.reduce_sweep(sweep, 1)[0]),
                    None => shared.map(|red| red[l]),
                })
                .flatten();
            let outcome = self.lanes[l].settle(cfg, rr, &|| comm.stats());
            self.answer(l, outcome, x, x_good);
        }
    }

    /// Lane `l`'s own `‖r‖²` sweep, if it restarted on this iteration.
    fn restarted(&self, l: usize) -> Option<&C::Sweep> {
        self.restarted
            .iter()
            .find(|(lane, _)| *lane == l)
            .map(|(_, sweep)| sweep)
    }

    /// Lane `l` finished with `outcome`: restore its last good snapshot if
    /// it diverged, then hand the lane out to its caller.
    fn answer<T: TileKernels>(
        &mut self,
        l: usize,
        outcome: SolveOutcome,
        x: &mut C::Vec<T>,
        x_good: &C::Vec<T>,
    ) {
        let comm = self.comm;
        if outcome == SolveOutcome::Diverged {
            let _ = comm.for_each_block_fused([&mut *x], |bk, [xb]| {
                T::lane_copy(x_good.block(bk), xb, l);
                ZEROS
            });
        }
        if let Some(dst) = self.answers.get_mut(l) {
            let x = &*x;
            let _ = comm.for_each_block_fused([&mut **dst], |bk, [db]| {
                x.block(bk).store_lane(l, db);
                ZEROS
            });
        }
    }

    /// Export a batch's lane restarts (`pop_batch_lane_restarts_total`)
    /// and occupancy (`pop_batch_occupancy`, running lanes / k). Free when
    /// the sink is disabled: the registry handle is `None`.
    fn record_batch_metrics(&self, restarts: usize) {
        let Some(reg) = self.cfg.obs.registry() else {
            return;
        };
        let solver = &[("solver", self.lanes[0].solver)];
        if restarts > 0 {
            reg.counter_add("pop_batch_lane_restarts_total", solver, restarts as u64);
        }
        let running = self.lanes.iter().filter(|l| l.running()).count();
        reg.gauge_set(
            "pop_batch_occupancy",
            solver,
            running as f64 / self.lanes.len() as f64,
        );
    }
}

/// Copy `src` into `dst`, halo included (seeding the snapshot).
pub(crate) fn copy_vec<C: Communicator, T: TileKernels>(
    comm: &C,
    src: &C::Vec<T>,
    dst: &mut C::Vec<T>,
) {
    let _ = comm.for_each_block_fused([dst], |bk, [d]| {
        d.raw_mut().copy_from_slice(src.block(bk).raw());
        ZEROS
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::{CommWorld, DistField, DistLayout, DistVec, MultiBlockVec};
    use pop_grid::Grid;
    use pop_simd::LANES;

    /// A poisoned lane's `‖r‖²` arrives as whichever NaN its kernel's
    /// operand order produced (the point- and lane-vectorised kernels have
    /// disagreed on the sign), so the history records the canonical
    /// `f64::NAN` for every one of them, and the report's final residual is
    /// never a NaN: the best healthy check, or `∞` when none completed.
    #[test]
    fn a_nan_residual_of_either_sign_is_recorded_as_the_canonical_nan() {
        let cfg = SolverConfig {
            recovery: RecoveryConfig {
                max_restarts: 1,
                ..RecoveryConfig::default()
            },
            ..SolverConfig::default()
        };
        let now = StatsSnapshot::default;
        let negative = f64::from_bits(f64::NAN.to_bits() | 1 << 63);
        let payload = f64::from_bits(0xfff8_dead_beef_0001);
        for rr in [f64::NAN, negative, payload] {
            for healthy_first in [false, true] {
                let mut lane = SolveCtl::new(&cfg, "chrongear", "diagonal", now(), Vec::new());
                lane.bnorm = 2.0;
                let mut want = vec![];
                if healthy_first {
                    lane.tick();
                    assert_eq!(lane.check(&cfg, 1.0, &now), Check::Snapshot);
                    want.push((1, 0.5f64.to_bits()));
                }
                lane.tick();
                assert_eq!(lane.check(&cfg, rr, &now), Check::Restart);
                lane.tick();
                let done = lane.check(&cfg, rr, &now);
                assert_eq!(done, Check::Done(SolveOutcome::Diverged));
                let n = want.len();
                want.extend([(n + 1, f64::NAN.to_bits()), (n + 2, f64::NAN.to_bits())]);

                let (stats, _) = lane.into_stats(now());
                let got: Vec<_> = stats
                    .residual_history
                    .iter()
                    .map(|&(it, rel)| (it, rel.to_bits()))
                    .collect();
                assert_eq!(got, want, "history for ‖r‖² bits {:#x}", rr.to_bits());
                let best = if healthy_first { 0.5 } else { f64::INFINITY };
                assert_eq!(stats.final_relative_residual.to_bits(), best.to_bits());
                assert_eq!((stats.restarts, stats.converged), (1, false));
            }
        }
    }

    /// Refresh a snapshot at `width` from an iterate of ones whose lane
    /// `width − 1` holds one NaN in block 1: that (block, lane) keeps its
    /// old zeros, every other one takes the ones.
    fn snapshot_skips_the_non_finite_block_lane<T: TileKernels>(width: usize) {
        let grid = Grid::gx1_scaled(23, 40, 32);
        let layout = DistLayout::build(&grid, 10, 8);
        let (comm, cfg) = (CommWorld::serial(), SolverConfig::default());
        let b = DistVec::zeros(&layout);
        let poisoned = (1, width - 1);
        let filled = |bk: usize, value: f64| {
            let mut v = b.blocks[bk].clone();
            v.raw_mut().fill(value);
            v
        };
        let mut x: DistField<T> = comm.alloc(&b, width);
        let mut x_good: DistField<T> = comm.alloc(&b, width);
        for (bk, tile) in x.blocks.iter_mut().enumerate() {
            for l in 0..width {
                let mut v = filled(bk, 1.0);
                if (bk, l) == poisoned {
                    let mid = v.raw().len() / 2;
                    v.raw_mut()[mid] = f64::NAN;
                }
                tile.load_lane(l, &v);
            }
        }
        let mut lanes: Vec<SolveCtl> = (0..width)
            .map(|_| {
                let mut lane =
                    SolveCtl::new(&cfg, "chrongear", "diagonal", comm.stats(), Vec::new());
                lane.bnorm = 1.0;
                lane
            })
            .collect();
        let (bs, mut stage) = ([&b], SolverWorkspace::default());
        let mut ctl = Control::new(&comm, &cfg, &mut lanes, &bs, &mut [], &mut stage, width);
        // A healthy, improved, unconverged residual in every lane.
        let restart = ctl.check(&vec![1.0; width], &mut x, &mut x_good);
        assert!(restart.is_empty());
        for bk in 0..x_good.blocks.len() {
            for l in 0..width {
                let mut got = filled(bk, f64::NAN);
                x_good.blocks[bk].store_lane(l, &mut got);
                let want = filled(bk, if (bk, l) == poisoned { 0.0 } else { 1.0 });
                assert_eq!(got.raw(), want.raw(), "width {width}, block {bk}, lane {l}");
            }
        }
    }

    /// A healthy verdict vouches for the reduced `‖r‖²`, not for every
    /// value of the iterate, so the snapshot refresh it triggers takes no
    /// non-finite (block, lane): a restart always restores a finite field.
    #[test]
    fn a_snapshot_skips_each_block_lane_holding_a_non_finite_value() {
        snapshot_skips_the_non_finite_block_lane::<BlockVec>(1);
        snapshot_skips_the_non_finite_block_lane::<MultiBlockVec>(2 * LANES);
    }
}
