//! Per-RHS solve control (DESIGN.md §10): the one place that classifies a
//! checked residual, keeps the restart budget, and assembles [`SolveStats`].
//!
//! Every solver loop — the four single-RHS `solve_comm` loops and the four
//! batched `solve_batch_comm` loops — drives its recurrence kernels itself
//! and hands everything that happens at check cadence or at solve start/end
//! to a [`SolveCtl`]: a single-RHS solve holds one, a `k`-wide batch holds
//! `k`. The control never touches a vector; it tells the caller what to do
//! with the iterate and its snapshot ([`Check`]), and the single-RHS
//! wrappers at the bottom carry that out on `x` / `x_good`.

use super::{copy_vec, snapshot_vec, RecoveryConfig, SolveOutcome, SolveStats, SolverConfig};
use pop_comm::{BlockVec, Communicator, StatsSnapshot};
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
pub(crate) enum Check {
    /// Healthy, nothing to do.
    Continue,
    /// Healthy and improved: refresh the snapshot from the iterate.
    Snapshot,
    /// Broken with restart budget left: restore the snapshot and re-enter
    /// the solver's start function.
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
    /// Batched lanes only: `‖r‖²` reduced during this lane's staged restart.
    /// Stands in for the shared residual sweep in the iteration-cap tail
    /// (whose slot would describe pre-restart data for this lane) until the
    /// next full batched iteration refreshes the sweep for every lane.
    pub(crate) setup_rr: Option<f64>,
}

impl SolveCtl {
    /// A control whose `bnorm` the caller still has to set. `start` is the
    /// communicator's counters from the top of the solve.
    pub(crate) fn new(
        cfg: &SolverConfig,
        solver: &'static str,
        precond: &'static str,
        start: StatsSnapshot,
    ) -> Self {
        SolveCtl {
            solver,
            precond,
            start,
            monitor: RecoveryMonitor::new(cfg.recovery),
            obs: cfg.obs.begin_solve(solver, precond, start),
            history: Vec::with_capacity(cfg.max_iters / cfg.check_interval() + 2),
            bnorm: f64::NAN,
            final_rel: f64::INFINITY,
            matvecs: 0,
            precond_applies: 0,
            iterations: 0,
            outcome: None,
            setup_rr: None,
        }
    }

    #[inline]
    pub(crate) fn running(&self) -> bool {
        self.outcome.is_none()
    }

    #[inline]
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// Count one iteration: every solver spends exactly one matvec and one
    /// preconditioner application per iteration.
    #[inline]
    pub(crate) fn tick(&mut self) {
        self.iterations += 1;
        self.matvecs += 1;
        self.precond_applies += 1;
    }

    /// Count the sweeps of a start function (or of a batched setup).
    #[inline]
    pub(crate) fn charge(&mut self, matvecs: usize, precond_applies: usize) {
        self.matvecs += matvecs;
        self.precond_applies += precond_applies;
    }

    /// Has no residual of this solve been reduced yet? (The iteration cap
    /// fell before the first check.)
    pub(crate) fn unsettled(&self) -> bool {
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

    /// Feed one reduced `‖r‖²` through the recovery monitor. `cadence` is
    /// false only for PipeCG's off-cadence every-iteration assessments,
    /// which enter the history late, on convergence. `now` reads the
    /// communicator's counters if the solve ends here.
    pub(crate) fn check(
        &mut self,
        cfg: &SolverConfig,
        rr: f64,
        cadence: bool,
        now: &dyn Fn() -> StatsSnapshot,
    ) -> Check {
        let rel = self.relative(rr);
        self.final_rel = rel;
        if cadence {
            self.history.push((self.iterations, rel));
        }
        match self.monitor.assess(rel) {
            Verdict::Healthy { .. } if rel < cfg.tol => {
                if !cadence {
                    self.history.push((self.iterations, rel));
                }
                self.retire(SolveOutcome::Converged, now)
            }
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
    pub(crate) fn settle(
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

    /// The finished solve's report; `now` is the communicator's counters at
    /// the end of the solve (of the whole batch, for a lane: events are
    /// shared across lanes by construction, DESIGN.md §12).
    pub(crate) fn into_stats(mut self, now: StatsSnapshot) -> SolveStats {
        let outcome = self.outcome.expect("into_stats on a running solve");
        // The history was reserved for the worst case so that no check
        // allocates; callers keep the stats, so hand back only what was used.
        self.history.shrink_to_fit();
        SolveStats {
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
            residual_history: self.history,
        }
    }

    // -- single-RHS wrappers: the control's answers carried out on x / x_good

    /// Run one check on a reduced `‖r‖²` and keep the iterate and its
    /// snapshot in step with the answer.
    pub(crate) fn check_vec<C: Communicator>(
        &mut self,
        comm: &C,
        cfg: &SolverConfig,
        rr: f64,
        cadence: bool,
        x: &mut C::Vec<BlockVec>,
        x_good: &mut C::Vec<BlockVec>,
    ) -> Check {
        let check = self.check(cfg, rr, cadence, &|| comm.stats());
        match check {
            Check::Snapshot => snapshot_vec(comm, x, x_good),
            Check::Restart | Check::Done(SolveOutcome::Diverged) => copy_vec(comm, x_good, x),
            Check::Continue | Check::Done(_) => {}
        }
        check
    }

    /// The periodic check of the check-cadence solvers: one extra reduction
    /// consuming the `‖r‖²` partials the last sweep carried. The reduced
    /// value is identical on every rank, so the answer is too.
    pub(crate) fn check_sweep<C: Communicator>(
        &mut self,
        comm: &C,
        cfg: &SolverConfig,
        rr_sweep: &C::Sweep,
        x: &mut C::Vec<BlockVec>,
        x_good: &mut C::Vec<BlockVec>,
    ) -> Check {
        self.obs.phase("iterate", || comm.stats());
        let rr = comm.reduce_sweep(rr_sweep, 1)[0];
        self.obs.phase("check", || comm.stats());
        self.check_vec(comm, cfg, rr, true, x, x_good)
    }

    /// Close a single-RHS solve. If the loop ran out of iterations before
    /// any check, one last reduction of the standing sweep settles the
    /// final residual (PipeCG reduces every iteration and passes `None`).
    pub(crate) fn finish<C: Communicator>(
        mut self,
        comm: &C,
        cfg: &SolverConfig,
        rr_sweep: Option<&C::Sweep>,
        x: &mut C::Vec<BlockVec>,
        x_good: &mut C::Vec<BlockVec>,
    ) -> SolveStats {
        if self.running() {
            let rr = rr_sweep
                .filter(|_| self.unsettled())
                .map(|sweep| comm.reduce_sweep(sweep, 1)[0]);
            if self.settle(cfg, rr, &|| comm.stats()) == SolveOutcome::Diverged {
                copy_vec(comm, x_good, x);
            }
        }
        self.into_stats(comm.stats())
    }
}
