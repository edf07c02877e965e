//! The paper's two barotropic solvers behind one interface: ChronGear
//! (Algorithm 1, `chrongear.rs`) and P-CSI (Algorithm 2, `csi.rs`).
//!
//! Each solver's recurrence is written once, as a loop generic over the
//! block tile (`kernels.rs`): [`CommSolver::solve_comm`] runs it on
//! [`BlockVec`]s for one right-hand side, [`BatchCommSolver::solve_batch_comm`]
//! on `MultiBlockVec`s for a batch, and one solve control per right-hand
//! side runs it either way (`control.rs`; DESIGN.md §7, §10, §12).
//! The independent oracle both are held to is a whole-field reference
//! composition under `tests/` (`tests/common/reference.rs`).

mod batch;
mod chrongear;
mod control;
mod csi;
mod kernels;

pub use batch::{BatchCommSolver, BatchWorkspace, MAX_BATCH};
pub use chrongear::ChronGear;
pub(crate) use control::{Control, SolveCtl};
pub use csi::Pcsi;
pub(crate) use kernels::{update, Axpy, TileKernels, Xpay};

use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{
    blockwise, BlockVec, CommVec, CommWorld, Communicator, DistLayout, DistVec, StatsSnapshot,
    SweepPartials, MAX_SWEEP_PARTIALS,
};
use pop_obs::ObsSink;
use pop_stencil::NinePoint;
use std::sync::Arc;

/// The partials row of a sweep that reduces nothing.
const ZEROS: SweepPartials = [0.0; MAX_SWEEP_PARTIALS];

/// Stopping rule and bookkeeping shared by every solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Convergence when `‖r‖₂ < tol · ‖b‖₂`. POP's production default for
    /// the barotropic mode is 1e-13 (the paper's §6 sweeps 1e-10…1e-16).
    pub tol: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Convergence is tested every `check_every` iterations (the paper
    /// checks every 10 in the 0.1° runs; each test costs one reduction).
    /// 0 is read as 1.
    pub check_every: usize,
    /// Bounded graceful degradation when the recurrence breaks (NaN from a
    /// poisoned halo strip, exploding residual). Inert in healthy runs: the
    /// restart triggers only fire on non-finite or clearly diverged checked
    /// residuals, so fault-free trajectories are bit-identical with any
    /// recovery setting.
    pub recovery: RecoveryConfig,
    /// Observability sink (`pop-obs`). The default sink is disabled and
    /// costs nothing on the hot path; an enabled sink records a per-solve
    /// [`pop_obs::ConvergenceTrace`] and registry metrics. The sink only
    /// ever *reads* communicator statistics — never issues communication —
    /// so solver trajectories and allreduce counts are bit-identical with
    /// observability on or off (`tests/obs_equivalence.rs`).
    pub obs: ObsSink,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tol: 1e-13,
            max_iters: 10_000,
            check_every: 10,
            recovery: RecoveryConfig::default(),
            obs: ObsSink::disabled(),
        }
    }
}

impl SolverConfig {
    /// Production-like config with an explicit tolerance.
    pub fn with_tol(tol: f64) -> Self {
        SolverConfig {
            tol,
            ..Default::default()
        }
    }

    /// The convergence-check interval every solver loop reads:
    /// `check_every`, with 0 (a zero divisor in `iterations % interval`)
    /// meaning 1. `#[inline]` because the generic solver loops that call it
    /// every iteration are instantiated in downstream crates.
    #[inline]
    pub(crate) fn check_interval(&self) -> usize {
        self.check_every.max(1)
    }

    /// The same config with observability routed to `sink`.
    pub fn with_obs(mut self, sink: ObsSink) -> Self {
        self.obs = sink;
        self
    }
}

/// Restart policy for the solvers' graceful-degradation path.
///
/// Each fused solver snapshots its iterate at every *healthy* convergence
/// check. When a later check sees a non-finite residual (NaN from a
/// poisoned halo strip under fault injection) or one that exploded past
/// `divergence_factor ×` the best residual seen, the solver restarts its
/// recurrence from the snapshot instead of silently diverging — at most
/// `max_restarts` times, after which it restores the snapshot and reports
/// [`SolveOutcome::Diverged`]. The decision is taken from the *reduced*
/// residual, which the communicator contract makes identical on every
/// rank, so all ranks of an SPMD solve restart in lockstep and no rank can
/// deadlock waiting on a collective its peers abandoned.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Recurrence restarts allowed before the solve gives up.
    pub max_restarts: usize,
    /// A checked residual above `divergence_factor × best-so-far` counts
    /// as divergence (non-finite always does). Large enough that healthy
    /// CG non-monotonicity never trips it.
    pub divergence_factor: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_restarts: 3,
            divergence_factor: 1e6,
        }
    }
}

/// How a solve ended. Richer than the `converged` flag: distinguishes a
/// healthy run that merely hit the iteration cap from a recurrence that
/// broke and exhausted its restart budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// `‖r‖ < tol · ‖b‖` reached.
    Converged,
    /// Iteration cap hit while the recurrence was still healthy (includes
    /// stagnation at the rounding floor).
    MaxIters,
    /// The recurrence produced non-finite or exploded residuals and the
    /// restart budget ran out. The returned `x` is the last good iterate —
    /// finite by construction, never the poisoned state.
    Diverged,
}

impl SolveOutcome {
    /// Short label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SolveOutcome::Converged => "converged",
            SolveOutcome::MaxIters => "max-iters",
            SolveOutcome::Diverged => "diverged",
        }
    }
}

/// What one solve did: iteration counts, convergence, and the exact
/// communication events it generated (the cost-model inputs).
#[derive(Debug, Clone)]
pub struct SolveStats {
    pub solver: &'static str,
    pub preconditioner: &'static str,
    pub iterations: usize,
    pub converged: bool,
    /// Structured outcome (`converged` stays as the simple boolean view).
    pub outcome: SolveOutcome,
    /// Recurrence restarts the recovery path performed.
    pub restarts: usize,
    /// Final `‖r‖₂ / ‖b‖₂`.
    pub final_relative_residual: f64,
    pub matvecs: usize,
    pub precond_applies: usize,
    /// Communication events attributable to this solve.
    pub comm: StatsSnapshot,
    /// `(iteration, ‖r‖/‖b‖)` at every convergence check — the convergence
    /// history, recorded for free since the checks compute these values
    /// anyway. Useful for plotting and for comparing solver convergence
    /// behaviour (e.g. CG's superlinear phases vs Chebyshev's steady rate).
    pub residual_history: Vec<(usize, f64)>,
}

/// Reusable vector arena for the fused solver loops, single-RHS and
/// batched alike.
///
/// [`SolverWorkspace::take`] hands out `N` zeroed vectors matching a model
/// vector's view, allocating only on first use or when the (layout, width)
/// key changes. POP calls the barotropic solver every time step on the same
/// decomposition, so steady-state solves reuse these buffers and the
/// iteration loops do zero heap allocation (DESIGN.md, "Fused execution
/// model").
///
/// Generic over the vector type so the same workspace discipline serves the
/// shared-memory [`DistVec`] path, a rank runtime's private-slice vectors
/// and both runtimes' `k`-wide batched vectors; the default parameter keeps
/// existing `SolverWorkspace` call sites unchanged.
///
/// It also keeps the solves' convergence-history buffers, reserved for the
/// worst case so that no check allocates: each solve hands its
/// [`SolveStats`] an exact-size copy and returns the buffer here.
pub struct SolverWorkspace<V = DistVec> {
    layout: Option<Arc<DistLayout>>,
    width: usize,
    vecs: Vec<V>,
    histories: Vec<Vec<(usize, f64)>>,
}

impl<V> Default for SolverWorkspace<V> {
    fn default() -> Self {
        SolverWorkspace {
            layout: None,
            width: 0,
            vecs: Vec::new(),
            histories: Vec::new(),
        }
    }
}

impl<V> SolverWorkspace<V> {
    /// A history buffer for one lane of a solve (empty on first use).
    pub(crate) fn lend_history(&mut self) -> Vec<(usize, f64)> {
        self.histories.pop().unwrap_or_default()
    }

    /// Take a lent history buffer back for the next solve.
    pub(crate) fn keep_history(&mut self, history: Vec<(usize, f64)>) {
        self.histories.push(history);
    }
}

impl<V: CommVec> SolverWorkspace<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow `N` vectors of `width` values per point with the same view as
    /// `model`, zeroed exactly as fresh allocations would be (interior *and*
    /// halo), so a warm-started solve is bit-identical to a cold one.
    pub fn take<const N: usize, C: Communicator<Vec<V::Tile> = V>>(
        &mut self,
        comm: &C,
        model: &C::Vec<BlockVec>,
        width: usize,
    ) -> [&mut V; N] {
        let layout = model.layout();
        let same =
            self.layout.as_ref().is_some_and(|l| Arc::ptr_eq(l, layout)) && self.width == width;
        if !same {
            self.vecs.clear();
            self.layout = Some(Arc::clone(layout));
            self.width = width;
        }
        while self.vecs.len() < N {
            self.vecs.push(comm.alloc::<V::Tile>(model, width));
        }
        let mut iter = self.vecs[..N].iter_mut();
        std::array::from_fn(|_| {
            let v = iter.next().expect("reserved above");
            v.zero_fill();
            v
        })
    }
}

/// A linear solver for the barotropic system `A x = b`.
///
/// `x` carries the initial guess in and the solution out; POP warm-starts
/// each time step from the previous surface height, and the experiments do
/// the same.
///
/// [`LinearSolver::solve_ws`] is the production entry point: the fused
/// block-sweep loop running out of a caller-owned [`SolverWorkspace`].
/// [`LinearSolver::solve`] wraps it with a throwaway workspace for one-shot
/// callers; results are identical either way.
pub trait LinearSolver {
    fn name(&self) -> &'static str;

    /// Solve using `ws` for every temporary vector (zero steady-state
    /// allocation when `ws` is reused across solves on one layout).
    #[allow(clippy::too_many_arguments)]
    fn solve_ws(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace,
    ) -> SolveStats;

    /// Convenience wrapper: solve with a fresh workspace.
    fn solve(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        cfg: &SolverConfig,
    ) -> SolveStats {
        let mut ws = SolverWorkspace::default();
        self.solve_ws(op, pre, world, b, x, cfg, &mut ws)
    }
}

/// The runtime-generic solver entry point: one fused iteration loop per
/// solver, written once against the [`Communicator`] trait, driven by both
/// the shared-memory [`CommWorld`] and a rank-based message-passing runtime
/// (`pop-ranksim`).
///
/// Not object-safe (the method is generic over the communicator); dynamic
/// dispatch keeps using [`LinearSolver`], whose `solve_ws` delegates here
/// with `C = CommWorld`. Because every implementation routes *all* global
/// operations through [`Communicator::reduce_sweep`] /
/// [`Communicator::halo_update`], the determinism contract of the trait
/// makes solver trajectories bit-identical across runtimes.
pub trait CommSolver: LinearSolver {
    /// Solve `A x = b` on whatever runtime `comm` provides. Under a rank
    /// communicator this runs SPMD: every rank executes the same control
    /// flow on its private blocks and the reductions keep the scalar state
    /// identical everywhere.
    #[allow(clippy::too_many_arguments)]
    fn solve_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<BlockVec>,
        x: &mut C::Vec<BlockVec>,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace<C::Vec<BlockVec>>,
    ) -> SolveStats;
}

/// A solver's recurrence, written once over the tile: `T = BlockVec` runs
/// one right-hand side on the caller's `b` and `x`, `T = MultiBlockVec` a
/// batch on its lane-loaded copies. `ctl` holds every right-hand side's
/// control; the recurrence takes its own vectors from `ws`.
pub(crate) trait Recurrence {
    /// Which solver this is (its reporting name).
    const SPEC: SolverSpec;

    #[allow(clippy::too_many_arguments)]
    fn recur<C: Communicator, T: TileKernels>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        b: &C::Vec<T>,
        x: &mut C::Vec<T>,
        ws: &mut SolverWorkspace<C::Vec<T>>,
        ctl: &mut Control<'_, '_, C>,
    );
}

impl<S: Recurrence> LinearSolver for S {
    fn name(&self) -> &'static str {
        S::SPEC.label()
    }

    /// Dynamic-dispatch entry point: the generic fused loop driven by the
    /// shared-memory world.
    fn solve_ws(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace,
    ) -> SolveStats {
        self.solve_comm(op, pre, world, b, x, cfg, ws)
    }
}

impl<S: Recurrence> CommSolver for S {
    fn solve_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<BlockVec>,
        x: &mut C::Vec<BlockVec>,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace<C::Vec<BlockVec>>,
    ) -> SolveStats {
        let history = ws.lend_history();
        let mut lane = SolveCtl::new(cfg, S::SPEC.label(), pre.name(), comm.stats(), history);
        lane.bnorm = rhs_norm(comm, b);
        // Staging for a restart, which allocates only if one happens.
        let mut stage = SolverWorkspace::default();
        let (lanes, bs) = (std::slice::from_mut(&mut lane), [b]);
        let mut ctl = Control::new(comm, cfg, lanes, &bs, &mut [], &mut stage, 1);
        self.recur(op, pre, b, x, ws, &mut ctl);
        let (stats, history) = lane.into_stats(comm.stats());
        ws.keep_history(history);
        stats
    }
}

/// `‖b‖₂` with a floor so a zero right-hand side converges immediately
/// instead of dividing by zero. Computed through the fused sweep so the
/// solver setup path stays allocation-free; bit-identical to
/// `world.norm2_sq(b).sqrt()`.
pub(crate) fn rhs_norm<C: Communicator>(comm: &C, b: &C::Vec<BlockVec>) -> f64 {
    comm.dot_fused(b, b).sqrt().max(1e-300)
}

/// `r = b − A x` after `x`'s halo exchange, with each lane's `‖r‖²` riding
/// along as a per-block partial: ChronGear's first sweep, and every P-CSI
/// residual whose norm a check or the start's caller reads.
pub(crate) fn residual_sweep<C: Communicator, T: TileKernels>(
    op: &NinePoint,
    comm: &C,
    b: &C::Vec<T>,
    x: &mut C::Vec<T>,
    r: &mut C::Vec<T>,
) -> C::Sweep {
    let residual = |bk: usize, [xb, rb]: &mut [&mut T; 2]| {
        let mut p = ZEROS;
        T::residual(op, bk, xb, b.block(bk), rb, &mut p);
        p
    };
    comm.halo_sweep_fused([x, r], blockwise(residual))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use pop_comm::DistLayout;
    use pop_grid::Grid;
    use std::sync::Arc;

    pub struct Fixture {
        pub layout: Arc<DistLayout>,
        pub world: CommWorld,
        pub op: NinePoint,
        pub b: DistVec,
        pub x_true: DistVec,
    }

    /// A solvable system with a known solution: pick x*, set b = A x*.
    pub fn fixture(grid: &Grid, bx: usize, by: usize, tau: f64) -> Fixture {
        let layout = DistLayout::build(grid, bx, by);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(grid, &layout, &world, tau);
        let mut x_true = DistVec::zeros(&layout);
        x_true.fill_with(|i, j| ((i as f64) * 0.21).sin() + ((j as f64) * 0.13).cos());
        world.halo_update(&mut x_true);
        let mut b = DistVec::zeros(&layout);
        op.apply(&world, &x_true, &mut b);
        Fixture {
            layout,
            world,
            op,
            b,
            x_true,
        }
    }

    /// Relative L2 error against the fixture's true solution.
    pub fn rel_error(f: &Fixture, x: &DistVec) -> f64 {
        let mut diff = x.clone();
        diff.axpy(-1.0, &f.x_true);
        (f.world.norm2_sq(&diff) / f.world.norm2_sq(&f.x_true)).sqrt()
    }
}
