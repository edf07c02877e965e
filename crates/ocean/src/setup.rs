//! Solver/preconditioner configuration bundles.
//!
//! [`SolverChoice`] pairs a `pop_core::setup::SolverSpec` with a
//! `PrecondSpec` (the paper's four combinations are named constants);
//! [`SolverSetup`] stands one up on an operator —
//! preconditioner construction, Lanczos eigenvalue estimation for P-CSI —
//! behind a uniform `solve` entry point with a reusable workspace. Used by
//! the ocean model, the experiment binaries and the benches.

use pop_comm::{CommWorld, DistVec};
use pop_core::lanczos::LanczosConfig;
use pop_core::precond::Preconditioner;
use pop_core::setup::{OperatorState, PrecondSpec, Solver, SolverSpec};
use pop_core::solvers::{SolveStats, SolverConfig, SolverWorkspace};
use pop_stencil::NinePoint;
use std::sync::{Arc, Mutex};

/// A solver/preconditioner combination: two orthogonal choices in
/// `pop-core`'s vocabulary. The paper's four configurations have names, as
/// associated constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolverChoice {
    pub solver: SolverSpec,
    pub precond: PrecondSpec,
}

#[allow(non_upper_case_globals)]
impl SolverChoice {
    /// POP's production baseline (Alg. 1 + diagonal).
    pub const ChronGearDiag: Self = Self::of(SolverSpec::ChronGear, PrecondSpec::Diagonal);
    /// ChronGear with the new block-EVP preconditioner.
    pub const ChronGearEvp: Self = Self::of(SolverSpec::ChronGear, PrecondSpec::Evp);
    /// The paper's headline solver with diagonal preconditioning.
    pub const PcsiDiag: Self = Self::of(SolverSpec::Pcsi, PrecondSpec::Diagonal);
    /// The paper's headline solver with block-EVP preconditioning.
    pub const PcsiEvp: Self = Self::of(SolverSpec::Pcsi, PrecondSpec::Evp);

    /// The four configurations the paper's figures sweep.
    pub const PAPER_SET: [SolverChoice; 4] = [
        SolverChoice::ChronGearDiag,
        SolverChoice::ChronGearEvp,
        SolverChoice::PcsiDiag,
        SolverChoice::PcsiEvp,
    ];

    pub const fn of(solver: SolverSpec, precond: PrecondSpec) -> Self {
        SolverChoice { solver, precond }
    }

    /// `"<solver>+<precond>"`, e.g. `pcsi+evp`.
    pub fn label(self) -> String {
        format!("{}+{}", self.solver.label(), self.precond.label())
    }

    pub fn is_pcsi(self) -> bool {
        self.solver == SolverSpec::Pcsi
    }

    /// The cacheable preconditioner spec this choice builds.
    pub fn precond_spec(self) -> PrecondSpec {
        self.precond
    }
}

/// A ready-to-run solver: preconditioner built, eigenvalue bounds estimated.
///
/// The expensive part — preconditioner + eigenbounds — lives in a shared
/// [`OperatorState`], so a setup can also be stood up from a cached state
/// ([`SolverSetup::from_state`]) without paying the O(n³) construction
/// again; the state build is deterministic, so the two paths are bitwise
/// equivalent.
pub struct SolverSetup {
    choice: SolverChoice,
    state: Arc<OperatorState>,
    solver: Solver,
    /// Lanczos steps spent at setup (0 for CG-type solvers).
    pub lanczos_steps: usize,
    /// Reusable vector arena: after the first solve on a layout, repeated
    /// solves (one per model time step) allocate nothing.
    workspace: Mutex<SolverWorkspace>,
}

impl SolverSetup {
    /// Build everything the chosen configuration needs on `op`.
    ///
    /// For P-CSI this runs the Lanczos estimation under
    /// [`LanczosConfig::SETUP`]. The paper quotes ε = 0.15 as sufficient for
    /// POP's grids; on our synthetic grids the smallest eigenvalue of `M⁻¹A`
    /// settles more slowly (clustered low modes from the generated island
    /// field), so the set-up tolerance is stricter, paid once per operator.
    /// Use [`SolverSetup::with_lanczos`] to control it explicitly.
    pub fn new(choice: SolverChoice, op: &NinePoint, world: &CommWorld) -> Self {
        Self::with_lanczos(choice, op, world, &LanczosConfig::SETUP)
    }

    /// Build with an explicit Lanczos configuration (Fig 3 sweeps this).
    pub fn with_lanczos(
        choice: SolverChoice,
        op: &NinePoint,
        world: &CommWorld,
        lanczos: &LanczosConfig,
    ) -> Self {
        let state = OperatorState::build(
            op,
            choice.precond,
            choice.solver.needs_bounds().then_some(lanczos),
            world,
        );
        Self::from_state(choice, state)
    }

    /// Stand up a solver from already-built (possibly cached) setup state.
    ///
    /// Skips all O(n³) work: the preconditioner and eigenbounds are taken
    /// from `state` as-is. This is `pop-serve`'s warm-cache path; because
    /// [`OperatorState::build`] is deterministic, solves through a reused
    /// state are bitwise identical to a cold setup.
    ///
    /// Panics if `choice` is P-CSI and `state` carries no eigenbounds.
    pub fn from_state(choice: SolverChoice, state: Arc<OperatorState>) -> Self {
        SolverSetup {
            choice,
            lanczos_steps: state.lanczos_steps,
            solver: state.solver(choice.solver),
            state,
            workspace: Mutex::new(SolverWorkspace::new()),
        }
    }

    pub fn choice(&self) -> SolverChoice {
        self.choice
    }

    /// Access the preconditioner (e.g. for kernel benches).
    pub fn preconditioner(&self) -> &dyn Preconditioner {
        self.state.precond.as_ref()
    }

    /// The shared setup state (hand this to a cache to reuse elsewhere).
    pub fn state(&self) -> &Arc<OperatorState> {
        &self.state
    }

    /// Solve `A x = b` (warm-started from `x`).
    pub fn solve(
        &self,
        op: &NinePoint,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        cfg: &SolverConfig,
    ) -> SolveStats {
        let ws = &mut *self.workspace.lock().unwrap_or_else(|e| e.into_inner());
        let pre = self.state.precond.as_ref();
        self.solver.solve(op, pre, world, b, x, cfg, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::DistLayout;
    use pop_grid::Grid;

    #[test]
    fn all_choices_build_and_converge() {
        let g = Grid::gx1_scaled(33, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 8000.0);
        let mut x_true = DistVec::zeros(&layout);
        x_true.fill_with(|i, j| ((i + 2 * j) as f64 * 0.1).sin());
        world.halo_update(&mut x_true);
        let mut b = DistVec::zeros(&layout);
        op.apply(&world, &x_true, &mut b);

        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 30_000,
            check_every: 10,
            ..SolverConfig::default()
        };
        for choice in SolverChoice::PAPER_SET {
            let setup = SolverSetup::new(choice, &op, &world);
            let mut x = DistVec::zeros(&layout);
            let st = setup.solve(&op, &world, &b, &mut x, &cfg);
            assert!(st.converged, "{} did not converge: {st:?}", choice.label());
        }
    }

    #[test]
    fn pcsi_runs_lanczos_cg_does_not() {
        let g = Grid::gx1_scaled(34, 40, 32);
        let layout = DistLayout::build(&g, 10, 8);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 5000.0);
        let cg = SolverSetup::new(SolverChoice::ChronGearDiag, &op, &world);
        let csi = SolverSetup::new(SolverChoice::PcsiDiag, &op, &world);
        assert_eq!(cg.lanczos_steps, 0);
        assert!(csi.lanczos_steps >= 3);
    }

    #[test]
    fn labels_unique() {
        let all = SolverChoice::PAPER_SET;
        let mut labels: Vec<String> = all.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
