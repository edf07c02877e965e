//! # pop-baro
//!
//! A Rust reproduction of *“Improving the Scalability of the Ocean
//! Barotropic Solver in the Community Earth System Model”* (SC '15): the
//! P-CSI Chebyshev-type barotropic solver and the block-EVP preconditioner,
//! together with every substrate they need — a POP-like grid and domain
//! decomposition, a simulated message-passing runtime, the nine-point
//! implicit free-surface operator, a reduced-physics ocean model, calibrated
//! machine models for the scaling studies, and the ensemble-based
//! statistical verification method.
//!
//! This crate re-exports the workspace's public API in one place:
//!
//! - [`grid`] — grids, bathymetry, masks, block decomposition
//!   (space-filling-curve rank assignment included).
//! - [`comm`] — distributed block vectors, halo exchange, fused global
//!   reductions, communication counters.
//! - [`stencil`] — the nine-point barotropic operator in POP's symmetric
//!   `{A0, AN, AE, ANE}` storage.
//! - [`core`] — the paper's two solvers (ChronGear, P-CSI) and
//!   preconditioners (diagonal, block-EVP), plus Lanczos eigenvalue
//!   estimation.
//! - [`ranksim`] — the rank-based message-passing runtime: each simulated
//!   MPI rank is a thread owning private blocks, halos travel as
//!   point-to-point messages, reductions climb binomial trees, and a
//!   pluggable network model charges simulated time. A seeded fault layer
//!   ([`prelude::FaultPlan`]) injects deterministic network chaos for the
//!   recovery test suites.
//! - [`perfmodel`] — the paper's cost equations with Yellowstone- and
//!   Edison-calibrated parameters.
//! - [`ocean`] — the barotropic mode and the mini-POP ocean model.
//! - [`verif`] — perturbation ensembles, RMSE/RMSZ, the consistency test,
//!   and the method-of-manufactured-solutions oracle.
//! - [`obs`] — the solver observability layer: a lock-free metrics
//!   registry, per-solve convergence traces, and Prometheus/JSON exporters.
//!   Thread an enabled [`prelude::ObsSink`] through [`prelude::SolverConfig`]
//!   to capture telemetry; the default (disabled) sink costs nothing and
//!   leaves solver output bit-identical.
//!
//! ## Quickstart
//!
//! ```
//! use pop_baro::prelude::*;
//!
//! // A small global ocean and its distributed operator.
//! let grid = Grid::gx1_scaled(7, 96, 80);
//! let layout = DistLayout::build(&grid, 24, 20);
//! let world = CommWorld::serial();
//! let op = NinePoint::assemble(&grid, &layout, &world, 1100.0);
//!
//! // A right-hand side with a known solution.
//! let mut truth = DistVec::zeros(&layout);
//! truth.fill_with(|i, j| ((i as f64) * 0.1).sin() + ((j as f64) * 0.2).cos());
//! world.halo_update(&mut truth);
//! let mut rhs = DistVec::zeros(&layout);
//! op.apply(&world, &truth, &mut rhs);
//!
//! // Solve it with the paper's P-CSI + block-EVP configuration.
//! let setup = SolverSetup::new(SolverChoice::PcsiEvp, &op, &world);
//! let mut x = DistVec::zeros(&layout);
//! let stats = setup.solve(&op, &world, &rhs, &mut x, &SolverConfig::default());
//! assert!(stats.converged);
//! // P-CSI's loop body contains no global reductions:
//! assert!(stats.comm.allreduces < stats.iterations as u64);
//! ```

pub use pop_comm as comm;
pub use pop_core as core;
pub use pop_grid as grid;
pub use pop_obs as obs;
pub use pop_ocean as ocean;
pub use pop_perfmodel as perfmodel;
pub use pop_ranksim as ranksim;
pub use pop_serve as serve;
pub use pop_stencil as stencil;
pub use pop_verif as verif;

/// The most commonly used types in one import.
pub mod prelude {
    pub use pop_comm::{CommWorld, DistLayout, DistVec};
    pub use pop_core::lanczos::{estimate_bounds, EigenBounds, LanczosConfig};
    pub use pop_core::precond::{BlockEvp, BlockMg, Diagonal, MgConfig, Preconditioner};
    pub use pop_core::setup::{OperatorState, PrecondSpec, Solver, SolverSpec};
    pub use pop_core::solvers::{
        BatchCommSolver, BatchWorkspace, ChronGear, LinearSolver, Pcsi, RecoveryConfig,
        SolveOutcome, SolveStats, SolverConfig, MAX_BATCH,
    };
    pub use pop_grid::{Decomposition, Grid};
    pub use pop_obs::{ConvergenceTrace, ObsSink};
    pub use pop_ocean::{BarotropicMode, MiniPop, MiniPopConfig, SolverChoice, SolverSetup};
    pub use pop_perfmodel::{MachineModel, PopConfig, PopModel};
    pub use pop_ranksim::{
        solve_on_ranks, FaultConfig, FaultPlan, HierarchicalNet, LatencyBandwidth, RankSimConfig,
        RankWorld, ReduceAlgo, SolverKind, ZeroCost,
    };
    pub use pop_stencil::NinePoint;
    pub use pop_verif::{EnsembleConfig, MmsCase, VerificationLab};
}
