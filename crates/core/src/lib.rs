//! Barotropic solvers for the POP-like ocean model — the primary
//! contribution of the reproduced paper.
//!
//! The paper's two iterative solvers for the elliptic sea-surface-height
//! system `A η = ψ` share one interface:
//!
//! - [`solvers::ChronGear`] — the Chronopoulos–Gear PCG variant POP ships
//!   (paper Algorithm 1): the two inner products are fused into **one**
//!   global reduction per iteration.
//! - [`solvers::Pcsi`] — the paper's Preconditioned Classical Stiefel
//!   Iteration (Algorithm 2), a Chebyshev-type method with **zero** global
//!   reductions in the loop body; only the periodic convergence check
//!   reduces. It needs bounds `[ν, μ]` on the spectrum of `M⁻¹A`, supplied
//!   by [`lanczos::estimate_bounds`].
//!
//! Pipelined CG, the alternative the paper's §7 weighs against P-CSI (its
//! ref \[16\]), is a cost model in `pop-perfmodel`, not a solver here.
//!
//! The paper's two preconditioners, also behind one trait:
//!
//! - [`precond::Diagonal`] — POP's production default.
//! - [`precond::BlockEvp`] — the paper's new block preconditioner: each
//!   process block is tiled into small sub-blocks, each solved *exactly* by
//!   Roache's Error Vector Propagation marching method (Algorithm 3) at
//!   `O(n²)` per application after an `O(n³)` one-time setup. A `reduced`
//!   mode drops the small N/S/E/W couplings, halving the marching cost, as
//!   §4.3 of the paper describes.
//!
//! [`setup::PrecondSpec`] names exactly those two; [`precond::BlockMg`] is
//! a type for tests and the benchmark, not a configuration. The test-only
//! preconditioners — the identity, and the block-LU direct solve per
//! sub-block that EVP is compared against (paper §4.1's `O(n³)` yardstick)
//! — live with the tests that use them.
//!
//! All solvers run over `pop-comm`'s counted communication layer, so a solve
//! reports exactly how many reductions, halo updates, and bytes it needed —
//! the inputs the paper's cost model (in `pop-perfmodel`) converts into
//! large-core-count wall time.

pub mod fingerprint;
pub mod lanczos;
pub mod precond;
pub mod setup;
pub mod solvers;
pub mod tridiag;

pub use lanczos::{estimate_bounds, EigenBounds, LanczosConfig};
pub use precond::{BlockEvp, BlockMg, Diagonal, MgConfig, Preconditioner};
pub use setup::{OperatorState, PrecondSpec, Solver, SolverSpec};
pub use solvers::{
    BatchCommSolver, BatchWorkspace, ChronGear, CommSolver, LinearSolver, Pcsi, RecoveryConfig,
    SolveOutcome, SolveStats, SolverConfig, SolverWorkspace, MAX_BATCH,
};
