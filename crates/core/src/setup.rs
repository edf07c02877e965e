//! The solver-layer vocabulary and the cache-reusable per-operator setup
//! state it builds.
//!
//! A configuration is two orthogonal, data-less choices — a [`SolverSpec`]
//! and a [`PrecondSpec`], the paper's two solvers and two preconditioners —
//! that every layer above speaks (`pop_ocean::SolverChoice` is the pair,
//! `pop-serve` requests carry both). Building them on an operator gives an
//! [`OperatorState`] and, from it, a [`Solver`].
//!
//! Everything expensive a solver needs *before* its first iteration on an
//! operator — the preconditioner (EVP influence matrices, O(n³) each to
//! build, and land-tile band-LU factors) and, for P-CSI, the Lanczos
//! eigenbound estimate — is bundled into one immutable, shareable
//! [`OperatorState`]. `pop_ocean::SolverSetup` builds on it for the
//! one-model-one-operator case; `pop-serve` keeps an LRU of them keyed by
//! [`crate::fingerprint::operator_fingerprint`] so repeat multi-tenant
//! traffic skips setup entirely. The state itself never hashes the
//! operator: the service computes each operator's key once, at admission,
//! and a model that owns its operator needs none.
//!
//! The build is deterministic: the preconditioner construction is pure
//! arithmetic on the operator's coefficients and the Lanczos estimation is
//! seeded ([`LanczosConfig::default`]), so a state built cold and a state
//! served from cache are not merely equivalent — they are the *same values*,
//! and every solve through either is bitwise identical. That determinism is
//! what lets the serve layer promise cache-transparency
//! (`tests/serve_cache_equivalence.rs`).

use crate::lanczos::{estimate_bounds, EigenBounds, LanczosConfig};
use crate::precond::{BlockEvp, Diagonal, Preconditioner};
use crate::solvers::{
    BatchCommSolver, BatchWorkspace, ChronGear, CommSolver, Pcsi, SolveStats, SolverConfig,
    SolverWorkspace,
};
use pop_comm::{BlockVec, CommWorld, Communicator};
use pop_stencil::NinePoint;
use std::sync::Arc;

/// Which iterative solver to run — the data-less name that can key a cache
/// or a batch, as opposed to the built [`Solver`] (P-CSI's eigenbounds come
/// from the [`OperatorState`], which is the point of caching it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverSpec {
    /// POP's production solver (paper Algorithm 1).
    ChronGear,
    /// The paper's headline solver (Algorithm 2).
    Pcsi,
}

impl SolverSpec {
    /// The solver's reporting name: `LinearSolver::name`, the `solver`
    /// label on every metric, the left half of a `SolverChoice` label.
    pub const fn label(self) -> &'static str {
        match self {
            SolverSpec::ChronGear => "chrongear",
            SolverSpec::Pcsi => "pcsi",
        }
    }

    /// P-CSI needs Lanczos eigenbounds in its setup state.
    pub fn needs_bounds(self) -> bool {
        matches!(self, SolverSpec::Pcsi)
    }
}

/// A built solver: a [`SolverSpec`] plus the spectral bounds P-CSI iterates
/// with (from a one-time Lanczos estimation; sharing the same bounds across
/// runtimes keeps trajectories bit-identical). The two methods below are
/// the only place a solver name becomes a solver type.
#[derive(Debug, Clone, Copy)]
pub enum Solver {
    ChronGear,
    Pcsi(EigenBounds),
}

impl Solver {
    pub fn spec(&self) -> SolverSpec {
        match self {
            Solver::ChronGear => SolverSpec::ChronGear,
            Solver::Pcsi(_) => SolverSpec::Pcsi,
        }
    }

    /// The solver's reporting name (matches `LinearSolver::name`).
    pub fn name(&self) -> &'static str {
        self.spec().label()
    }

    /// Solve `A x = b` over any communicator (warm-started from `x`).
    #[allow(clippy::too_many_arguments)]
    pub fn solve<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<BlockVec>,
        x: &mut C::Vec<BlockVec>,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace<C::Vec<BlockVec>>,
    ) -> SolveStats {
        match self {
            Solver::ChronGear => ChronGear.solve_comm(op, pre, comm, b, x, cfg, ws),
            Solver::Pcsi(bounds) => Pcsi::new(*bounds).solve_comm(op, pre, comm, b, x, cfg, ws),
        }
    }

    /// Solve `k ≤ MAX_BATCH` systems through the batched engine. Width-1
    /// batches take the same path — the engine's lane-pinning contract is
    /// what keeps every width bit-identical to [`Solver::solve`].
    #[allow(clippy::too_many_arguments)]
    pub fn solve_batch<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats> {
        match self {
            Solver::ChronGear => ChronGear.solve_batch_comm(op, pre, comm, bs, xs, cfg, ws),
            Solver::Pcsi(bounds) => {
                Pcsi::new(*bounds).solve_batch_comm(op, pre, comm, bs, xs, cfg, ws)
            }
        }
    }
}

/// Which preconditioner to construct — the data-less description that can
/// key a cache, as opposed to the built `dyn Preconditioner` it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrecondSpec {
    /// POP's production default.
    Diagonal,
    /// The paper's block-EVP with the reduced-coupling defaults
    /// ([`BlockEvp::with_defaults`]).
    Evp,
}

impl PrecondSpec {
    pub fn label(self) -> &'static str {
        match self {
            PrecondSpec::Diagonal => "diag",
            PrecondSpec::Evp => "evp",
        }
    }

    /// Construct the preconditioner on `op`. Deterministic — pure
    /// arithmetic on the operator's coefficients.
    pub fn build(self, op: &NinePoint) -> Arc<dyn Preconditioner> {
        match self {
            PrecondSpec::Diagonal => Arc::new(Diagonal::new(op)),
            PrecondSpec::Evp => Arc::new(BlockEvp::with_defaults(op)),
        }
    }
}

/// Immutable, shareable setup state for one (operator, preconditioner)
/// pair: the built preconditioner plus the optional Lanczos eigenbounds
/// P-CSI needs. `Preconditioner: Send + Sync`, so the whole state can be
/// handed across threads and cached behind an `Arc` while solves against
/// it are in flight — eviction from a cache can never invalidate a batch
/// that already holds the `Arc`.
pub struct OperatorState {
    /// The spec the preconditioner was built from (cache-key component).
    pub spec: PrecondSpec,
    pub precond: Arc<dyn Preconditioner>,
    /// Spectral bounds of `M⁻¹A`, present iff requested at build time
    /// (P-CSI needs them; CG-type solvers don't pay for the estimation).
    pub bounds: Option<EigenBounds>,
    /// Lanczos steps spent estimating `bounds` (0 when `bounds` is None).
    pub lanczos_steps: usize,
}

impl OperatorState {
    /// Build the full setup state on `op`: preconditioner construction
    /// plus, when `lanczos` is given, the seeded Lanczos eigenbound
    /// estimation (run *through the preconditioner just built*, so the
    /// bounds match what P-CSI will iterate with).
    pub fn build(
        op: &NinePoint,
        spec: PrecondSpec,
        lanczos: Option<&LanczosConfig>,
        world: &CommWorld,
    ) -> Arc<OperatorState> {
        let precond = spec.build(op);
        let (bounds, lanczos_steps) = match lanczos {
            Some(cfg) => {
                let (b, steps) = estimate_bounds(op, precond.as_ref(), world, cfg);
                (Some(b), steps)
            }
            None => (None, 0),
        };
        Arc::new(OperatorState {
            spec,
            precond,
            bounds,
            lanczos_steps,
        })
    }

    /// The built solver `spec` names on this operator — the one place that
    /// pairs P-CSI with its eigenbounds.
    ///
    /// Panics if `spec` is P-CSI and the state was built without Lanczos
    /// bounds (a cache-key or setup bug, not an input condition).
    pub fn solver(&self, spec: SolverSpec) -> Solver {
        match spec {
            SolverSpec::ChronGear => Solver::ChronGear,
            SolverSpec::Pcsi => Solver::Pcsi(
                self.bounds
                    .expect("P-CSI needs an OperatorState built with Lanczos bounds"),
            ),
        }
    }
}

impl std::fmt::Debug for OperatorState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OperatorState")
            .field("spec", &self.spec)
            .field("bounds", &self.bounds)
            .field("lanczos_steps", &self.lanczos_steps)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::testutil::fixture;
    use pop_comm::DistVec;
    use pop_grid::Grid;

    #[test]
    fn build_is_deterministic_across_rebuilds() {
        let grid = Grid::gx1_scaled(23, 40, 32);
        let f = fixture(&grid, 10, 8, 5000.0);
        let lz = LanczosConfig::default();
        let a = OperatorState::build(&f.op, PrecondSpec::Evp, Some(&lz), &f.world);
        let b = OperatorState::build(&f.op, PrecondSpec::Evp, Some(&lz), &f.world);
        // The two builds' M⁻¹ are the same values: one apply each, bit for bit.
        let mut r = DistVec::zeros(&f.layout);
        r.fill_with(|i, j| ((i * 7 + j * 3) as f64 * 0.17).sin());
        let (mut za, mut zb) = (DistVec::zeros(&f.layout), DistVec::zeros(&f.layout));
        a.precond.apply(&f.world, &r, &mut za);
        b.precond.apply(&f.world, &r, &mut zb);
        let bits = |z: &DistVec| {
            z.to_global()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&za), bits(&zb), "same EVP apply bits");
        let (ba, bb) = (a.bounds.unwrap(), b.bounds.unwrap());
        assert_eq!(
            ba.nu.to_bits(),
            bb.nu.to_bits(),
            "seeded Lanczos: same nu bits"
        );
        assert_eq!(
            ba.mu.to_bits(),
            bb.mu.to_bits(),
            "seeded Lanczos: same mu bits"
        );
        assert_eq!(a.lanczos_steps, b.lanczos_steps);
    }

    #[test]
    fn bounds_only_when_requested() {
        let grid = Grid::gx1_scaled(24, 32, 24);
        let f = fixture(&grid, 8, 6, 3000.0);
        let s = OperatorState::build(&f.op, PrecondSpec::Diagonal, None, &f.world);
        assert!(s.bounds.is_none());
        assert_eq!(s.lanczos_steps, 0);
        assert_eq!(s.precond.name(), "diagonal");
    }

    #[test]
    fn solver_pairs_pcsi_with_the_state_bounds() {
        let grid = Grid::gx1_scaled(24, 32, 24);
        let f = fixture(&grid, 8, 6, 3000.0);
        let lz = LanczosConfig::default();
        let s = OperatorState::build(&f.op, PrecondSpec::Diagonal, Some(&lz), &f.world);
        for spec in [SolverSpec::ChronGear, SolverSpec::Pcsi] {
            let solver = s.solver(spec);
            assert_eq!(solver.spec(), spec);
            assert_eq!(spec.needs_bounds(), matches!(solver, Solver::Pcsi(_)));
        }
        let Solver::Pcsi(bounds) = s.solver(SolverSpec::Pcsi) else {
            unreachable!()
        };
        assert_eq!(bounds.nu.to_bits(), s.bounds.unwrap().nu.to_bits());
    }

    #[test]
    fn solver_labels_are_the_metric_names() {
        // The `solver` label on every exported series; `LinearSolver::name`
        // is defined by these, so SLO metrics join with per-solve counters.
        assert_eq!(SolverSpec::ChronGear.label(), "chrongear");
        assert_eq!(SolverSpec::Pcsi.label(), "pcsi");
    }

    #[test]
    fn spec_labels_unique() {
        let all = [PrecondSpec::Diagonal, PrecondSpec::Evp];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
