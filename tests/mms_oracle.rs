//! Method-of-manufactured-solutions oracle for every solver.
//!
//! Two independent correctness probes (see `pop_verif::mms`):
//!
//! - **Continuous manufacture** on a uniform basin: the RHS comes from the
//!   analytic operator `φψ − H∇²ψ`, so the recovered solution differs from ψ
//!   by the *discretization* error, which must shrink at second order when
//!   the mesh is refined. This checks the assembled operator and each solver
//!   against the mathematics, not against another implementation.
//! - **Discrete manufacture** (`b = Aψ` via the assembled operator) on
//!   production-style dipole metrics and a hand-built two-basin mask: ψ is
//!   the exact solution of the linear system and every solver must recover
//!   it to solver tolerance regardless of metric distortion or mask topology.

use pop_baro::prelude::*;
use pop_baro::verif::mms::{dipole_grid, two_basin_grid};
use pop_core::solvers::SolverWorkspace;

fn cfg() -> SolverConfig {
    SolverConfig {
        tol: 1e-12,
        max_iters: 20_000,
        check_every: 10,
        ..SolverConfig::default()
    }
}

fn solver_matrix(op: &NinePoint, pre: &dyn Preconditioner) -> Vec<SolverKind> {
    let world = CommWorld::serial();
    let (bounds, _) = estimate_bounds(op, pre, &world, &LanczosConfig::default());
    vec![SolverKind::ChronGear, SolverKind::Pcsi(bounds)]
}

/// Solve the manufactured system with `kind` and return the relative L2
/// error of the recovered field against the analytic solution.
fn recovered_error(case: &MmsCase, layout_block: (usize, usize), kind: SolverKind) -> f64 {
    let layout = DistLayout::build(&case.grid, layout_block.0, layout_block.1);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&case.grid, &layout, &world, case.tau);
    let pre = Diagonal::new(&op);
    let rhs = DistVec::from_global(&layout, &case.rhs);
    let mut x = DistVec::zeros(&layout);
    let mut ws = SolverWorkspace::new();
    let st = kind.solve(&op, &pre, &world, &rhs, &mut x, &cfg(), &mut ws);
    assert!(
        st.converged,
        "{} did not converge on the manufactured system (residual {:e})",
        kind.name(),
        st.final_relative_residual
    );
    case.rel_l2_error(&x.to_global())
}

/// Continuous manufacture: each solver's recovered field converges to the
/// analytic solution at second order in the mesh width.
#[test]
fn uniform_basin_solutions_converge_at_second_order() {
    let coarse_case = MmsCase::uniform_basin(24, 500.0, 1.0e6, 1800.0);
    let fine_case = MmsCase::uniform_basin(48, 500.0, 1.0e6, 1800.0);
    // The operator is the same for every solver; reuse one matrix listing.
    {
        let layout = DistLayout::build(&coarse_case.grid, 6, 6);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&coarse_case.grid, &layout, &world, coarse_case.tau);
        let pre = Diagonal::new(&op);
        for kind in solver_matrix(&op, &pre) {
            let coarse = recovered_error(&coarse_case, (6, 6), kind);
            let fine = recovered_error(&fine_case, (12, 12), kind);
            assert!(
                fine < 5e-2,
                "{}: discretization error too large at n=48: {fine:e}",
                kind.name()
            );
            assert!(
                fine < 0.35 * coarse,
                "{}: not second order: err(24)={coarse:e}, err(48)={fine:e}",
                kind.name()
            );
        }
    }
}

/// Discrete manufacture on distorted production-style metrics: ψ is the
/// exact solution, so every solver recovers it to solver tolerance.
#[test]
fn sampled_oracle_is_recovered_on_dipole_metrics() {
    let grid = dipole_grid(3, 48, 32);
    let layout = DistLayout::build(&grid, 12, 8);
    let case = MmsCase::sampled(grid, &layout, 1800.0);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&case.grid, &layout, &world, case.tau);
    let pre = Diagonal::new(&op);
    for kind in solver_matrix(&op, &pre) {
        let err = recovered_error(&case, (12, 8), kind);
        assert!(
            err < 1e-7,
            "{}: sampled oracle missed on dipole grid: rel L2 {err:e}",
            kind.name()
        );
    }
}

/// Discrete manufacture across a two-basin mask joined by a one-cell
/// channel: the hard mask topology changes nothing — the oracle is still
/// recovered exactly (to solver tolerance).
#[test]
fn sampled_oracle_is_recovered_across_the_two_basin_channel() {
    let grid = two_basin_grid(32, 20, 300.0, 5.0e4);
    let layout = DistLayout::build(&grid, 8, 10);
    let case = MmsCase::sampled(grid, &layout, 1800.0);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&case.grid, &layout, &world, case.tau);
    let pre = Diagonal::new(&op);
    for kind in solver_matrix(&op, &pre) {
        let err = recovered_error(&case, (8, 10), kind);
        assert!(
            err < 1e-7,
            "{}: sampled oracle missed on the two-basin mask: rel L2 {err:e}",
            kind.name()
        );
    }
}
