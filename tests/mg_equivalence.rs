//! The multigrid preconditioner is bitwise mode- and backend-invariant,
//! and numerically interchangeable with the diagonal path.
//!
//! Two contracts pin the MG tentpole (DESIGN.md §15):
//!
//! - **Bitwise determinism**: an MG-preconditioned solve produces the same
//!   solution bits, iteration count, and residual history on the serial,
//!   threaded, and ranksim backends — under each collective schedule
//!   ({binomial, hierarchical}) and under default as well as forced-scalar
//!   SIMD dispatch. The dual parity-chain V-cycle, the masked linear
//!   transfers, and the coarsest-level LU may not introduce any
//!   backend-visible arithmetic.
//! - **Correctness**: the preconditioner changes *which path* the solver
//!   takes, never *where it lands*. On manufactured problems the
//!   MG-recovered field must match the diagonal-preconditioned discrete
//!   oracle to solver tolerance, and its continuous-manufacture error must
//!   shrink at second order in the mesh width just like every other
//!   preconditioner's.

use pop_baro::prelude::*;
use pop_baro::verif::mms::dipole_grid;
use pop_core::solvers::SolverWorkspace;

mod common;
use common::{
    assert_matches_oracle, assert_same, problem, run_ranks_cfg, run_reference, run_world,
    startup_then_forced_modes, ModeGuard,
};

/// Serial vs threaded vs ranksim × {binomial, hierarchical} × default and
/// every forced lane mode: every MG-preconditioned solve observable is
/// bitwise identical, and the solution is the reference solve's. One
/// `#[test]` because `force_mode` is process-global.
#[test]
fn mg_solves_are_bitwise_identical_across_backends_schedules_and_dispatch() {
    let _guard = ModeGuard;
    let p = problem(2015);
    let serial = CommWorld::serial();
    let threaded = CommWorld::threaded();
    let mg = BlockMg::with_defaults(&p.op);
    let (bounds, _) = estimate_bounds(&p.op, &mg, &serial, &LanczosConfig::default());
    for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
        let base = run_world(&serial, &p, &mg, kind);
        assert_eq!(
            base.outcome,
            SolveOutcome::Converged,
            "{}+mg: serial baseline did not converge",
            kind.name()
        );
        let name = format!("{}+mg serial", kind.name());
        assert_matches_oracle(&name, &run_reference(&p, &mg, kind), &base);
        for forced in startup_then_forced_modes() {
            pop_simd::force_mode(forced);
            let tag = |arm: &str| {
                format!(
                    "{}+mg {arm} dispatch={}",
                    kind.name(),
                    forced.map_or("default", |m| m.name())
                )
            };
            assert_same(&tag("serial"), &base, &run_world(&serial, &p, &mg, kind));
            assert_same(
                &tag("threaded"),
                &base,
                &run_world(&threaded, &p, &mg, kind),
            );
            for algo in [ReduceAlgo::Binomial, ReduceAlgo::Hierarchical] {
                for ranks in [3usize, 16] {
                    assert_same(
                        &tag(&format!("ranksim algo={} p={ranks}", algo.name())),
                        &base,
                        &run_ranks_cfg(
                            &p,
                            &mg,
                            kind,
                            ranks,
                            RankSimConfig::default().with_reduce_algo(algo),
                        ),
                    );
                }
            }
        }
        pop_simd::force_mode(None);
    }
}

fn mms_cfg() -> SolverConfig {
    SolverConfig {
        tol: 1e-12,
        max_iters: 20_000,
        check_every: 10,
        ..SolverConfig::default()
    }
}

/// A preconditioner built on the case's operator.
type Build = fn(&NinePoint) -> Box<dyn Preconditioner>;

fn mg(op: &NinePoint) -> Box<dyn Preconditioner> {
    Box::new(BlockMg::with_defaults(op))
}

fn diag(op: &NinePoint) -> Box<dyn Preconditioner> {
    Box::new(Diagonal::new(op))
}

/// Solve `case` under the preconditioner `build` makes and return the
/// relative L2 error of the recovered field against the case's reference
/// solution.
fn recovered_error(case: &MmsCase, block: (usize, usize), build: Build) -> f64 {
    let layout = DistLayout::build(&case.grid, block.0, block.1);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&case.grid, &layout, &world, case.tau);
    let pre = build(&op);
    let (bounds, _) = estimate_bounds(&op, pre.as_ref(), &world, &LanczosConfig::default());
    let rhs = DistVec::from_global(&layout, &case.rhs);
    let mut x = DistVec::zeros(&layout);
    let mut ws = SolverWorkspace::new();
    let kind = SolverKind::Pcsi(bounds);
    let st = kind.solve(&op, pre.as_ref(), &world, &rhs, &mut x, &mms_cfg(), &mut ws);
    assert!(
        st.converged,
        "pcsi+{} did not converge on the manufactured system (residual {:e})",
        pre.name(),
        st.final_relative_residual
    );
    case.rel_l2_error(&x.to_global())
}

/// Continuous manufacture: the MG-preconditioned solve converges to the
/// analytic solution at second order in the mesh width, and at each
/// resolution its discretization error matches the diagonal-preconditioned
/// solve's — the preconditioner is invisible in the answer.
#[test]
fn mg_mms_error_is_second_order_and_matches_the_diag_oracle() {
    let coarse_case = MmsCase::uniform_basin(24, 500.0, 1.0e6, 1800.0);
    let fine_case = MmsCase::uniform_basin(48, 500.0, 1.0e6, 1800.0);
    let coarse_mg = recovered_error(&coarse_case, (6, 6), mg);
    let fine_mg = recovered_error(&fine_case, (12, 12), mg);
    assert!(
        fine_mg < 5e-2,
        "mg: discretization error too large at n=48: {fine_mg:e}"
    );
    assert!(
        fine_mg < 0.35 * coarse_mg,
        "mg: not second order: err(24)={coarse_mg:e}, err(48)={fine_mg:e}"
    );
    // Both preconditioners solve the same linear system to 1e-12; the
    // remaining error is pure discretization, so the two agree far below it.
    for (case, block, mg_err) in [
        (&coarse_case, (6, 6), coarse_mg),
        (&fine_case, (12, 12), fine_mg),
    ] {
        let diag_err = recovered_error(case, block, diag);
        assert!(
            (mg_err - diag_err).abs() <= 1e-6 * diag_err.max(1e-30),
            "mg and diag recovered different answers: {mg_err:e} vs {diag_err:e}"
        );
    }
}

/// Discrete manufacture on distorted production-style dipole metrics: ψ is
/// the exact solution of the assembled system, and the MG-preconditioned
/// solve recovers it to solver tolerance, exactly like the diagonal path.
#[test]
fn mg_recovers_the_sampled_oracle_on_dipole_metrics() {
    let grid = dipole_grid(3, 48, 32);
    let layout = DistLayout::build(&grid, 12, 8);
    let case = MmsCase::sampled(grid, &layout, 1800.0);
    for (name, build) in [("mg", mg as Build), ("diag", diag)] {
        let err = recovered_error(&case, (12, 8), build);
        assert!(
            err < 1e-7,
            "{name}: sampled oracle missed on dipole grid: rel L2 {err:e}"
        );
    }
}
