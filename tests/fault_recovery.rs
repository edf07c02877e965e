//! Hostile chaos: corrupted and failed deliveries, graceful degradation.
//!
//! Under a hostile fault plan, halo strips can arrive poisoned (NaN) or
//! fail outright. The recovery seam (DESIGN.md §10) then takes over: the
//! poisoned values propagate into the next reduced residual identically on
//! every rank, the recovery monitor orders a lockstep restart from the last
//! good iterate, and after `max_restarts` the solver aborts with a
//! structured [`SolveOutcome::Diverged`] — restoring the snapshot so the
//! returned field is never NaN.
//!
//! The contract this suite pins, for every solver × preconditioner under
//! pinned hostile seeds (override with `POP_CHAOS_SEED`):
//!
//! - **no hang** — every run terminates (the control plane always delivers);
//! - **no panic, no NaN** — the returned solution is finite everywhere;
//! - **structured outcomes** — each run ends `Converged`, `MaxIters` or
//!   `Diverged`, with restart and delivery-failure counters populated.

mod common;
use common::{problem, solver_cfg as cfg, solver_matrix, Problem};
use pop_baro::prelude::*;
use pop_baro::ranksim::RankSolveOutcome;
use std::sync::Arc;

fn chaos_seeds() -> Vec<u64> {
    common::chaos_seeds([0xFA117, 0xC4A05])
}

fn run(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    plan: FaultPlan,
) -> RankSolveOutcome {
    let world = RankWorld::new(
        &p.layout,
        6,
        Arc::new(ZeroCost),
        RankSimConfig::default().with_faults(plan),
    );
    let x0 = DistVec::zeros(&p.layout);
    solve_on_ranks(&world, &p.op, pre, kind, &p.rhs, &x0, &cfg())
}

/// Validate one hostile run's structural guarantees; returns its
/// (delivery_failures, restarts) so callers can check the matrix-wide
/// "faults actually fired" property.
fn check_structured(name: &str, out: &RankSolveOutcome, cfg: &SolverConfig) -> (u64, usize) {
    let st = out.stats();
    // Structured outcome, consistent with the convergence flag.
    assert_eq!(
        st.converged,
        st.outcome == SolveOutcome::Converged,
        "{name}: converged flag vs outcome"
    );
    assert!(
        st.restarts <= cfg.recovery.max_restarts,
        "{name}: {} restarts exceeds cap {}",
        st.restarts,
        cfg.recovery.max_restarts
    );
    // The returned field is finite everywhere, whatever the outcome.
    for (k, v) in out.x.to_global().iter().enumerate() {
        assert!(
            v.is_finite(),
            "{name}: non-finite solution at point {k}: {v:e} (outcome {})",
            st.outcome.label()
        );
    }
    // The reported residual is never NaN (infinity is the documented
    // "no healthy check ever completed" sentinel) and is consistent with
    // the outcome.
    assert!(
        !st.final_relative_residual.is_nan(),
        "{name}: NaN reported residual"
    );
    if st.outcome == SolveOutcome::Converged {
        assert!(
            st.final_relative_residual < cfg.tol,
            "{name}: converged but residual {:e} above tol",
            st.final_relative_residual
        );
    }
    let fails: u64 = out.per_rank.iter().map(|r| r.stats.delivery_failures).sum();
    (fails, st.restarts)
}

/// The headline chaos matrix: all solvers × {diag, EVP} × pinned hostile
/// seeds. Every run must terminate with a structured outcome and a finite
/// field; across the matrix, poisoned deliveries and restarts must actually
/// have occurred (the plan is hostile, not decorative).
#[test]
fn hostile_plans_never_hang_panic_or_return_non_finite() {
    let p = problem(2015);
    let solver_cfg = cfg();
    let mut total_failures = 0u64;
    let mut total_restarts = 0usize;
    for seed in chaos_seeds() {
        let plan = FaultPlan::seeded(seed, FaultConfig::hostile());
        for (pname, pre) in [
            ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
            ("evp", &BlockEvp::with_defaults(&p.op)),
        ] {
            for kind in solver_matrix(&p, pre) {
                let name = format!("{}+{pname} hostile-seed={seed:#x}", kind.name());
                let out = run(&p, pre, kind, plan);
                let (fails, restarts) = check_structured(&name, &out, &solver_cfg);
                total_failures += fails;
                total_restarts += restarts;
            }
        }
    }
    assert!(
        total_failures > 0,
        "hostile seeds produced no poisoned deliveries — chaos did not fire"
    );
    assert!(
        total_restarts > 0,
        "hostile seeds triggered no solver restarts — recovery path untested"
    );
}

/// Saturated corruption: with half of all halo strips poisoned, no recovery
/// is possible. The solver must burn its restart budget and abort cleanly —
/// `Diverged`, snapshot restored, field finite.
#[test]
fn saturated_corruption_degrades_gracefully() {
    let p = problem(2015);
    let solver_cfg = cfg();
    let pre = Diagonal::new(&p.op);
    let plan = FaultPlan::seeded(
        7,
        FaultConfig {
            corrupt_prob: 0.5,
            ..FaultConfig::default()
        },
    );
    for kind in solver_matrix(&p, &pre) {
        let name = format!("{} saturated-corruption", kind.name());
        let out = run(&p, &pre, kind, plan);
        let (fails, _) = check_structured(&name, &out, &solver_cfg);
        let st = out.stats();
        assert_eq!(
            st.outcome,
            SolveOutcome::Diverged,
            "{name}: expected clean divergence, got {}",
            st.outcome.label()
        );
        assert_eq!(
            st.restarts, solver_cfg.recovery.max_restarts,
            "{name}: restart budget not exhausted before abort"
        );
        assert!(fails > 0, "{name}: no delivery failures recorded");
    }
}

/// Transient poisoning is survivable: at a light corruption rate (roughly
/// one poisoned strip per solve) every seeded run still converges to
/// tolerance, and across the scan the restart path demonstrably fires —
/// recovery is a mechanism, not just a prettier crash.
#[test]
fn recovery_restores_convergence_after_transient_poison() {
    let p = problem(2015);
    let solver_cfg = cfg();
    let pre = Diagonal::new(&p.op);
    let light = FaultConfig {
        corrupt_prob: 1e-4,
        ..FaultConfig::default()
    };
    let mut total_restarts = 0usize;
    for seed in 1..=8u64 {
        let out = run(
            &p,
            &pre,
            SolverKind::ChronGear,
            FaultPlan::seeded(seed, light),
        );
        let name = format!("chrongear light-poison seed={seed}");
        check_structured(&name, &out, &solver_cfg);
        let st = out.stats();
        assert_eq!(
            st.outcome,
            SolveOutcome::Converged,
            "{name}: light poisoning must be survivable, got {}",
            st.outcome.label()
        );
        total_restarts += st.restarts;
    }
    assert!(
        total_restarts > 0,
        "light poisoning triggered no restarts — the scan never exercised recovery"
    );
}

/// Whole-rank stalls are pure latency: the solve is bitwise unaffected, but
/// the stalled ranks' simulated clocks (and the critical path) advance.
#[test]
fn stalls_charge_time_without_changing_results() {
    let p = problem(2015);
    let pre = Diagonal::new(&p.op);
    let clean = run(&p, &pre, SolverKind::ChronGear, FaultPlan::none());
    let stall_only = FaultConfig {
        stall_prob: 0.2,
        stall_max: 1e-3,
        ..FaultConfig::default()
    };
    let stalled = run(
        &p,
        &pre,
        SolverKind::ChronGear,
        FaultPlan::seeded(99, stall_only),
    );
    assert_eq!(
        stalled.stats().iterations,
        clean.stats().iterations,
        "stalls changed the iteration count"
    );
    assert_eq!(
        stalled
            .x
            .to_global()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        clean
            .x
            .to_global()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "stalls changed the solution bits"
    );
    assert!(stalled.sim_time > clean.sim_time, "stalls charged no time");
}
