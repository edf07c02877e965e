//! Chaos under load: the service on the ranksim backend with injected
//! network faults degrades in latency, never in correctness.
//!
//! Two fault classes (DESIGN.md §10), two contracts:
//!
//! - **Benign plans** (delay/duplication/reordering/recoverable drops)
//!   are bitwise invisible: every served result matches the shared-memory
//!   standalone solve of the same request exactly, even though the solves
//!   ran on simulated ranks under fault injection.
//! - **Hostile plans** (halo corruption, permanent loss) may cost solver
//!   restarts and may end non-converged, but responses always arrive,
//!   carry structured outcomes, and never contain NaN.
//!
//! Seeds are pinned; CI replays one via `POP_CHAOS_SEED` (the same
//! convention as `tests/chaos_equivalence.rs`). Tests that leave
//! `ServiceConfig::workers` at 0 inherit the dispatch-pool size from
//! `POP_SERVE_WORKERS` (CI runs the suite at 1 and 4); the explicit sweep
//! test pins `workers ∈ {1, 2, 4}` regardless of environment — fault
//! injection must stay bitwise invisible at every pool size.

mod common;
use common::{assert_bits_equal, ServeProblem as Problem};
use pop_baro::prelude::*;
use pop_baro::serve::{Backend, ServiceConfig, SolveRequest, SolverService, SolverSpec};

fn problem() -> Problem {
    common::serve_problem(12, 8000.0)
}

fn rhs(p: &Problem, seed: u64) -> DistVec {
    common::rhs_in_range(&p.op, seed)
}

fn chaos_seeds() -> Vec<u64> {
    common::chaos_seeds([0x5EED_BA11, 0xBE9151])
}

use pop_core::setup::PrecondSpec;
use std::sync::Arc;

const TOL: f64 = 1e-10;

fn base_cfg() -> SolverConfig {
    SolverConfig {
        tol: TOL,
        max_iters: 8000,
        ..SolverConfig::default()
    }
}

fn service(faults: FaultPlan) -> SolverService {
    service_with_workers(faults, 0)
}

fn service_with_workers(faults: FaultPlan, workers: usize) -> SolverService {
    SolverService::start(ServiceConfig {
        backend: Backend::RankSim { ranks: 6, faults },
        base: base_cfg(),
        workers,
        ..ServiceConfig::default()
    })
}

/// The shared-memory reference the chaos-served result must match.
fn standalone(p: &Problem, choice: SolverChoice, b: &DistVec) -> DistVec {
    let world = CommWorld::serial();
    let setup = SolverSetup::new(choice, &p.op, &world);
    let mut x = DistVec::zeros(&p.layout);
    let st = setup.solve(&p.op, &world, b, &mut x, &base_cfg());
    assert!(st.converged, "reference solve must converge");
    x
}

/// Benign chaos: served-under-faults results are bitwise identical to
/// fault-free shared-memory solves, across solver/preconditioner mixes.
#[test]
fn benign_chaos_serves_bitwise_correct_results() {
    let p = problem();
    for seed in chaos_seeds() {
        let svc = service(FaultPlan::seeded(seed, FaultConfig::benign()));
        let cases = [
            (SolverSpec::Pcsi, PrecondSpec::Evp, SolverChoice::PcsiEvp),
            (
                SolverSpec::ChronGear,
                PrecondSpec::Diagonal,
                SolverChoice::ChronGearDiag,
            ),
            (
                SolverSpec::Pcsi,
                PrecondSpec::Diagonal,
                SolverChoice::PcsiDiag,
            ),
            (
                SolverSpec::ChronGear,
                PrecondSpec::Evp,
                SolverChoice::ChronGearEvp,
            ),
        ];
        let mut tickets = Vec::new();
        for (i, (spec, precond, _)) in cases.iter().enumerate() {
            let b = rhs(&p, seed ^ (i as u64 + 1));
            tickets.push(
                svc.submit(
                    SolveRequest::new(i as u32, Arc::clone(&p.op), *spec, *precond, b)
                        .with_tol(TOL),
                )
                .unwrap(),
            );
        }
        for (i, ((_, _, choice), t)) in cases.iter().zip(tickets).enumerate() {
            let resp = t.wait().unwrap();
            assert!(
                resp.stats.converged,
                "seed {seed:#x} case {i}: benign chaos must still converge"
            );
            let b = rhs(&p, seed ^ (i as u64 + 1));
            let x_ref = standalone(&p, *choice, &b);
            assert_bits_equal(
                &resp.x,
                &x_ref,
                &format!("seed {seed:#x} case {i} ({})", choice.label()),
            );
        }
        let cache = svc.shutdown();
        // 4 distinct (precond, bounds) setups: {evp,diag} × {pcsi,cg} grades.
        assert_eq!(cache.misses, 4, "seed {seed:#x}: distinct setup states");
    }
}

/// Warm-cache chaos: repeat traffic on the ranksim backend hits the cache
/// and still matches the reference bitwise.
#[test]
fn benign_chaos_warm_cache_stays_correct() {
    let p = problem();
    let seed = chaos_seeds()[0];
    let svc = service(FaultPlan::seeded(seed, FaultConfig::benign()));
    let b = rhs(&p, seed ^ 0xF00D);
    let x_ref = standalone(&p, SolverChoice::PcsiEvp, &b);
    let req = || {
        SolveRequest::new(
            0,
            Arc::clone(&p.op),
            SolverSpec::Pcsi,
            PrecondSpec::Evp,
            b.clone(),
        )
        .with_tol(TOL)
    };
    let cold = svc.submit(req()).unwrap().wait().unwrap();
    let warm = svc.submit(req()).unwrap().wait().unwrap();
    assert!(!cold.cache_hit && warm.cache_hit);
    assert_bits_equal(&cold.x, &x_ref, "cold chaos serve");
    assert_bits_equal(&warm.x, &x_ref, "warm chaos serve");
}

/// Worker sweep: benign chaos results are bitwise identical to the
/// fault-free shared-memory reference at every dispatch-pool size. Each
/// ranksim solve runs on its own fresh fault-injected world, so parallel
/// dispatch must not perturb a single bit.
#[test]
fn benign_chaos_is_bitwise_invisible_across_worker_counts() {
    let p = problem();
    let seed = chaos_seeds()[0];
    let bs: Vec<DistVec> = (0..4).map(|i| rhs(&p, seed ^ (0xAB0 + i))).collect();
    let refs: Vec<DistVec> = bs
        .iter()
        .map(|b| standalone(&p, SolverChoice::PcsiEvp, b))
        .collect();
    for workers in [1usize, 2, 4] {
        let svc = service_with_workers(FaultPlan::seeded(seed, FaultConfig::benign()), workers);
        let tickets: Vec<_> = bs
            .iter()
            .enumerate()
            .map(|(i, b)| {
                svc.submit(
                    SolveRequest::new(
                        i as u32,
                        Arc::clone(&p.op),
                        SolverSpec::Pcsi,
                        PrecondSpec::Evp,
                        b.clone(),
                    )
                    .with_tol(TOL),
                )
                .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert!(resp.stats.converged);
            assert_bits_equal(
                &resp.x,
                &refs[i],
                &format!("seed {seed:#x} req {i} at {workers} workers"),
            );
        }
    }
}

/// Hostile chaos: corruption and permanent loss may break convergence but
/// never the service — responses arrive, outcomes are structured, and no
/// NaN ever reaches a tenant.
#[test]
fn hostile_chaos_degrades_gracefully() {
    let p = problem();
    for seed in chaos_seeds() {
        let svc = service(FaultPlan::seeded(seed, FaultConfig::hostile()));
        let mut tickets = Vec::new();
        for i in 0..3u64 {
            let b = rhs(&p, seed ^ (0xD00 + i));
            tickets.push(
                svc.submit(
                    SolveRequest::new(
                        i as u32,
                        Arc::clone(&p.op),
                        SolverSpec::ChronGear,
                        PrecondSpec::Diagonal,
                        b,
                    )
                    .with_tol(TOL),
                )
                .unwrap(),
            );
        }
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t
                .wait()
                .unwrap_or_else(|r| panic!("seed {seed:#x} req {i}: hostile chaos shed: {r}"));
            // Outcome may be any structured value; the solution must be finite.
            for blk in &resp.x.blocks {
                for j in 0..blk.ny {
                    for v in blk.interior_row(j) {
                        assert!(
                            v.is_finite(),
                            "seed {seed:#x} req {i}: non-finite value served"
                        );
                    }
                }
            }
            assert!(
                resp.stats.final_relative_residual.is_finite() || !resp.stats.converged,
                "seed {seed:#x} req {i}: unstructured outcome"
            );
        }
    }
}
