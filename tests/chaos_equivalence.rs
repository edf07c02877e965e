//! Chaos conformance: benign network faults are bitwise invisible.
//!
//! The fault layer (DESIGN.md §10) splits faults into two classes. Benign
//! faults — delay jitter, duplication, bounded reordering, recoverable
//! drop-with-retry, whole-rank stalls — change *when* messages arrive, never
//! *what* they say: sequence-number dedup discards duplicates, the mailbox
//! files reordered arrivals by epoch, and retries only charge simulated
//! time. This suite pins the resulting contract:
//!
//! - `FaultPlan::none()` is bit-for-bit the pre-fault runtime: identical
//!   solutions, iteration counts, residual histories and communication
//!   counts to the shared-memory world, with every fault counter zero.
//! - A seeded benign plan perturbs only simulated clocks and fault
//!   counters; solutions stay bitwise identical to the fault-free run, for
//!   every solver, under default and every forced SIMD dispatch mode.
//!
//! Seeds are pinned (override with `POP_CHAOS_SEED`) so CI chaos runs are
//! reproducible down to the individual dropped packet.

mod common;
use common::{
    assert_same, lane_modes, observe, problem, solver_cfg as cfg, solver_matrix, ModeGuard,
    Observables, Problem,
};
use pop_baro::prelude::*;
use pop_baro::ranksim::RankReport;
use pop_core::solvers::SolveStats;
use std::sync::Arc;

fn chaos_seeds() -> Vec<u64> {
    common::chaos_seeds([0xBE9151, 0x0DD5EED])
}

struct RankRun {
    obs: Observables,
    per_rank: Vec<RankReport<SolveStats>>,
    sim_time: f64,
}

fn run_ranksim(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    ranks: usize,
    faults: FaultPlan,
) -> RankRun {
    let world = RankWorld::new(
        &p.layout,
        ranks,
        Arc::new(ZeroCost),
        RankSimConfig::default().with_faults(faults),
    );
    let x0 = DistVec::zeros(&p.layout);
    let out = solve_on_ranks(&world, &p.op, pre, kind, &p.rhs, &x0, &cfg());
    RankRun {
        obs: observe(out.stats(), &out.x),
        per_rank: out.per_rank,
        sim_time: out.sim_time,
    }
}

fn run_shared(p: &Problem, pre: &dyn Preconditioner, kind: SolverKind) -> Observables {
    common::run_world(&CommWorld::serial(), p, pre, kind)
}

/// `FaultPlan::none()` is the pre-fault runtime, bit for bit: both
/// solvers, both preconditioners, counters silent.
#[test]
fn disabled_fault_plan_is_bitwise_identical_and_counter_free() {
    let p = problem(2015);
    for (pname, pre) in [
        ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
        ("evp", &BlockEvp::with_defaults(&p.op)),
    ] {
        for kind in solver_matrix(&p, pre) {
            let name = format!("{}+{pname}", kind.name());
            let base = run_shared(&p, pre, kind);
            assert_eq!(base.outcome, SolveOutcome::Converged, "{name}: baseline");
            let run = run_ranksim(&p, pre, kind, 6, FaultPlan::none());
            assert_same(&name, &base, &run.obs);
            assert_eq!(run.obs.restarts, 0, "{name}: restarts under no faults");
            for rep in &run.per_rank {
                assert_eq!(rep.stats.retries, 0, "{name}: retries");
                assert_eq!(rep.stats.duplicates, 0, "{name}: duplicates");
                assert_eq!(rep.stats.delivery_failures, 0, "{name}: failures");
            }
        }
    }
}

/// Benign chaos — delays, duplicates, reorders, recoverable drops, stalls —
/// leaves every observable of the solve bitwise identical to the fault-free
/// run; only simulated time and the fault counters move.
#[test]
fn benign_fault_plans_are_bitwise_conformant() {
    let p = problem(2015);
    let diag = Diagonal::new(&p.op);
    let evp = BlockEvp::with_defaults(&p.op);
    for seed in chaos_seeds() {
        for (pname, pre) in [
            ("diag", &diag as &dyn Preconditioner),
            ("evp", &evp as &dyn Preconditioner),
        ] {
            for kind in solver_matrix(&p, pre) {
                let name = format!("{}+{pname} chaos-seed={seed}", kind.name());
                let clean = run_ranksim(&p, pre, kind, 6, FaultPlan::none());
                let plan = FaultPlan::seeded(seed, FaultConfig::benign());
                let chaotic = run_ranksim(&p, pre, kind, 6, plan);
                assert_same(&name, &clean.obs, &chaotic.obs);

                // The faults really fired: counters and simulated time moved.
                let retries: u64 = chaotic.per_rank.iter().map(|r| r.stats.retries).sum();
                let dups: u64 = chaotic.per_rank.iter().map(|r| r.stats.duplicates).sum();
                let fails: u64 = chaotic
                    .per_rank
                    .iter()
                    .map(|r| r.stats.delivery_failures)
                    .sum();
                assert!(retries > 0, "{name}: no retries recorded");
                assert!(dups > 0, "{name}: no duplicates recorded");
                assert_eq!(fails, 0, "{name}: benign plan must not fail deliveries");
                assert_eq!(clean.sim_time, 0.0, "{name}: ZeroCost fault-free time");
                assert!(
                    chaotic.sim_time > 0.0,
                    "{name}: fault penalties must charge simulated time"
                );
            }
        }
    }
}

/// The conformance property holds under every forced dispatch mode too: the
/// fault layer and the SIMD layer compose without breaking bitwise identity.
/// (`force_mode` is process-global, so this sweep lives in one `#[test]`.)
#[test]
fn benign_conformance_holds_under_forced_dispatch() {
    let _guard = ModeGuard;
    let p = problem(2015);
    let diag = Diagonal::new(&p.op);
    let seed = chaos_seeds()[0];
    for kind in solver_matrix(&p, &diag) {
        for mode in lane_modes() {
            let name = format!("{} {} chaos-seed={seed}", kind.name(), mode.name());
            pop_simd::force_mode(Some(mode));
            let base = run_shared(&p, &diag, kind);
            let plan = FaultPlan::seeded(seed, FaultConfig::benign());
            let chaotic = run_ranksim(&p, &diag, kind, 6, plan);
            assert_same(&name, &base, &chaotic.obs);
        }
        pop_simd::force_mode(None);
    }
}
