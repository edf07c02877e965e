//! Cache transparency: warm-cache solves are bitwise identical to
//! cold-setup solves, for every solver × {diag, EVP}, and cache eviction
//! never corrupts an in-flight batch.
//!
//! The serve layer's correctness contract (DESIGN.md §13) is that the
//! operator-state cache, the coalescing stage, and the dispatch worker
//! pool are *invisible* in the results: a request's solution must carry
//! the same bits whether its setup state was built cold, fetched warm, or
//! evicted mid-flight, whether it rode a width-1 or width-k batch, and
//! whether one worker or four dispatched it. The standalone reference
//! here is a direct `solve_batch_comm` call on a freshly built
//! `OperatorState` — no service, no cache, no queue.
//!
//! Tests that leave `ServiceConfig::workers` at 0 inherit the pool size
//! from `POP_SERVE_WORKERS` (CI runs the suite at 1 and 4); the explicit
//! sweep test pins `workers ∈ {1, 2, 4}` regardless of environment.

mod common;
use common::{assert_bits_equal, serve_problem as problem, ServeProblem as Problem};
use pop_baro::prelude::*;
use pop_baro::serve::{ServiceConfig, SolveRequest, SolverService, SolverSpec, Ticket};
use pop_core::setup::{OperatorState, PrecondSpec};
use pop_core::solvers::{BatchWorkspace, SolveStats};

/// An RHS in the operator's range so every solver converges crisply.
fn rhs(p: &Problem, seed: u64) -> DistVec {
    common::rhs_in_range(&p.op, seed)
}

use std::sync::Arc;
use std::time::Duration;

const TOL: f64 = 1e-11;

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        start_paused: true,
        base: SolverConfig {
            tol: TOL,
            max_iters: 20_000,
            ..SolverConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Standalone reference: cold `OperatorState`, direct batched engine call
/// at width 1 — exactly what the service claims to be equivalent to.
fn standalone(
    p: &Problem,
    spec: SolverSpec,
    precond: PrecondSpec,
    b: &DistVec,
) -> (DistVec, SolveStats) {
    let world = CommWorld::serial();
    let lanczos = LanczosConfig::SETUP;
    let state = OperatorState::build(
        &p.op,
        precond,
        spec.needs_bounds().then_some(&lanczos),
        &world,
    );
    let cfg = SolverConfig {
        tol: TOL,
        max_iters: 20_000,
        ..SolverConfig::default()
    };
    let mut x = DistVec::zeros(&p.layout);
    let mut ws = BatchWorkspace::new();
    let pre = state.precond.as_ref();
    let stats =
        state
            .solver(spec)
            .solve_batch(&p.op, pre, &world, &[b], &mut [&mut x], &cfg, &mut ws);
    (x, stats.into_iter().next().unwrap())
}

fn assert_stats_equal(a: &SolveStats, b: &SolveStats, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.converged, b.converged, "{what}: converged");
    assert_eq!(a.restarts, b.restarts, "{what}: restarts");
    assert_eq!(
        a.final_relative_residual.to_bits(),
        b.final_relative_residual.to_bits(),
        "{what}: final residual bits"
    );
}

const ALL: [(SolverSpec, PrecondSpec); 4] = [
    (SolverSpec::ChronGear, PrecondSpec::Diagonal),
    (SolverSpec::ChronGear, PrecondSpec::Evp),
    (SolverSpec::Pcsi, PrecondSpec::Diagonal),
    (SolverSpec::Pcsi, PrecondSpec::Evp),
];

/// For both solvers × {diag, EVP}: a cold-cache serve, a warm-cache
/// serve, and the standalone solve all produce identical bits and stats.
#[test]
fn warm_cache_solves_bitwise_identical_to_cold_setup() {
    let p = problem(41, 6000.0);
    let b = rhs(&p, 0xCAFE);
    for (spec, precond) in ALL {
        let what = format!("{}+{}", spec.label(), precond.label());
        let (x_ref, st_ref) = standalone(&p, spec, precond, &b);
        assert!(st_ref.converged, "{what}: reference did not converge");

        let svc = SolverService::start(ServiceConfig {
            start_paused: false,
            ..service_cfg()
        });
        let req = |tenant| {
            SolveRequest::new(tenant, Arc::clone(&p.op), spec, precond, b.clone()).with_tol(TOL)
        };
        let cold = svc.submit(req(0)).unwrap().wait().unwrap();
        let warm = svc.submit(req(0)).unwrap().wait().unwrap();
        assert!(!cold.cache_hit, "{what}: first serve must build cold");
        assert!(warm.cache_hit, "{what}: second serve must hit the cache");
        assert_bits_equal(&cold.x, &x_ref, &format!("{what} cold vs standalone"));
        assert_bits_equal(&warm.x, &x_ref, &format!("{what} warm vs standalone"));
        assert_stats_equal(&cold.stats, &st_ref, &format!("{what} cold vs standalone"));
        assert_stats_equal(&warm.stats, &st_ref, &format!("{what} warm vs standalone"));
    }
}

/// Coalesced warm batches: distinct RHS against one warm operator ride one
/// multi-RHS batch, and each lane still matches its standalone solve.
#[test]
fn warm_batched_lanes_match_standalone_solves() {
    let p = problem(42, 7000.0);
    for (spec, precond) in [
        (SolverSpec::Pcsi, PrecondSpec::Evp),
        (SolverSpec::ChronGear, PrecondSpec::Diagonal),
    ] {
        let what = format!("{}+{}", spec.label(), precond.label());
        let bs: Vec<DistVec> = (0..3).map(|i| rhs(&p, 0xB00 + i)).collect();
        let svc = SolverService::start(service_cfg());
        // Warm the cache first (paused service: warming submit runs after
        // resume; use a separate unpaused warmup service round instead).
        svc.resume();
        let _ = svc
            .submit(
                SolveRequest::new(0, Arc::clone(&p.op), spec, precond, bs[0].clone()).with_tol(TOL),
            )
            .unwrap()
            .wait()
            .unwrap();
        // Re-pause is not supported; stage the burst through a fresh
        // paused service sharing nothing — instead verify batching via
        // rapid submission while the scheduler is busy with a decoy.
        let decoy = svc
            .submit(
                SolveRequest::new(9, Arc::clone(&p.op), spec, precond, bs[0].clone()).with_tol(TOL),
            )
            .unwrap();
        let tickets: Vec<Ticket> = bs
            .iter()
            .map(|b| {
                svc.submit(
                    SolveRequest::new(0, Arc::clone(&p.op), spec, precond, b.clone()).with_tol(TOL),
                )
                .unwrap()
            })
            .collect();
        let _ = decoy.wait().unwrap();
        for (b, t) in bs.iter().zip(tickets) {
            let resp = t.wait().unwrap();
            assert!(resp.cache_hit, "{what}: warm traffic must hit");
            let (x_ref, st_ref) = standalone(&p, spec, precond, b);
            assert_bits_equal(&resp.x, &x_ref, &format!("{what} lane vs standalone"));
            assert_stats_equal(&resp.stats, &st_ref, &format!("{what} lane vs standalone"));
        }
    }
}

/// Eviction during flight: a capacity-1 cache thrashed by alternating
/// operators keeps producing correct, bit-identical results — the `Arc`'d
/// state stays alive for whatever batch holds it.
#[test]
fn eviction_never_corrupts_in_flight_batches() {
    let p1 = problem(43, 5000.0);
    let p2 = problem(44, 9000.0);
    let spec = SolverSpec::Pcsi;
    let precond = PrecondSpec::Evp;
    let svc = SolverService::start(ServiceConfig {
        cache_capacity: 1,
        ..service_cfg()
    });
    let mut tickets = Vec::new();
    let mut refs = Vec::new();
    for (i, p) in [&p1, &p2, &p1, &p2, &p1].iter().enumerate() {
        let b = rhs(p, 0xE0 + i as u64);
        refs.push(standalone(p, spec, precond, &b));
        tickets.push(
            svc.submit(
                SolveRequest::new(i as u32, Arc::clone(&p.op), spec, precond, b).with_tol(TOL),
            )
            .unwrap(),
        );
    }
    svc.resume();
    for (t, (x_ref, st_ref)) in tickets.into_iter().zip(refs) {
        let resp = t.wait().unwrap();
        assert_bits_equal(&resp.x, &x_ref, "evicting cache vs standalone");
        assert_stats_equal(&resp.stats, &st_ref, "evicting cache vs standalone");
    }
    let cache = svc.shutdown();
    assert!(
        cache.evictions >= 1,
        "capacity-1 cache under two operators must evict"
    );
}

/// Arrival order is invisible: the same request set served in different
/// orders (and therefore potentially different batch compositions) yields
/// the same per-request bits.
#[test]
fn arrival_order_does_not_change_results() {
    let p = problem(45, 6500.0);
    let spec = SolverSpec::ChronGear;
    let precond = PrecondSpec::Evp;
    let bs: Vec<DistVec> = (0..4).map(|i| rhs(&p, 0xAA + i)).collect();

    let serve_in_order = |order: &[usize]| -> Vec<DistVec> {
        let svc = SolverService::start(service_cfg());
        let tickets: Vec<(usize, Ticket)> = order
            .iter()
            .map(|&i| {
                (
                    i,
                    svc.submit(
                        SolveRequest::new(0, Arc::clone(&p.op), spec, precond, bs[i].clone())
                            .with_tol(TOL),
                    )
                    .unwrap(),
                )
            })
            .collect();
        svc.resume();
        let mut out: Vec<Option<DistVec>> = (0..bs.len()).map(|_| None).collect();
        for (i, t) in tickets {
            out[i] = Some(t.wait().unwrap().x);
        }
        out.into_iter().map(|x| x.unwrap()).collect()
    };

    let forward = serve_in_order(&[0, 1, 2, 3]);
    let shuffled = serve_in_order(&[2, 0, 3, 1]);
    for (i, (a, b)) in forward.iter().zip(&shuffled).enumerate() {
        assert_bits_equal(a, b, &format!("request {i} under different arrival orders"));
    }
}

/// Worker count is invisible: the same staged multi-operator,
/// multi-class burst served by 1, 2, and 4 dispatch workers yields the
/// same per-request bits — which also all match the standalone solves.
/// Parallel dispatch may change batch compositions and completion order;
/// it must never change a single result bit.
#[test]
fn worker_counts_are_bitwise_invisible() {
    use pop_baro::serve::Priority;
    let probs = [problem(47, 5500.0), problem(48, 8000.0)];
    let spec = SolverSpec::Pcsi;
    let precond = PrecondSpec::Evp;
    let bs: Vec<(usize, DistVec)> = (0..6)
        .map(|i| (i % 2, rhs(&probs[i % 2], 0xD0 + i as u64)))
        .collect();
    let refs: Vec<DistVec> = bs
        .iter()
        .map(|(pi, b)| standalone(&probs[*pi], spec, precond, b).0)
        .collect();

    for workers in [1usize, 2, 4] {
        let svc = SolverService::start(ServiceConfig {
            workers,
            ..service_cfg()
        });
        let tickets: Vec<Ticket> = bs
            .iter()
            .enumerate()
            .map(|(i, (pi, b))| {
                let class = if i % 3 == 0 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                };
                svc.submit(
                    SolveRequest::new(
                        i as u32,
                        Arc::clone(&probs[*pi].op),
                        spec,
                        precond,
                        b.clone(),
                    )
                    .with_tol(TOL)
                    .with_priority(class),
                )
                .unwrap()
            })
            .collect();
        svc.resume();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert!(resp.stats.converged);
            assert_bits_equal(
                &resp.x,
                &refs[i],
                &format!("request {i} at {workers} workers vs standalone"),
            );
        }
    }
}

/// Deadline shedding under a stalled scheduler leaves correctness intact:
/// survivors still match standalone solves bit-for-bit.
#[test]
fn shed_and_served_mix_preserves_correctness() {
    let p = problem(46, 4500.0);
    let spec = SolverSpec::ChronGear;
    let precond = PrecondSpec::Diagonal;
    let svc = SolverService::start(service_cfg());
    let b_doomed = rhs(&p, 1);
    let b_ok = rhs(&p, 2);
    let doomed = svc
        .submit(
            SolveRequest::new(0, Arc::clone(&p.op), spec, precond, b_doomed)
                .with_tol(TOL)
                .with_deadline(Duration::from_millis(1)),
        )
        .unwrap();
    let ok = svc
        .submit(SolveRequest::new(1, Arc::clone(&p.op), spec, precond, b_ok.clone()).with_tol(TOL))
        .unwrap();
    std::thread::sleep(Duration::from_millis(15));
    svc.resume();
    assert!(doomed.wait().is_err(), "expired deadline must shed");
    let resp = ok.wait().unwrap();
    let (x_ref, _) = standalone(&p, spec, precond, &b_ok);
    assert_bits_equal(&resp.x, &x_ref, "survivor after shedding vs standalone");
}
