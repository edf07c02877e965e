//! Service mechanics: admission control, coalescing, fairness, shutdown.
//!
//! Bitwise cache/batch equivalence against standalone solves lives in the
//! workspace-level `tests/serve_cache_equivalence.rs`; this suite covers
//! the queueing behaviour, using `start_paused` to stage deterministic
//! bursts (nothing dispatches until `resume`, so admission decisions don't
//! race the scheduler).

use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::setup::PrecondSpec;
use pop_core::solvers::{SolveOutcome, SolverConfig};
use pop_grid::Grid;
use pop_obs::{ObsSink, SampleValue};
use pop_serve::{Priority, Reject, ServiceConfig, SolveRequest, SolverService, SolverSpec, Ticket};
use pop_stencil::NinePoint;
use std::sync::Arc;
use std::time::Duration;

struct Problem {
    op: Arc<NinePoint>,
    b: DistVec,
}

fn problem(seed: u64) -> Problem {
    let grid = Grid::gx1_scaled(seed, 32, 24);
    let layout = DistLayout::build(&grid, 8, 6);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 3000.0 + seed as f64);
    let mut x_true = DistVec::zeros(&layout);
    x_true.fill_with(|i, j| ((i as f64) * 0.17).sin() + ((j as f64) * 0.11).cos());
    world.halo_update(&mut x_true);
    let mut b = DistVec::zeros(&layout);
    op.apply(&world, &x_true, &mut b);
    Problem {
        op: Arc::new(op),
        b,
    }
}

fn request(p: &Problem, tenant: u32) -> SolveRequest {
    SolveRequest::new(
        tenant,
        Arc::clone(&p.op),
        SolverSpec::ChronGear,
        PrecondSpec::Diagonal,
        p.b.clone(),
    )
    .with_tol(1e-11)
}

#[test]
fn serves_a_simple_request() {
    let p = problem(1);
    let svc = SolverService::start(ServiceConfig::default());
    let resp = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(resp.stats.converged);
    assert!(!resp.cache_hit, "first request on an operator is a miss");
    assert_eq!(resp.batch_width, 1);
    assert!(svc.ema_service_secs() > 0.0);

    // Same operator again: warm.
    let resp2 = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(resp2.cache_hit);
    // Identical request ⇒ identical solution bits, cold or warm.
    for (a, bl) in resp.x.blocks.iter().zip(resp2.x.blocks.iter()) {
        for j in 0..a.ny {
            let (ra, rb) = (a.interior_row(j), bl.interior_row(j));
            for (va, vb) in ra.iter().zip(rb) {
                assert_eq!(va.to_bits(), vb.to_bits());
            }
        }
    }
    let cache = svc.shutdown();
    assert_eq!(cache.hits, 1);
    assert_eq!(cache.misses, 1);
}

#[test]
fn paused_burst_coalesces_into_one_batch() {
    let p = problem(2);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..5)
        .map(|i| svc.submit(request(&p, i)).unwrap())
        .collect();
    svc.resume();
    for t in tickets {
        let resp = t.wait().unwrap();
        assert!(resp.stats.converged);
        assert_eq!(
            resp.batch_width, 5,
            "a staged burst on one operator must ride one multi-RHS batch"
        );
    }
}

#[test]
fn mixed_operators_split_batches() {
    let p1 = problem(3);
    let p2 = problem(4);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let t1 = svc.submit(request(&p1, 0)).unwrap();
    let t2 = svc.submit(request(&p2, 0)).unwrap();
    let t3 = svc.submit(request(&p1, 0)).unwrap();
    svc.resume();
    assert_eq!(t1.wait().unwrap().batch_width, 2);
    assert_eq!(t2.wait().unwrap().batch_width, 1);
    assert_eq!(t3.wait().unwrap().batch_width, 2);
}

/// Coalescing keys on the coefficients, not the allocation: requests on two
/// `Arc`s holding bit-equal operators ride one batch.
#[test]
fn bit_equal_operators_in_distinct_arcs_coalesce() {
    let p = problem(5);
    let twin = Problem {
        op: Arc::new((*p.op).clone()),
        b: p.b.clone(),
    };
    assert!(!Arc::ptr_eq(&p.op, &twin.op));
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| {
            svc.submit(request(if i % 2 == 0 { &p } else { &twin }, i))
                .unwrap()
        })
        .collect();
    svc.resume();
    for t in tickets {
        assert_eq!(t.wait().unwrap().batch_width, 6);
    }
}

/// An operator changed through `Arc::make_mut` once its requests finished
/// is a new operator to the service: re-keyed, so it neither reuses the old
/// cached setup state nor coalesces with the old coefficients.
#[test]
fn operator_changed_through_make_mut_is_rekeyed() {
    let mut p = problem(6);
    let svc = SolverService::start(ServiceConfig::default());
    let first = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(!first.cache_hit);
    let again = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(
        again.cache_hit,
        "an unchanged operator reuses its setup state"
    );

    let op = Arc::make_mut(&mut p.op);
    let v = op.a0.blocks[0].interior_row_mut(0);
    v[0] = f64::from_bits(v[0].to_bits() ^ 1);
    let changed = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(
        !changed.cache_hit,
        "a one-ulp coefficient change must miss the operator cache"
    );
    let cache = svc.shutdown();
    assert_eq!((cache.hits, cache.misses), (1, 2));
}

#[test]
fn tolerance_gates_coalescing() {
    // Same operator, different tol: must not share a SolverConfig.
    let p = problem(5);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let t1 = svc.submit(request(&p, 0).with_tol(1e-9)).unwrap();
    let t2 = svc.submit(request(&p, 0).with_tol(1e-11)).unwrap();
    svc.resume();
    assert_eq!(t1.wait().unwrap().batch_width, 1);
    assert_eq!(t2.wait().unwrap().batch_width, 1);
}

#[test]
fn queue_full_rejects_structurally() {
    let p = problem(6);
    let svc = SolverService::start(ServiceConfig {
        queue_capacity: 2,
        tenant_quota: 32,
        start_paused: true,
        ..ServiceConfig::default()
    });
    let _t1 = svc.submit(request(&p, 0)).unwrap();
    let _t2 = svc.submit(request(&p, 1)).unwrap();
    match svc.submit(request(&p, 2)) {
        Err(Reject::QueueFull { depth, capacity }) => {
            assert_eq!((depth, capacity), (2, 2));
        }
        other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
    }
}

/// Malformed requests are refused at the door with a structured reject:
/// inside a worker a foreign layout would trip the batched engine's
/// geometry assert (the worker dies, its tenants' quota is never released,
/// a one-worker service wedges), a tolerance nothing can reach would burn
/// `max_iters` iterations, and a non-finite `b` or `x0` would burn the
/// restart ladder to `Diverged`.
#[test]
fn invalid_requests_are_rejected_at_submit() {
    let p = problem(5);
    let other = problem(6); // same shape, its own `DistLayout`
    let obs = ObsSink::enabled();
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        obs: obs.clone(),
        ..ServiceConfig::default()
    });

    let mut foreign_b = request(&p, 0);
    foreign_b.b = other.b.clone();
    let mut foreign_x0 = request(&p, 0);
    foreign_x0.x0 = Some(DistVec::zeros(&other.op.layout));
    let mut bad = vec![foreign_b, foreign_x0];
    bad.extend([0.0, -1.0, f64::NAN].map(|tol| request(&p, 0).with_tol(tol)));
    for poison in [f64::NAN, f64::INFINITY] {
        let mut bad_b = request(&p, 0);
        bad_b.b.blocks[0].set(1, 1, poison);
        let mut bad_x0 = request(&p, 0);
        let mut x0 = DistVec::zeros(&p.op.layout);
        x0.blocks[0].set(1, 1, poison);
        bad_x0.x0 = Some(x0);
        bad.extend([bad_b, bad_x0]);
    }
    let n_bad = bad.len() as u64;
    for req in bad {
        let r = svc.submit(req).err().expect("malformed request admitted");
        assert!(matches!(r, Reject::Invalid { .. }), "{r}");
        assert_eq!(r.reason(), "invalid");
    }
    assert_eq!(svc.tenant_load_len(), 0, "a refused request holds no quota");
    let shed = obs
        .metrics()
        .into_iter()
        .find(|m| m.name == "pop_serve_shed_total" && m.labels.contains(&("reason", "invalid")))
        .expect("invalid rejects are counted as shed");
    assert_eq!(shed.value, SampleValue::Counter(n_bad));

    // The single worker is still alive and serving.
    let resp = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(resp.stats.converged);
    assert_eq!(svc.tenant_load_len(), 0);
}

#[test]
fn tenant_quota_rejects_only_the_hog() {
    let p = problem(7);
    let svc = SolverService::start(ServiceConfig {
        queue_capacity: 16,
        tenant_quota: 2,
        start_paused: true,
        ..ServiceConfig::default()
    });
    let _a1 = svc.submit(request(&p, 9)).unwrap();
    let _a2 = svc.submit(request(&p, 9)).unwrap();
    match svc.submit(request(&p, 9)) {
        Err(Reject::TenantQuota {
            tenant,
            in_flight,
            quota,
        }) => {
            assert_eq!((tenant, in_flight, quota), (9, 2, 2));
        }
        other => panic!("expected TenantQuota, got {:?}", other.map(|_| ())),
    }
    // Another tenant is unaffected.
    assert!(svc.submit(request(&p, 10)).is_ok());
}

#[test]
fn expired_deadline_is_shed_at_dispatch() {
    let p = problem(8);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let doomed = svc
        .submit(request(&p, 0).with_deadline(Duration::from_millis(1)))
        .unwrap();
    let fine = svc.submit(request(&p, 1)).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    svc.resume();
    match doomed.wait() {
        Err(Reject::DeadlineExpired { waited, deadline }) => {
            assert!(waited >= deadline);
        }
        other => panic!("expected DeadlineExpired, got {:?}", other.map(|_| ())),
    }
    assert!(fine.wait().unwrap().stats.converged);
}

#[test]
fn shutdown_drains_queue_with_rejects() {
    let p = problem(9);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let t = svc.submit(request(&p, 0)).unwrap();
    let _cache = svc.shutdown();
    match t.wait() {
        Err(Reject::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn fairness_interleaves_tenants_under_quota_pressure() {
    // Tenant 0 floods; tenant 1 submits one request with a deadline. With
    // round-robin ordering tenant 1's request dispatches in the first
    // round alongside the flood, not after all of tenant 0's work.
    let p = problem(10);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        max_batch: 4,
        ..ServiceConfig::default()
    });
    let flood: Vec<Ticket> = (0..8)
        .map(|_| svc.submit(request(&p, 0)).unwrap())
        .collect();
    let vip = svc.submit(request(&p, 1)).unwrap();
    svc.resume();
    let resp = vip.wait().unwrap();
    assert!(resp.stats.converged);
    assert_eq!(
        resp.batch_width, 4,
        "round-robin order puts the second tenant into the first batch"
    );
    for t in flood {
        assert!(t.wait().unwrap().stats.converged);
    }
}

#[test]
fn tenant_load_map_empties_after_all_tickets_resolve() {
    // Regression: `finish_tenant` used to saturating-sub to 0 without
    // removing the entry, leaking one map slot per tenant ever served.
    let p = problem(20);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..6)
        .map(|tenant| svc.submit(request(&p, tenant)).unwrap())
        .collect();
    assert_eq!(svc.tenant_load_len(), 6);
    svc.resume();
    for t in tickets {
        assert!(t.wait().unwrap().stats.converged);
    }
    assert_eq!(
        svc.tenant_load_len(),
        0,
        "tenant_load must not retain zero-load entries"
    );
}

#[test]
fn tenant_load_map_empties_after_shutdown_drain() {
    // The shutdown drain path shares the same remove-at-zero release as
    // the served path (it used to do `entry(..).or_insert(1) -= 1`).
    let p = problem(21);
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..4)
        .map(|tenant| svc.submit(request(&p, tenant)).unwrap())
        .collect();
    assert_eq!(svc.tenant_load_len(), 4);
    let tenants_left = svc.tenant_load_len_after_shutdown();
    assert_eq!(tenants_left, 0, "drain must release every queued tenant");
    for t in tickets {
        assert!(matches!(t.wait(), Err(Reject::ShuttingDown)));
    }
}

/// Read the current `pop_serve_queue_depth` gauge from a sink.
fn queue_depth(obs: &ObsSink) -> Option<f64> {
    obs.metrics().into_iter().find_map(|s| {
        if s.name != "pop_serve_queue_depth" {
            return None;
        }
        match s.value {
            SampleValue::Gauge(v) => Some(v),
            _ => None,
        }
    })
}

#[test]
fn queue_depth_gauge_tracks_authoritative_length() {
    // Regression: the gauge was written outside the queue lock in the
    // dispatch path, so submit/dispatch interleavings could leave a
    // permanently stale nonzero depth after the queue drained.
    let p = problem(22);
    let obs = ObsSink::enabled();
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    let tickets: Vec<Ticket> = (0..3)
        .map(|i| svc.submit(request(&p, i)).unwrap())
        .collect();
    assert_eq!(queue_depth(&obs), Some(3.0));
    svc.resume();
    for t in tickets {
        assert!(t.wait().unwrap().stats.converged);
    }
    // Every response is out, so the queue has drained; the gauge must
    // agree with the authoritative length it was set from.
    assert_eq!(queue_depth(&obs), Some(0.0));
}

#[test]
fn feasible_deadline_under_parallelism_is_admitted() {
    // Regression: admission estimated queue wait as `ema * (depth + 1)` —
    // one worker, no coalescing — over-rejecting the moment a pool
    // exists. The estimate now divides by workers × mean batch width.
    let per_solve = 0.010;
    let deadline = Duration::from_millis(30);

    // Stage identical queues (5 deep, paused) on both services; the 6th
    // submission carries the deadline: 6 × 10ms = 60ms of work.
    let mk = |workers: usize, seed: u64| {
        let p = problem(seed);
        let svc = SolverService::start(ServiceConfig {
            workers,
            start_paused: true,
            ..ServiceConfig::default()
        });
        svc.prime_service_estimate(per_solve, 1.0);
        for i in 0..5 {
            svc.submit(request(&p, i)).unwrap();
        }
        (svc, p)
    };

    // Serial service: estimated wait 60ms > 30ms deadline ⇒ shed.
    let (serial, p1) = mk(1, 23);
    match serial.submit(request(&p1, 9).with_deadline(deadline)) {
        Err(Reject::DeadlineUnmeetable { estimated_wait, .. }) => {
            assert!(estimated_wait > deadline);
        }
        other => panic!("expected DeadlineUnmeetable, got {:?}", other.map(|_| ())),
    }

    // Four workers: estimated wait 15ms < 30ms ⇒ admitted.
    let (pooled, p2) = mk(4, 24);
    assert_eq!(pooled.worker_count(), 4);
    assert!(
        pooled
            .submit(request(&p2, 9).with_deadline(deadline))
            .is_ok(),
        "a deadline feasible under pool parallelism must not be shed at admission"
    );
}

#[test]
fn interactive_lane_dispatches_ahead_of_batch() {
    // Batch work submitted FIRST, on its own operator; interactive work
    // submitted after. With one worker, lane priority (not FIFO) decides
    // dispatch order, so the interactive request waits less than the
    // batch request that got in line before it.
    let pb = problem(25);
    let pi = problem(26);
    let obs = ObsSink::enabled();
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        start_paused: true,
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    let batch = svc
        .submit(request(&pb, 0).with_priority(Priority::Batch))
        .unwrap();
    let interactive = svc.submit(request(&pi, 1)).unwrap();
    svc.resume();
    let ri = interactive.wait().unwrap();
    let rb = batch.wait().unwrap();
    assert!(ri.stats.converged && rb.stats.converged);
    assert!(
        rb.queue_wait > ri.queue_wait,
        "batch ({:?}) must wait through the interactive dispatch ({:?})",
        rb.queue_wait,
        ri.queue_wait
    );
    // SLO metrics are per-class: both lanes exported their own wait rows.
    let classes: Vec<_> = obs
        .metrics()
        .into_iter()
        .filter(|s| s.name == "pop_serve_queue_wait_seconds")
        .map(|s| s.labels.clone())
        .collect();
    assert!(classes.contains(&vec![("class", "interactive")]));
    assert!(classes.contains(&vec![("class", "batch")]));
}

#[test]
fn worker_pool_responses_match_single_worker_bitwise() {
    // The same staged burst through 1 and 4 workers: identical bits.
    let probs: Vec<Problem> = (30..33).map(problem).collect();
    let run = |workers: usize| {
        let svc = SolverService::start(ServiceConfig {
            workers,
            start_paused: true,
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| svc.submit(request(&probs[i % 3], i as u32)).unwrap())
            .collect();
        svc.resume();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect::<Vec<_>>()
    };
    let one = run(1);
    let four = run(4);
    for (a, b) in one.iter().zip(&four) {
        assert!(a.stats.converged && b.stats.converged);
        for (ba, bb) in a.x.blocks.iter().zip(b.x.blocks.iter()) {
            for j in 0..ba.ny {
                for (va, vb) in ba.interior_row(j).iter().zip(bb.interior_row(j)) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
        }
    }
}

#[test]
fn non_converged_solve_resolves_its_ticket_with_a_finite_answer() {
    // Three iterations cannot reach 1e-11: the ticket still resolves with
    // the iteration cap as its structured outcome and a finite iterate.
    let p = problem(11);
    let svc = SolverService::start(ServiceConfig {
        base: SolverConfig {
            max_iters: 3,
            ..SolverConfig::default()
        },
        ..ServiceConfig::default()
    });
    let resp = svc.submit(request(&p, 0)).unwrap().wait().unwrap();
    assert!(!resp.stats.converged);
    assert_eq!(resp.stats.outcome, SolveOutcome::MaxIters);
    for blk in &resp.x.blocks {
        for j in 0..blk.ny {
            assert!(blk.interior_row(j).iter().all(|v| v.is_finite()));
        }
    }
}
