//! The batched multi-RHS engine is bitwise invisible per right-hand side.
//!
//! DESIGN.md §12 promises that a `k`-wide batched solve advances each RHS
//! along exactly the floating point trajectory its single-RHS solve would
//! take: same solution bits, same iteration count, same residual history,
//! same outcome — under every execution backend (serial, thread pool,
//! ranksim message passing) and every SIMD dispatch mode (the CI `batch`
//! job re-runs this binary with `POP_BARO_SIMD=portable`).
//!
//! This suite enforces the promise end to end: both solvers × {diagonal,
//! block-EVP} × three backends on batches of one to four lane groups (k=3,
//! 5, 9 — not lane multiples — and 16), plus forced-dispatch sweeps and a
//! batch mixing converging and diverging systems (the poisoned lane must
//! walk the full restart → abort recovery ladder without perturbing its
//! neighbours).

mod common;
use common::{
    assert_same, lane_modes, observe, problem, problem_on, solver_cfg, ModeGuard, Observables,
    Problem,
};
use pop_baro::prelude::*;
use pop_core::solvers::{BatchWorkspace, SolveStats, SolverWorkspace};
use std::sync::Arc;

/// `k` independent right-hand sides in the operator's range, each from its
/// own seeded noise field.
fn seeded_batch(p: &Problem, k: usize, seed: u64) -> Vec<DistVec> {
    (0..k)
        .map(|l| common::rhs_in_range(&p.op, seed.wrapping_add(l as u64)))
        .collect()
}

/// Per-RHS single-solve baselines on a shared-memory backend.
fn singles_shared(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    world: &CommWorld,
    bs: &[DistVec],
    cfg: &SolverConfig,
) -> Vec<Observables> {
    let mut ws = SolverWorkspace::new();
    bs.iter()
        .map(|b| {
            let mut x = DistVec::zeros(&p.layout);
            let st = kind.solve(&p.op, pre, world, b, &mut x, cfg, &mut ws);
            observe(&st, &x)
        })
        .collect()
}

/// One batched solve on a shared-memory backend, per-RHS outcomes.
fn batch_shared(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    world: &CommWorld,
    bs: &[DistVec],
    cfg: &SolverConfig,
) -> Vec<Observables> {
    let mut xs_own: Vec<DistVec> = bs.iter().map(|_| DistVec::zeros(&p.layout)).collect();
    let b_refs: Vec<&DistVec> = bs.iter().collect();
    let mut x_refs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
    let mut ws = BatchWorkspace::new();
    let stats = kind.solve_batch(&p.op, pre, world, &b_refs, &mut x_refs, cfg, &mut ws);
    drop(x_refs);
    stats
        .iter()
        .zip(&xs_own)
        .map(|(st, x)| observe(st, x))
        .collect()
}

/// One batched solve under the ranksim message-passing runtime: every rank
/// runs the same batched loop over its private blocks, lane solutions are
/// gathered back per RHS.
fn batch_ranksim(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    ranks: usize,
    bs: &[DistVec],
    cfg: &SolverConfig,
) -> Vec<Observables> {
    let world = RankWorld::new(
        &p.layout,
        ranks,
        Arc::new(ZeroCost),
        RankSimConfig::default(),
    );
    let x0 = DistVec::zeros(&p.layout);
    let reports = world.run(|comm| {
        let rank_cfg = if comm.rank() == 0 {
            cfg.clone()
        } else {
            cfg.clone().with_obs(ObsSink::disabled())
        };
        let rbs: Vec<_> = bs.iter().map(|b| comm.import(b)).collect();
        let mut rxs: Vec<_> = bs.iter().map(|_| comm.import(&x0)).collect();
        let b_refs: Vec<_> = rbs.iter().collect();
        let mut x_refs: Vec<_> = rxs.iter_mut().collect();
        let mut ws = BatchWorkspace::new();
        let stats = kind.solve_batch(&p.op, pre, comm, &b_refs, &mut x_refs, &rank_cfg, &mut ws);
        drop(x_refs);
        let lanes: Vec<_> = rxs.into_iter().map(|x| x.into_blocks()).collect();
        (stats, lanes)
    });
    let mut xs: Vec<DistVec> = bs.iter().map(|_| DistVec::zeros(&p.layout)).collect();
    // What every rank must agree on, owning blocks or not: the collectives
    // it took part in and how far each lane ran.
    let lockstep = |sts: &[SolveStats]| -> Vec<_> {
        sts.iter()
            .map(|st| {
                let c = &st.comm;
                (
                    st.iterations,
                    c.allreduces,
                    c.allreduce_scalars,
                    c.halo_updates,
                )
            })
            .collect()
    };
    let mut stats0: Option<Vec<SolveStats>> = None;
    for rep in reports {
        let (st, lanes) = rep.result;
        match &stats0 {
            None => {
                assert_eq!(rep.rank, 0, "reports come in rank order");
                stats0 = Some(st);
            }
            Some(st0) => assert_eq!(
                lockstep(&st),
                lockstep(st0),
                "{} on {ranks} ranks: rank {} out of lockstep with rank 0",
                kind.name(),
                rep.rank
            ),
        }
        for (l, blocks) in lanes.into_iter().enumerate() {
            for (gb, blk) in blocks {
                xs[l].blocks[gb] = blk;
            }
        }
    }
    stats0
        .expect("rank 0 reports")
        .iter()
        .zip(&xs)
        .map(|(st, x)| observe(st, x))
        .collect()
}

/// The tentpole guarantee: both solvers × {diag, EVP} × {serial, threaded,
/// ranksim}, every RHS bitwise equal to its independent single-RHS solve.
/// Batch widths: k=5 with the diagonal, and k=3, 9 and 16 with EVP — one,
/// three and four lane groups, each its own instance of the EVP and
/// stencil lane kernels; 3 and 9 are ragged.
#[test]
fn batched_solves_match_single_rhs_bitwise_end_to_end() {
    let p = problem(0);
    let shared = CommWorld::serial();
    for (pname, pre, widths) in [
        (
            "diag",
            &Diagonal::new(&p.op) as &dyn Preconditioner,
            &[5usize][..],
        ),
        ("evp", &BlockEvp::with_defaults(&p.op), &[3, 9, 16]),
    ] {
        let (bounds, _) = estimate_bounds(&p.op, pre, &shared, &LanczosConfig::default());
        let kinds = [SolverKind::ChronGear, SolverKind::Pcsi(bounds)];
        let cfg = solver_cfg();
        for (&k, kind) in widths.iter().flat_map(|k| kinds.map(|kind| (k, kind))) {
            let bs = seeded_batch(&p, k, 0x5eed_0000 + k as u64);
            let serial = CommWorld::serial();
            let base = singles_shared(&p, pre, kind, &serial, &bs, &cfg);
            assert!(
                base.iter().all(|o| o.outcome == SolveOutcome::Converged),
                "{}+{pname}: single-RHS baseline did not converge",
                kind.name()
            );
            let tag = |backend: &str, l: usize| {
                format!("{}+{pname} k={k} {backend} lane {l}", kind.name())
            };
            for (l, got) in batch_shared(&p, pre, kind, &serial, &bs, &cfg)
                .iter()
                .enumerate()
            {
                assert_same(&tag("serial", l), &base[l], got);
            }
            let threaded = CommWorld::threaded();
            for (l, got) in batch_shared(&p, pre, kind, &threaded, &bs, &cfg)
                .iter()
                .enumerate()
            {
                assert_same(&tag("threaded", l), &base[l], got);
            }
            // 3 ranks share the blocks; `n_blocks + 3` leaves three ranks
            // owning none, which must still run the batch at its real width.
            for ranks in [3, p.layout.n_blocks() + 3] {
                for (l, got) in batch_ranksim(&p, pre, kind, ranks, &bs, &cfg)
                    .iter()
                    .enumerate()
                {
                    assert_same(&tag(&format!("ranksim p={ranks}"), l), &base[l], got);
                }
            }
        }
    }
}

/// Forced-dispatch sweep: under each pinned lane mode the batch must still
/// track its (same-mode) single-RHS baselines bitwise —
/// the batched engine adds no mode-dependent operation of its own. With
/// block-EVP the fixture's 14×10 blocks (6×10 on the ragged east edge)
/// tile into 7×5 and 6×5 siblings that pack across the blocks of each
/// sweep group, and a few tiles stay alone in theirs, so the single-RHS
/// side solves full packs, ragged packs and lone tiles while the batched
/// side is served, tile by tile, from the same packs' slabs.
/// `force_mode` is process-global, so the whole sweep lives in one test.
#[test]
fn batched_solves_match_single_rhs_under_forced_dispatch() {
    let _guard = ModeGuard;
    let p = problem_on(&Grid::gx01_scaled(11, 90, 60), 14, 10, 9000.0, 0);
    let shared = CommWorld::serial();
    let evp = BlockEvp::with_defaults(&p.op);
    let census = evp.census();
    let solved = census.marching.tiles + census.banded.tiles;
    assert!(
        census.packed.tiles > census.marching.tiles.max(census.banded.tiles)
            && census.packed.tiles < solved
            && census.packed.tiles > 3 * census.packs
            && census.packed.tiles < 4 * census.packs,
        "the fixture must pack tiles of both classes, in full and ragged packs, \
         and keep a lone tile: {census:?}"
    );
    let bs = seeded_batch(&p, 3, 0xd15_9a7c);
    let cfg = solver_cfg();
    let modes = lane_modes();
    for (pname, pre) in [
        ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
        ("evp", &evp),
    ] {
        let (bounds, _) = estimate_bounds(&p.op, pre, &shared, &LanczosConfig::default());
        for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
            for mode in &modes {
                pop_simd::force_mode(Some(*mode));
                let base = singles_shared(&p, pre, kind, &shared, &bs, &cfg);
                for (l, got) in batch_shared(&p, pre, kind, &shared, &bs, &cfg)
                    .iter()
                    .enumerate()
                {
                    assert_same(
                        &format!("{}+{pname} {} lane {l}", kind.name(), mode.name()),
                        &base[l],
                        got,
                    );
                }
            }
            pop_simd::force_mode(None);
        }
    }
}

/// A batch mixing healthy and poisoned systems: the NaN lane must walk the
/// per-lane recovery ladder (restart × max_restarts, then abort with the
/// last good snapshot — here the zero initial guess) exactly as its
/// single-RHS solve does, while every healthy lane converges on its own
/// unperturbed trajectory.
#[test]
fn mixed_converging_and_diverging_batch_retires_lanes_independently() {
    let p = problem(0);
    let serial = CommWorld::serial();
    let pre = Diagonal::new(&p.op);
    let cfg = solver_cfg();
    let mut bs = seeded_batch(&p, 4, 0xbad_cafe);
    // Poison lane 1: one NaN at an ocean point makes every residual NaN,
    // which the recovery monitor classifies as divergence at each check.
    let (pb, pj, pi) = p
        .layout
        .masks
        .iter()
        .enumerate()
        .find_map(|(b, mask)| {
            let nx = p.layout.decomp.blocks[b].nx;
            mask.iter()
                .position(|&m| m != 0)
                .map(|at| (b, at / nx, at % nx))
        })
        .expect("grid has ocean points");
    bs[1].blocks[pb].interior_row_mut(pj)[pi] = f64::NAN;

    // Both restart paths, P-CSI through both preconditioners: each batched
    // lane restart must land on its single-RHS restart trajectory.
    let evp = BlockEvp::with_defaults(&p.op);
    let lz = LanczosConfig::default();
    let (b_diag, _) = estimate_bounds(&p.op, &pre, &serial, &lz);
    let (b_evp, _) = estimate_bounds(&p.op, &evp, &serial, &lz);
    let cases: [(&str, &dyn Preconditioner, SolverKind); 3] = [
        ("diag", &pre, SolverKind::ChronGear),
        ("diag", &pre, SolverKind::Pcsi(b_diag)),
        ("evp", &evp, SolverKind::Pcsi(b_evp)),
    ];
    for (pname, pre, kind) in cases {
        let base = singles_shared(&p, pre, kind, &serial, &bs, &cfg);
        assert_eq!(
            base[1].outcome,
            SolveOutcome::Diverged,
            "{}: poisoned single-RHS solve must abort",
            kind.name()
        );
        assert!(
            base[1].restarts > 0,
            "{}: recovery must restart",
            kind.name()
        );
        for (l, got) in batch_shared(&p, pre, kind, &serial, &bs, &cfg)
            .iter()
            .enumerate()
        {
            assert_same(
                &format!("{}+{pname} mixed lane {l}", kind.name()),
                &base[l],
                got,
            );
        }
        for healthy in [0usize, 2, 3] {
            assert_eq!(
                base[healthy].outcome,
                SolveOutcome::Converged,
                "{}: healthy lane {healthy} must converge despite the poisoned neighbour",
                kind.name()
            );
        }
    }
}

/// ChronGear's one reduction an iteration carries two bands of its sweep —
/// every lane's `ρ̃ = rᵀr'` and `δ̃ = (Br')ᵀr'` — in one `2·slots` message,
/// and declares both. Per lane that is 2 scalars an iteration, 1 at setup
/// (`‖b‖`) and 1 per check, at width 1 and in a k = 5 batch (8 slots).
/// Under the rank runtime the wire carries exactly the declared payload:
/// recursive doubling on 4 ranks moves every reduced scalar over
/// log₂ 4 = 2 hops per rank.
#[test]
fn chrongear_declares_the_scalars_it_reduces() {
    let p = problem(0);
    let pre = Diagonal::new(&p.op);
    let cfg = solver_cfg();
    let bs = seeded_batch(&p, 5, 0x9c6_5ca1);
    let kind = SolverKind::ChronGear;
    // Every solve converges on a check, so the checks are iterations / 10.
    let declared = |iterations: usize, slots: u64| {
        let n = iterations as u64;
        slots * (1 + 2 * n + n / cfg.check_every as u64)
    };
    let ranks = RankWorld::new(
        &p.layout,
        4,
        Arc::new(ZeroCost),
        RankSimConfig::default().with_reduce_algo(ReduceAlgo::RecursiveDoubling),
    );
    let wire = |scalars: u64| 2 * 8 * scalars;

    let serial = CommWorld::serial();
    let x0 = DistVec::zeros(&p.layout);
    let mut x = x0.clone();
    let st = kind.solve(
        &p.op,
        &pre,
        &serial,
        &bs[0],
        &mut x,
        &cfg,
        &mut SolverWorkspace::new(),
    );
    assert_eq!(st.outcome, SolveOutcome::Converged);
    assert_eq!(
        st.comm.allreduce_scalars,
        declared(st.iterations, 1),
        "width 1"
    );
    let out = solve_on_ranks(&ranks, &p.op, &pre, kind, &bs[0], &x0, &cfg);
    for rep in &out.per_rank {
        let c = &rep.result.comm;
        assert_eq!(c.allreduce_scalars, declared(rep.result.iterations, 1));
        assert_eq!(c.allreduce_bytes_on_wire, wire(c.allreduce_scalars));
    }

    let mut xs_own: Vec<DistVec> = bs.iter().map(|_| DistVec::zeros(&p.layout)).collect();
    let b_refs: Vec<&DistVec> = bs.iter().collect();
    let mut x_refs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
    let mut ws = BatchWorkspace::new();
    let stats = kind.solve_batch(&p.op, &pre, &serial, &b_refs, &mut x_refs, &cfg, &mut ws);
    let batch_iterations = stats.iter().map(|st| st.iterations).max().unwrap();
    assert_eq!(
        stats[0].comm.allreduce_scalars,
        declared(batch_iterations, 8),
        "k = 5"
    );
    let reports = ranks.run(|comm| {
        let rbs: Vec<_> = bs.iter().map(|b| comm.import(b)).collect();
        let mut rxs: Vec<_> = bs.iter().map(|_| comm.import(&x0)).collect();
        let b_refs: Vec<_> = rbs.iter().collect();
        let mut x_refs: Vec<_> = rxs.iter_mut().collect();
        let mut ws = BatchWorkspace::new();
        kind.solve_batch(&p.op, &pre, comm, &b_refs, &mut x_refs, &cfg, &mut ws)[0].comm
    });
    for rep in &reports {
        assert_eq!(rep.result.allreduce_scalars, declared(batch_iterations, 8));
        assert_eq!(
            rep.result.allreduce_bytes_on_wire,
            wire(rep.result.allreduce_scalars)
        );
    }
}
