//! Bitwise determinism of the fused solver paths.
//!
//! The fused block-sweep loops (`LinearSolver::solve_ws`) must produce
//! solutions bit-identical to the whole-vector reference solve
//! (`common::solve_reference`), and the threaded backend must be
//! bit-identical to the serial one — per-block partials are combined in
//! fixed block order, never in completion order. These tests pin all of that down on a masked,
//! multi-block global grid where land/ocean boundaries cut through blocks.

use pop_baro::comm::BlockVec;
use pop_baro::core::solvers::SolverWorkspace;
use pop_baro::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;
use common::precond::Identity;

struct Problem {
    layout: std::sync::Arc<pop_baro::comm::DistLayout>,
    op: NinePoint,
    rhs: DistVec,
}

/// A masked multi-block problem: 5×3 blocks over a scaled gx01-family
/// global grid, so several blocks straddle coastlines and at least one is
/// land-heavy.
fn problem() -> Problem {
    let grid = Grid::gx01_scaled(11, 90, 60);
    let layout = DistLayout::build(&grid, 18, 20);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 9000.0);
    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.13).sin() * ((j as f64) * 0.09).cos() + 0.2);
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);
    Problem { layout, op, rhs }
}

fn assert_bitwise_eq(a: &DistVec, b: &DistVec, what: &str) {
    let (ga, gb) = (a.to_global(), b.to_global());
    assert_eq!(ga.len(), gb.len());
    for (k, (x, y)) in ga.iter().zip(&gb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: point {k} differs: {x:e} vs {y:e}"
        );
    }
}

/// Run one solver through every (path, backend) combination and demand
/// identical iteration counts and bit-identical solutions.
fn check_solver(name: &str, p: &Problem, pre: &dyn Preconditioner, solver: &dyn LinearSolver) {
    let cfg = SolverConfig {
        tol: 1e-11,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let serial = CommWorld::serial();
    let threaded = CommWorld::threaded();

    let mut x_fused_s = DistVec::zeros(&p.layout);
    let st_fused_s = solver.solve(&p.op, pre, &serial, &p.rhs, &mut x_fused_s, &cfg);
    assert!(st_fused_s.converged, "{name} fused/serial did not converge");

    let mut x_fused_t = DistVec::zeros(&p.layout);
    let st_fused_t = solver.solve(&p.op, pre, &threaded, &p.rhs, &mut x_fused_t, &cfg);

    assert_eq!(
        st_fused_s.iterations, st_fused_t.iterations,
        "{name}: fused serial vs threaded iteration counts differ"
    );
    assert_eq!(
        st_fused_s.final_relative_residual.to_bits(),
        st_fused_t.final_relative_residual.to_bits(),
        "{name}: fused serial vs threaded residuals differ"
    );
    assert_bitwise_eq(
        &x_fused_s,
        &x_fused_t,
        &format!("{name} fused serial vs threaded"),
    );
}

/// The reference solve for one solver, compared bitwise against the fused
/// path on both backends.
fn check_fused_matches_reference(
    name: &str,
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
) {
    let cfg = SolverConfig {
        tol: 1e-11,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let serial = CommWorld::serial();
    let threaded = CommWorld::threaded();

    let mut x_ref = DistVec::zeros(&p.layout);
    let st_ref = common::solve_reference(kind, &p.op, pre, &serial, &p.rhs, &mut x_ref, &cfg);
    assert!(st_ref.converged, "{name} reference did not converge");

    for (bname, world) in [("serial", &serial), ("threaded", &threaded)] {
        let mut x_fused = DistVec::zeros(&p.layout);
        let mut ws = SolverWorkspace::new();
        let st_fused = kind.solve(&p.op, pre, world, &p.rhs, &mut x_fused, &cfg, &mut ws);
        assert_eq!(
            st_ref.iterations, st_fused.iterations,
            "{name} fused/{bname} vs reference iteration counts differ"
        );
        assert_eq!(
            st_ref.final_relative_residual.to_bits(),
            st_fused.final_relative_residual.to_bits(),
            "{name} fused/{bname} vs reference residuals differ"
        );
        assert_bitwise_eq(
            &x_ref,
            &x_fused,
            &format!("{name} fused/{bname} vs reference"),
        );
    }
}

#[test]
fn fused_serial_matches_threaded_all_solvers() {
    let p = problem();
    let world = CommWorld::serial();
    for (pname, pre) in [
        ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
        ("evp", &BlockEvp::with_defaults(&p.op)),
    ] {
        let (bounds, _) = estimate_bounds(&p.op, pre, &world, &LanczosConfig::default());
        let solvers: [(&str, &dyn LinearSolver); 2] =
            [("pcsi", &Pcsi::new(bounds)), ("chrongear", &ChronGear)];
        for (sname, solver) in solvers {
            check_solver(&format!("{sname}+{pname}"), &p, pre, solver);
        }
    }
}

#[test]
fn fused_matches_unfused_bitwise_pcsi_chrongear() {
    let p = problem();
    let world = CommWorld::serial();
    for (pname, pre) in [
        ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
        ("evp", &BlockEvp::with_defaults(&p.op)),
    ] {
        let (bounds, _) = estimate_bounds(&p.op, pre, &world, &LanczosConfig::default());
        for kind in [SolverKind::Pcsi(bounds), SolverKind::ChronGear] {
            check_fused_matches_reference(&format!("{}+{pname}", kind.name()), &p, pre, kind);
        }
    }
}

/// The comm accounting of the fused paths must match the paper's counts —
/// fusion may not hide or double-count a reduction.
#[test]
fn fused_comm_counts_match_unfused() {
    let p = problem();
    let pre = Diagonal::new(&p.op);
    let cfg = SolverConfig {
        tol: 1e-11,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };

    let (bounds, _) = estimate_bounds(&p.op, &pre, &CommWorld::serial(), &LanczosConfig::default());
    for kind in [SolverKind::Pcsi(bounds), SolverKind::ChronGear] {
        let serial = CommWorld::serial();
        let mut xf = DistVec::zeros(&p.layout);
        let mut ws = SolverWorkspace::new();
        let fused = kind
            .solve(&p.op, &pre, &serial, &p.rhs, &mut xf, &cfg, &mut ws)
            .comm;
        let serial2 = CommWorld::serial();
        let mut xr = DistVec::zeros(&p.layout);
        let st = common::solve_reference(kind, &p.op, &pre, &serial2, &p.rhs, &mut xr, &cfg);
        let name = kind.name();
        assert_eq!(fused.allreduces, st.comm.allreduces, "{name} allreduces");
        assert_eq!(fused.halo_updates, st.comm.halo_updates, "{name} halos");
    }
}

/// A preconditioner that counts its block applies, to pin the number of
/// `M⁻¹` applications a solve *executes* against the number it reports.
struct Counting<'a> {
    inner: &'a dyn Preconditioner,
    block_applies: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn Preconditioner) -> Self {
        Counting {
            inner,
            block_applies: AtomicUsize::new(0),
        }
    }

    fn take(&self) -> usize {
        self.block_applies.swap(0, Ordering::Relaxed)
    }
}

impl Preconditioner for Counting<'_> {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        self.block_applies.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_block(b, r, z);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// ChronGear's two-sweep loop at every edge of the check cadence: the
/// iteration cap before, on and after a check, a cap of one (and, at
/// `check_every = 1`, of zero), several checks plus a tail, and a solve that
/// converges. Everything a solve reports — solution, history, residual,
/// every counter of the solve and of the communicator — equals the
/// reference solve's, and the preconditioner is *applied* exactly as often
/// as reported: once per iteration, none past the exit.
#[test]
fn chrongear_matches_unfused_at_every_cadence_edge() {
    let p = problem();
    let diag = Diagonal::new(&p.op);
    let evp = BlockEvp::with_defaults(&p.op);
    let n_blocks = p.layout.n_blocks();
    for pre in [&Identity as &dyn Preconditioner, &diag, &evp] {
        let pre = Counting::new(pre);
        for ce in [1usize, 10] {
            for max_iters in [1, ce - 1, ce, ce + 1, 3 * ce + 2, 50_000] {
                let cfg = SolverConfig {
                    tol: 1e-11,
                    max_iters,
                    check_every: ce,
                    ..SolverConfig::default()
                };
                let name = format!("{} ce={ce} max_iters={max_iters}", pre.name());
                let oracle = CommWorld::serial();
                let mut x = DistVec::zeros(&p.layout);
                let kind = SolverKind::ChronGear;
                let st = common::solve_reference(kind, &p.op, &pre, &oracle, &p.rhs, &mut x, &cfg);
                assert_eq!(st.converged, max_iters == 50_000, "{name}");
                assert_eq!(pre.take(), st.precond_applies * n_blocks, "{name}: oracle");
                let want = common::observe(&st, &x);

                for (bname, world) in [
                    ("serial", CommWorld::serial()),
                    ("threaded", CommWorld::threaded()),
                ] {
                    let name = format!("{name} fused/{bname}");
                    let mut x = DistVec::zeros(&p.layout);
                    let got = ChronGear.solve(&p.op, &pre, &world, &p.rhs, &mut x, &cfg);
                    common::assert_same(&name, &want, &common::observe(&got, &x));
                    assert_eq!(got.comm, st.comm, "{name}: communicator counters");
                    assert_eq!(
                        pre.take(),
                        got.precond_applies * n_blocks,
                        "{name}: applies executed vs reported"
                    );
                }
            }
        }
    }
}

/// A restart re-enters `ChronGear::start` and must re-apply `M⁻¹` before the
/// first stencil sweep of the new recurrence (the `r'` left over from the
/// broken one is stale). Driven through the rank runtime, whose light
/// poisoning makes the same generic loop restart: every run converges with
/// exactly one executed apply per iteration, and restarts did fire.
#[test]
fn chrongear_restart_reapplies_the_preconditioner() {
    let p = common::problem(2015);
    let diag = Diagonal::new(&p.op);
    let pre = Counting::new(&diag);
    let light = FaultConfig {
        corrupt_prob: 1e-4,
        ..FaultConfig::default()
    };
    let mut restarts = 0;
    for seed in 1..=8u64 {
        let world = RankWorld::new(
            &p.layout,
            6,
            std::sync::Arc::new(ZeroCost),
            RankSimConfig::default().with_faults(FaultPlan::seeded(seed, light)),
        );
        let x0 = DistVec::zeros(&p.layout);
        let cfg = common::solver_cfg();
        let out = solve_on_ranks(
            &world,
            &p.op,
            &pre,
            SolverKind::ChronGear,
            &p.rhs,
            &x0,
            &cfg,
        );
        let st = out.stats();
        assert_eq!(st.outcome, SolveOutcome::Converged, "seed {seed}");
        assert_eq!(st.precond_applies, st.iterations, "seed {seed}");
        assert_eq!(
            pre.take(),
            st.iterations * p.layout.n_blocks(),
            "seed {seed}: {} restarts, applies executed vs iterations",
            st.restarts
        );
        restarts += st.restarts;
    }
    assert!(restarts > 0, "no seed restarted: the path is untested");
}
