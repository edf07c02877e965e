//! Cross-crate integration tests: solvers × preconditioners × grids ×
//! decompositions, exercised through the public `pop-baro` API exactly as a
//! downstream user would.

use pop_baro::prelude::*;

mod common;

/// A manufactured problem on any grid.
struct Problem {
    layout: std::sync::Arc<pop_baro::comm::DistLayout>,
    world: CommWorld,
    op: NinePoint,
    rhs: DistVec,
    truth: DistVec,
}

fn problem(grid: &Grid, bx: usize, by: usize, tau: f64) -> Problem {
    let layout = DistLayout::build(grid, bx, by);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(grid, &layout, &world, tau);
    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.13).sin() * ((j as f64) * 0.09).cos() + 0.2);
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);
    Problem {
        layout,
        world,
        op,
        rhs,
        truth,
    }
}

fn rel_err(p: &Problem, x: &DistVec) -> f64 {
    let mut e = x.clone();
    e.axpy(-1.0, &p.truth);
    (p.world.norm2_sq(&e) / p.world.norm2_sq(&p.truth)).sqrt()
}

#[test]
fn every_config_solves_every_grid_family() {
    let grids = [
        Grid::idealized_basin(40, 40, 1200.0, 5.0e4),
        Grid::gx1_scaled(11, 64, 56),
        Grid::gx01_scaled(11, 90, 60),
    ];
    let cfg = SolverConfig {
        tol: 1e-12,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    for grid in &grids {
        let p = problem(grid, 16, 14, 9000.0);
        for choice in SolverChoice::PAPER_SET {
            let setup = SolverSetup::new(choice, &p.op, &p.world);
            let mut x = DistVec::zeros(&p.layout);
            let st = setup.solve(&p.op, &p.world, &p.rhs, &mut x, &cfg);
            assert!(
                st.converged,
                "{} on {}x{}: {st:?}",
                choice.label(),
                grid.nx,
                grid.ny
            );
            let e = rel_err(&p, &x);
            assert!(e < 1e-7, "{}: error {e}", choice.label());
        }
    }
}

#[test]
fn solution_independent_of_decomposition() {
    // The distributed solve must produce the same answer no matter how the
    // domain is blocked — the property POP calls reproducibility.
    let grid = Grid::gx1_scaled(13, 60, 48);
    let cfg = SolverConfig {
        tol: 1e-13,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let mut solutions = Vec::new();
    for (bx, by) in [(60, 48), (15, 12), (12, 16), (9, 7)] {
        let p = problem(&grid, bx, by, 9000.0);
        let setup = SolverSetup::new(SolverChoice::ChronGearDiag, &p.op, &p.world);
        let mut x = DistVec::zeros(&p.layout);
        let st = setup.solve(&p.op, &p.world, &p.rhs, &mut x, &cfg);
        assert!(st.converged);
        solutions.push(x.to_global());
    }
    let scale = solutions[0].iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    for s in &solutions[1..] {
        for (a, b) in solutions[0].iter().zip(s) {
            assert!(
                (a - b).abs() < 1e-9 * scale,
                "decomposition changed the solution: {a} vs {b}"
            );
        }
    }
}

#[test]
fn serial_and_threaded_backends_bit_identical() {
    // Same solve under the rayon backend: identical iterations AND bits.
    let grid = Grid::gx1_scaled(17, 56, 48);
    let cfg = SolverConfig {
        tol: 1e-12,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let run = |world: CommWorld| {
        let layout = DistLayout::build(&grid, 14, 12);
        let op = NinePoint::assemble(&grid, &layout, &world, 9000.0);
        let mut truth = DistVec::zeros(&layout);
        truth.fill_with(|i, j| ((i * 3 + j * 7) as f64 * 0.05).sin());
        world.halo_update(&mut truth);
        let mut rhs = DistVec::zeros(&layout);
        op.apply(&world, &truth, &mut rhs);
        let setup = SolverSetup::new(SolverChoice::PcsiEvp, &op, &world);
        let mut x = DistVec::zeros(&layout);
        let st = setup.solve(&op, &world, &rhs, &mut x, &cfg);
        assert!(st.converged);
        (st.iterations, x.to_global())
    };
    let (it_s, sol_s) = run(CommWorld::serial());
    let (it_t, sol_t) = run(CommWorld::threaded());
    assert_eq!(it_s, it_t, "iteration counts must match across backends");
    for (a, b) in sol_s.iter().zip(&sol_t) {
        assert_eq!(a.to_bits(), b.to_bits(), "backends must agree bit-for-bit");
    }
}

#[test]
fn solvers_agree_with_each_other() {
    let grid = Grid::gx01_scaled(19, 80, 56);
    let p = problem(&grid, 20, 14, 4000.0);
    let cfg = SolverConfig {
        tol: 1e-13,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let mut sols = Vec::new();
    for choice in SolverChoice::PAPER_SET {
        let setup = SolverSetup::new(choice, &p.op, &p.world);
        let mut x = DistVec::zeros(&p.layout);
        let st = setup.solve(&p.op, &p.world, &p.rhs, &mut x, &cfg);
        assert!(st.converged, "{}", choice.label());
        sols.push((choice.label(), x));
    }
    let scale = p.world.norm2_sq(&p.truth).sqrt();
    for (label, x) in &sols[1..] {
        let mut d = x.clone();
        d.axpy(-1.0, &sols[0].1);
        let diff = p.world.norm2_sq(&d).sqrt() / scale;
        assert!(diff < 1e-9, "{label} disagrees with {}: {diff}", sols[0].0);
    }
}

#[test]
fn communication_counts_follow_the_papers_accounting() {
    // Equations (2) and (3) count: ChronGear one fused reduction + one halo
    // per iteration; P-CSI halo-only with reductions at checks.
    let grid = Grid::gx1_scaled(29, 48, 40);
    let p = problem(&grid, 12, 10, 9000.0);
    let cfg = SolverConfig {
        tol: 1e-11,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let cg = SolverSetup::new(SolverChoice::ChronGearDiag, &p.op, &p.world);
    let mut x = DistVec::zeros(&p.layout);
    let st = cg.solve(&p.op, &p.world, &p.rhs, &mut x, &cfg);
    let k = st.iterations as u64;
    assert_eq!(st.comm.allreduces, k + k / 10 + 1);
    assert_eq!(st.comm.halo_updates, k + 1);

    let csi = SolverSetup::new(SolverChoice::PcsiDiag, &p.op, &p.world);
    let mut x = DistVec::zeros(&p.layout);
    // Count only the solve itself (setup runs Lanczos).
    let st = csi.solve(&p.op, &p.world, &p.rhs, &mut x, &cfg);
    let k = st.iterations as u64;
    assert_eq!(st.comm.allreduces, k / 10 + 1);
    assert!(st.comm.halo_updates >= k);
}

#[test]
fn tighter_tolerance_costs_more_iterations() {
    let grid = Grid::gx1_scaled(31, 56, 44);
    let p = problem(&grid, 14, 11, 9000.0);
    let mut last = 0usize;
    for tol in [1e-6, 1e-9, 1e-12] {
        let cfg = SolverConfig {
            tol,
            max_iters: 50_000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let setup = SolverSetup::new(SolverChoice::ChronGearDiag, &p.op, &p.world);
        let mut x = DistVec::zeros(&p.layout);
        let st = setup.solve(&p.op, &p.world, &p.rhs, &mut x, &cfg);
        assert!(st.converged);
        assert!(st.iterations > last, "tol {tol}: {} iters", st.iterations);
        last = st.iterations;
    }
}

/// `check_every: 0` used to divide by zero in every solver loop; it must
/// run exactly the `check_every: 1` trajectory — fused, batched, and in the
/// reference solve.
#[test]
fn zero_check_interval_means_every_iteration() {
    let grid = Grid::gx1_scaled(29, 48, 40);
    let p = problem(&grid, 12, 10, 9000.0);
    let pre = Diagonal::new(&p.op);
    let (bounds, _) = estimate_bounds(&p.op, &pre, &p.world, &LanczosConfig::default());
    let cfg = |check_every| SolverConfig {
        tol: 1e-11,
        max_iters: 50_000,
        check_every,
        ..SolverConfig::default()
    };
    let same = |what: &str, run: &dyn Fn(&SolverConfig, &mut DistVec) -> SolveStats| {
        let (mut x0, mut x1) = (DistVec::zeros(&p.layout), DistVec::zeros(&p.layout));
        let (st0, st1) = (run(&cfg(0), &mut x0), run(&cfg(1), &mut x1));
        assert!(st0.converged, "{what}: {st0:?}");
        assert_eq!(st0.iterations, st1.iterations, "{what}");
        assert_eq!(st0.residual_history, st1.residual_history, "{what}");
        for (a, b) in x0.to_global().iter().zip(&x1.to_global()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}");
        }
    };
    let (op, world, rhs) = (&p.op, &p.world, &p.rhs);
    let pcsi = Pcsi::new(bounds);
    same("chrongear", &|c, x| {
        ChronGear.solve(op, &pre, world, rhs, x, c)
    });
    same("pcsi", &|c, x| pcsi.solve(op, &pre, world, rhs, x, c));
    for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
        same(&format!("{} reference", kind.name()), &|c, x| {
            common::solve_reference(kind, op, &pre, world, rhs, x, c)
        });
    }
    same("pcsi batched", &|c, x| {
        let mut ws = BatchWorkspace::new();
        pcsi.solve_batch_comm(op, &pre, world, &[rhs], &mut [x], c, &mut ws)
            .remove(0)
    });
}

/// P-CSI trusts the interval `[ν, μ]` it is given. Handed Lanczos bounds
/// that are off — μ halved, so the top of the spectrum of `M⁻¹A` lies
/// outside the Chebyshev interval and grows every iteration, or ν × 10, so
/// the bottom is damped too slowly — a solve must still return, without a
/// panic and with a finite iterate. The outcome, iteration count and
/// restarts of each case are today's, pinned so that a change in how P-CSI
/// meets bad bounds (or where its bounds come from) shows here: with μ
/// halved the recovery path restarts three times and gives up at iteration
/// 90 with the last good iterate; with ν × 10 the solve still converges, in
/// 3.6 (diagonal) and 3.8 (EVP) times the iterations.
#[test]
fn pcsi_survives_wrong_eigenbounds() {
    use SolveOutcome::{Converged, Diverged};
    let grid = Grid::gx1_scaled(29, 48, 40);
    let p = problem(&grid, 12, 10, 9000.0);
    let cfg = SolverConfig {
        tol: 1e-10,
        max_iters: 2000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let diag = Diagonal::new(&p.op);
    let evp = BlockEvp::with_defaults(&p.op);
    // (outcome, iterations, restarts) under exact, μ/2 and 10ν bounds.
    type Pinned = [(SolveOutcome, usize, usize); 3];
    let diag_pins: Pinned = [(Converged, 260, 0), (Diverged, 90, 3), (Converged, 930, 0)];
    let evp_pins: Pinned = [(Converged, 110, 0), (Diverged, 90, 3), (Converged, 420, 0)];
    for (pre, pinned) in [(&diag as &dyn Preconditioner, diag_pins), (&evp, evp_pins)] {
        let (bounds, _) = estimate_bounds(&p.op, pre, &p.world, &LanczosConfig::default());
        let (nu, mu) = (bounds.nu, bounds.mu);
        let wrong = [
            ("exact", nu, mu),
            ("mu/2", nu, 0.5 * mu),
            ("nu*10", 10.0 * nu, mu),
        ];
        for ((what, nu, mu), want) in wrong.into_iter().zip(pinned) {
            let name = format!("pcsi+{} {what}", pre.name());
            let mut x = DistVec::zeros(&p.layout);
            let pcsi = Pcsi::new(EigenBounds { nu, mu });
            let st = pcsi.solve(&p.op, pre, &p.world, &p.rhs, &mut x, &cfg);
            assert_eq!((st.outcome, st.iterations, st.restarts), want, "{name}");
            assert!(x.to_global().iter().all(|v| v.is_finite()), "{name}");
        }
    }
}
