//! `gyre_minipop`: the mini-POP wind-driven double gyre with the paper's
//! solver in the loop — thousands of short solves (≈11 iterations each), so
//! what a step costs is the solve's fixed part, not its kernels.

use super::{Ctx, SetupClock};
use crate::ladder::{self, LadderSpec};
use crate::report::Report;
use crate::unit::UnitTimes;
use pop_comm::CommWorld;
use pop_grid::Grid;
use pop_ocean::{MiniPop, MiniPopConfig, SolverChoice};
use std::time::Instant;

/// Model steps per reference run (≈1.5 ms each on the reference host).
const FROZEN_STEPS: usize = 9600;
/// Steps between two samples of the host (≈0.2 s).
const STRETCH: usize = 150;

fn basin(smoke: bool) -> fn() -> Grid {
    if smoke {
        || Grid::idealized_basin(32, 24, 500.0, 4.0e4)
    } else {
        || Grid::idealized_basin(64, 48, 500.0, 2.0e4)
    }
}

fn config(grid: &Grid) -> MiniPopConfig {
    let mut cfg = MiniPopConfig::eddying_for(grid);
    cfg.solver = SolverChoice::PcsiEvp;
    cfg.nlev = 3;
    cfg
}

fn construct(ctx: &Ctx, world: &CommWorld) -> MiniPop {
    let _s = ctx.tracer.span("setup");
    let grid = {
        let _g = ctx.tracer.span("grid.build");
        basin(ctx.smoke)()
    };
    let cfg = config(&grid);
    let mut model = {
        let _m = ctx.tracer.span("ocean.minipop_new");
        MiniPop::new(grid, cfg, world)
    };
    // The seed enters as a 1e-6 °C temperature perturbation: a different
    // (equally valid) initial state on the same basin.
    model.perturb_temperature(1.0e-6, ctx.seed);
    model
}

/// One model step: its wall time (ms), checked right after.
fn step(
    ctx: &Ctx,
    report: &mut Report,
    world: &CommWorld,
    model: &mut MiniPop,
    traced: bool,
) -> f64 {
    let t0 = Instant::now();
    {
        let _s = traced.then(|| {
            ctx.tracer
                .span_id("ocean.minipop_step", model.steps as u64 + 1)
        });
        model.step(world);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    // The forecast ψ is private to the model, so the solver-reported
    // residual stands in for the recomputed one here; the end-of-run
    // health and volume checks cover the trajectory.
    let st = model.barotropic.last_stats.as_ref().expect("a step solves");
    let ok = st.converged && st.final_relative_residual <= model.config.tolerance;
    report.attempt(ok, || {
        format!(
            "model step {}: converged={} residual {:.3e} after {} iterations",
            model.steps, st.converged, st.final_relative_residual, st.iterations
        )
    });
    ms
}

fn check_trajectory(report: &mut Report, model: &MiniPop) {
    report.check(model.is_healthy(), || {
        format!(
            "model unhealthy after {} steps (max|η| {:.3e})",
            model.steps,
            model.max_eta()
        )
    });
    report.check(model.mean_eta().abs() < 1.0e-8, || {
        format!("volume not conserved: mean η = {:.3e} m", model.mean_eta())
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let world = CommWorld::serial();
    let steps = ctx.units(FROZEN_STEPS, 100);
    report.frozen.push(("steps", steps as f64));

    let mut clock = SetupClock::new(ctx);
    let mut model = clock.before(ctx, || construct(ctx, &world));

    if !ctx.trace {
        // A step is too short to bracket on its own: the host is sampled
        // once per stretch of steps, and every step of a stretch takes the
        // stretch's slowdown.
        let mut times = UnitTimes::default();
        let mut stretch = Vec::with_capacity(STRETCH);
        clock.host.lap();
        for k in 1..=steps {
            stretch.push(step(ctx, &mut report, &world, &mut model, false));
            if stretch.len() == STRETCH || k == steps {
                let slowdown = clock.host.lap();
                for ms in stretch.drain(..) {
                    times.push_corrected(ms, slowdown);
                }
            }
        }
        check_trajectory(&mut report, &model);
        let iters = model.barotropic.mean_iterations();
        drop(model);
        clock.after(ctx, || construct(ctx, &world));
        clock.push_metric(&mut report);
        times.push_end_to_end(&mut report, iters, &clock.host);
        return report;
    }
    clock.push_metric(&mut report);

    // Traced pass: two models walk the same first half of the trajectory
    // in alternation, one plain and one under spans, so host drift hits
    // both alike and their ratio is the tracing overhead.
    let mut traced_model = construct(ctx, &world);
    let (mut plain, mut traced) = (UnitTimes::default(), UnitTimes::default());
    {
        let _m = ctx.tracer.span("main");
        for _ in 0..steps / 2 {
            plain
                .ms
                .push(step(ctx, &mut report, &world, &mut model, false));
            traced
                .ms
                .push(step(ctx, &mut report, &world, &mut traced_model, true));
        }
    }
    check_trajectory(&mut report, &model);
    check_trajectory(&mut report, &traced_model);
    traced.push_unit_layer(&mut report, &plain);

    let cfg = &traced_model.config;
    let spec = LadderSpec {
        grid: basin(ctx.smoke),
        bx: cfg.bx.min(traced_model.grid.nx),
        by: cfg.by.min(traced_model.grid.ny),
        tau: cfg.tau,
        gravity: cfg.gravity,
        choice: cfg.solver,
        tol: cfg.tolerance,
        check_every: 1,
        ranks: 16,
    };
    ladder::run(ctx, &mut report, &spec, ladder::Rungs::ALL);
    report
}
