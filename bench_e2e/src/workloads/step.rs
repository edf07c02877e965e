//! `step_1deg_pcsi_evp` and `step_0p1deg_cg_diag`: the barotropic mode of
//! an ocean model, one warm-started implicit free-surface solve per step.

use super::{true_rel_residual, Ctx, SetupClock};
use crate::inputs::{self, GRID_SEED};
use crate::ladder::{self, LadderSpec};
use crate::report::Report;
use crate::unit::UnitTimes;
use pop_comm::{CommWorld, DistVec};
use pop_core::solvers::SolverConfig;
use pop_grid::{Grid, GRAVITY};
use pop_obs::ObsSink;
use pop_ocean::{BarotropicMode, SolverChoice};
use std::time::Instant;

pub struct StepSpec {
    pub grid: fn() -> Grid,
    pub bx: usize,
    pub by: usize,
    pub tau: f64,
    pub choice: SolverChoice,
    /// Steps per reference run (`RUN_SECONDS` of stepping on the 2-core
    /// reference host).
    pub frozen_steps: usize,
    /// Simulated ranks for the ladder's ranksim rung.
    pub ladder_ranks: usize,
}

const TOL: f64 = 1e-13;

/// The paper's headline configuration at 1°: gx1 320×384, blocks 40×48,
/// τ = 1100 s, P-CSI + block-EVP (~100 iterations and ~265 ms per step).
pub fn one_degree(smoke: bool) -> StepSpec {
    if smoke {
        return StepSpec {
            grid: || Grid::gx1_scaled(GRID_SEED, 96, 80),
            bx: 24,
            by: 20,
            tau: 1100.0,
            choice: SolverChoice::PcsiEvp,
            frozen_steps: 4,
            ladder_ranks: 16,
        };
    }
    StepSpec {
        grid: || Grid::gx1(GRID_SEED),
        bx: 40,
        by: 48,
        tau: 1100.0,
        choice: SolverChoice::PcsiEvp,
        frozen_steps: 58,
        ladder_ranks: 64,
    }
}

/// POP's production baseline at the 0.1° shape: gx01-like 900×600, blocks
/// 45×30, τ = 345.6 s, ChronGear + diagonal (~165 iterations, ~0.95 s per
/// step).
pub fn tenth_degree(smoke: bool) -> StepSpec {
    if smoke {
        return StepSpec {
            grid: || Grid::gx01_scaled(GRID_SEED, 120, 80),
            bx: 30,
            by: 20,
            tau: 345.6,
            choice: SolverChoice::ChronGearDiag,
            frozen_steps: 4,
            ladder_ranks: 16,
        };
    }
    StepSpec {
        grid: || Grid::gx01_scaled(GRID_SEED, 900, 600),
        bx: 45,
        by: 30,
        tau: 345.6,
        choice: SolverChoice::ChronGearDiag,
        frozen_steps: 18,
        ladder_ranks: 64,
    }
}

fn solver_cfg(obs: ObsSink) -> SolverConfig {
    SolverConfig {
        tol: TOL,
        max_iters: 20_000,
        check_every: 10,
        obs,
        ..SolverConfig::default()
    }
}

/// One cold construction: grid, decomposition, operator assembly,
/// preconditioner and (for P-CSI) Lanczos.
fn construct(
    ctx: &Ctx,
    spec: &StepSpec,
    world: &CommWorld,
    obs: ObsSink,
) -> (Grid, BarotropicMode) {
    let _s = ctx.tracer.span("setup");
    let grid = {
        let _g = ctx.tracer.span("grid.build");
        (spec.grid)()
    };
    let mode = {
        let _m = ctx.tracer.span("ocean.barotropic_new");
        BarotropicMode::new(
            &grid,
            world,
            spec.bx,
            spec.by,
            spec.tau,
            spec.choice,
            solver_cfg(obs),
        )
    };
    (grid, mode)
}

/// Input generation and output checking around `BarotropicMode::step`:
/// everything here except the `step` call itself sits outside the timed
/// region.
struct Stepper<'a> {
    ctx: &'a Ctx<'a>,
    grid: &'a Grid,
    world: &'a CommWorld,
    phi_area: DistVec,
    tendency: DistVec,
    forecast: DistVec,
    rhs: DistVec,
}

impl<'a> Stepper<'a> {
    fn new(ctx: &'a Ctx<'a>, grid: &'a Grid, world: &'a CommWorld, mode: &BarotropicMode) -> Self {
        let phi = 1.0 / (GRAVITY * mode.tau * mode.tau);
        let mut phi_area = DistVec::zeros(&mode.layout);
        phi_area.fill_with(|i, j| phi * grid.metrics.area(i, j));
        Stepper {
            ctx,
            grid,
            world,
            phi_area,
            tendency: DistVec::zeros(&mode.layout),
            forecast: DistVec::zeros(&mode.layout),
            rhs: DistVec::zeros(&mode.layout),
        }
    }

    /// Step `k` of `mode`: returns its wall time (ms) and iteration count,
    /// and counts it in `report` as converged-and-correct or failed.
    fn step(
        &mut self,
        report: &mut Report,
        mode: &mut BarotropicMode,
        k: usize,
        traced: bool,
    ) -> (f64, usize) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let seed = self.ctx.seed;
        // forecast = ηⁿ + tendency_k (the explicit part of the time step).
        self.tendency
            .fill_with(|i, j| inputs::tendency(seed, nx, ny, k, i, j));
        self.forecast.copy_from(&mode.eta);
        self.forecast.axpy(1.0, &self.tendency);

        let t0 = Instant::now();
        let st = {
            let _s = traced.then(|| self.ctx.tracer.span_id("ocean.step", k as u64 + 1));
            mode.step(self.world, &self.forecast).clone()
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        // ψ = φ·area·forecast is what `step` solved against.
        for ((r, f), pa) in self
            .rhs
            .blocks
            .iter_mut()
            .zip(&self.forecast.blocks)
            .zip(&self.phi_area.blocks)
        {
            for (rv, (fv, pv)) in r.raw_mut().iter_mut().zip(f.raw().iter().zip(pa.raw())) {
                *rv = fv * pv;
            }
        }
        let rel = true_rel_residual(&mode.op, &self.rhs, &mode.eta);
        report.attempt(st.converged && rel <= 10.0 * TOL, || {
            format!(
                "step {k}: converged={} after {} iterations, true residual {rel:.3e} (limit {:.1e})",
                st.converged,
                st.iterations,
                10.0 * TOL
            )
        });
        (ms, st.iterations)
    }
}

pub fn run(ctx: &Ctx, spec: &StepSpec) -> Report {
    let mut report = Report::default();
    let world = CommWorld::serial();
    let steps = ctx.units(spec.frozen_steps, 2);
    report.frozen.push(("steps", steps as f64));

    let mut clock = SetupClock::new(ctx);
    let (grid, mut mode) = clock.before(ctx, || construct(ctx, spec, &world, ObsSink::disabled()));

    // Spin-up outside the timed loop: the first step starts from η = 0 and
    // is a cold solve; the workload is the warm-started regime.
    let mut spin_up = Report::default();
    let mut stepper = Stepper::new(ctx, &grid, &world, &mode);
    stepper.step(&mut spin_up, &mut mode, 0, false);

    if !ctx.trace {
        report.absorb_failures(spin_up);
        let mut times = UnitTimes::default();
        let mut iterations = 0;
        clock.host.lap();
        for k in 1..=steps {
            let (ms, its) = stepper.step(&mut report, &mut mode, k, false);
            times.push_corrected(ms, clock.host.lap());
            iterations += its;
        }
        drop((stepper, mode));
        clock.after(ctx, || construct(ctx, spec, &world, ObsSink::disabled()));
        clock.push_metric(&mut report);
        times.push_end_to_end(&mut report, iterations as f64 / steps as f64, &clock.host);
        return report;
    }
    clock.push_metric(&mut report);

    // --- traced pass: a second model with pop-obs on; the two take the
    // same steps in alternation (plain, then under a span), so host drift
    // hits both alike and their ratio is the tracing overhead ---
    // (Its vectors live on its own layout, hence its own stepper.)
    let (_, mut traced_mode) = construct(ctx, spec, &world, ObsSink::enabled());
    let mut traced_stepper = Stepper::new(ctx, &grid, &world, &traced_mode);
    traced_stepper.step(&mut spin_up, &mut traced_mode, 0, false);
    report.absorb_failures(spin_up);
    let (mut plain, mut traced) = (UnitTimes::default(), UnitTimes::default());
    {
        let _m = ctx.tracer.span("main");
        for k in 1..=(steps / 2).max(2) {
            plain
                .ms
                .push(stepper.step(&mut report, &mut mode, k, false).0);
            traced.ms.push(
                traced_stepper
                    .step(&mut report, &mut traced_mode, k, true)
                    .0,
            );
        }
    }
    traced.push_unit_layer(&mut report, &plain);

    let ladder = LadderSpec {
        grid: spec.grid,
        bx: spec.bx,
        by: spec.by,
        tau: spec.tau,
        gravity: GRAVITY,
        choice: spec.choice,
        tol: TOL,
        check_every: 10,
        ranks: spec.ladder_ranks,
    };
    ladder::run(ctx, &mut report, &ladder, ladder::Rungs::ALL);
    report
}
