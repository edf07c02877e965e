//! `ranks_1024`: the paper's scaling result, executed. P-CSI + block-EVP
//! to tolerance on 1024 simulated Yellowstone ranks; `pop-ranksim`
//! (executor, fabric, collectives) does the host work, the network model
//! does the simulated work.

use super::{bitwise_equal, true_rel_residual, Ctx, SetupClock};
use crate::inputs::GRID_SEED;
use crate::ladder::{self, LadderSpec, Problem, Rungs};
use crate::report::Report;
use crate::simranks::{self, RankRung};
use crate::unit::UnitTimes;
use pop_comm::{CommWorld, DistVec};
use pop_core::solvers::{SolverConfig, SolverWorkspace};
use pop_grid::{Grid, GRAVITY};
use pop_ocean::SolverChoice;
use pop_ranksim::SolverKind;

const TOL: f64 = 1e-13;
const TAU: f64 = 2700.0;
/// p = 1024 solves per reference run (2.5–4.5 s of host time each).
const FROZEN_SOLVES: usize = 4;

struct Sizing {
    grid: fn() -> Grid,
    bx: usize,
    by: usize,
    ranks: usize,
    base_ranks: usize,
}

fn sizing(smoke: bool) -> Sizing {
    if smoke {
        Sizing {
            grid: || Grid::gx1_scaled(GRID_SEED, 80, 60),
            bx: 8,
            by: 6,
            ranks: 64,
            base_ranks: 16,
        }
    } else {
        // 1600 blocks of 8×6: every one of the 1024 ranks owns at least one.
        Sizing {
            grid: || Grid::gx1_scaled(GRID_SEED, 320, 240),
            bx: 8,
            by: 6,
            ranks: 1024,
            base_ranks: 64,
        }
    }
}

fn solver_cfg() -> SolverConfig {
    SolverConfig {
        tol: TOL,
        max_iters: 5000,
        check_every: 10,
        ..SolverConfig::default()
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let size = sizing(ctx.smoke);
    let solves = ctx.units(FROZEN_SOLVES, 1);
    report.frozen.push(("solves", solves as f64));
    report.frozen.push(("ranks", size.ranks as f64));
    let spec = LadderSpec {
        grid: size.grid,
        bx: size.bx,
        by: size.by,
        tau: TAU,
        gravity: GRAVITY,
        choice: SolverChoice::PcsiEvp,
        tol: TOL,
        check_every: 10,
        ranks: size.ranks,
    };

    // --- set-up: operator, EVP, Lanczos, and the 1024-rank world ---
    let construct = || {
        let _s = ctx.tracer.span("setup");
        let problem = Problem::build(ctx.tracer, &spec);
        let state = problem.operator_state(ctx.tracer, SolverChoice::PcsiEvp);
        let world = {
            let _w = ctx.tracer.span("ranksim.world_new");
            simranks::yellowstone_world(&problem.layout, size.ranks, false)
        };
        (problem, state, world)
    };
    let mut clock = SetupClock::new(ctx);
    let (problem, state, world) = clock.before(ctx, construct);

    // One right-hand side in the operator's range, zero first guess.
    let b = problem.rhs_in_range(ctx.seed);
    let x0 = DistVec::zeros(&problem.layout);
    let cfg = solver_cfg();
    let bounds = state.bounds.expect("P-CSI state carries eigenbounds");
    let kind = SolverKind::Pcsi(bounds);

    // Reference: the same solve in shared memory. Every ranksim solution
    // must equal it bit for bit.
    let serial = CommWorld::serial();
    let mut x_ref = x0.clone();
    let st_ref = kind.solve(
        &problem.op,
        state.precond.as_ref(),
        &serial,
        &b,
        &mut x_ref,
        &cfg,
        &mut SolverWorkspace::new(),
    );
    let rel = true_rel_residual(&problem.op, &b, &x_ref);
    report.check(st_ref.converged && rel <= 10.0 * TOL, || {
        format!(
            "shared-memory reference: converged={} true residual {rel:.3e}",
            st_ref.converged
        )
    });

    let mut times = UnitTimes::default();
    let mut iterations = 0usize;
    let mut sim_times = Vec::new();
    let check = |report: &mut Report, run: &simranks::SimRun, what: &str| {
        let same = bitwise_equal(&run.x, &x_ref) && run.iterations == st_ref.iterations;
        report.attempt(run.converged && same, || {
            format!(
                "{what}: converged={} iterations {} (shared memory {}), solution bitwise equal: {}",
                run.converged,
                run.iterations,
                st_ref.iterations,
                bitwise_equal(&run.x, &x_ref)
            )
        });
    };
    let plain_solves = if ctx.trace { 1 } else { solves };
    clock.host.lap();
    for k in 0..plain_solves {
        let run = simranks::sim_solve(
            &crate::trace::Tracer::off(),
            &world,
            &problem.op,
            state.precond.as_ref(),
            kind,
            &b,
            &x0,
            &cfg,
        );
        times.push_corrected(run.wall_s * 1e3, clock.host.lap());
        iterations += run.iterations;
        sim_times.push(run.sim_s);
        check(&mut report, &run, &format!("p={} solve {k}", size.ranks));
    }
    report.check(
        sim_times
            .iter()
            .all(|t| t.to_bits() == sim_times[0].to_bits()),
        || format!("simulated times differ between repeats: {sim_times:?}"),
    );

    if !ctx.trace {
        drop((world, state, problem));
        clock.after(ctx, construct);
        clock.push_metric(&mut report);
        times.push_end_to_end(&mut report, iterations as f64 / solves as f64, &clock.host);
        return report;
    }
    clock.push_metric(&mut report);

    // --- traced pass: the ranksim rung *is* this workload's main loop ---
    drop(world);
    let diag = pop_core::precond::Diagonal::new(&problem.op);
    let traced_cfg = SolverConfig {
        obs: pop_obs::ObsSink::enabled(),
        ..cfg.clone()
    };
    let top = {
        let _m = ctx.tracer.span("main");
        simranks::run_rung(
            ctx.tracer,
            &mut report,
            &RankRung {
                layout: &problem.layout,
                op: &problem.op,
                evp: state.precond.as_ref(),
                bounds,
                diag: &diag,
                b: &b,
                cfg: &traced_cfg,
                ranks: size.ranks,
                base_ranks: size.base_ranks,
                n_global: problem.grid.nx * problem.grid.ny,
            },
        )
    };
    check(&mut report, &top, "traced headline solve");
    report.check(top.sim_s.to_bits() == sim_times[0].to_bits(), || {
        format!(
            "span recording moved the simulated clock: {} vs {} s",
            top.sim_s, sim_times[0]
        )
    });
    let mut traced = UnitTimes::default();
    traced.ms.push(top.wall_s * 1e3);
    traced.push_unit_layer(&mut report, &times);

    ladder::run_on(
        ctx,
        &mut report,
        &spec,
        &problem,
        Rungs {
            ranksim: false,
            ..Rungs::ALL
        },
    );
    report
}
