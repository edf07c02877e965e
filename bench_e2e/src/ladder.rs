//! The layer ladder: every per-layer metric, measured by calling one
//! layer's public functions at a time on the *workload's own operator*.
//!
//! Each workload is an operator shape (grid, blocks, τ, solver stack) plus
//! a usage pattern. The traced pass first runs the usage pattern under
//! spans, then climbs this ladder on the operator shape:
//!
//! grid → stencil → preconditioner/Lanczos set-up → preconditioner applies
//! → one solve by `pop-obs` phase → comm primitives → the same solve on
//! simulated ranks → the same solve through `pop-serve` → host probes.
//!
//! So every workload reports every per-layer metric, and each number says
//! what that layer costs *at that shape*. Where a workload's main loop is
//! itself a rung (`ranks_1024`, the serve workloads) the workload supplies
//! that rung's metrics from its main loop and switches the rung off here.

use crate::host;
use crate::inputs;
use crate::report::{Metric, Report};
use crate::simranks::{self, RankRung};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{serve, true_rel_residual, Ctx};
use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::lanczos::{estimate_bounds, LanczosConfig};
use pop_core::precond::{BlockEvp, BlockMg, Diagonal, Preconditioner};
use pop_core::setup::OperatorState;
use pop_core::solvers::{
    BatchCommSolver, BatchWorkspace, ChronGear, LinearSolver, Pcsi, SolverConfig,
};
use pop_grid::Grid;
use pop_obs::{ObsSink, SampleValue};
use pop_ocean::{SolverChoice, SolverSetup};
use pop_stencil::NinePoint;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// An operator shape and the solver stack a workload runs on it.
pub struct LadderSpec {
    pub grid: fn() -> Grid,
    pub bx: usize,
    pub by: usize,
    pub tau: f64,
    pub gravity: f64,
    pub choice: SolverChoice,
    pub tol: f64,
    pub check_every: usize,
    /// Simulated ranks of the ranksim rung (its strong-scaling base is a
    /// quarter of this, a sixteenth at p = 1024 — the paper's 64 → 1024).
    pub ranks: usize,
}

impl LadderSpec {
    pub fn base_ranks(&self) -> usize {
        if self.ranks >= 1024 {
            self.ranks / 16
        } else {
            (self.ranks / 4).max(1)
        }
    }
}

/// Which of the two expensive rungs the ladder runs itself.
#[derive(Debug, Clone, Copy)]
pub struct Rungs {
    pub ranksim: bool,
    pub serve: bool,
}

impl Rungs {
    pub const ALL: Rungs = Rungs {
        ranksim: true,
        serve: true,
    };
}

/// The Lanczos configuration `SolverSetup::new` uses.
fn lanczos_cfg() -> LanczosConfig {
    LanczosConfig {
        tol: 0.01,
        max_steps: 300,
        ..Default::default()
    }
}

/// Grid, decomposition and assembled operator, each built under its span.
pub struct Problem {
    pub grid: Grid,
    pub layout: Arc<DistLayout>,
    pub op: Arc<NinePoint>,
    pub grid_build_ms: f64,
    pub assemble_ms: f64,
}

impl Problem {
    pub fn build(tracer: &Tracer, spec: &LadderSpec) -> Problem {
        let t0 = Instant::now();
        let grid = {
            let _s = tracer.span("grid.build");
            (spec.grid)()
        };
        let grid_build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let layout = {
            let _s = tracer.span("comm.layout_build");
            DistLayout::build(&grid, spec.bx.min(grid.nx), spec.by.min(grid.ny))
        };
        let t1 = Instant::now();
        let op = {
            let _s = tracer.span("stencil.assemble");
            NinePoint::assemble_with_gravity(
                &grid,
                &layout,
                &CommWorld::serial(),
                spec.tau,
                spec.gravity,
            )
        };
        Problem {
            grid,
            layout,
            op: Arc::new(op),
            grid_build_ms,
            assemble_ms: t1.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Preconditioner (+ Lanczos bounds for P-CSI) of a solver stack.
    pub fn operator_state(&self, tracer: &Tracer, choice: SolverChoice) -> Arc<OperatorState> {
        let _s = tracer.span("core.operator_state_build");
        let lz = lanczos_cfg();
        OperatorState::build(
            &self.op,
            choice.precond_spec(),
            choice.is_pcsi().then_some(&lz),
            &CommWorld::serial(),
        )
    }

    /// A right-hand side in the operator's range: `A·(smooth + 1e-6·noise)`.
    /// The smooth part is fixed and the seed only colours it faintly, so
    /// the iteration count to tolerance — and with it every simulated time
    /// — does not jump between seeds at a convergence-check boundary.
    pub fn rhs_in_range(&self, seed: u64) -> DistVec {
        let world = CommWorld::serial();
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let mut x = DistVec::zeros(&self.layout);
        x.fill_with(|i, j| inputs::smooth(0, nx, ny, i, j) + 1.0e-6 * inputs::noise(seed, i, j));
        world.halo_update(&mut x);
        let mut b = DistVec::zeros(&self.layout);
        self.op.apply(&world, &x, &mut b);
        b
    }

    /// Points the block sweeps visit (ocean and land inside active blocks).
    pub fn swept_points(&self) -> usize {
        self.layout.decomp.blocks.iter().map(|b| b.nx * b.ny).sum()
    }
}

/// Time `f` repeatedly for about `budget_s` (at least `min_reps` calls,
/// after one warm-up call); returns seconds per call, one sample per call.
fn time_reps(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= 10_000 {
            break;
        }
    }
    samples
}

/// Seconds per call → microseconds per call.
fn micros(samples: &[f64]) -> Vec<f64> {
    samples.iter().map(|s| s * 1e6).collect()
}

/// Median seconds per call → nanoseconds per point.
fn ns_per_pt(name: &'static str, samples: &[f64], points: usize) -> Metric {
    let per_pt: Vec<f64> = samples.iter().map(|s| s * 1e9 / points as f64).collect();
    Metric::median_of(name, "ns", &per_pt)
}

// Roofline inputs of the nine-point apply, computed from array sizes (cache
// misses ignored): 9 multiplies + 8 adds per point; x, the four coefficient
// arrays, the mask bits and y streamed once at 8 bytes each.
const APPLY_FLOPS_PER_PT: f64 = 17.0;
const APPLY_BYTES_PER_PT: f64 = 7.0 * 8.0;

pub fn run(ctx: &Ctx, report: &mut Report, spec: &LadderSpec, rungs: Rungs) {
    let problem = Problem::build(ctx.tracer, spec);
    run_on(ctx, report, spec, &problem, rungs);
}

pub fn run_on(ctx: &Ctx, report: &mut Report, spec: &LadderSpec, problem: &Problem, rungs: Rungs) {
    let tracer = ctx.tracer;
    let ladder_t0 = Instant::now();
    let _l = tracer.span("ladder");
    let world = CommWorld::serial();
    let op = &*problem.op;
    let pts = problem.swept_points();
    // Micro-probes get a time budget each; smoke runs only prove the path.
    let budget = if ctx.smoke { 0.01 } else { 0.15 };

    // --- host ---
    let triad = {
        let _s = tracer.span("host.triad");
        host::triad_probe(if ctx.smoke { 0.05 } else { 1.0 })
    };
    report.push(
        Metric::one("host.triad_gbs", "GB/s", triad.gbs)
            .with_n(2)
            .with_note(format!(
                "3 arrays × {:.0} MiB, LLC {:.0} MiB{}",
                triad.array_mib,
                triad.llc_mib,
                if triad.arrays_clear_llc() {
                    ""
                } else {
                    "; arrays < 4×LLC, no roofline ratio"
                }
            )),
    );
    report.push(Metric::one("host.triad_array_mib", "MiB", triad.array_mib));
    report.push(Metric::one("host.llc_mib", "MiB", triad.llc_mib));
    report.push(Metric::one("host.nproc", "count", host::nproc() as f64));

    // --- pop-grid, pop-stencil ---
    report.push(Metric::one("grid.build_ms", "ms", problem.grid_build_ms));
    report.push(Metric::one(
        "stencil.assemble_ms",
        "ms",
        problem.assemble_ms,
    ));
    let b = problem.rhs_in_range(ctx.seed);
    let mut x = DistVec::zeros(&problem.layout);
    x.fill_with(|i, j| inputs::smooth(1, problem.grid.nx, problem.grid.ny, i, j));
    world.halo_update(&mut x);
    let mut y = DistVec::zeros(&problem.layout);
    let apply = {
        let _s = tracer.span("stencil.apply");
        time_reps(budget, 5, || op.apply(&world, black_box(&x), &mut y))
    };
    let apply_s = stats::median(&apply);
    report.push(ns_per_pt("stencil.apply_ns_per_pt", &apply, pts));
    let residual = {
        let _s = tracer.span("stencil.residual");
        time_reps(budget, 5, || {
            let mut acc = 0.0;
            for (blk, r) in y.blocks.iter_mut().enumerate() {
                acc += op.residual_block_into(
                    blk,
                    &x.blocks[blk],
                    &b.blocks[blk],
                    r,
                    &problem.layout.masks[blk],
                );
            }
            black_box(acc);
        })
    };
    report.push(ns_per_pt("stencil.residual_ns_per_pt", &residual, pts));
    report.push(
        Metric::one(
            "stencil.flops_per_byte",
            "flop/B",
            APPLY_FLOPS_PER_PT / APPLY_BYTES_PER_PT,
        )
        .with_note("computed: 17 flops, 56 bytes per point"),
    );
    let apply_gbs = APPLY_BYTES_PER_PT * pts as f64 / apply_s / 1e9;
    report.push(
        Metric::one("stencil.apply_gbs_computed", "GB/s", apply_gbs).with_note(
            if triad.arrays_clear_llc() {
                format!(
                    "computed bytes ÷ measured time; {:.2} of the measured triad",
                    apply_gbs / triad.gbs
                )
            } else {
                "computed bytes ÷ measured time; triad arrays < 4×LLC, no fraction of peak"
                    .to_string()
            },
        ),
    );

    // --- pop-core: set-up ---
    let t0 = Instant::now();
    let evp = {
        let _s = tracer.span("core.precond.evp_build");
        BlockEvp::with_defaults(op)
    };
    report.push(Metric::one(
        "core.precond.evp_build_ms",
        "ms",
        t0.elapsed().as_secs_f64() * 1e3,
    ));
    let t0 = Instant::now();
    let (bounds, lanczos_steps) = {
        let _s = tracer.span("core.lanczos");
        estimate_bounds(op, &evp, &world, &lanczos_cfg())
    };
    report.push(
        Metric::one("core.lanczos_ms", "ms", t0.elapsed().as_secs_f64() * 1e3)
            .with_note("on M = EVP"),
    );
    report.push(Metric::one(
        "core.lanczos_steps",
        "count",
        lanczos_steps as f64,
    ));
    let t0 = Instant::now();
    let state = problem.operator_state(tracer, spec.choice);
    report.push(
        Metric::one(
            "core.setup.operator_state_build_ms",
            "ms",
            t0.elapsed().as_secs_f64() * 1e3,
        )
        .with_note(spec.choice.label()),
    );

    // --- pop-core: preconditioner applies ---
    let diag = Diagonal::new(op);
    let mg = {
        let _s = tracer.span("core.precond.mg_build");
        BlockMg::with_defaults(op)
    };
    let mut z = DistVec::zeros(&problem.layout);
    for (name, span, pre) in [
        (
            "core.precond.evp_apply_ns_per_pt",
            "core.precond.evp_apply",
            &evp as &dyn Preconditioner,
        ),
        (
            "core.precond.diag_apply_ns_per_pt",
            "core.precond.diag_apply",
            &diag,
        ),
        (
            "core.precond.mg_apply_ns_per_pt",
            "core.precond.mg_apply",
            &mg,
        ),
    ] {
        let _s = tracer.span(span);
        let samples = time_reps(budget, 5, || pre.apply(&world, black_box(&b), &mut z));
        report.push(ns_per_pt(name, &samples, pts));
    }
    // Canary: multigrid diverged or stalled on the 1° operator when the
    // issue was written, which is why no end-to-end workload uses it.
    // Recorded, not fixed: does ChronGear + MG reach tolerance in 60
    // iterations here?
    let mg_ok = {
        let _s = tracer.span("core.solve.mg_canary");
        let cfg = SolverConfig {
            tol: spec.tol,
            max_iters: 60,
            check_every: 10,
            ..SolverConfig::default()
        };
        let mut xm = DistVec::zeros(&problem.layout);
        let st = ChronGear.solve(op, &mg, &world, &b, &mut xm, &cfg);
        st.converged && true_rel_residual(op, &b, &xm) <= 10.0 * spec.tol
    };
    report.push(
        Metric::one(
            "core.precond.mg_solve_ok",
            "bool",
            f64::from(u8::from(mg_ok)),
        )
        .with_note("chrongear+mg to tolerance within 60 iterations"),
    );

    // --- pop-core: one solve of the workload's own stack, by phase ---
    let setup = SolverSetup::from_state(spec.choice, Arc::clone(&state));
    let cfg = |obs: ObsSink| SolverConfig {
        tol: spec.tol,
        max_iters: 20_000,
        check_every: spec.check_every,
        obs,
        ..SolverConfig::default()
    };
    let mut off_us_per_iter = Vec::new();
    let mut on_us_per_iter = Vec::new();
    let mut cover = Vec::new();
    let mut phase_ms = [0.0f64; 4];
    let mut x_star = DistVec::zeros(&problem.layout);
    let mut probe_stats = None;
    let probe_t0 = Instant::now();
    let mut pairs = 0usize;
    // Sink off and on alternate; at least one pair, more while they are cheap.
    while pairs == 0 || (pairs < 5 && probe_t0.elapsed().as_secs_f64() < 3.0 * budget) {
        pairs += 1;
        let mut xs = DistVec::zeros(&problem.layout);
        let t0 = Instant::now();
        let st = setup.solve(op, &world, &b, &mut xs, &cfg(ObsSink::disabled()));
        off_us_per_iter.push(t0.elapsed().as_secs_f64() * 1e6 / st.iterations.max(1) as f64);

        let obs = ObsSink::enabled();
        xs.set_zero();
        let t0 = Instant::now();
        let st = {
            let _s = tracer.span("core.solve");
            setup.solve(op, &world, &b, &mut xs, &cfg(obs.clone()))
        };
        let wall = t0.elapsed().as_secs_f64();
        on_us_per_iter.push(wall * 1e6 / st.iterations.max(1) as f64);
        let mut phases = [0.0f64; 4];
        for m in obs.metrics() {
            if m.name != "pop_phase_seconds_total" {
                continue;
            }
            let SampleValue::FloatCounter(secs) = m.value else {
                continue;
            };
            let phase = m
                .labels
                .iter()
                .find(|(k, _)| *k == "phase")
                .map(|(_, v)| *v);
            let slot = ["setup", "iterate", "check", "finalize"]
                .iter()
                .position(|p| Some(*p) == phase);
            if let Some(k) = slot {
                phases[k] += secs;
            }
        }
        cover.push(phases.iter().sum::<f64>() / wall);
        if pairs == 1 {
            phase_ms = phases.map(|s| s * 1e3);
        }
        x_star = xs;
        probe_stats = Some(st);
    }
    let st = probe_stats.expect("at least one probe solve");
    let rel = true_rel_residual(op, &b, &x_star);
    report.check(st.converged && rel <= 10.0 * spec.tol, || {
        format!(
            "ladder probe solve: converged={} true residual {rel:.3e}",
            st.converged
        )
    });
    report.push(
        Metric::median_of("core.solve.us_per_iter", "us", &off_us_per_iter).with_note(format!(
            "{} × {} iterations, sink off",
            spec.choice.label(),
            st.iterations
        )),
    );
    for (k, name) in [
        "core.solve.phase_setup_ms",
        "core.solve.phase_iterate_ms",
        "core.solve.phase_check_ms",
        "core.solve.phase_finalize_ms",
    ]
    .into_iter()
    .enumerate()
    {
        report.push(
            Metric::one(name, "ms", phase_ms[k]).with_note("pop_phase_seconds_total, one solve"),
        );
    }
    let cover_frac = stats::median(&cover);
    report.check((0.8..=1.05).contains(&cover_frac), || {
        format!("pop-obs phases cover {cover_frac:.3} of the solve's wall time, expected 0.8–1.05")
    });
    report.push(Metric::median_of(
        "core.solve.phase_cover_frac",
        "ratio",
        &cover,
    ));
    report.push(
        Metric::one(
            "obs.on_overhead_frac",
            "ratio",
            stats::median(&on_us_per_iter) / stats::median(&off_us_per_iter) - 1.0,
        )
        .with_n(pairs)
        .with_note("per-iteration time, sink on ÷ off − 1; budget ≤ 0.02"),
    );
    report.push(Metric::one(
        "comm.halo_updates_per_solve",
        "count",
        st.comm.halo_updates as f64,
    ));
    report.push(Metric::one(
        "comm.allreduces_per_solve",
        "count",
        st.comm.allreduces as f64,
    ));
    report.push(Metric::one(
        "comm.halo_bytes_per_solve",
        "B",
        st.comm.halo_bytes as f64,
    ));

    // A solve started at its own solution: one check, no useful iteration.
    let fixed = {
        let _s = tracer.span("core.solve.fixed_overhead");
        let off = cfg(ObsSink::disabled());
        let mut xs = x_star.clone();
        time_reps(budget, 5, || {
            xs.copy_from(&x_star);
            black_box(setup.solve(op, &world, &b, &mut xs, &off));
        })
    };
    let fixed_us = micros(&fixed);
    report.push(Metric::median_of(
        "core.solve.fixed_overhead_us",
        "us",
        &fixed_us,
    ));

    // Batched engine: per-solve time at k = 8 against k = 1, 10 fixed
    // iterations each (tol = 0 never converges).
    let ratio = {
        let _s = tracer.span("core.batch");
        let fixed_iters = SolverConfig {
            tol: 0.0,
            max_iters: 10,
            check_every: 10,
            ..SolverConfig::default()
        };
        let time_k = |k: usize| -> f64 {
            let bs: Vec<&DistVec> = (0..k).map(|_| &b).collect();
            let mut ws = BatchWorkspace::new();
            let samples = time_reps(budget / 2.0, 1, || {
                let mut xs: Vec<DistVec> =
                    (0..k).map(|_| DistVec::zeros(&problem.layout)).collect();
                let mut xr: Vec<&mut DistVec> = xs.iter_mut().collect();
                let pre = state.precond.as_ref();
                let stats = match state.bounds {
                    Some(bounds) => Pcsi::new(bounds).solve_batch_comm(
                        op,
                        pre,
                        &world,
                        &bs,
                        &mut xr,
                        &fixed_iters,
                        &mut ws,
                    ),
                    None => ChronGear.solve_batch_comm(
                        op,
                        pre,
                        &world,
                        &bs,
                        &mut xr,
                        &fixed_iters,
                        &mut ws,
                    ),
                };
                black_box(stats);
            });
            stats::median(&samples) / k as f64
        };
        let one = time_k(1);
        time_k(8) / one
    };
    report.push(
        Metric::one("core.batch.per_solve_ratio_k8", "ratio", ratio)
            .with_note("solve_batch_comm per-solve time, k = 8 ÷ k = 1, 10 iterations"),
    );

    // --- pop-comm ---
    let halo = {
        let _s = tracer.span("comm.halo_update");
        time_reps(budget / 2.0, 5, || world.halo_update(black_box(&mut x)))
    };
    report.push(Metric::median_of(
        "comm.halo_update_us",
        "us",
        &micros(&halo),
    ));
    let dot = {
        let _s = tracer.span("comm.dot_fused");
        time_reps(budget / 2.0, 5, || {
            black_box(world.dot_fused(black_box(&x), black_box(&b)));
        })
    };
    report.push(Metric::median_of("comm.dot_fused_us", "us", &micros(&dot)));
    let pool = {
        let _s = tracer.span("comm.pool");
        let threaded = CommWorld::threaded();
        let t = time_reps(budget, 5, || op.apply(&threaded, black_box(&x), &mut y));
        apply_s / stats::median(&t)
    };
    report.push(
        Metric::one("comm.pool.speedup_tn", "ratio", pool).with_note(format!(
            "stencil apply, serial ÷ CommWorld::threaded(), nproc {}",
            host::nproc()
        )),
    );

    // --- pop-ranksim: the same operator on simulated ranks ---
    if rungs.ranksim {
        let ranks = spec.ranks.min(problem.layout.n_blocks());
        simranks::run_rung(
            tracer,
            report,
            &RankRung {
                layout: &problem.layout,
                op,
                evp: &evp,
                bounds,
                diag: &diag,
                b: &b,
                cfg: &SolverConfig {
                    max_iters: 5000,
                    ..cfg(ObsSink::disabled())
                },
                ranks,
                base_ranks: spec.base_ranks().min(ranks),
                n_global: problem.grid.nx * problem.grid.ny,
            },
        );
    }

    // --- pop-serve: the same operator through the service ---
    if rungs.serve {
        let solve_s = stats::median(&off_us_per_iter) * 1e-6 * st.iterations as f64;
        let n = ((1.0 / solve_s.max(1e-6)) as usize).clamp(2, 8);
        let stack = serve::Stack::of(spec.choice, spec.tol, spec.check_every);
        serve::run_rung(
            ctx,
            report,
            Arc::clone(&problem.op),
            b.clone(),
            stack,
            if ctx.smoke { 2 } else { n },
        );
    }

    report.push(Metric::one(
        "bench.ladder_s",
        "s",
        ladder_t0.elapsed().as_secs_f64(),
    ));
}
