//! `serve_open_warm` and `serve_closed_coalesce`: tenant traffic through
//! `pop-serve`, plus the small served loop the layer ladder runs on every
//! other workload's operator.
//!
//! Threads rule: one generator thread submits and reaps; the service gets
//! `max(1, nproc − 1)` dispatch workers so the generator keeps a core.

use super::{bitwise_equal, Ctx, SetupClock};
use crate::host;
use crate::inputs::{self, SplitMix64, GRID_SEED};
use crate::ladder::{self, LadderSpec, Rungs};
use crate::report::{Metric, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::unit::UnitTimes;
use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::lanczos::LanczosConfig;
use pop_core::setup::{OperatorState, PrecondSpec};
use pop_core::solvers::{
    BatchCommSolver, BatchWorkspace, ChronGear, Pcsi, SolveStats, SolverConfig,
};
use pop_grid::{Grid, GRAVITY};
use pop_obs::ObsSink;
use pop_ocean::SolverChoice;
use pop_serve::{
    Reject, ServiceConfig, SolveRequest, SolveResponse, SolverService, SolverSpec, Ticket,
};
use pop_stencil::NinePoint;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-11;
/// Distinct right-hand sides per operator; requests draw from this pool so
/// the referee solves each (operator, rhs) once.
const RHS_POOL: usize = 6;
/// Open loop: requests per reference run — 5 per second against a ≈76 ms
/// served solve, i.e. ≈40 % of what one dispatch worker sustains on the
/// reference host.
const OPEN_FROZEN_REQUESTS: usize = 80;
/// Closed loop: logical clients, and requests per reference run (92 full
/// cycles of the 2 × 6 pairs), sent as [`CLOSED_BURSTS`] bursts of 46 with
/// the host sampled between them (the queue drains for a few milliseconds).
const CLOSED_CLIENTS: usize = 8;
const CLOSED_FROZEN_REQUESTS: usize = 1104;
const CLOSED_BURSTS: usize = 24;

/// One tenant's operator and its pool of right-hand sides.
pub struct Tenant {
    pub op: Arc<NinePoint>,
    pub rhs: Vec<DistVec>,
}

impl Tenant {
    /// `pool` right-hand sides in the operator's range: `A·(smooth_r +
    /// 1e-6·noise)`. The smooth patterns are fixed per slot and the seed
    /// only colours them faintly, so the iterations a request needs depend
    /// on which slot it draws, not on the seed.
    pub fn new(op: Arc<NinePoint>, seed: u64, pool: usize) -> Tenant {
        let world = CommWorld::serial();
        let (nx, ny) = (op.layout.decomp.grid_nx, op.layout.decomp.grid_ny);
        let rhs = (0..pool)
            .map(|r| {
                let mut field = DistVec::zeros(&op.layout);
                field.fill_with(|i, j| {
                    inputs::smooth(r as u64 + 1, nx, ny, i, j)
                        + 1.0e-6 * inputs::noise(seed ^ ((r as u64 + 1) << 40), i, j)
                });
                world.halo_update(&mut field);
                let mut b = DistVec::zeros(&op.layout);
                op.apply(&world, &field, &mut b);
                b
            })
            .collect();
        Tenant { op, rhs }
    }
}

/// Which solver stack requests ask for.
#[derive(Debug, Clone, Copy)]
pub struct Stack {
    pub solver: SolverSpec,
    pub precond: PrecondSpec,
    pub tol: f64,
    pub check_every: usize,
}

impl Stack {
    pub fn of(choice: SolverChoice, tol: f64, check_every: usize) -> Stack {
        let solver = if choice.is_pcsi() {
            SolverSpec::Pcsi
        } else {
            SolverSpec::ChronGear
        };
        Stack {
            solver,
            precond: choice.precond_spec(),
            tol,
            check_every,
        }
    }

    fn solver_cfg(&self) -> SolverConfig {
        SolverConfig {
            tol: self.tol,
            max_iters: 20_000,
            check_every: self.check_every,
            ..SolverConfig::default()
        }
    }
}

/// The service's Lanczos configuration; the referee must use the same one
/// so cached and standalone setup state carry the same bits.
fn lanczos() -> LanczosConfig {
    ServiceConfig::default().lanczos
}

pub fn workers() -> usize {
    host::nproc().saturating_sub(1).max(1)
}

fn start_service(stack: &Stack, obs: ObsSink) -> SolverService {
    SolverService::start(ServiceConfig {
        queue_capacity: 1024,
        tenant_quota: 1024,
        cache_capacity: 8,
        workers: workers(),
        lanczos: lanczos(),
        base: stack.solver_cfg(),
        obs,
        ..ServiceConfig::default()
    })
}

fn request(tenants: &[Tenant], stack: &Stack, o: usize, r: usize) -> SolveRequest {
    SolveRequest::new(
        o as u32,
        Arc::clone(&tenants[o].op),
        stack.solver,
        stack.precond,
        tenants[o].rhs[r].clone(),
    )
    .with_tol(stack.tol)
}

/// One request's life as the generator saw it.
pub struct Served {
    pub o: usize,
    pub r: usize,
    /// When the schedule wanted it sent (open loop) — `submit` otherwise.
    pub due: Instant,
    pub submit: Instant,
    pub result: Result<SolveResponse, Reject>,
}

impl Served {
    /// Latency from the due time: how late the generator ran plus what the
    /// service took. A stall that delays later submissions counts.
    pub fn latency(&self) -> Option<Duration> {
        let resp = self.result.as_ref().ok()?;
        Some(self.submit.saturating_duration_since(self.due) + resp.latency)
    }

    fn done(&self) -> Option<Instant> {
        self.result.as_ref().ok().map(|r| self.submit + r.latency)
    }
}

/// A submitted request that has not been reaped yet.
struct InFlight {
    o: usize,
    r: usize,
    due: Instant,
    submit: Instant,
    ticket: Result<Ticket, Reject>,
}

impl InFlight {
    /// Submit request `(o, r)` now; `due` is when the schedule wanted it.
    fn send(
        svc: &SolverService,
        req: SolveRequest,
        o: usize,
        r: usize,
        due: Option<Instant>,
    ) -> InFlight {
        let submit = Instant::now();
        InFlight {
            o,
            r,
            due: due.unwrap_or(submit),
            submit,
            ticket: svc.submit(req),
        }
    }

    /// Block until the service answers (or has refused).
    fn reap(self) -> Served {
        Served {
            o: self.o,
            r: self.r,
            due: self.due,
            submit: self.submit,
            result: self.ticket.and_then(Ticket::wait),
        }
    }
}

/// The requests of a mix, built before the clock starts (the generator only
/// sleeps, submits and reaps), in reverse so `pop` yields them in order.
fn prebuilt(
    tenants: &[Tenant],
    stack: &Stack,
    mix: impl Iterator<Item = (usize, usize)>,
) -> Vec<SolveRequest> {
    let mut reqs: Vec<SolveRequest> = mix.map(|(o, r)| request(tenants, stack, o, r)).collect();
    reqs.reverse();
    reqs
}

/// Open loop: submit each request at its scheduled time whether or not
/// earlier ones have completed; reap everything at the end.
fn open_loop(
    svc: &SolverService,
    tenants: &[Tenant],
    stack: &Stack,
    schedule: &[(f64, usize, usize)],
) -> Vec<Served> {
    let mut reqs = prebuilt(tenants, stack, schedule.iter().map(|&(_, o, r)| (o, r)));
    let t0 = Instant::now();
    let mut pending = Vec::with_capacity(schedule.len());
    for &(at, o, r) in schedule {
        let due = t0 + Duration::from_secs_f64(at);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let req = reqs.pop().expect("one request per arrival");
        pending.push(InFlight::send(svc, req, o, r, Some(due)));
    }
    pending.into_iter().map(InFlight::reap).collect()
}

/// Closed loop of `clients` logical clients driven by one thread: keep
/// `clients` tickets outstanding, reap the oldest, send the next. Returns
/// what was served and the loop's wall time (s).
fn closed_loop(
    svc: &SolverService,
    tenants: &[Tenant],
    stack: &Stack,
    seq: &[(usize, usize)],
    clients: usize,
) -> (Vec<Served>, f64) {
    let mut reqs = prebuilt(tenants, stack, seq.iter().copied());
    let mut served = Vec::with_capacity(seq.len());
    let mut inflight = VecDeque::new();
    let t0 = Instant::now();
    for &(o, r) in seq {
        if inflight.len() == clients {
            served.push(inflight.pop_front().map(InFlight::reap).expect("non-empty"));
        }
        let req = reqs.pop().expect("one request per slot");
        inflight.push_back(InFlight::send(svc, req, o, r, None));
    }
    served.extend(inflight.into_iter().map(InFlight::reap));
    (served, t0.elapsed().as_secs_f64())
}

/// Standalone reference: one deterministic `OperatorState::build` per
/// operator and a width-1 solve per (operator, rhs) through the same
/// batched engine the service dispatches into.
pub struct Referee {
    stack: Stack,
    world: CommWorld,
    states: HashMap<usize, Arc<OperatorState>>,
    solutions: HashMap<(usize, usize), (DistVec, SolveStats, f64)>,
}

impl Referee {
    pub fn new(stack: Stack) -> Referee {
        Referee {
            stack,
            world: CommWorld::serial(),
            states: HashMap::new(),
            solutions: HashMap::new(),
        }
    }

    /// Reference solution, stats, and standalone solve time (s).
    fn reference(&mut self, tenants: &[Tenant], o: usize, r: usize) -> &(DistVec, SolveStats, f64) {
        let stack = self.stack;
        let world = &self.world;
        let state = self.states.entry(o).or_insert_with(|| {
            let lz = lanczos();
            OperatorState::build(
                &tenants[o].op,
                stack.precond,
                stack.solver.needs_bounds().then_some(&lz),
                world,
            )
        });
        self.solutions.entry((o, r)).or_insert_with(|| {
            let op = &tenants[o].op;
            let cfg = stack.solver_cfg();
            let mut x = DistVec::zeros(&op.layout);
            let mut ws = BatchWorkspace::new();
            let pre = state.precond.as_ref();
            let t0 = Instant::now();
            let stats = match stack.solver {
                SolverSpec::Pcsi => {
                    Pcsi::new(state.bounds.expect("P-CSI reference state carries bounds"))
                        .solve_batch_comm(
                            op,
                            pre,
                            world,
                            &[&tenants[o].rhs[r]],
                            &mut [&mut x],
                            &cfg,
                            &mut ws,
                        )
                }
                SolverSpec::ChronGear => ChronGear.solve_batch_comm(
                    op,
                    pre,
                    world,
                    &[&tenants[o].rhs[r]],
                    &mut [&mut x],
                    &cfg,
                    &mut ws,
                ),
                other => panic!("the benchmark serves P-CSI and ChronGear only, not {other:?}"),
            };
            let secs = t0.elapsed().as_secs_f64();
            (x, stats.into_iter().next().expect("one lane"), secs)
        })
    }

    /// Count every request as attempted; a shed, an unconverged solve, or
    /// any bit of difference from the standalone solve is a failure.
    pub fn verify(&mut self, report: &mut Report, tenants: &[Tenant], served: &[Served]) {
        for (k, s) in served.iter().enumerate() {
            match &s.result {
                Err(reject) => report.attempt(false, || format!("request {k} rejected: {reject}")),
                Ok(resp) => {
                    let (x_ref, st_ref, _) = self.reference(tenants, s.o, s.r);
                    let same = resp.stats.iterations == st_ref.iterations
                        && resp.stats.final_relative_residual.to_bits()
                            == st_ref.final_relative_residual.to_bits()
                        && bitwise_equal(&resp.x, x_ref);
                    let (o, r) = (s.o, s.r);
                    report.attempt(resp.stats.converged && same, || {
                        format!(
                            "request {k} (operator {o}, rhs {r}, width {}): converged={} bitwise equal to standalone: {same}",
                            resp.batch_width, resp.stats.converged
                        )
                    });
                }
            }
        }
    }

    fn standalone_secs(&mut self, tenants: &[Tenant], o: usize, r: usize) -> f64 {
        self.reference(tenants, o, r).2
    }
}

fn ok_responses(served: &[Served]) -> impl Iterator<Item = (&Served, &SolveResponse)> {
    served
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|r| (s, r)))
}

fn latencies_ms(served: &[Served]) -> UnitTimes {
    let mut t = UnitTimes::default();
    for s in served {
        if let Some(l) = s.latency() {
            t.push(l);
        }
    }
    t
}

fn mean_iterations(served: &[Served]) -> f64 {
    let its: Vec<f64> = ok_responses(served)
        .map(|(_, r)| r.stats.iterations as f64)
        .collect();
    if its.is_empty() {
        f64::NAN
    } else {
        stats::mean(&its)
    }
}

/// The `serve.*` per-layer metrics of one served loop.
pub fn push_serve_layer(
    report: &mut Report,
    tracer: &Tracer,
    tenants: &[Tenant],
    referee: &mut Referee,
    served: &[Served],
    first_touch_ms: &[f64],
) {
    let lat = latencies_ms(served);
    let (pct, tail) = stats::tail(&lat.ms);
    report.push(Metric::median_of("serve.latency_ms_p50", "ms", &lat.ms));
    report.push(
        Metric::one("serve.latency_ms_tail", "ms", tail)
            .with_n(lat.ms.len())
            .with_note(format!("p{pct}")),
    );
    let mut waits = Vec::new();
    let mut widths = Vec::new();
    let mut overhead = Vec::new();
    let mut lag = Vec::new();
    let mut hits = 0usize;
    for (s, resp) in ok_responses(served) {
        let wait_ms = resp.queue_wait.as_secs_f64() * 1e3;
        waits.push(wait_ms);
        widths.push(resp.batch_width as f64);
        hits += usize::from(resp.cache_hit);
        lag.push(s.submit.saturating_duration_since(s.due).as_secs_f64() * 1e3);
        let standalone_ms = referee.standalone_secs(tenants, s.o, s.r) * 1e3;
        overhead.push(resp.latency.as_secs_f64() * 1e3 - wait_ms - standalone_ms);
        // One span per request (due → done) with its queue wait and its
        // batch solve as children, so a trace shows who waited on whom.
        let id = 1 + waits.len() as u64;
        if let (Some(done), Some(req)) = (
            s.done(),
            tracer.record("serve.request", s.due, s.done().unwrap_or(s.due), id),
        ) {
            let submit = tracer.ns_of(s.submit);
            let start = tracer.ns_of(s.submit + resp.queue_wait);
            tracer.record_under("serve.queue_wait", submit, start, Some(req), id);
            tracer.record_under(
                "serve.batch_solve",
                start,
                tracer.ns_of(done),
                Some(req),
                id,
            );
        }
    }
    let shed = served.iter().filter(|s| s.result.is_err()).count();
    report.push(Metric::median_of("serve.queue_wait_ms_p50", "ms", &waits));
    report.push(
        Metric::one("serve.batch_width_mean", "count", stats::mean(&widths)).with_n(widths.len()),
    );
    report.push(
        Metric::one(
            "serve.cache_hit_frac",
            "ratio",
            hits as f64 / widths.len().max(1) as f64,
        )
        .with_n(widths.len()),
    );
    report.push(Metric::median_of(
        "serve.first_touch_ms_p50",
        "ms",
        first_touch_ms,
    ));
    report.push(
        Metric::median_of("serve.overhead_ms_p50", "ms", &overhead)
            .with_note("latency − queue wait − standalone solve of the same request"),
    );
    report.push(Metric::one("serve.shed_total", "count", shed as f64).with_n(served.len()));
    report.push(
        Metric::one("serve.gen_lag_ms_p95", "ms", stats::percentile(&lag, 95.0)).with_n(lag.len()),
    );
}

/// Start a service and send one first-touch request per operator (each
/// pays the EVP + Lanczos build). Returns the service, warm, and the
/// first-touch requests as served — unchecked, so that checking them stays
/// outside whatever the caller is timing.
fn warm_service(
    ctx: &Ctx,
    tenants: &[Tenant],
    stack: &Stack,
    obs: ObsSink,
) -> (SolverService, Vec<Served>) {
    let _s = ctx.tracer.span("serve.warm");
    let svc = {
        let _t = ctx.tracer.span("serve.start");
        start_service(stack, obs)
    };
    let first: Vec<(usize, usize)> = (0..tenants.len()).map(|o| (o, 0)).collect();
    let (served, _) = {
        let _t = ctx.tracer.span("serve.first_touch");
        closed_loop(&svc, tenants, stack, &first, 1)
    };
    (svc, served)
}

struct Bed {
    tenants: Vec<Tenant>,
    stack: Stack,
    referee: Referee,
}

impl Bed {
    /// Check first-touch requests: they can fail the run but are not units
    /// of the workload. Returns their latencies (ms).
    fn check_first_touch(&mut self, report: &mut Report, served: &[Served]) -> Vec<f64> {
        let mut scratch = Report::default();
        self.referee.verify(&mut scratch, &self.tenants, served);
        report.absorb_failures(scratch);
        latencies_ms(served).ms
    }

    /// Every (operator, rhs slot) pair equally often, in seeded order: the
    /// seed decides who arrives when, not how much work arrives.
    fn balanced_mix(&self, n: usize, seed: u64) -> Vec<(usize, usize)> {
        let pairs: Vec<(usize, usize)> = (0..self.tenants.len())
            .flat_map(|o| (0..self.tenants[o].rhs.len()).map(move |r| (o, r)))
            .collect();
        let mut mix: Vec<(usize, usize)> = (0..n).map(|k| pairs[k % pairs.len()]).collect();
        let mut rng = SplitMix64::new(seed);
        for k in (1..mix.len()).rev() {
            mix.swap(k, rng.below(k + 1));
        }
        mix
    }
}

fn bed(ctx: &Ctx, n_ops: usize) -> (Bed, LadderSpec) {
    let (nx, ny, bx, by) = if ctx.smoke {
        (48, 40, 8, 8)
    } else {
        (96, 80, 8, 8)
    };
    let stack = Stack {
        solver: SolverSpec::Pcsi,
        precond: PrecondSpec::Evp,
        tol: TOL,
        check_every: 10,
    };
    let world = CommWorld::serial();
    let tenants = (0..n_ops)
        .map(|o| {
            let grid = Grid::gx1_scaled(GRID_SEED + o as u64, nx, ny);
            let layout = DistLayout::build(&grid, bx, by);
            let tau = 4000.0 + 1500.0 * o as f64;
            let op = Arc::new(NinePoint::assemble(&grid, &layout, &world, tau));
            Tenant::new(op, ctx.seed ^ ((o as u64 + 1) << 20), RHS_POOL)
        })
        .collect();
    let grid: fn() -> Grid = if ctx.smoke {
        || Grid::gx1_scaled(GRID_SEED, 48, 40)
    } else {
        || Grid::gx1_scaled(GRID_SEED, 96, 80)
    };
    let spec = LadderSpec {
        grid,
        bx,
        by,
        tau: 4000.0,
        gravity: GRAVITY,
        choice: SolverChoice::PcsiEvp,
        tol: TOL,
        check_every: 10,
        ranks: 16,
    };
    (
        Bed {
            tenants,
            stack,
            referee: Referee::new(stack),
        },
        spec,
    )
}

/// How a workload drives a warm service with `n` requests of a mix.
type Drive = fn(&SolverService, &Bed, &[(usize, usize)], u64, f64) -> (Vec<Served>, f64);

/// Open loop over `duration` seconds; the timed wall runs from the first
/// due time to the last completion.
fn drive_open(
    svc: &SolverService,
    bed: &Bed,
    mix: &[(usize, usize)],
    seed: u64,
    duration: f64,
) -> (Vec<Served>, f64) {
    let schedule: Vec<(f64, usize, usize)> = inputs::poisson_schedule(seed, mix.len(), duration)
        .into_iter()
        .zip(mix)
        .map(|(t, &(o, r))| (t, o, r))
        .collect();
    let served = open_loop(svc, &bed.tenants, &bed.stack, &schedule);
    let wall = served
        .iter()
        .filter_map(Served::done)
        .max()
        .map_or(duration, |end| {
            end.duration_since(served[0].due).as_secs_f64()
        });
    (served, wall)
}

fn drive_closed(
    svc: &SolverService,
    bed: &Bed,
    mix: &[(usize, usize)],
    _seed: u64,
    _duration: f64,
) -> (Vec<Served>, f64) {
    closed_loop(svc, &bed.tenants, &bed.stack, mix, CLOSED_CLIENTS)
}

/// Both serve workloads: `setup_s` (service start + first touch of every
/// operator), then `n` requests driven open or closed, in `bursts` equal
/// parts with the host sampled before, between and after them.
fn run_serve(ctx: &Ctx, n_ops: usize, n: usize, bursts: usize, drive: Drive) -> Report {
    let mut report = Report::default();
    let (mut bed, spec) = bed(ctx, n_ops);
    let duration = if ctx.smoke { 1.0 } else { ctx.seconds };
    report.frozen.push(("requests", n as f64));
    report.frozen.push(("workers", workers() as f64));

    let mut clock = SetupClock::new(ctx);
    let (svc, first) = clock.before(ctx, || {
        warm_service(ctx, &bed.tenants, &bed.stack, ObsSink::disabled())
    });
    let first_touch = bed.check_first_touch(&mut report, &first);

    if !ctx.trace {
        let mix = bed.balanced_mix(n, ctx.seed);
        let (mut served, mut times, mut wall) = (Vec::new(), UnitTimes::default(), 0.0);
        clock.host.lap();
        for part in mix.chunks(n.div_ceil(bursts)) {
            let share = part.len() as f64 / n as f64;
            let (answered, secs) = drive(&svc, &bed, part, ctx.seed, duration * share);
            let slowdown = clock.host.lap();
            for latency in answered.iter().filter_map(Served::latency) {
                times.push_corrected(latency.as_secs_f64() * 1e3, slowdown);
            }
            wall += secs / slowdown;
            served.extend(answered);
        }
        drop(svc);
        bed.referee.verify(&mut report, &bed.tenants, &served);
        clock.after(ctx, || {
            warm_service(ctx, &bed.tenants, &bed.stack, ObsSink::disabled())
        });
        clock.push_metric(&mut report);
        times.push_end_to_end_over(&mut report, mean_iterations(&served), wall, &clock.host);
        return report;
    }
    clock.push_metric(&mut report);

    // Traced pass: half the requests plain, then the same half again
    // through a fresh service with pop-obs on, spans recorded per request.
    let mix = bed.balanced_mix(n / 2, ctx.seed);
    let (plain, _) = drive(&svc, &bed, &mix, ctx.seed, duration / 2.0);
    drop(svc);
    bed.referee.verify(&mut report, &bed.tenants, &plain);
    let (svc, first) = warm_service(ctx, &bed.tenants, &bed.stack, ObsSink::enabled());
    bed.check_first_touch(&mut report, &first);
    let traced = {
        let _m = ctx.tracer.span("main");
        let (served, _) = drive(&svc, &bed, &mix, ctx.seed, duration / 2.0);
        bed.referee.verify(&mut report, &bed.tenants, &served);
        push_serve_layer(
            &mut report,
            ctx.tracer,
            &bed.tenants,
            &mut bed.referee,
            &served,
            &first_touch,
        );
        served
    };
    drop(svc);
    latencies_ms(&traced).push_unit_layer(&mut report, &latencies_ms(&plain));
    ladder::run(
        ctx,
        &mut report,
        &spec,
        Rungs {
            serve: false,
            ..Rungs::ALL
        },
    );
    report
}

pub fn run_open(ctx: &Ctx) -> Report {
    run_serve(ctx, 5, ctx.units(OPEN_FROZEN_REQUESTS, 8), 1, drive_open)
}

pub fn run_closed(ctx: &Ctx) -> Report {
    run_serve(
        ctx,
        2,
        ctx.units(CLOSED_FROZEN_REQUESTS, 32),
        CLOSED_BURSTS,
        drive_closed,
    )
}

/// The ladder's serve rung: a short closed loop (two clients) of `n`
/// requests for one right-hand side on one operator, after one first-touch
/// request, checked against the standalone referee like any served traffic.
pub fn run_rung(
    ctx: &Ctx,
    report: &mut Report,
    op: Arc<NinePoint>,
    b: DistVec,
    stack: Stack,
    n: usize,
) {
    let _s = ctx.tracer.span("ladder.serve");
    let mut bed = Bed {
        tenants: vec![Tenant { op, rhs: vec![b] }],
        stack,
        referee: Referee::new(stack),
    };
    let (svc, first) = warm_service(ctx, &bed.tenants, &bed.stack, ObsSink::enabled());
    let first_touch = bed.check_first_touch(report, &first);
    let (served, _) = closed_loop(&svc, &bed.tenants, &bed.stack, &vec![(0, 0); n], 2);
    drop(svc);
    let mut scratch = Report::default();
    bed.referee.verify(&mut scratch, &bed.tenants, &served);
    report.absorb_failures(scratch);
    push_serve_layer(
        report,
        ctx.tracer,
        &bed.tenants,
        &mut bed.referee,
        &served,
        &first_touch,
    );
}
