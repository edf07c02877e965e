//! Load generator for the `pop-serve` solve service → `BENCH_serve.json`.
//!
//! Four traffic phases over one solver stack (P-CSI + block-EVP — the
//! expensive-setup path the operator-state cache exists for):
//!
//! - **cold**: distinct operators cycle through a capacity-1 cache, so
//!   every request pays the full EVP + Lanczos setup before its solve.
//! - **warm**: the same request stream against a cache sized to hold
//!   every operator — setup amortized away, solves alone remain.
//! - **burst**: a staged burst on one operator, showing multi-RHS
//!   coalescing (batch widths read back from the service's responses).
//! - **overload**: open-loop arrivals at ~2× the measured service rate
//!   into a small queue with deadlines — structured sheds while the
//!   accepted-request p99 stays bounded.
//! - **workers**: the same warm multi-operator mix staged as a burst
//!   through dispatch pools of 1, 2, and 4 workers — independent batch
//!   groups solve concurrently, and on a ≥4-core host the 4-worker
//!   throughput must reach ≥1.8× the single worker's at no worse p99
//!   (the assert is recorded but not enforced on smaller hosts, where
//!   the pool cannot physically scale).
//!
//! Every served result from every phase is verified bit-identical to a
//! standalone solve of the same request before the artifact is written;
//! any mismatch fails the run with a non-zero exit. The artifact embeds
//! run provenance, per-phase client-side percentiles, the obs-layer SLO
//! export (`pop_obs::export::slo_json`), and an `acceptance` block that
//! CI greps: `warm_ge_3x_cold`, `overload_sheds_structured`,
//! `accepted_p99_bounded`, `bitwise_all_match`.

use pop_bench::args::BenchArgs;
use pop_bench::provenance::Provenance;
use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::lanczos::LanczosConfig;
use pop_core::setup::{OperatorState, PrecondSpec};
use pop_core::solvers::{BatchCommSolver, BatchWorkspace, Pcsi, SolveStats, SolverConfig};
use pop_grid::Grid;
use pop_obs::export::slo_json;
use pop_obs::ObsSink;
use pop_serve::{
    CacheStats, ServiceConfig, SolveRequest, SolveResponse, SolverService, SolverSpec,
};
use pop_stencil::NinePoint;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-11;
const SPEC: SolverSpec = SolverSpec::Pcsi;
const PRECOND: PrecondSpec = PrecondSpec::Evp;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn noise(seed: u64, i: usize, j: usize) -> f64 {
    let mut s = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ ((j as u64) << 32);
    let bits = splitmix64(&mut s);
    (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

struct Operator {
    layout: Arc<DistLayout>,
    op: Arc<NinePoint>,
}

fn operator(grid_seed: u64, nx: usize, ny: usize, bx: usize, by: usize, tau: f64) -> Operator {
    let grid = Grid::gx1_scaled(grid_seed, nx, ny);
    let layout = DistLayout::build(&grid, bx, by);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, tau);
    Operator {
        layout,
        op: Arc::new(op),
    }
}

/// An RHS in the operator's range, so every solve converges crisply.
fn rhs(o: &Operator, seed: u64) -> DistVec {
    let world = CommWorld::serial();
    let mut field = DistVec::zeros(&o.layout);
    field.fill_with(|i, j| noise(seed, i, j));
    world.halo_update(&mut field);
    let mut b = DistVec::zeros(&o.layout);
    o.op.apply(&world, &field, &mut b);
    b
}

fn lanczos() -> LanczosConfig {
    // Serving-regime eigenbounds: the paper's loose ε = 0.15 suits a
    // solve-once context, but a served operator amortizes its setup over
    // thousands of solves, so we run Lanczos deep (tol 0 = never settle
    // early) for the sharpest Chebyshev interval the step budget buys.
    // This is exactly the kind of expensive, reusable state the cache
    // exists for. Must match the `ServiceConfig.lanczos` handed to every
    // service below — equal inputs keep the cache-vs-cold bitwise.
    LanczosConfig {
        tol: 0.0,
        max_steps: 300,
        ..Default::default()
    }
}

fn solver_cfg() -> SolverConfig {
    SolverConfig {
        tol: TOL,
        max_iters: 20_000,
        ..SolverConfig::default()
    }
}

/// The standalone-reference harness: one deterministic `OperatorState`
/// per operator (reused across right-hand sides — the build is
/// deterministic, so one build carries the same bits as any number of
/// rebuilds), width-1 solves through the same batched engine the service
/// dispatches into.
struct Referee {
    states: HashMap<usize, Arc<OperatorState>>,
    world: CommWorld,
    /// (operator index, rhs seed) → reference solution + stats.
    solutions: HashMap<(usize, u64), (DistVec, SolveStats)>,
    mismatches: Vec<String>,
    verified: usize,
}

impl Referee {
    fn new() -> Referee {
        Referee {
            states: HashMap::new(),
            world: CommWorld::serial(),
            solutions: HashMap::new(),
            mismatches: Vec::new(),
            verified: 0,
        }
    }

    fn reference(&mut self, ops: &[Operator], o: usize, seed: u64) -> &(DistVec, SolveStats) {
        if !self.solutions.contains_key(&(o, seed)) {
            let state = self
                .states
                .entry(o)
                .or_insert_with(|| {
                    OperatorState::build(&ops[o].op, PRECOND, Some(&lanczos()), &self.world)
                })
                .clone();
            let b = rhs(&ops[o], seed);
            let cfg = solver_cfg();
            let mut x = DistVec::zeros(&ops[o].layout);
            let mut ws = BatchWorkspace::new();
            let stats = Pcsi::new(state.bounds.expect("P-CSI reference state carries bounds"))
                .solve_batch_comm(
                    &ops[o].op,
                    state.precond.as_ref(),
                    &self.world,
                    &[&b],
                    &mut [&mut x],
                    &cfg,
                    &mut ws,
                );
            let st = stats.into_iter().next().unwrap();
            assert!(
                st.converged,
                "reference solve (op {o}, seed {seed:#x}) diverged"
            );
            self.solutions.insert((o, seed), (x, st));
        }
        &self.solutions[&(o, seed)]
    }

    /// Served result vs standalone reference: solution bits and solve
    /// stats must agree exactly.
    fn verify(&mut self, ops: &[Operator], o: usize, seed: u64, phase: &str, resp: &SolveResponse) {
        let (x_ref, st_ref) = self.reference(ops, o, seed);
        let mut ok = resp.stats.iterations == st_ref.iterations
            && resp.stats.converged == st_ref.converged
            && resp.stats.restarts == st_ref.restarts
            && resp.stats.final_relative_residual.to_bits()
                == st_ref.final_relative_residual.to_bits();
        'blocks: for (ba, bb) in resp.x.blocks.iter().zip(x_ref.blocks.iter()) {
            for j in 0..ba.ny {
                for (va, vb) in ba.interior_row(j).iter().zip(bb.interior_row(j)) {
                    if va.to_bits() != vb.to_bits() {
                        ok = false;
                        break 'blocks;
                    }
                }
            }
        }
        self.verified += 1;
        if !ok {
            self.mismatches.push(format!(
                "{phase}: op {o} seed {seed:#x} (width {}, cache_hit {})",
                resp.batch_width, resp.cache_hit
            ));
        }
    }
}

/// Nearest-rank percentile of an unsorted latency sample, in seconds.
fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

struct PhaseResult {
    requests: usize,
    elapsed_secs: f64,
    latencies: Vec<f64>,
    cache: CacheStats,
}

impl PhaseResult {
    fn solves_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed_secs
    }

    fn json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"elapsed_secs\": {}, \"solves_per_sec\": {}, \
             \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
             \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}}}",
            self.requests,
            self.elapsed_secs,
            self.solves_per_sec(),
            percentile(&self.latencies, 0.50) * 1e3,
            percentile(&self.latencies, 0.90) * 1e3,
            percentile(&self.latencies, 0.99) * 1e3,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
        )
    }
}

fn request(ops: &[Operator], o: usize, seed: u64) -> SolveRequest {
    SolveRequest::new(
        (o % 4) as u32,
        Arc::clone(&ops[o].op),
        SPEC,
        PRECOND,
        rhs(&ops[o], seed),
    )
    .with_tol(TOL)
}

/// Closed-loop traffic (concurrency 1): submit, wait, verify, repeat.
/// The RHS vectors are prebuilt so the timed loop is service + solve only.
fn closed_loop(
    svc: &SolverService,
    ops: &[Operator],
    pairs: &[(usize, u64)],
    referee: &mut Referee,
    phase: &str,
) -> (f64, Vec<f64>) {
    let reqs: Vec<SolveRequest> = pairs.iter().map(|&(o, s)| request(ops, o, s)).collect();
    let mut latencies = Vec::with_capacity(pairs.len());
    let t0 = Instant::now();
    let mut responses = Vec::with_capacity(pairs.len());
    for req in reqs {
        let resp = svc
            .submit(req)
            .expect("closed loop never overflows")
            .wait()
            .unwrap();
        latencies.push(resp.latency.as_secs_f64());
        responses.push(resp);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    for (&(o, s), resp) in pairs.iter().zip(&responses) {
        referee.verify(ops, o, s, phase, resp);
    }
    (elapsed, latencies)
}

#[derive(Default)]
struct ShedTally {
    queue_full: usize,
    tenant_quota: usize,
    deadline_unmeetable: usize,
    deadline_expired: usize,
    other: usize,
}

impl ShedTally {
    fn count(&mut self, reason: &str) {
        match reason {
            "queue_full" => self.queue_full += 1,
            "tenant_quota" => self.tenant_quota += 1,
            "deadline_unmeetable" => self.deadline_unmeetable += 1,
            "deadline_expired" => self.deadline_expired += 1,
            _ => self.other += 1,
        }
    }

    fn total(&self) -> usize {
        self.queue_full
            + self.tenant_quota
            + self.deadline_unmeetable
            + self.deadline_expired
            + self.other
    }
}

fn main() {
    let args = BenchArgs::parse();
    let prov = Provenance::collect();
    let quick = args.quick;

    // Smoke sizing keeps CI under a minute; the full run uses the same
    // shape with more operators, larger blocks, and more traffic.
    // Few large blocks rather than many small ones: the per-block EVP
    // influence matrices cost ~O(cells³) to build but only O(cells²) to
    // apply, so big blocks are the regime where cached setup state pays —
    // exactly the contrast the cold/warm phases measure.
    let (nx, ny, bx, by, n_ops, reqs_per_op, burst, offered) = if quick {
        (48, 40, 4, 4, 3, 4, 6, 20)
    } else {
        (96, 80, 8, 8, 5, 6, 8, 32)
    };

    eprintln!(
        "bench_serve_json: {n_ops} operators on {nx}x{ny} ({}), {} requests/phase",
        if quick { "smoke" } else { "full" },
        n_ops * reqs_per_op
    );

    let ops: Vec<Operator> = (0..n_ops)
        .map(|o| {
            operator(
                args.seed ^ (o as u64),
                nx,
                ny,
                bx,
                by,
                4000.0 + 1500.0 * o as f64,
            )
        })
        .collect();

    // One (operator, rhs-seed) stream reused by the cold and warm phases,
    // cycling operators so the capacity-1 cold cache never hits.
    let pairs: Vec<(usize, u64)> = (0..reqs_per_op)
        .flat_map(|r| (0..n_ops).map(move |o| (o, 0x5EED_0000 + (o as u64) * 64 + r as u64)))
        .collect();

    let mut referee = Referee::new();
    let obs = ObsSink::enabled();
    let base = solver_cfg();

    // --- Phase 1: cold cache. Every request pays EVP + Lanczos setup. ---
    // Phases 1-4 pin `workers: 1` so their numbers stay comparable across
    // runs and hosts; the workers phase below owns the pool-scaling axis.
    let svc = SolverService::start(ServiceConfig {
        cache_capacity: 1,
        workers: 1,
        lanczos: lanczos(),
        base: base.clone(),
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    let (cold_secs, cold_lat) = closed_loop(&svc, &ops, &pairs, &mut referee, "cold");
    let cold = PhaseResult {
        requests: pairs.len(),
        elapsed_secs: cold_secs,
        latencies: cold_lat,
        cache: svc.shutdown(),
    };
    assert_eq!(
        cold.cache.hits, 0,
        "cycling a capacity-1 cache must never hit"
    );
    eprintln!(
        "  cold: {:.2} solves/s, p99 {:.1} ms",
        cold.solves_per_sec(),
        percentile(&cold.latencies, 0.99) * 1e3
    );

    // --- Phase 2: warm cache. Same stream, cache holds every operator. ---
    let svc = SolverService::start(ServiceConfig {
        cache_capacity: n_ops,
        workers: 1,
        lanczos: lanczos(),
        base: base.clone(),
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    for &(o, seed) in pairs.iter().take(n_ops) {
        // Untimed warm-up pass builds each operator's state once (the
        // first `n_ops` pairs cycle the operators exactly once).
        let resp = svc.submit(request(&ops, o, seed)).unwrap().wait().unwrap();
        referee.verify(&ops, o, seed, "warmup", &resp);
    }
    let (warm_secs, warm_lat) = closed_loop(&svc, &ops, &pairs, &mut referee, "warm");
    let warm = PhaseResult {
        requests: pairs.len(),
        elapsed_secs: warm_secs,
        latencies: warm_lat,
        cache: svc.shutdown(),
    };
    assert_eq!(
        warm.cache.hits,
        pairs.len() as u64,
        "the timed warm stream must be all cache hits"
    );
    eprintln!(
        "  warm: {:.2} solves/s, p99 {:.1} ms",
        warm.solves_per_sec(),
        percentile(&warm.latencies, 0.99) * 1e3
    );

    // --- Phase 3: staged burst — multi-RHS coalescing in one round. ---
    let svc = SolverService::start(ServiceConfig {
        start_paused: true,
        workers: 1,
        lanczos: lanczos(),
        base: base.clone(),
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    let burst_pairs: Vec<(usize, u64)> = (0..burst).map(|i| (0, 0xB0057_u64 + i as u64)).collect();
    let tickets: Vec<_> = burst_pairs
        .iter()
        .map(|&(o, s)| svc.submit(request(&ops, o, s)).unwrap())
        .collect();
    svc.resume();
    let mut widths = Vec::with_capacity(burst);
    for (&(o, s), t) in burst_pairs.iter().zip(tickets) {
        let resp = t.wait().unwrap();
        widths.push(resp.batch_width);
        referee.verify(&ops, o, s, "burst", &resp);
    }
    drop(svc);
    let max_width = widths.iter().copied().max().unwrap_or(0);
    eprintln!("  burst: widths {widths:?}");

    // --- Phase 4: overload — 2× the measured service rate, open loop. ---
    // max_batch 1 pins the service rate to one solve per round so the
    // offered 2× rate is a true overload that coalescing cannot absorb.
    let svc = SolverService::start(ServiceConfig {
        queue_capacity: 6,
        tenant_quota: 64,
        max_batch: 1,
        cache_capacity: 2,
        workers: 1,
        lanczos: lanczos(),
        base: base.clone(),
        obs: obs.clone(),
        ..ServiceConfig::default()
    });
    for i in 0..2u64 {
        // Prime the cache and the service-time EWMA.
        let seed = 0x0DD_0000 + i;
        let resp = svc.submit(request(&ops, 0, seed)).unwrap().wait().unwrap();
        referee.verify(&ops, 0, seed, "overload-prime", &resp);
    }
    let service_secs = svc.ema_service_secs();
    assert!(service_secs > 0.0, "EWMA must be primed before overload");
    let deadline = Duration::from_secs_f64((4.0 * service_secs).max(0.005));
    let interval = Duration::from_secs_f64(service_secs / 2.0);
    let overload_pairs: Vec<(usize, u64)> =
        (0..offered).map(|i| (0, 0x10AD_0000 + i as u64)).collect();
    let overload_reqs: Vec<SolveRequest> = overload_pairs
        .iter()
        .map(|&(o, s)| request(&ops, o, s).with_deadline(deadline))
        .collect();
    let mut sheds = ShedTally::default();
    let mut accepted = Vec::new();
    for (&(o, s), req) in overload_pairs.iter().zip(overload_reqs) {
        match svc.submit(req) {
            Ok(t) => accepted.push((o, s, t)),
            Err(r) => sheds.count(r.reason()),
        }
        std::thread::sleep(interval);
    }
    let mut accepted_lat = Vec::new();
    let mut served = 0usize;
    for (o, s, t) in accepted {
        match t.wait() {
            Ok(resp) => {
                accepted_lat.push(resp.latency.as_secs_f64());
                served += 1;
                referee.verify(&ops, o, s, "overload", &resp);
            }
            Err(r) => sheds.count(r.reason()),
        }
    }
    let overload_cache = svc.shutdown();
    // Admission bounds queue wait to ~deadline and service adds one solve;
    // 2× headroom absorbs scheduler jitter on loaded CI machines.
    let p99_bound_secs = 2.0 * (deadline.as_secs_f64() + service_secs);
    let accepted_p99 = percentile(&accepted_lat, 0.99);
    eprintln!(
        "  overload: {served}/{offered} served, {} shed, accepted p99 {:.1} ms (bound {:.1} ms)",
        sheds.total(),
        accepted_p99 * 1e3,
        p99_bound_secs * 1e3
    );

    // --- Phase 5: dispatch-pool scaling on the warm multi-operator mix. ---
    // Every operator's requests split into max_batch-2 groups, so the
    // queue holds many independent (operator, solver, precond, tol)
    // groups and the worker pool has real parallelism to find. The burst
    // is staged paused so arrival timing is out of the measurement.
    let sweep_per_op = 8;
    let sweep_counts = [1usize, 2, 4];
    let mut sweep_results: Vec<(usize, usize, f64, Vec<f64>)> = Vec::new();
    for &workers in &sweep_counts {
        let svc = SolverService::start(ServiceConfig {
            workers,
            max_batch: 2,
            cache_capacity: n_ops,
            tenant_quota: 256,
            queue_capacity: n_ops * sweep_per_op + 8,
            lanczos: lanczos(),
            base: base.clone(),
            obs: obs.clone(),
            ..ServiceConfig::default()
        });
        // Untimed warm-up: build every operator's state once.
        for o in 0..n_ops {
            let seed = 0x0003_CA1E_0000 + o as u64;
            let resp = svc.submit(request(&ops, o, seed)).unwrap().wait().unwrap();
            referee.verify(&ops, o, seed, "workers-warmup", &resp);
        }
        let sweep_pairs: Vec<(usize, u64)> = (0..sweep_per_op)
            .flat_map(|r| {
                (0..n_ops).map(move |o| (o, 0x0003_CA1E_1000 + (o as u64) * 64 + r as u64))
            })
            .collect();
        let reqs: Vec<SolveRequest> = sweep_pairs
            .iter()
            .map(|&(o, s)| request(&ops, o, s))
            .collect();
        // Burst everything in while dispatch chews: measure makespan.
        let t0 = Instant::now();
        let tickets: Vec<_> = reqs
            .into_iter()
            .map(|r| svc.submit(r).expect("sweep queue sized for the burst"))
            .collect();
        let responses: Vec<SolveResponse> =
            tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let elapsed = t0.elapsed().as_secs_f64();
        let lat: Vec<f64> = responses.iter().map(|r| r.latency.as_secs_f64()).collect();
        for (&(o, s), resp) in sweep_pairs.iter().zip(&responses) {
            assert!(resp.cache_hit, "sweep traffic must run warm");
            referee.verify(&ops, o, s, "workers", resp);
        }
        assert_eq!(svc.worker_count(), workers);
        drop(svc);
        eprintln!(
            "  workers={workers}: {:.2} solves/s, p99 {:.1} ms",
            sweep_pairs.len() as f64 / elapsed,
            percentile(&lat, 0.99) * 1e3
        );
        sweep_results.push((workers, sweep_pairs.len(), elapsed, lat));
    }
    let sweep_rate = |i: usize| sweep_results[i].1 as f64 / sweep_results[i].2;
    let workers_speedup = sweep_rate(2) / sweep_rate(0);
    let p99_w1 = percentile(&sweep_results[0].3, 0.99);
    let p99_w4 = percentile(&sweep_results[2].3, 0.99);
    // A staged burst drains faster with more workers, so p99 latency must
    // not regress; 10% slack absorbs scheduler jitter on loaded runners.
    let workers_p99_ok = p99_w4 <= p99_w1 * 1.10;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The ≥1.8× gate only means something where 4 workers can actually
    // run in parallel; on smaller hosts the axis is recorded, not
    // enforced (CI runs on ≥4 vCPUs and enforces).
    let workers_enforced = host_cores >= 4;

    // --- Acceptance + artifact. ---
    let ratio = warm.solves_per_sec() / cold.solves_per_sec();
    let warm_p99 = percentile(&warm.latencies, 0.99);
    let cold_p99 = percentile(&cold.latencies, 0.99);
    let bitwise_ok = referee.mismatches.is_empty();

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"bench_serve_json\",");
    let _ = writeln!(j, "  \"provenance\": {},", prov.json());
    let _ = writeln!(j, "  \"quick\": {quick},");
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(
        j,
        "  \"workload\": {{\"nx\": {nx}, \"ny\": {ny}, \"blocks\": [{bx}, {by}], \
         \"operators\": {n_ops}, \"requests_per_operator\": {reqs_per_op}, \
         \"solver\": \"{}\", \"precond\": \"{}\", \"tol\": {TOL}}},",
        SPEC.label(),
        PRECOND.label()
    );
    let _ = writeln!(j, "  \"phases\": {{");
    let _ = writeln!(j, "    \"cold\": {},", cold.json());
    let _ = writeln!(j, "    \"warm\": {},", warm.json());
    let _ = writeln!(
        j,
        "    \"burst\": {{\"requests\": {burst}, \"widths\": {widths:?}, \"max_batch_width\": {max_width}}},"
    );
    let _ = writeln!(
        j,
        "    \"overload\": {{\"offered\": {offered}, \"served\": {served}, \"shed\": {}, \
         \"shed_reasons\": {{\"queue_full\": {}, \"tenant_quota\": {}, \
         \"deadline_unmeetable\": {}, \"deadline_expired\": {}, \"other\": {}}}, \
         \"service_secs_est\": {}, \"deadline_ms\": {}, \"accepted_p99_ms\": {}, \
         \"p99_bound_ms\": {}, \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}}},",
        sheds.total(),
        sheds.queue_full,
        sheds.tenant_quota,
        sheds.deadline_unmeetable,
        sheds.deadline_expired,
        sheds.other,
        service_secs,
        deadline.as_secs_f64() * 1e3,
        accepted_p99 * 1e3,
        p99_bound_secs * 1e3,
        overload_cache.hits,
        overload_cache.misses,
        overload_cache.evictions,
    );
    let sweep_rows: Vec<String> = sweep_results
        .iter()
        .map(|(w, n, secs, lat)| {
            format!(
                "{{\"workers\": {w}, \"requests\": {n}, \"elapsed_secs\": {secs}, \
                 \"solves_per_sec\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                *n as f64 / secs,
                percentile(lat, 0.50) * 1e3,
                percentile(lat, 0.99) * 1e3,
            )
        })
        .collect();
    let _ = writeln!(
        j,
        "    \"workers\": {{\"host_cores\": {host_cores}, \"max_batch\": 2, \
         \"sweep\": [{}]}}",
        sweep_rows.join(", ")
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"acceptance\": {{");
    let _ = writeln!(j, "    \"warm_over_cold_ratio\": {ratio},");
    let _ = writeln!(j, "    \"warm_ge_3x_cold\": {},", ratio >= 3.0);
    let _ = writeln!(j, "    \"warm_p99_le_cold_p99\": {},", warm_p99 <= cold_p99);
    let _ = writeln!(
        j,
        "    \"overload_sheds_structured\": {},",
        sheds.total() > 0
    );
    let _ = writeln!(
        j,
        "    \"accepted_p99_bounded\": {},",
        accepted_p99 <= p99_bound_secs
    );
    let _ = writeln!(j, "    \"workers_speedup_4x\": {workers_speedup},");
    let _ = writeln!(
        j,
        "    \"workers_scaling_ge_1p8\": {},",
        workers_speedup >= 1.8
    );
    let _ = writeln!(j, "    \"workers_p99_no_worse\": {workers_p99_ok},");
    let _ = writeln!(j, "    \"workers_scaling_enforced\": {workers_enforced},");
    let _ = writeln!(j, "    \"bitwise_all_match\": {bitwise_ok},");
    let _ = writeln!(j, "    \"verified_requests\": {}", referee.verified);
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"slo\": {},", slo_json(&obs.metrics()).trim_end());
    let _ = writeln!(j, "  \"metrics\": {}", obs.metrics_json());
    let _ = writeln!(j, "}}");
    std::fs::write("BENCH_serve.json", &j).expect("write BENCH_serve.json");

    eprintln!(
        "  warm/cold throughput ratio {ratio:.2} (>=3 expected), {} results verified bitwise",
        referee.verified
    );
    eprintln!(
        "  workers speedup 4x/1x: {workers_speedup:.2} (>=1.8 {}), p99 no worse: {workers_p99_ok}",
        if workers_enforced {
            "enforced"
        } else {
            "recorded only — host has <4 cores"
        }
    );
    if !bitwise_ok {
        eprintln!("BITWISE MISMATCH — served results diverged from standalone solves:");
        for m in &referee.mismatches {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
    if workers_enforced && (workers_speedup < 1.8 || !workers_p99_ok) {
        eprintln!(
            "WORKER SCALING FAILURE — 4-worker warm throughput {workers_speedup:.2}x \
             (need >=1.8x) or p99 regressed (no_worse = {workers_p99_ok})"
        );
        std::process::exit(1);
    }
    println!("BENCH_serve.json written");
}
