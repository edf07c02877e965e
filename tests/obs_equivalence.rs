//! Observability must be free: obs on vs. off, bit-for-bit.
//!
//! The `pop-obs` recorder only ever *reads* communicator statistics — it
//! never issues communication and never perturbs the arithmetic. This suite
//! enforces that contract across every solver, preconditioner and backend:
//!
//! - **Bitwise identity**: solution vector, residual history, iteration
//!   count and outcome are identical with a live sink and a disabled one,
//!   on the serial, threaded and ranksim backends.
//! - **Counter identity**: the pinned communication counts (the paper's
//!   allreduce story) are unchanged by instrumentation.
//! - **Trace fidelity**: the recorded [`ConvergenceTrace`] reproduces the
//!   solve's own `SolveStats` — same samples, same iterations, and per-phase
//!   communication deltas that sum *exactly* to the solve's totals.
//! - **Exporter stability**: the Prometheus text rendering of a hand-built
//!   registry matches a golden file byte-for-byte.

use pop_baro::prelude::*;
use pop_core::solvers::{SolveStats, SolverWorkspace};
use pop_obs::{Registry, RESIDUAL_BUCKETS};
use std::sync::Arc;

const NX: usize = 64;
const NY: usize = 48;
const BX: usize = 16;
const BY: usize = 12;

fn setup() -> (Arc<DistLayout>, NinePoint, DistVec) {
    let grid = Grid::gx1_scaled(13, NX, NY);
    let layout = DistLayout::build(&grid, BX, BY);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 4000.0);
    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.23).sin() + ((j as f64) * 0.11).cos());
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);
    (layout, op, rhs)
}

fn cfg(obs: ObsSink) -> SolverConfig {
    SolverConfig {
        tol: 1e-10,
        max_iters: 4000,
        check_every: 10,
        obs,
        ..SolverConfig::default()
    }
}

/// Everything a solve produces that instrumentation must not perturb.
/// (Communication counters are compared separately, off-vs-on within one
/// backend — serial and ranksim legitimately count messages differently.)
#[derive(PartialEq, Debug)]
struct Observables {
    iterations: usize,
    outcome: SolveOutcome,
    final_residual_bits: u64,
    history_bits: Vec<(usize, u64)>,
    x_bits: Vec<u64>,
}

fn observe(st: &SolveStats, x: &DistVec) -> Observables {
    Observables {
        iterations: st.iterations,
        outcome: st.outcome,
        final_residual_bits: st.final_relative_residual.to_bits(),
        history_bits: st
            .residual_history
            .iter()
            .map(|&(k, r)| (k, r.to_bits()))
            .collect(),
        x_bits: x.to_global().iter().map(|v| v.to_bits()).collect(),
    }
}

fn run_world(
    world: &CommWorld,
    layout: &Arc<DistLayout>,
    op: &NinePoint,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    rhs: &DistVec,
    obs: ObsSink,
) -> (Observables, SolveStats) {
    let mut x = DistVec::zeros(layout);
    let mut ws = SolverWorkspace::new();
    let st = kind.solve(op, pre, world, rhs, &mut x, &cfg(obs), &mut ws);
    (observe(&st, &x), st)
}

fn run_ranks(
    layout: &Arc<DistLayout>,
    op: &NinePoint,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    rhs: &DistVec,
    obs: ObsSink,
) -> (Observables, SolveStats) {
    let world = RankWorld::new(layout, 4, Arc::new(ZeroCost), RankSimConfig::default());
    let x0 = DistVec::zeros(layout);
    let out = solve_on_ranks(&world, op, pre, kind, rhs, &x0, &cfg(obs));
    (observe(out.stats(), &out.x), out.stats().clone())
}

/// Check a recorded trace against the solve that produced it.
fn assert_trace_matches(trace: &ConvergenceTrace, st: &SolveStats, name: &str) {
    assert_eq!(trace.iterations, st.iterations, "{name}: trace iterations");
    assert_eq!(trace.outcome, st.outcome.label(), "{name}: trace outcome");
    assert_eq!(
        trace.final_rel.to_bits(),
        st.final_relative_residual.to_bits(),
        "{name}: trace final residual"
    );
    assert_eq!(
        trace.samples, st.residual_history,
        "{name}: trace samples must equal the residual history"
    );
    assert!(
        !trace.samples.is_empty(),
        "{name}: converged solve must have recorded at least one check"
    );
    // The per-phase communication deltas partition the solve's counters:
    // their sum is exactly `SolveStats.comm`, field for field.
    assert_eq!(
        trace.total_comm(),
        st.comm,
        "{name}: phase deltas must sum to the solve's comm totals"
    );
}

/// The full matrix: 2 solvers × 2 preconditioners × 3 backends, obs off vs
/// on, everything bit-identical, every trace faithful.
#[test]
fn obs_on_and_off_are_bitwise_identical_everywhere() {
    let (layout, op, rhs) = setup();
    let serial = CommWorld::serial();
    let threaded = CommWorld::threaded();
    let diag = Diagonal::new(&op);
    let evp = BlockEvp::with_defaults(&op);
    let preconds: [(&str, &dyn Preconditioner); 2] = [("diag", &diag), ("evp", &evp)];

    for (pname, pre) in preconds {
        let (bounds, _) = estimate_bounds(&op, pre, &serial, &LanczosConfig::default());
        for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
            let name = format!("{}+{pname}", kind.name());
            let (base, st_off) =
                run_world(&serial, &layout, &op, pre, kind, &rhs, ObsSink::disabled());
            assert_eq!(base.outcome, SolveOutcome::Converged, "{name}: baseline");

            // Serial, sink live.
            let sink = ObsSink::enabled();
            let (on, st) = run_world(&serial, &layout, &op, pre, kind, &rhs, sink.clone());
            assert!(on == base, "{name}: serial obs-on diverged from obs-off");
            assert_eq!(
                st.comm, st_off.comm,
                "{name}: instrumentation must not change communication counts"
            );
            let traces = sink.traces();
            assert_eq!(traces.len(), 1, "{name}: one solve, one trace");
            assert_trace_matches(&traces[0], &st, &format!("{name} serial"));
            assert_eq!(traces[0].solver, kind.name());
            assert_eq!(traces[0].precond, pre.name());

            // Threaded backend, sink live.
            let sink = ObsSink::enabled();
            let (on, st) = run_world(&threaded, &layout, &op, pre, kind, &rhs, sink.clone());
            assert!(on == base, "{name}: threaded obs-on diverged");
            assert_trace_matches(&sink.traces()[0], &st, &format!("{name} threaded"));

            // Ranksim backend: off vs on (rank 0 carries the sink).
            let (roff, rst_off) = run_ranks(&layout, &op, pre, kind, &rhs, ObsSink::disabled());
            assert!(roff == base, "{name}: ranksim obs-off diverged from serial");
            let sink = ObsSink::enabled();
            let (ron, st) = run_ranks(&layout, &op, pre, kind, &rhs, sink.clone());
            assert!(ron == base, "{name}: ranksim obs-on diverged");
            assert_eq!(
                st.comm, rst_off.comm,
                "{name}: ranksim comm counts must not change with obs on"
            );
            let traces = sink.traces();
            assert_eq!(
                traces.len(),
                1,
                "{name}: SPMD solve must record exactly one trace (rank 0's)"
            );
            assert_trace_matches(&traces[0], &st, &format!("{name} ranksim"));
        }
    }
}

/// The paper's instrument: P-CSI with block-EVP exports a full trace — the
/// eigenbound estimate, one residual sample per convergence check, and an
/// "iterate" phase with zero allreduces (the whole point of the method).
#[test]
fn pcsi_evp_trace_reflects_the_papers_structure() {
    let (layout, op, rhs) = setup();
    let serial = CommWorld::serial();
    let evp = BlockEvp::with_defaults(&op);
    let (bounds, _) = estimate_bounds(&op, &evp, &serial, &LanczosConfig::default());

    let sink = ObsSink::enabled();
    let (obs, st) = run_world(
        &serial,
        &layout,
        &op,
        &evp,
        SolverKind::Pcsi(bounds),
        &rhs,
        sink.clone(),
    );
    assert_eq!(obs.outcome, SolveOutcome::Converged);

    let traces = sink.traces();
    let t = &traces[0];
    assert_eq!(t.solver, "pcsi");
    assert_eq!(t.precond, "evp");
    assert_eq!(
        t.eigen,
        Some((bounds.nu, bounds.mu)),
        "P-CSI must record the spectral bounds it ran with"
    );
    // One residual sample per convergence check performed.
    let checks = st.residual_history.len();
    assert!(checks >= 1);
    assert_eq!(t.samples.len(), checks);
    // P-CSI's inner loop is reduction-free: every allreduce belongs to the
    // setup/check/finalize phases, never to "iterate".
    let iterate = t
        .phases
        .iter()
        .find(|p| p.name == "iterate")
        .expect("iterate phase");
    assert_eq!(
        iterate.comm.allreduces, 0,
        "P-CSI's iterate phase must not reduce — that is the paper"
    );
    let total: u64 = t.phases.iter().map(|p| p.comm.allreduces).sum();
    assert_eq!(total, checks as u64 + 1, "pinned P-CSI allreduce count");

    // Registry side: the per-phase counters agree with the trace.
    let metrics = sink.metrics();
    for phase in ["setup", "iterate", "check", "finalize"] {
        let trace_count = t
            .phases
            .iter()
            .find(|p| p.name == phase)
            .map(|p| p.comm.allreduces)
            .unwrap_or(0);
        let metric_count = metrics
            .iter()
            .find(|m| {
                m.name == "pop_comm_allreduces_total"
                    && m.labels.contains(&("phase", phase))
                    && m.labels.contains(&("solver", "pcsi"))
            })
            .map(|m| match m.value {
                pop_obs::SampleValue::Counter(v) => v,
                ref other => panic!("unexpected sample kind {other:?}"),
            })
            .unwrap_or(0);
        assert_eq!(
            metric_count, trace_count,
            "phase {phase}: registry and trace disagree"
        );
    }
    // And the residual histogram saw every check.
    let hist = metrics
        .iter()
        .find(|m| m.name == "pop_check_relative_residual")
        .expect("residual histogram");
    match &hist.value {
        pop_obs::SampleValue::Histogram { count, .. } => {
            assert_eq!(*count, checks as u64);
        }
        other => panic!("expected histogram, got {other:?}"),
    }
}

/// ChronGear's counters, for contrast: its iterate phase carries one
/// allreduce per iteration — the scaling wall the paper removes.
#[test]
fn chrongear_iterate_phase_reduces_every_iteration() {
    let (layout, op, rhs) = setup();
    let serial = CommWorld::serial();
    let diag = Diagonal::new(&op);
    let sink = ObsSink::enabled();
    let (_, st) = run_world(
        &serial,
        &layout,
        &op,
        &diag,
        SolverKind::ChronGear,
        &rhs,
        sink.clone(),
    );
    let traces = sink.traces();
    let t = &traces[0];
    let iterate = t
        .phases
        .iter()
        .find(|p| p.name == "iterate")
        .expect("iterate phase");
    assert_eq!(
        iterate.comm.allreduces, st.iterations as u64,
        "ChronGear reduces once per iteration"
    );
}

/// The Prometheus rendering of a deterministic, hand-built registry must
/// match the golden file byte-for-byte. Regenerate with
/// `POP_UPDATE_GOLDEN=1 cargo test -p pop-baro --test obs_equivalence`.
#[test]
fn prometheus_export_matches_golden_file() {
    let r = Registry::new();
    r.counter_add(
        "pop_solves_total",
        &[
            ("outcome", "converged"),
            ("precond", "evp"),
            ("solver", "pcsi"),
        ],
        2,
    );
    r.counter_add(
        "pop_solves_total",
        &[
            ("outcome", "converged"),
            ("precond", "diag"),
            ("solver", "chrongear"),
        ],
        1,
    );
    r.counter_add(
        "pop_comm_allreduces_total",
        &[("phase", "check"), ("solver", "pcsi")],
        14,
    );
    r.counter_add(
        "pop_comm_allreduces_total",
        &[("phase", "setup"), ("solver", "pcsi")],
        2,
    );
    r.counter_add(
        "pop_comm_allreduces_total",
        &[("phase", "iterate"), ("solver", "chrongear")],
        96,
    );
    r.gauge_set("pop_eigen_nu", &[("precond", "evp")], 0.0625);
    r.gauge_set("pop_eigen_mu", &[("precond", "evp")], 1.9375);
    r.counter_add_f64(
        "pop_phase_seconds_total",
        &[("phase", "iterate"), ("solver", "pcsi")],
        1.5,
    );
    for v in [3e-3, 4.2e-7, 8.8e-11, 8.8e-11, 1e-15] {
        r.observe(
            "pop_check_relative_residual",
            &[("solver", "pcsi")],
            &RESIDUAL_BUCKETS,
            v,
        );
    }

    let rendered = pop_baro::obs::export::prometheus(&r.snapshot());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/prometheus.txt");
    if std::env::var("POP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file missing — regenerate");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from the golden file"
    );
}

/// The SLO JSON rendering (histogram quantile estimation over a
/// deterministic, hand-built registry) must match the golden file
/// byte-for-byte. Regenerate with
/// `POP_UPDATE_GOLDEN=1 cargo test -p pop-baro --test obs_equivalence`.
#[test]
fn slo_export_matches_golden_file() {
    use pop_baro::serve::{LATENCY_BUCKETS, WIDTH_BUCKETS};
    let r = Registry::new();
    // A plausible serve snapshot: latency observations across three
    // decades plus one overflow, a few batch widths, and counters/gauges
    // the SLO view must skip.
    for v in [
        2e-4, 2e-4, 8e-4, 1.2e-3, 2.5e-3, 2.5e-3, 9e-3, 4e-2, 0.2, 45.0,
    ] {
        r.observe(
            "pop_serve_latency_seconds",
            &[("solver", "pcsi")],
            &LATENCY_BUCKETS,
            v,
        );
    }
    for w in [1.0, 4.0, 4.0, 16.0] {
        r.observe("pop_serve_batch_width", &[], &WIDTH_BUCKETS, w);
    }
    r.counter_add("pop_serve_requests_total", &[("outcome", "served")], 12);
    r.gauge_set("pop_serve_queue_depth", &[], 3.0);

    let rendered = pop_baro::obs::export::slo_json(&r.snapshot());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/slo.json");
    if std::env::var("POP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file missing — regenerate");
    assert_eq!(
        rendered, golden,
        "SLO JSON export drifted from the golden file"
    );
}

/// Cross-check the golden quantiles against an exact reference: the p50 of
/// the latency histogram must sit in the bucket holding the 5th/10th
/// observation, interpolated — and the estimator must agree with a direct
/// `histogram_quantile` call on the same buckets.
#[test]
fn slo_quantiles_consistent_with_direct_estimation() {
    use pop_baro::serve::LATENCY_BUCKETS;
    use pop_obs::{histogram_quantile, SampleValue};
    let r = Registry::new();
    for v in [
        2e-4, 2e-4, 8e-4, 1.2e-3, 2.5e-3, 2.5e-3, 9e-3, 4e-2, 0.2, 45.0,
    ] {
        r.observe(
            "pop_serve_latency_seconds",
            &[("solver", "pcsi")],
            &LATENCY_BUCKETS,
            v,
        );
    }
    let snap = r.snapshot();
    let (bounds, buckets) = match &snap[0].value {
        SampleValue::Histogram {
            bounds, buckets, ..
        } => (*bounds, buckets.clone()),
        other => panic!("expected histogram, got {other:?}"),
    };
    let p50 = histogram_quantile(bounds, &buckets, 0.5).unwrap();
    // 10 observations, rank 5 lands at the boundary of the (1e-3, 3e-3]
    // bucket's start: 4 observations ≤ 1.2e-3... bucket layout: counts are
    // [0,2,1,3,1,1,0,1,0,0,0,0]+overflow ⇒ cumulative hits 5 inside
    // (1e-3,3e-3], two-thirds through → 1e-3 + (2/3)·2e-3.
    let expected = 1e-3 + (2.0 / 3.0) * 2e-3;
    assert!(
        (p50 - expected).abs() < 1e-12,
        "p50 {p50} vs expected {expected}"
    );
    // Overflowing p99 clamps to the top finite bound.
    let p99 = histogram_quantile(bounds, &buckets, 0.99).unwrap();
    assert_eq!(p99, 30.0);
}
