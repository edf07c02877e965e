//! Solves on simulated Yellowstone ranks (`pop-ranksim`): shared by the
//! `ranks_1024` workload and by the layer ladder's ranksim rung.

use crate::report::{Metric, Report};
use crate::trace::Tracer;
use pop_comm::{DistLayout, DistVec};
use pop_core::lanczos::EigenBounds;
use pop_core::precond::Preconditioner;
use pop_core::solvers::SolverConfig;
use pop_perfmodel::cost::solve_cost;
use pop_perfmodel::machine::{MachineModel, NodeTopology};
use pop_perfmodel::{PrecondKind, SolverProfile};
use pop_ranksim::{
    solve_on_ranks, HierarchicalNet, NetworkModel, RankSimConfig, RankWorld, ReduceAlgo,
    SolverKind, SpanKind,
};
use pop_stencil::NinePoint;
use std::sync::Arc;
use std::time::Instant;

/// `p` simulated ranks on the node-aware Yellowstone network, modelled
/// compute, automatic collective selection, default executor.
pub fn yellowstone_world(layout: &Arc<DistLayout>, p: usize, record_trace: bool) -> RankWorld {
    let machine = MachineModel::yellowstone();
    let net: Arc<dyn NetworkModel> = Arc::new(HierarchicalNet::from_machine(
        &machine,
        &NodeTopology::yellowstone(),
    ));
    let cfg = RankSimConfig {
        record_trace,
        ..RankSimConfig::modeled(&machine)
    }
    .with_reduce_algo(ReduceAlgo::Auto);
    RankWorld::new(layout, p, net, cfg)
}

/// One distributed solve and what it measured.
pub struct SimRun {
    pub ranks: usize,
    pub x: DistVec,
    pub converged: bool,
    pub iterations: usize,
    /// Host wall time of the whole scatter–solve–gather (s).
    pub wall_s: f64,
    /// Slowest rank's simulated clock (s).
    pub sim_s: f64,
    /// Critical-rank simulated time by span kind (s); zero unless the world
    /// records traces.
    pub compute_s: f64,
    pub halo_s: f64,
    pub allreduce_s: f64,
    pub stall_s: f64,
    /// Collective messages / modelled payload bytes, summed over ranks.
    pub allreduce_steps_total: u64,
    pub wire_bytes_total: u64,
}

impl SimRun {
    /// Share of the critical rank's clock its recorded spans account for.
    pub fn span_sum_frac(&self) -> f64 {
        (self.compute_s + self.halo_s + self.allreduce_s + self.stall_s) / self.sim_s
    }
}

#[allow(clippy::too_many_arguments)]
pub fn sim_solve(
    tracer: &Tracer,
    world: &RankWorld,
    op: &NinePoint,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    b: &DistVec,
    x0: &DistVec,
    cfg: &SolverConfig,
) -> SimRun {
    let t0 = Instant::now();
    let out = {
        let _s = tracer.span("ranksim.solve_on_ranks");
        solve_on_ranks(world, op, pre, kind, b, x0, cfg)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let crit = out
        .per_rank
        .iter()
        .max_by(|a, b| a.clock.total_cmp(&b.clock))
        .expect("a world has ranks");
    let by_kind = |k: SpanKind| -> f64 {
        crit.spans
            .iter()
            .filter(|s| s.kind == k)
            .map(|s| s.t1 - s.t0)
            .sum()
    };
    let st = out.stats();
    SimRun {
        ranks: world.n_ranks(),
        converged: st.converged,
        iterations: st.iterations,
        wall_s,
        sim_s: out.sim_time,
        compute_s: by_kind(SpanKind::Compute),
        halo_s: by_kind(SpanKind::Halo),
        allreduce_s: by_kind(SpanKind::Allreduce),
        stall_s: by_kind(SpanKind::Stall),
        allreduce_steps_total: out.per_rank.iter().map(|r| r.stats.allreduce_steps).sum(),
        wire_bytes_total: out
            .per_rank
            .iter()
            .map(|r| r.stats.allreduce_bytes_on_wire)
            .sum(),
        x: out.x,
    }
}

/// What the paper's Eqs. (2), (3), (5), (6) predict for a whole solve on
/// Yellowstone, seconds.
pub fn predicted_s(
    solver: pop_perfmodel::SolverKind,
    precond: PrecondKind,
    iterations: usize,
    check_every: usize,
    n_global: usize,
    p: usize,
) -> f64 {
    let profile = SolverProfile {
        solver,
        precond,
        iterations: iterations as f64,
        check_every,
    };
    solve_cost(
        &MachineModel::yellowstone(),
        &profile,
        n_global as f64,
        p,
        1.0,
    )
    .total()
}

/// The inputs of the ranksim rung: one operator, both solver
/// configurations, one right-hand side.
pub struct RankRung<'a> {
    pub layout: &'a Arc<DistLayout>,
    pub op: &'a NinePoint,
    pub evp: &'a dyn Preconditioner,
    pub bounds: EigenBounds,
    pub diag: &'a dyn Preconditioner,
    pub b: &'a DistVec,
    pub cfg: &'a SolverConfig,
    /// Rank count of the headline solve and of the strong-scaling base.
    pub ranks: usize,
    pub base_ranks: usize,
    /// Grid points (N² in the paper's equations).
    pub n_global: usize,
}

/// P-CSI+EVP at `ranks` (with per-rank span recording) and at `base_ranks`,
/// ChronGear+diagonal at `ranks`; pushes every `ranksim.*` / `perfmodel.*`
/// metric and returns the headline run. All three must converge, and the
/// critical rank's spans must tile its clock.
pub fn run_rung(tracer: &Tracer, report: &mut Report, r: &RankRung) -> SimRun {
    let _s = tracer.span("ladder.ranksim");
    let x0 = DistVec::zeros(r.layout);
    let t0 = Instant::now();
    let world = {
        let _w = tracer.span("ranksim.world_new");
        yellowstone_world(r.layout, r.ranks, true)
    };
    let world_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let pcsi = SolverKind::Pcsi(r.bounds);
    let top = sim_solve(tracer, &world, r.op, r.evp, pcsi, r.b, &x0, r.cfg);
    let cg = sim_solve(
        tracer,
        &world,
        r.op,
        r.diag,
        SolverKind::ChronGear,
        r.b,
        &x0,
        r.cfg,
    );
    drop(world);
    let base_world = yellowstone_world(r.layout, r.base_ranks, false);
    let base = sim_solve(tracer, &base_world, r.op, r.evp, pcsi, r.b, &x0, r.cfg);

    for (label, run) in [
        ("pcsi+evp", &top),
        ("chrongear+diag", &cg),
        ("pcsi+evp base", &base),
    ] {
        report.check(run.converged, || {
            format!(
                "ranksim {label} at p={} did not converge ({} iterations)",
                run.ranks, run.iterations
            )
        });
    }
    let tile = top.span_sum_frac();
    report.check((tile - 1.0).abs() <= 1e-6, || {
        format!("critical-rank spans cover {tile:.9} of the simulated clock, expected 1")
    });

    let sim = |name, v: f64| {
        Metric::one(name, "sim_ms", v * 1e3).with_note("simulated Yellowstone clock")
    };
    report.push(Metric::one("ranksim.ranks", "count", top.ranks as f64));
    report.push(sim("ranksim.sim_solve_ms", top.sim_s).with_n(top.iterations));
    report.push(
        Metric::one("ranksim.sim_speedup_vs_cg", "ratio", cg.sim_s / top.sim_s).with_note(format!(
            "chrongear+diag {:.4} sim_ms ÷ pcsi+evp, p={}",
            cg.sim_s * 1e3,
            top.ranks
        )),
    );
    report.push(
        Metric::one(
            "ranksim.sim_strong_eff",
            "ratio",
            (base.sim_s * base.ranks as f64) / (top.sim_s * top.ranks as f64),
        )
        .with_note(format!("p={} against p={}", top.ranks, base.ranks)),
    );
    report.push(sim("ranksim.sim_compute_ms", top.compute_s));
    report.push(sim("ranksim.sim_halo_ms", top.halo_s));
    report.push(sim("ranksim.sim_allreduce_ms", top.allreduce_s));
    report.push(sim("ranksim.sim_stall_ms", top.stall_s));
    report.push(Metric::one("ranksim.sim_span_sum_frac", "ratio", tile));
    report.push(Metric::one(
        "ranksim.allreduce_steps_total",
        "count",
        top.allreduce_steps_total as f64,
    ));
    report.push(Metric::one(
        "ranksim.wire_bytes_total",
        "B",
        top.wire_bytes_total as f64,
    ));
    report.push(
        Metric::one(
            "ranksim.host_us_per_rank_iter",
            "us",
            top.wall_s * 1e6 / (top.ranks * top.iterations.max(1)) as f64,
        )
        .with_note(format!("host wall {:.3} s", top.wall_s)),
    );
    report.push(Metric::one("ranksim.world_build_ms", "ms", world_build_ms));
    let ce = r.cfg.check_every;
    report.push(Metric::one(
        "perfmodel.pred_over_sim_pcsi",
        "ratio",
        predicted_s(
            pop_perfmodel::SolverKind::Pcsi,
            PrecondKind::Evp,
            top.iterations,
            ce,
            r.n_global,
            top.ranks,
        ) / top.sim_s,
    ));
    report.push(Metric::one(
        "perfmodel.pred_over_sim_cg",
        "ratio",
        predicted_s(
            pop_perfmodel::SolverKind::ChronGear,
            PrecondKind::Diagonal,
            cg.iterations,
            ce,
            r.n_global,
            cg.ranks,
        ) / cg.sim_s,
    ));
    top
}
