//! The names this benchmark speaks: workloads and metrics. `BENCHMARK.json`
//! at the repository root is the same table in the accepting driver's
//! schema (a unit test keeps the two in step).

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
/// The frozen unit counts of every workload are stated per second of this
/// budget on the 2-core reference host.
pub const RUN_SECONDS: u64 = 16;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, i.e. among the workloads the accepting
    /// driver runs and holds to the bounds. The full command runs the
    /// others too; their run-to-run spread on the shared reference host is
    /// wider than any bound the driver admits (README.md, "what is gated").
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "step_1deg_pcsi_evp",
        why: "Paper headline at 1 degree: warm-started P-CSI+EVP steps on gx1 320x384; the EVP apply is ~3/4 of an iteration, reductions happen only at checks.",
        gated: true,
    },
    WorkloadSpec {
        name: "step_0p1deg_cg_diag",
        why: "POP's production baseline at the 0.1-degree shape: stencil + one fused reduction per iteration do the work, EVP/Lanczos are bypassed, so an EVP or P-CSI change must show no change here.",
        gated: true,
    },
    WorkloadSpec {
        name: "gyre_minipop",
        why: "Thousands of short solves inside the mini-POP gyre: per-solve fixed cost (RHS allocation, setup/check phases, workspace reuse) dominates instead of per-iteration kernels.",
        gated: true,
    },
    WorkloadSpec {
        name: "ranks_1024",
        why: "The paper's scaling result: P-CSI+EVP to tolerance on 1024 simulated Yellowstone ranks; pop-ranksim's executor, fabric and collectives do the host work.",
        gated: false,
    },
    WorkloadSpec {
        name: "serve_open_warm",
        why: "Open loop, seeded Poisson arrivals at a fixed rate (~40% utilisation) over 5 cached operators: what a tenant feels on cache hits; coalescing is mostly bypassed (width ~1).",
        gated: false,
    },
    WorkloadSpec {
        name: "serve_closed_coalesce",
        why: "Closed loop of 8 clients on 2 operators: the queue always holds same-key requests, so BatchPlanner coalescing and the batched multi-RHS engine do the work.",
        gated: true,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "solves_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "iters_per_solve",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// `(name, unit)` of every metric a pass reports, in catalogue order.
pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The command `BENCHMARK.json` names, and the directory that holds the
/// benchmark and nothing else.
pub const COMMAND: [&str; 2] = ["bash", "bench_e2e/run.sh"];
pub const PATHS: [&str; 1] = ["bench_e2e"];

/// `BENCHMARK.json`, rendered from this catalogue (`bench catalog`).
pub fn benchmark_json() -> String {
    use crate::json::Json;
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    let doc = Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render_pretty()
}

/// Single-layer numbers from the traced pass. Every workload reports every
/// one, measured on that workload's own operator shape (see README.md,
/// "the layer ladder").
pub const PER_LAYER: [PerLayer; 64] = [
    // pop-grid, pop-stencil
    pl("grid.build_ms", "ms", Lower),
    pl("stencil.assemble_ms", "ms", Lower),
    pl("stencil.apply_ns_per_pt", "ns", Lower),
    pl("stencil.residual_ns_per_pt", "ns", Lower),
    pl("stencil.flops_per_byte", "flop/B", Higher),
    pl("stencil.apply_gbs_computed", "GB/s", Higher),
    // pop-core: setup
    pl("core.precond.evp_build_ms", "ms", Lower),
    pl("core.lanczos_ms", "ms", Lower),
    pl("core.lanczos_steps", "count", Lower),
    pl("core.setup.operator_state_build_ms", "ms", Lower),
    // pop-core: preconditioner applies
    pl("core.precond.evp_apply_ns_per_pt", "ns", Lower),
    pl("core.precond.diag_apply_ns_per_pt", "ns", Lower),
    pl("core.precond.mg_apply_ns_per_pt", "ns", Lower),
    pl("core.precond.mg_solve_ok", "bool", Higher),
    // pop-core: one solve, by pop-obs phase
    pl("core.solve.us_per_iter", "us", Lower),
    pl("core.solve.phase_setup_ms", "ms", Lower),
    pl("core.solve.phase_iterate_ms", "ms", Lower),
    pl("core.solve.phase_check_ms", "ms", Lower),
    pl("core.solve.phase_finalize_ms", "ms", Lower),
    pl("core.solve.phase_cover_frac", "ratio", Higher),
    pl("core.solve.fixed_overhead_us", "us", Lower),
    pl("core.batch.per_solve_ratio_k8", "ratio", Lower),
    // pop-comm
    pl("comm.halo_update_us", "us", Lower),
    pl("comm.dot_fused_us", "us", Lower),
    pl("comm.halo_updates_per_solve", "count", Lower),
    pl("comm.allreduces_per_solve", "count", Lower),
    pl("comm.halo_bytes_per_solve", "B", Lower),
    pl("comm.pool.speedup_tn", "ratio", Higher),
    // the workload's own unit of work
    pl("unit.ms_tail", "ms", Lower),
    pl("unit.tail_percentile", "%", Higher),
    pl("unit.count", "count", Higher),
    pl("unit.ms_p50", "ms", Lower),
    // pop-ranksim (simulated Yellowstone clock, critical rank)
    pl("ranksim.ranks", "count", Higher),
    pl("ranksim.sim_solve_ms", "sim_ms", Lower),
    pl("ranksim.sim_speedup_vs_cg", "ratio", Higher),
    pl("ranksim.sim_strong_eff", "ratio", Higher),
    pl("ranksim.sim_compute_ms", "sim_ms", Lower),
    pl("ranksim.sim_halo_ms", "sim_ms", Lower),
    pl("ranksim.sim_allreduce_ms", "sim_ms", Lower),
    pl("ranksim.sim_stall_ms", "sim_ms", Lower),
    pl("ranksim.sim_span_sum_frac", "ratio", Higher),
    pl("ranksim.allreduce_steps_total", "count", Lower),
    pl("ranksim.wire_bytes_total", "B", Lower),
    pl("ranksim.host_us_per_rank_iter", "us", Lower),
    pl("ranksim.world_build_ms", "ms", Lower),
    pl("perfmodel.pred_over_sim_pcsi", "ratio", Lower),
    pl("perfmodel.pred_over_sim_cg", "ratio", Lower),
    // pop-serve
    pl("serve.latency_ms_p50", "ms", Lower),
    pl("serve.latency_ms_tail", "ms", Lower),
    pl("serve.queue_wait_ms_p50", "ms", Lower),
    pl("serve.batch_width_mean", "count", Higher),
    pl("serve.cache_hit_frac", "ratio", Higher),
    pl("serve.first_touch_ms_p50", "ms", Lower),
    pl("serve.overhead_ms_p50", "ms", Lower),
    pl("serve.shed_total", "count", Lower),
    pl("serve.gen_lag_ms_p95", "ms", Lower),
    // pop-obs, the tracer, the host
    pl("obs.on_overhead_frac", "ratio", Lower),
    pl("bench.trace_overhead_frac", "ratio", Lower),
    pl("host.triad_gbs", "GB/s", Higher),
    pl("host.triad_array_mib", "MiB", Higher),
    pl("host.llc_mib", "MiB", Higher),
    pl("host.nproc", "count", Higher),
    // what the traced run itself cost
    pl("bench.ladder_s", "s", Lower),
    pl("bench.traced_wall_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// The schema limits the accepting driver states for names and units.
    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_respects_the_schema_limits() {
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s gets the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("valid JSON");
        let ours = Json::parse(&benchmark_json()).expect("valid JSON");
        assert_eq!(
            on_disk, ours,
            "regenerate with `bench_e2e/run.sh catalog > BENCHMARK.json`"
        );
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
