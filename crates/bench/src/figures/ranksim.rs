//! Rank-count scaling of the barotropic solvers on the message-passing
//! runtime — the paper's Fig. 7/8 story, *executed*, pushed to 16384 ranks.
//!
//! Sweeps simulated MPI ranks over a gx1v6-like 1° grid for
//! {ChronGear, P-CSI} × {diagonal, block-EVP} × every collective algorithm
//! ([`ReduceAlgo`]: binomial, recursive doubling, Rabenseifner, node-aware
//! hierarchical) × {eager, split-phase overlap} halo exchange. Every solve
//! runs through `pop-ranksim` on a node-aware Yellowstone network model
//! (16 ranks per node, cheap intra-node links, calibrated inter-node
//! fabric); the per-rank simulated clocks then decompose into compute /
//! halo / allreduce time on the critical rank:
//!
//! - **ChronGear** pays one allreduce per iteration, so its reduction share
//!   grows with the exchange schedule's depth while compute shrinks as
//!   `1/p` — the scaling wall of paper Fig. 2/7.
//! - **P-CSI** reduces only at the periodic convergence check, so its
//!   allreduce count is independent of rank count — Fig. 7/8's crossover.
//! - **Hierarchical** folds on-node first and crosses the fabric only
//!   `log₂(p/m)` times, so it strictly beats the flat binomial tree at
//!   extreme scale (checked at every p ≥ 4096).
//! - **Split-phase overlap** hides interior-stencil compute under halo
//!   flight, so P-CSI's per-iteration time strictly drops at every
//!   p ≥ 1024 (checked).
//!
//! Every configuration is also checked *bitwise* against a shared-memory
//! baseline solve — the exchange schedule and the overlap choreography are
//! timing models, never allowed to move the numbers. A failed check panics
//! with its message.
//!
//! Quick settings sweep 4 → 1024 ranks on a 320×240 grid (100 rows);
//! `--full` sweeps 4 → 16384 on 1152×864 (140 rows). Beside the CSV, one
//! p ≥ 16 ChronGear+diag timeline is written as a Chrome trace,
//! `ranksim_timeline.json`.

use crate::{Measurements, Table};
use pop_comm::{CommWorld, DistLayout, DistVec, StatsSnapshot};
use pop_core::lanczos::{estimate_bounds, LanczosConfig};
use pop_core::precond::{BlockEvp, Diagonal, Preconditioner};
use pop_core::solvers::{SolverConfig, SolverWorkspace};
use pop_grid::Grid;
use pop_perfmodel::machine::{MachineModel, NodeTopology};
use pop_ranksim::{
    solve_on_ranks, write_chrome_trace, HierarchicalNet, NetworkModel, RankSimConfig, RankWorld,
    ReduceAlgo, SolverKind, SpanKind,
};
use pop_stencil::NinePoint;
use std::sync::Arc;

struct Row {
    solver: &'static str,
    precond: &'static str,
    algo: &'static str,
    overlap: bool,
    ranks: usize,
    iterations: usize,
    max_blocks_per_rank: usize,
    sim_time_s: f64,
    compute_s: f64,
    halo_s: f64,
    allreduce_s: f64,
    allreduces_per_rank: u64,
    /// Collective messages across all ranks (Σ `allreduce_steps`).
    allreduce_steps_total: u64,
    /// Modelled collective payload bytes across all ranks.
    allreduce_wire_bytes_total: u64,
    halo_bytes_total: u64,
}

const HEADERS: [&str; 15] = [
    "solver",
    "precond",
    "reduce_algo",
    "overlap",
    "ranks",
    "iterations",
    "max_blocks_per_rank",
    "sim_time_s",
    "compute_s",
    "halo_s",
    "allreduce_s",
    "allreduces_per_rank",
    "allreduce_steps_total",
    "allreduce_wire_bytes_total",
    "halo_bytes_total",
];

impl Row {
    fn mode(&self) -> &'static str {
        if self.overlap {
            "overlap"
        } else {
            "eager"
        }
    }

    /// The CSV cells, in [`HEADERS`] order; seconds to nine decimals.
    fn cells(&self) -> Vec<String> {
        vec![
            self.solver.to_string(),
            self.precond.to_string(),
            self.algo.to_string(),
            self.overlap.to_string(),
            self.ranks.to_string(),
            self.iterations.to_string(),
            self.max_blocks_per_rank.to_string(),
            format!("{:.9}", self.sim_time_s),
            format!("{:.9}", self.compute_s),
            format!("{:.9}", self.halo_s),
            format!("{:.9}", self.allreduce_s),
            self.allreduces_per_rank.to_string(),
            self.allreduce_steps_total.to_string(),
            self.allreduce_wire_bytes_total.to_string(),
            self.halo_bytes_total.to_string(),
        ]
    }
}

/// The distinct `(precond, algo, overlap)` series present in the sweep, in
/// first-appearance order.
fn series_keys(rows: &[Row]) -> Vec<(&'static str, &'static str, bool)> {
    let mut keys = Vec::new();
    for r in rows {
        let k = (r.precond, r.algo, r.overlap);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// The acceptance facts of the sweep (paper Fig. 7/8), checked per
/// `(precond, algorithm, overlap)` series: ChronGear's reduction time must
/// grow with rank count while P-CSI's allreduce count stays fixed and its
/// reduce time stays a small fraction of ChronGear's — whatever exchange
/// schedule carries the collectives. An empty or partial sweep (empty rank
/// list, a solver erroring out) is an `Err` naming what is missing.
fn check_crossover(rows: &[Row]) -> Result<Vec<String>, String> {
    let keys = series_keys(rows);
    if keys.is_empty() {
        return Err("no rows collected — empty rank sweep or solver failure".to_string());
    }
    let mut summaries = Vec::new();
    for (pname, algo, overlap) in keys {
        let mode = if overlap { "overlap" } else { "eager" };
        let label = format!("{pname}/{algo}/{mode}");
        let series = |solver: &str| -> Vec<&Row> {
            rows.iter()
                .filter(|r| {
                    r.solver == solver
                        && r.precond == pname
                        && r.algo == algo
                        && r.overlap == overlap
                })
                .collect()
        };
        let cg = series("chrongear");
        let csi = series("pcsi");
        let (Some(cg_lo), Some(cg_hi)) = (cg.first(), cg.last()) else {
            return Err(format!(
                "[{label}] no ChronGear rows collected — empty rank sweep or solver failure"
            ));
        };
        let (Some(csi_lo), Some(csi_hi)) = (csi.first(), csi.last()) else {
            return Err(format!(
                "[{label}] no P-CSI rows collected — empty rank sweep or solver failure"
            ));
        };
        if cg_hi.allreduce_s <= cg_lo.allreduce_s * 1.5 {
            return Err(format!(
                "[{label}] ChronGear reduction time must grow with ranks \
                 ({:.3e}s at p={} vs {:.3e}s at p={})",
                cg_lo.allreduce_s, cg_lo.ranks, cg_hi.allreduce_s, cg_hi.ranks
            ));
        }
        if csi_hi.allreduce_s >= cg_hi.allreduce_s / 4.0 {
            return Err(format!(
                "[{label}] P-CSI must avoid most of ChronGear's reduction cost at scale \
                 ({:.3e}s vs {:.3e}s at p={})",
                csi_hi.allreduce_s, cg_hi.allreduce_s, cg_hi.ranks
            ));
        }
        if !csi
            .iter()
            .all(|r| r.allreduces_per_rank == csi_lo.allreduces_per_rank)
        {
            return Err(format!(
                "[{label}] P-CSI's allreduce count must not depend on rank count"
            ));
        }
        if csi_lo.allreduces_per_rank * 5 > cg_lo.allreduces_per_rank {
            return Err(format!(
                "[{label}] P-CSI must issue far fewer allreduces than ChronGear ({} vs {})",
                csi_lo.allreduces_per_rank, cg_lo.allreduces_per_rank
            ));
        }
        summaries.push(format!(
            "[{label}] reduce time p={}→{}: chrongear {:.3}ms→{:.3}ms, pcsi {:.3}ms→{:.3}ms",
            cg_lo.ranks,
            cg_hi.ranks,
            cg_lo.allreduce_s * 1e3,
            cg_hi.allreduce_s * 1e3,
            csi_lo.allreduce_s * 1e3,
            csi_hi.allreduce_s * 1e3
        ));
    }
    Ok(summaries)
}

/// Extreme-scale acceptance: wherever the sweep reaches p ≥ 4096, the
/// hierarchical schedule's reduction time must *strictly* beat the flat
/// binomial tree's for the reduction-bound solver (ChronGear), on every
/// precond/overlap series that ran both algorithms.
fn check_hierarchy_wins(rows: &[Row]) -> Result<Vec<String>, String> {
    let mut summaries = Vec::new();
    let mut compared = false;
    for r in rows {
        if r.solver != "chrongear" || r.algo != "hierarchical" || r.ranks < 4096 {
            continue;
        }
        let Some(bin) = rows.iter().find(|b| {
            b.solver == r.solver
                && b.precond == r.precond
                && b.overlap == r.overlap
                && b.ranks == r.ranks
                && b.algo == "binomial"
        }) else {
            continue;
        };
        compared = true;
        if r.allreduce_s >= bin.allreduce_s {
            return Err(format!(
                "[{}/{}] hierarchical must strictly beat binomial at p={}: \
                 {:.3e}s vs {:.3e}s reduce time",
                r.precond,
                r.mode(),
                r.ranks,
                r.allreduce_s,
                bin.allreduce_s
            ));
        }
        summaries.push(format!(
            "[{}/{}] p={}: hierarchical reduce {:.3}ms vs binomial {:.3}ms ({:.2}x)",
            r.precond,
            r.mode(),
            r.ranks,
            r.allreduce_s * 1e3,
            bin.allreduce_s * 1e3,
            bin.allreduce_s / r.allreduce_s
        ));
    }
    let max_p = rows.iter().map(|r| r.ranks).max().unwrap_or(0);
    if max_p >= 4096 && !compared {
        return Err(format!(
            "sweep reaches p={max_p} but no hierarchical-vs-binomial ChronGear pair was \
             collected at p >= 4096"
        ));
    }
    Ok(summaries)
}

/// Overlap acceptance: wherever the sweep reaches p ≥ 1024, split-phase
/// halo/compute overlap must *strictly* reduce P-CSI's simulated solve
/// time (same precond, same algorithm, same rank count).
fn check_overlap_wins(rows: &[Row]) -> Result<Vec<String>, String> {
    let mut summaries = Vec::new();
    let mut compared = false;
    for r in rows {
        if r.solver != "pcsi" || !r.overlap || r.ranks < 1024 {
            continue;
        }
        let Some(eager) = rows.iter().find(|e| {
            e.solver == r.solver
                && e.precond == r.precond
                && e.algo == r.algo
                && e.ranks == r.ranks
                && !e.overlap
        }) else {
            continue;
        };
        compared = true;
        if r.sim_time_s >= eager.sim_time_s {
            return Err(format!(
                "[{}/{}] split-phase overlap must reduce P-CSI time at p={}: \
                 {:.3e}s overlap vs {:.3e}s eager",
                r.precond, r.algo, r.ranks, r.sim_time_s, eager.sim_time_s
            ));
        }
        summaries.push(format!(
            "[{}/{}] p={}: pcsi {:.3}ms eager → {:.3}ms overlapped (-{:.1}%)",
            r.precond,
            r.algo,
            r.ranks,
            eager.sim_time_s * 1e3,
            r.sim_time_s * 1e3,
            (1.0 - r.sim_time_s / eager.sim_time_s) * 100.0
        ));
    }
    let max_p = rows.iter().map(|r| r.ranks).max().unwrap_or(0);
    if max_p >= 1024 && !compared {
        return Err(format!(
            "sweep reaches p={max_p} but no overlap-vs-eager P-CSI pair was collected \
             at p >= 1024"
        ));
    }
    Ok(summaries)
}

/// The collective schedules under test. The diagonal preconditioner runs
/// the full algorithm × overlap matrix; block-EVP rides with the binomial
/// baseline in both halo modes (the precond changes the numerics, not the
/// exchange pattern — one precond carrying the full matrix is enough).
const ALGOS: [ReduceAlgo; 4] = [
    ReduceAlgo::Binomial,
    ReduceAlgo::RecursiveDoubling,
    ReduceAlgo::Rabenseifner,
    ReduceAlgo::Hierarchical,
];

/// The sweep: fixed 20-iteration solves on the seed-11 gx1-like grid,
/// whatever `--seed` says, so the rows depend only on `--full`.
pub(super) fn ranksim(m: &Measurements) -> Vec<Table> {
    let (nx, ny, bx, by, rank_counts): (_, _, _, _, &[usize]) = if m.opts.full {
        (1152, 864, 6, 6, &[4, 16, 64, 256, 1024, 4096, 16384])
    } else {
        (320usize, 240usize, 8usize, 6usize, &[4, 16, 64, 256, 1024])
    };
    let iters = 20;

    let g = Grid::gx1_scaled(11, nx, ny);
    let layout = DistLayout::build(&g, bx, by);
    let max_ranks = rank_counts[rank_counts.len() - 1];
    assert!(
        layout.n_blocks() >= max_ranks,
        "grid has {} active blocks; need at least {max_ranks} so no rank idles",
        layout.n_blocks()
    );
    let serial = CommWorld::serial();
    let op = NinePoint::assemble(&g, &layout, &serial, 2700.0);

    let mut x_true = DistVec::zeros(&layout);
    x_true.fill_with(|i, j| {
        let xf = i as f64 / nx as f64 * std::f64::consts::TAU;
        let yf = j as f64 / ny as f64 * std::f64::consts::PI;
        (3.0 * xf).sin() * yf.sin() + 0.4 * (2.0 * xf).cos() * (4.0 * yf).sin()
    });
    serial.halo_update(&mut x_true);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&serial, &x_true, &mut rhs);
    let x0 = DistVec::zeros(&layout);

    // Fixed-iteration runs (tol = 0 never converges): the sweep compares
    // communication structure, so every configuration must do identical
    // iteration counts at every rank count.
    let cfg = SolverConfig {
        tol: 0.0,
        max_iters: iters,
        check_every: 10,
        ..SolverConfig::default()
    };

    let machine = MachineModel::yellowstone();
    let topo = NodeTopology::yellowstone();
    let net: Arc<dyn NetworkModel> = Arc::new(HierarchicalNet::from_machine(&machine, &topo));
    let base_sim_cfg = RankSimConfig {
        record_trace: true,
        ..RankSimConfig::modeled(&machine)
    };
    println!(
        "simulated {iters}-iteration solves, {nx}x{ny} gx1-like grid, {} blocks, {} machine, \
         {} ranks/node",
        layout.n_blocks(),
        machine.name,
        topo.ranks_per_node
    );

    let diag = Diagonal::new(&op);
    let evp = BlockEvp::with_defaults(&op);
    let preconds: [(&'static str, &dyn Preconditioner); 2] = [("diag", &diag), ("evp", &evp)];
    let trace_path = m.opts.results_dir().join("ranksim_timeline.json");
    let mut traced = false;
    let mut rows: Vec<Row> = Vec::new();

    for (pname, pre) in preconds {
        let (bounds, _) = estimate_bounds(&op, pre, &serial, &LanczosConfig::SETUP);
        let solvers: [(&'static str, SolverKind); 2] = [
            ("chrongear", SolverKind::ChronGear),
            ("pcsi", SolverKind::Pcsi(bounds)),
        ];
        // The exchange-schedule matrix this precond carries (see ALGOS).
        let algos: &[ReduceAlgo] = if pname == "diag" { &ALGOS } else { &ALGOS[..1] };
        for (sname, kind) in solvers {
            // The shared-memory baseline every ranksim combination must
            // reproduce exactly: residual bits and the assembled solution.
            let mut x_shared = DistVec::zeros(&layout);
            let st_shared = kind.solve(
                &op,
                pre,
                &serial,
                &rhs,
                &mut x_shared,
                &cfg,
                &mut SolverWorkspace::new(),
            );
            let ref_bits = st_shared.final_relative_residual.to_bits();
            let ref_x = x_shared.to_global();
            for &algo in algos {
                for overlap in [false, true] {
                    let mode = if overlap { "overlap" } else { "eager" };
                    for &p in rank_counts {
                        let sim_cfg = base_sim_cfg.with_reduce_algo(algo).with_overlap(overlap);
                        let world = RankWorld::new(&layout, p, net.clone(), sim_cfg);
                        let out = solve_on_ranks(&world, &op, pre, kind, &rhs, &x0, &cfg);
                        let st = out.stats();
                        let label = format!("{sname}+{pname} algo={} {mode} p={p}", algo.name());
                        assert_eq!(st.iterations, iters, "{label}: ran short");

                        // Bitwise against shared memory: the schedule and
                        // the overlap choreography are timing models only.
                        assert!(
                            st.final_relative_residual.to_bits() == ref_bits,
                            "{label}: residual diverged bitwise from shared memory ({:e} vs {:e})",
                            st.final_relative_residual,
                            f64::from_bits(ref_bits)
                        );
                        let gx = out.x.to_global();
                        if let Some(k) =
                            (0..gx.len()).find(|&k| gx[k].to_bits() != ref_x[k].to_bits())
                        {
                            panic!(
                                "{label}: solution diverged bitwise from shared memory at \
                                 point {k}: {:e} vs {:e}",
                                gx[k], ref_x[k]
                            );
                        }

                        // Decompose the critical (slowest) rank's timeline.
                        let crit = out
                            .per_rank
                            .iter()
                            .max_by(|a, b| a.clock.total_cmp(&b.clock))
                            .expect("ranks");
                        let by_kind = |k: SpanKind| -> f64 {
                            crit.spans
                                .iter()
                                .filter(|s| s.kind == k)
                                .map(|s| s.t1 - s.t0)
                                .sum()
                        };
                        let total = |f: fn(&StatsSnapshot) -> u64| -> u64 {
                            out.per_rank.iter().map(|r| f(&r.stats)).sum()
                        };

                        // One mid-size ChronGear timeline as a Chrome trace:
                        // the per-iteration allreduce bars are the figure.
                        if !traced && sname == "chrongear" && pname == "diag" && p >= 16 {
                            std::fs::create_dir_all(m.opts.results_dir())
                                .and_then(|()| write_chrome_trace(&out.per_rank, &trace_path))
                                .unwrap_or_else(|e| {
                                    panic!("writing {}: {e}", trace_path.display())
                                });
                            println!(
                                "[wrote {} (p={p} chrongear+diag timeline)]",
                                trace_path.display()
                            );
                            traced = true;
                        }
                        // Progress on stderr: a full sweep runs for minutes.
                        eprintln!("[{label}] sim {:.4}s", out.sim_time);

                        rows.push(Row {
                            solver: sname,
                            precond: pname,
                            algo: algo.name(),
                            overlap,
                            ranks: p,
                            iterations: st.iterations,
                            max_blocks_per_rank: world.assignment().max_blocks_per_rank(),
                            sim_time_s: out.sim_time,
                            compute_s: by_kind(SpanKind::Compute),
                            halo_s: by_kind(SpanKind::Halo),
                            allreduce_s: by_kind(SpanKind::Allreduce),
                            allreduces_per_rank: crit.stats.allreduces,
                            allreduce_steps_total: total(|s| s.allreduce_steps),
                            allreduce_wire_bytes_total: total(|s| s.allreduce_bytes_on_wire),
                            halo_bytes_total: total(|s| s.halo_bytes),
                        });
                    }
                }
            }
        }
    }

    // The acceptance facts: the paper's crossover on every series, the
    // hierarchical schedule's win over the flat tree at extreme scale, and
    // the overlap win for the halo-bound solver.
    for check in [check_crossover, check_hierarchy_wins, check_overlap_wins] {
        match check(&rows) {
            Ok(summaries) => summaries.iter().for_each(|s| println!("{s}")),
            Err(msg) => panic!("ranksim: {msg}"),
        }
    }
    vec![Table::new(
        "simulated solves per rank count (seconds on the critical rank)",
        HEADERS,
        rows.iter().map(Row::cells).collect(),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn row_full(
        solver: &'static str,
        algo: &'static str,
        overlap: bool,
        ranks: usize,
        sim_time_s: f64,
        allreduce_s: f64,
        reduces: u64,
    ) -> Row {
        Row {
            solver,
            precond: "diag",
            algo,
            overlap,
            ranks,
            iterations: 20,
            max_blocks_per_rank: 4,
            sim_time_s,
            compute_s: 0.5,
            halo_s: 0.1,
            allreduce_s,
            allreduces_per_rank: reduces,
            allreduce_steps_total: 64,
            allreduce_wire_bytes_total: 4096,
            halo_bytes_total: 1024,
        }
    }

    fn row(solver: &'static str, ranks: usize, allreduce_s: f64, reduces: u64) -> Row {
        row_full(solver, "binomial", false, ranks, 1.0, allreduce_s, reduces)
    }

    /// Regression: an empty sweep used to hit `.first().unwrap()` and panic
    /// with an opaque backtrace; it must surface a diagnostic `Err` naming
    /// what is missing.
    #[test]
    fn empty_sweep_is_an_error_not_a_panic() {
        let err = check_crossover(&[]).unwrap_err();
        assert!(err.contains("no rows collected"), "got: {err}");
        // A series with only one solver must be reported, not unwrapped
        // past.
        let rows = vec![row("chrongear", 4, 1e-3, 101)];
        let err = check_crossover(&rows).unwrap_err();
        assert!(err.contains("no P-CSI rows"), "got: {err}");
    }

    #[test]
    fn crossover_facts_accepted_per_series() {
        // Two series (binomial eager, hierarchical eager): each must be
        // checked independently and produce its own summary line.
        let rows = vec![
            row("chrongear", 4, 1.0e-3, 101),
            row("chrongear", 256, 8.0e-3, 101),
            row("pcsi", 4, 1.0e-5, 6),
            row("pcsi", 256, 1.2e-5, 6),
            row_full("chrongear", "hierarchical", false, 4, 1.0, 1.0e-3, 101),
            row_full("chrongear", "hierarchical", false, 256, 1.0, 4.0e-3, 101),
            row_full("pcsi", "hierarchical", false, 4, 1.0, 1.0e-5, 6),
            row_full("pcsi", "hierarchical", false, 256, 1.0, 1.1e-5, 6),
        ];
        let lines = check_crossover(&rows).expect("healthy sweep");
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("diag/binomial/eager"));
        assert!(lines[1].contains("diag/hierarchical/eager"));
    }

    #[test]
    fn flat_chrongear_reduce_time_is_flagged() {
        // ChronGear's reduce time *not* growing with ranks contradicts the
        // tree model — the check must name the offending series.
        let rows = vec![
            row("chrongear", 4, 1.0e-3, 101),
            row("chrongear", 256, 1.0e-3, 101),
            row("pcsi", 4, 1.0e-5, 6),
            row("pcsi", 256, 1.0e-5, 6),
        ];
        let err = check_crossover(&rows).unwrap_err();
        assert!(err.contains("grow with ranks"), "got: {err}");
        assert!(err.contains("diag/binomial/eager"), "got: {err}");
    }

    #[test]
    fn hierarchy_must_win_at_extreme_scale() {
        let healthy = vec![
            row_full("chrongear", "binomial", false, 4096, 1.0, 8.0e-3, 101),
            row_full("chrongear", "hierarchical", false, 4096, 1.0, 3.0e-3, 101),
        ];
        let lines = check_hierarchy_wins(&healthy).expect("hierarchy wins");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("p=4096"));

        // A loss (or tie) at p >= 4096 is an error naming the scale.
        let tied = vec![
            row_full("chrongear", "binomial", false, 4096, 1.0, 3.0e-3, 101),
            row_full("chrongear", "hierarchical", false, 4096, 1.0, 3.0e-3, 101),
        ];
        let err = check_hierarchy_wins(&tied).unwrap_err();
        assert!(err.contains("strictly beat binomial"), "got: {err}");

        // Reaching extreme scale without the comparison pair is itself an
        // error — the acceptance fact must not silently vanish.
        let missing = vec![row_full(
            "chrongear",
            "binomial",
            false,
            4096,
            1.0,
            8.0e-3,
            101,
        )];
        let err = check_hierarchy_wins(&missing).unwrap_err();
        assert!(err.contains("no hierarchical-vs-binomial"), "got: {err}");

        // A small sweep has nothing to prove.
        let small = vec![row_full(
            "chrongear",
            "binomial",
            false,
            256,
            1.0,
            1.0e-3,
            101,
        )];
        assert!(check_hierarchy_wins(&small)
            .expect("small sweep ok")
            .is_empty());
    }

    #[test]
    fn overlap_must_win_at_scale() {
        let healthy = vec![
            row_full("pcsi", "binomial", false, 1024, 2.0e-3, 1.0e-5, 6),
            row_full("pcsi", "binomial", true, 1024, 1.5e-3, 1.0e-5, 6),
        ];
        let lines = check_overlap_wins(&healthy).expect("overlap wins");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("p=1024"));

        let tied = vec![
            row_full("pcsi", "binomial", false, 1024, 2.0e-3, 1.0e-5, 6),
            row_full("pcsi", "binomial", true, 1024, 2.0e-3, 1.0e-5, 6),
        ];
        let err = check_overlap_wins(&tied).unwrap_err();
        assert!(err.contains("must reduce P-CSI time"), "got: {err}");

        let missing = vec![row_full("pcsi", "binomial", false, 1024, 2.0e-3, 1.0e-5, 6)];
        let err = check_overlap_wins(&missing).unwrap_err();
        assert!(err.contains("no overlap-vs-eager"), "got: {err}");

        let small = vec![
            row_full("pcsi", "binomial", false, 256, 2.0e-3, 1.0e-5, 6),
            row_full("pcsi", "binomial", true, 256, 1.5e-3, 1.0e-5, 6),
        ];
        assert!(check_overlap_wins(&small)
            .expect("small sweep ok")
            .is_empty());
    }
}
