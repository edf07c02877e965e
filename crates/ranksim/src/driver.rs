//! Running the barotropic solvers on a [`RankWorld`].
//!
//! The solvers are generic over [`pop_comm::Communicator`]
//! (`pop_core::solvers::CommSolver`), so the same fused kernels that run in
//! shared memory run here — each rank drives them over its private blocks,
//! and every halo update and reduction goes through the message-passing
//! runtime. This module adds the plumbing: scatter the inputs to ranks, run
//! the SPMD solve, gather the solution and per-rank reports back.

use crate::runtime::{sim_time, RankReport, RankWorld};
use crate::trace::SpanKind;
use pop_comm::DistVec;
use pop_core::{Preconditioner, SolveStats, SolverConfig, SolverWorkspace};
use pop_obs::ObsSink;
use pop_stencil::NinePoint;

/// Which solver to run, with the spectral bounds P-CSI needs baked in —
/// the workspace's one built-solver type under its ranksim name.
pub use pop_core::Solver as SolverKind;

/// A distributed solve's outcome: the assembled solution, the per-rank
/// reports (each carrying that rank's [`SolveStats`] with *per-rank*
/// communication counters), and the simulated wall time.
#[derive(Debug)]
pub struct RankSolveOutcome {
    /// The solution gathered back into one shared-memory vector.
    pub x: DistVec,
    pub per_rank: Vec<RankReport<SolveStats>>,
    /// Slowest rank's simulated clock (s).
    pub sim_time: f64,
}

impl RankSolveOutcome {
    /// Rank 0's solve statistics (identical iteration counts and residuals
    /// on every rank — the solve is SPMD).
    pub fn stats(&self) -> &SolveStats {
        &self.per_rank[0].result
    }
}

/// Scatter `b`/`x0` to the world's ranks, solve, gather the solution.
///
/// Observability: only rank 0 carries the caller's [`ObsSink`] into its
/// solver loop — the solve is SPMD, so every rank would record the *same*
/// scalar trajectory and duplicate the trace. Rank 0's per-solve counters
/// therefore match the shared-memory path exactly. After the gather, the
/// per-rank simulated-clock spans are merged into the same registry
/// (`pop_sim_phase_seconds_total{kind=...}`, `pop_sim_time_seconds`), so a
/// ranksim run exports the same schema as a shared-memory run plus the
/// simulated-time series.
pub fn solve_on_ranks(
    world: &RankWorld,
    op: &NinePoint,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    b: &DistVec,
    x0: &DistVec,
    cfg: &SolverConfig,
) -> RankSolveOutcome {
    let reports = world.run(|comm| {
        let rank_cfg = if comm.rank() == 0 {
            cfg.clone()
        } else {
            cfg.clone().with_obs(ObsSink::disabled())
        };
        let rb = comm.import(b);
        let mut rx = comm.import(x0);
        let mut ws = SolverWorkspace::new();
        let st = kind.solve(op, pre, comm, &rb, &mut rx, &rank_cfg, &mut ws);
        (st, rx.into_blocks())
    });
    let mut x = DistVec::zeros(&b.layout);
    let mut per_rank = Vec::with_capacity(reports.len());
    let mut t = 0.0f64;
    for rep in reports {
        t = t.max(rep.clock);
        let (st, blocks) = rep.result;
        for (gb, blk) in blocks {
            x.blocks[gb] = blk;
        }
        per_rank.push(RankReport {
            rank: rep.rank,
            clock: rep.clock,
            stats: rep.stats,
            spans: rep.spans,
            result: st,
        });
    }
    debug_assert_eq!(t, sim_time(&per_rank));
    if let Some(reg) = cfg.obs.registry() {
        for (kind, name) in [
            (SpanKind::Compute, "compute"),
            (SpanKind::Halo, "halo"),
            (SpanKind::Allreduce, "allreduce"),
            (SpanKind::Stall, "stall"),
        ] {
            let secs: f64 = per_rank
                .iter()
                .flat_map(|r| r.spans.iter())
                .filter(|s| s.kind == kind)
                .map(|s| s.t1 - s.t0)
                .sum();
            reg.counter_add_f64("pop_sim_phase_seconds_total", &[("kind", name)], secs);
        }
        reg.gauge_set("pop_sim_time_seconds", &[], t);
        // The collective schedule's wire footprint, labelled by the
        // configured algorithm ("auto" stays "auto" — the per-collective
        // resolution is provenance of the run config, not the metric).
        let algo = world.sim_config().reduce_algo.name();
        let steps: u64 = per_rank.iter().map(|r| r.stats.allreduce_steps).sum();
        let wire_bytes: u64 = per_rank
            .iter()
            .map(|r| r.stats.allreduce_bytes_on_wire)
            .sum();
        reg.counter_add("pop_comm_allreduce_steps_total", &[("algo", algo)], steps);
        reg.counter_add(
            "pop_comm_allreduce_wire_bytes_total",
            &[("algo", algo)],
            wire_bytes,
        );
    }
    RankSolveOutcome {
        x,
        per_rank,
        sim_time: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ZeroCost;
    use crate::runtime::RankSimConfig;
    use pop_comm::{CommWorld, DistLayout};
    use pop_core::Diagonal;
    use pop_grid::Grid;
    use std::sync::Arc;

    #[test]
    fn ranked_chrongear_matches_shared_memory_bitwise() {
        let g = Grid::gx1_scaled(13, 60, 48);
        let layout = DistLayout::build(&g, 12, 10);
        let shared = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &shared, 4000.0);
        let pre = Diagonal::new(&op);
        let cfg = SolverConfig {
            tol: 1e-10,
            max_iters: 800,
            check_every: 10,
            ..SolverConfig::default()
        };
        let mut truth = DistVec::zeros(&layout);
        truth.fill_with(|i, j| ((i as f64) * 0.17).sin() + ((j as f64) * 0.13).cos());
        shared.halo_update(&mut truth);
        let mut b = DistVec::zeros(&layout);
        op.apply(&shared, &truth, &mut b);

        let mut x_shared = DistVec::zeros(&layout);
        let mut ws = SolverWorkspace::new();
        let st_shared =
            SolverKind::ChronGear.solve(&op, &pre, &shared, &b, &mut x_shared, &cfg, &mut ws);
        assert!(st_shared.converged);

        let world = RankWorld::new(&layout, 6, Arc::new(ZeroCost), RankSimConfig::default());
        let x0 = DistVec::zeros(&layout);
        let out = solve_on_ranks(&world, &op, &pre, SolverKind::ChronGear, &b, &x0, &cfg);
        let st = out.stats();
        assert!(st.converged);
        assert_eq!(st.iterations, st_shared.iterations);
        assert_eq!(
            st.final_relative_residual.to_bits(),
            st_shared.final_relative_residual.to_bits(),
            "residual trajectories must be bit-identical"
        );
        assert_eq!(out.x.to_global(), x_shared.to_global());
        // Per-rank reduction counts equal the shared-memory count: every
        // rank participates in every collective.
        for rep in &out.per_rank {
            assert_eq!(rep.stats.allreduces, st_shared.comm.allreduces);
            assert_eq!(rep.stats.halo_updates, st_shared.comm.halo_updates);
        }
    }
}
