//! Every collective algorithm is bit-equivalent to shared memory.
//!
//! The [`ReduceAlgo`] family — binomial gather/broadcast, recursive
//! doubling, Rabenseifner, and the node-aware hierarchical schedule — all
//! move the same `(block id, partial rows)` payload and fold it in global
//! block order, so the *numbers* a solve produces must not depend on the
//! exchange pattern at all. This suite pins that contract: every solver ×
//! preconditioner × algorithm × rank count yields bitwise the same
//! solution, iteration count, and residual as the shared-memory run, and
//! the number of collective messages each schedule puts on the wire equals
//! its closed-form count (`allreduce_steps` is not allowed to drift).
//!
//! The split-phase halo overlap path gets the same treatment, including
//! under a benign [`FaultPlan`]: delays, duplicates, reorders, and stalls
//! may move the simulated clocks, never the bits.

use pop_baro::prelude::*;
use pop_baro::ranksim::{HierarchicalNet, NetworkModel, ReduceAlgo};
use pop_core::solvers::SolverWorkspace;
use std::sync::Arc;

mod common;
use common::{solver_cfg, Problem};

fn problem() -> Problem {
    common::problem(2015)
}

fn prev_pow2(n: u64) -> u64 {
    1 << (63 - n.leading_zeros())
}

/// Messages a recursive-doubling allreduce over `n` participants puts on
/// the wire: one per odd preamble rank, one per butterfly stage per core
/// rank, one result hand-back per preamble pair.
fn rd_msgs(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let core = prev_pow2(n);
    let rem = n - core;
    2 * rem + core * u64::from(core.trailing_zeros())
}

/// Closed-form total message count of one collective across all `p` ranks.
/// The runtime's `allreduce_steps` counters must sum to exactly this per
/// reduction — the schedules are deterministic, so any drift is a bug.
fn steps_per_collective(algo: ReduceAlgo, p: u64, rpn: u64) -> u64 {
    if p <= 1 {
        return 0;
    }
    let core = prev_pow2(p);
    let rem = p - core;
    match algo {
        // Gather up the binomial tree (p − 1 sends), broadcast back down.
        ReduceAlgo::Binomial => 2 * (p - 1),
        ReduceAlgo::RecursiveDoubling => rd_msgs(p),
        // Same butterfly with twice the stages: reduce-scatter + allgather.
        ReduceAlgo::Rabenseifner => 2 * rem + core * 2 * u64::from(core.trailing_zeros()),
        // Intra-node gather + broadcast on every node, recursive doubling
        // among the node leaders.
        ReduceAlgo::Hierarchical => {
            let n_nodes = p.div_ceil(rpn.max(1));
            2 * (p - n_nodes) + rd_msgs(n_nodes)
        }
        ReduceAlgo::Auto => unreachable!("tests pin concrete algorithms"),
    }
}

/// Shared-memory reference solve for one (solver, preconditioner).
fn shared_solve(p: &Problem, pre: &dyn Preconditioner, kind: SolverKind) -> (SolveStats, Vec<f64>) {
    let shared = CommWorld::serial();
    let mut x = DistVec::zeros(&p.layout);
    let mut ws = SolverWorkspace::new();
    let st = kind.solve(&p.op, pre, &shared, &p.rhs, &mut x, &solver_cfg(), &mut ws);
    assert!(
        st.converged,
        "{}: shared-memory did not converge",
        kind.name()
    );
    (st, x.to_global())
}

/// One ranksim solve checked bitwise against the shared reference, with the
/// collective message count pinned to the schedule's closed form.
#[allow(clippy::too_many_arguments)]
fn check_ranksim(
    name: &str,
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    ranks: usize,
    net: Arc<dyn NetworkModel>,
    cfg: RankSimConfig,
    reference: &(SolveStats, Vec<f64>),
) {
    let rpn = net.ranks_per_node() as u64;
    let algo = cfg.reduce_algo;
    let world = RankWorld::new(&p.layout, ranks, net, cfg);
    let x0 = DistVec::zeros(&p.layout);
    let out = solve_on_ranks(&world, &p.op, pre, kind, &p.rhs, &x0, &solver_cfg());
    let (st_shared, x_shared) = reference;
    let st = out.stats();
    assert_eq!(
        st.iterations, st_shared.iterations,
        "{name}: iteration counts differ"
    );
    assert_eq!(
        st.final_relative_residual.to_bits(),
        st_shared.final_relative_residual.to_bits(),
        "{name}: residuals differ ({:e} vs {:e})",
        st.final_relative_residual,
        st_shared.final_relative_residual
    );
    let ga = out.x.to_global();
    for (k, (a, b)) in ga.iter().zip(x_shared).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}: solution differs at point {k}: {a:e} vs {b:e}"
        );
    }
    for rep in &out.per_rank {
        assert_eq!(
            rep.stats.allreduces, st_shared.comm.allreduces,
            "{name} rank {}: allreduce count",
            rep.rank
        );
    }
    let total_steps: u64 = out.per_rank.iter().map(|r| r.stats.allreduce_steps).sum();
    let expected = st_shared.comm.allreduces * steps_per_collective(algo, ranks as u64, rpn);
    assert_eq!(
        total_steps,
        expected,
        "{name}: collective message count drifted from the {} schedule's closed form",
        algo.name()
    );
}

/// 2 solvers × {diag, EVP} × {1, 3, 16, 64} ranks for one algorithm, on a
/// node-aware network (Yellowstone: 16 ranks per node) so the hierarchical
/// schedule actually has a hierarchy to exploit.
fn run_algo(algo: ReduceAlgo) {
    let p = problem();
    let shared = CommWorld::serial();
    let m = MachineModel::yellowstone();
    let topo = pop_baro::perfmodel::machine::NodeTopology::yellowstone();
    for (pname, pre) in [
        ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
        ("evp", &BlockEvp::with_defaults(&p.op)),
    ] {
        let (bounds, _) = estimate_bounds(&p.op, pre, &shared, &LanczosConfig::default());
        for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
            let reference = shared_solve(&p, pre, kind);
            for ranks in [1usize, 3, 16, 64] {
                check_ranksim(
                    &format!("{}+{pname} algo={} p={ranks}", kind.name(), algo.name()),
                    &p,
                    pre,
                    kind,
                    ranks,
                    Arc::new(HierarchicalNet::from_machine(&m, &topo)),
                    RankSimConfig::default().with_reduce_algo(algo),
                    &reference,
                );
            }
        }
    }
}

#[test]
fn binomial_matches_shared_memory_everywhere() {
    run_algo(ReduceAlgo::Binomial);
}

#[test]
fn recursive_doubling_matches_shared_memory_everywhere() {
    run_algo(ReduceAlgo::RecursiveDoubling);
}

#[test]
fn rabenseifner_matches_shared_memory_everywhere() {
    run_algo(ReduceAlgo::Rabenseifner);
}

#[test]
fn hierarchical_matches_shared_memory_everywhere() {
    run_algo(ReduceAlgo::Hierarchical);
}

/// Split-phase halo/compute overlap is a *timing* optimization: with
/// overlap on, modeled compute charged, and a benign fault plan jittering
/// every message, the solve must still reproduce the shared-memory bits —
/// and the fault-free overlap run must match the eager run exactly.
#[test]
fn halo_overlap_is_bitwise_clean_under_benign_chaos() {
    let p = problem();
    let shared = CommWorld::serial();
    let m = MachineModel::yellowstone();
    let topo = pop_baro::perfmodel::machine::NodeTopology::yellowstone();
    let pre = Diagonal::new(&p.op);
    let (bounds, _) = estimate_bounds(&p.op, &pre, &shared, &LanczosConfig::default());
    for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
        let reference = shared_solve(&p, &pre, kind);
        for ranks in [3usize, 16] {
            for (label, cfg) in [
                (
                    "overlap",
                    RankSimConfig::modeled(&m)
                        .with_reduce_algo(ReduceAlgo::RecursiveDoubling)
                        .with_overlap(true),
                ),
                (
                    "overlap+chaos",
                    RankSimConfig::modeled(&m)
                        .with_reduce_algo(ReduceAlgo::RecursiveDoubling)
                        .with_overlap(true)
                        .with_faults(FaultPlan::seeded(2718, FaultConfig::benign())),
                ),
            ] {
                check_ranksim(
                    &format!("{}+diag {label} p={ranks}", kind.name()),
                    &p,
                    &pre,
                    kind,
                    ranks,
                    Arc::new(HierarchicalNet::from_machine(&m, &topo)),
                    cfg,
                    &reference,
                );
            }
        }
    }
}

/// Split-phase overlap reaches the batch and P-CSI's fused sweep, whose
/// kernel writes the vector it exchanges: a k = 5 P-CSI + EVP batch on 64
/// ranks is bitwise the same with overlap on and off — every lane's
/// iterations, residual history and solution — and strictly shorter on the
/// simulated clock with it on.
#[test]
fn batched_pcsi_overlap_is_bitwise_and_shorter_on_64_ranks() {
    let grid = Grid::gx1_scaled(2015, 128, 96);
    let layout = DistLayout::build(&grid, 16, 12);
    let shared = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &shared, 9000.0);
    let evp = BlockEvp::with_defaults(&op);
    let (bounds, _) = estimate_bounds(&op, &evp, &shared, &LanczosConfig::default());
    let kind = SolverKind::Pcsi(bounds);
    let bs: Vec<DistVec> = (0..5).map(|l| common::rhs_in_range(&op, 77 + l)).collect();
    let x0 = DistVec::zeros(&layout);
    let cfg = solver_cfg();
    let m = MachineModel::yellowstone();
    let run = |overlap: bool| {
        let world = RankWorld::new(
            &layout,
            64,
            Arc::new(LatencyBandwidth::from_machine(&m)),
            RankSimConfig::modeled(&m).with_overlap(overlap),
        );
        let reports = world.run(|comm| {
            let rbs: Vec<_> = bs.iter().map(|b| comm.import(b)).collect();
            let mut rxs: Vec<_> = bs.iter().map(|_| comm.import(&x0)).collect();
            let b_refs: Vec<_> = rbs.iter().collect();
            let mut x_refs: Vec<_> = rxs.iter_mut().collect();
            let mut ws = BatchWorkspace::new();
            let stats = kind.solve_batch(&op, &evp, comm, &b_refs, &mut x_refs, &cfg, &mut ws);
            let lanes: Vec<_> = stats
                .iter()
                .map(|st| {
                    let history: Vec<_> = st
                        .residual_history
                        .iter()
                        .map(|&(k, r)| (k, r.to_bits()))
                        .collect();
                    (st.outcome, st.iterations, history)
                })
                .collect();
            let x_bits: Vec<Vec<(usize, Vec<u64>)>> = rxs
                .into_iter()
                .map(|x| {
                    x.into_blocks()
                        .into_iter()
                        .map(|(gb, blk)| (gb, blk.raw().iter().map(|v| v.to_bits()).collect()))
                        .collect()
                })
                .collect();
            (lanes, x_bits)
        });
        let time = pop_baro::ranksim::sim_time(&reports);
        let results: Vec<_> = reports.into_iter().map(|rep| rep.result).collect();
        (results, time)
    };
    let (eager, eager_t) = run(false);
    let (overlapped, overlap_t) = run(true);
    assert!(
        eager[0]
            .0
            .iter()
            .all(|(o, _, _)| *o == SolveOutcome::Converged),
        "every lane must converge"
    );
    assert!(eager == overlapped, "overlap changed the numerics");
    assert!(
        overlap_t < eager_t,
        "overlap time {overlap_t} should undercut eager {eager_t}"
    );
}
