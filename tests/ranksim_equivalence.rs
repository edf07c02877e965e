//! The message-passing runtime is bit-equivalent to shared memory.
//!
//! Every solver runs the same fused kernels whether the communicator is a
//! shared-memory [`CommWorld`] or a `ranksim` [`RankWorld`] of thread-ranks
//! exchanging halo strips and climbing binomial reduction trees. Because
//! reductions combine per-block partial rows in global block order with a
//! flat left-fold, the arithmetic is identical — so solutions, iteration
//! counts, residual trajectories, and communication counts must all match
//! *bitwise*, for every solver, preconditioner, rank count, and right-hand
//! side.
//!
//! The right-hand sides are seeded pseudo-random fields (set
//! `POP_EQV_SEED` to probe a different draw), not smooth manufactured
//! ones: equivalence must not depend on the data being nice.

use pop_baro::prelude::*;
use pop_baro::ranksim::{solve_on_ranks, RankSimConfig, RankWorld, SolverKind, ZeroCost};
use pop_core::solvers::SolverWorkspace;
use std::sync::Arc;

mod common;
use common::{problem, Problem};

fn seeds() -> Vec<u64> {
    match std::env::var("POP_EQV_SEED") {
        Ok(v) => vec![v.parse().expect("POP_EQV_SEED must be an integer")],
        Err(_) => vec![2015, 0xC0FFEE],
    }
}

/// Solve one configuration in shared memory and on `p` simulated ranks and
/// demand bitwise agreement everywhere the runtimes can be compared.
fn check(name: &str, p: &Problem, pre: &dyn Preconditioner, kind: SolverKind, ranks: usize) {
    let cfg = SolverConfig {
        tol: 1e-10,
        max_iters: 5000,
        check_every: 10,
        ..SolverConfig::default()
    };
    let shared = CommWorld::serial();
    let mut x_shared = DistVec::zeros(&p.layout);
    let mut ws = SolverWorkspace::new();
    let st_shared = kind.solve(&p.op, pre, &shared, &p.rhs, &mut x_shared, &cfg, &mut ws);
    assert!(
        st_shared.converged,
        "{name}: shared-memory did not converge"
    );

    let world = RankWorld::new(
        &p.layout,
        ranks,
        Arc::new(ZeroCost),
        RankSimConfig::default(),
    );
    let x0 = DistVec::zeros(&p.layout);
    let out = solve_on_ranks(&world, &p.op, pre, kind, &p.rhs, &x0, &cfg);
    let st = out.stats();

    assert_eq!(
        st.iterations, st_shared.iterations,
        "{name} p={ranks}: iteration counts differ"
    );
    assert_eq!(
        st.final_relative_residual.to_bits(),
        st_shared.final_relative_residual.to_bits(),
        "{name} p={ranks}: residuals differ ({:e} vs {:e})",
        st.final_relative_residual,
        st_shared.final_relative_residual
    );
    let (ga, gb) = (out.x.to_global(), x_shared.to_global());
    for (k, (a, b)) in ga.iter().zip(&gb).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} p={ranks}: solution differs at point {k}: {a:e} vs {b:e}"
        );
    }
    // Collectives are SPMD: every rank sees the same number of reductions
    // and halo updates as the shared-memory run, and the wire moves exactly
    // the bytes the shared-memory halo gather/scatter counted.
    let shared_bytes: u64 = st_shared.comm.halo_bytes;
    let rank_bytes: u64 = out.per_rank.iter().map(|r| r.stats.halo_bytes).sum();
    assert_eq!(rank_bytes, shared_bytes, "{name} p={ranks}: halo bytes");
    for rep in &out.per_rank {
        assert_eq!(
            rep.stats.allreduces, st_shared.comm.allreduces,
            "{name} p={ranks} rank {}: allreduce count",
            rep.rank
        );
        assert_eq!(
            rep.stats.halo_updates, st_shared.comm.halo_updates,
            "{name} p={ranks} rank {}: halo update count",
            rep.rank
        );
    }
}

fn run_all(ranks: &[usize]) {
    for seed in seeds() {
        let p = problem(seed);
        let shared = CommWorld::serial();
        for (pname, pre) in [
            ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
            ("evp", &BlockEvp::with_defaults(&p.op)),
        ] {
            let (bounds, _) = estimate_bounds(&p.op, pre, &shared, &LanczosConfig::default());
            let kinds = [SolverKind::ChronGear, SolverKind::Pcsi(bounds)];
            for kind in kinds {
                for &r in ranks {
                    check(
                        &format!("{}+{pname} seed={seed}", kind.name()),
                        &p,
                        pre,
                        kind,
                        r,
                    );
                }
            }
        }
    }
}

/// Few ranks: several blocks per rank, plenty of rank-local halo traffic.
#[test]
fn ranksim_matches_shared_memory_few_ranks() {
    run_all(&[1, 3]);
}

/// Sixteen ranks: more ranks than some block rows, deep reduction trees,
/// and (depending on the mask) possibly idle ranks.
#[test]
fn ranksim_matches_shared_memory_sixteen_ranks() {
    run_all(&[16]);
}
