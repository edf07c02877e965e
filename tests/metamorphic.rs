//! Metamorphic properties: the determinism contract as executable law.
//!
//! Two transformations of a solve must be exactly invisible (DESIGN.md
//! §8–9):
//!
//! - **Block-ordering permutation.** Which rank owns which block — and the
//!   order blocks are dealt out — is a scheduling detail. Hilbert, Morton,
//!   row-major and seeded-random assignments, across several rank counts,
//!   must all reproduce the serial solve bit for bit, because reductions
//!   combine per-block partials in a fixed global order regardless of
//!   ownership.
//! - **RHS power-of-two scaling.** Multiplying `b` by `2^k` multiplies
//!   every intermediate of the Krylov recurrence by an exact power of two:
//!   the iterate scales *exactly* (`x' = 2^k x`, bit for bit after
//!   un-scaling), while iteration counts and the relative-residual history
//!   are bitwise unchanged.

mod common;
use common::{observe, problem, solver_cfg as cfg, solver_matrix, Observables, Problem};
use pop_baro::prelude::*;
use pop_core::solvers::{SolveStats, SolverWorkspace};
use pop_grid::sfc::CurveKind;
use pop_grid::RankAssignment;
use pop_rng::SmallRng;
use std::sync::Arc;

fn run_serial(
    p: &Problem,
    kind: SolverKind,
    pre: &dyn Preconditioner,
    rhs: &DistVec,
) -> (Observables, SolveStats) {
    let world = CommWorld::serial();
    let mut x = DistVec::zeros(&p.layout);
    let mut ws = SolverWorkspace::new();
    let st = kind.solve(&p.op, pre, &world, rhs, &mut x, &cfg(), &mut ws);
    (observe(&st, &x), st)
}

fn run_assignment(
    p: &Problem,
    kind: SolverKind,
    pre: &dyn Preconditioner,
    assignment: RankAssignment,
) -> Observables {
    let world = RankWorld::with_assignment(
        &p.layout,
        assignment,
        Arc::new(ZeroCost),
        RankSimConfig::default(),
    );
    let x0 = DistVec::zeros(&p.layout);
    let out = solve_on_ranks(&world, &p.op, pre, kind, &p.rhs, &x0, &cfg());
    observe(out.stats(), &out.x)
}

/// Deal the active blocks round-robin in a seeded-random order: the
/// adversarial counterpoint to the locality-preserving curves.
fn random_assignment(p: &Problem, ranks: usize, seed: u64) -> RankAssignment {
    let n = p.layout.n_blocks();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        order.swap(i, j);
    }
    let mut rank_of_block = vec![0usize; n];
    let mut blocks_of_rank = vec![Vec::new(); ranks];
    for (k, &b) in order.iter().enumerate() {
        let r = k % ranks;
        rank_of_block[b] = r;
        blocks_of_rank[r].push(b);
    }
    RankAssignment {
        p: ranks,
        rank_of_block,
        blocks_of_rank,
    }
}

/// Ownership is a scheduling detail: every curve kind, rank count and a
/// seeded-random deal reproduce the serial solve bit for bit.
#[test]
fn block_ownership_permutations_are_bitwise_invisible() {
    let p = problem(2015);
    let pre = Diagonal::new(&p.op);
    for kind in solver_matrix(&p, &pre) {
        let (base, _) = run_serial(&p, kind, &pre, &p.rhs);
        assert_eq!(base.outcome, SolveOutcome::Converged);
        for curve in [CurveKind::Hilbert, CurveKind::Morton, CurveKind::RowMajor] {
            for ranks in [2usize, 5] {
                let name = format!("{} {curve:?} p={ranks}", kind.name());
                let a = p.layout.decomp.assign_ranks(ranks, curve);
                let got = run_assignment(&p, kind, &pre, a);
                assert!(got == base, "{name}: observables differ from serial");
            }
        }
        let name = format!("{} random-deal p=6", kind.name());
        let got = run_assignment(&p, kind, &pre, random_assignment(&p, 6, 0xDEA1));
        assert!(got == base, "{name}: observables differ from serial");
    }
}

/// Scaling the RHS by `2^k` scales the solution by exactly `2^k` and leaves
/// the iteration trajectory — counts, outcome, relative-residual history —
/// bitwise unchanged.
#[test]
fn rhs_power_of_two_scaling_is_exact() {
    let p = problem(2015);
    let pre = Diagonal::new(&p.op);
    const K: i32 = 12;
    let scale = (2.0f64).powi(K);
    let scaled_global: Vec<f64> = p.rhs.to_global().iter().map(|v| v * scale).collect();
    let scaled_rhs = DistVec::from_global(&p.layout, &scaled_global);
    for kind in solver_matrix(&p, &pre) {
        let name = format!("{} rhs×2^{K}", kind.name());
        let (base, _) = run_serial(&p, kind, &pre, &p.rhs);
        let (scaled, _) = run_serial(&p, kind, &pre, &scaled_rhs);
        assert_eq!(scaled.iterations, base.iterations, "{name}: iterations");
        assert_eq!(scaled.outcome, base.outcome, "{name}: outcome");
        assert_eq!(
            scaled.history_bits, base.history_bits,
            "{name}: relative-residual history must be scale-invariant"
        );
        assert_eq!(
            scaled.final_residual_bits, base.final_residual_bits,
            "{name}: final relative residual must be scale-invariant"
        );
        for (k, (a, b)) in scaled.x_bits.iter().zip(&base.x_bits).enumerate() {
            let unscaled = f64::from_bits(*a) / scale;
            assert_eq!(
                unscaled.to_bits(),
                *b,
                "{name}: solution at point {k} is not exactly 2^{K}× the base"
            );
        }
    }
}
