//! P-CSI's block temporaries stay invisible.
//!
//! P-CSI keeps `z = M⁻¹r`, and the residual of a deferred sweep, in
//! per-thread tiles keyed by block shape and width instead of whole-field
//! vectors (DESIGN.md §7). A tile is reused by every block of its shape
//! that the thread sweeps, in every solve, so this suite runs them where
//! reuse bites: layouts whose blocks come in four shapes (ragged east and
//! north edges), two such layouts solved alternately on the same threads,
//! serial and threaded, at width 1 and batched k ∈ {3, 5} (one and two lane
//! groups), under the diagonal and block-EVP preconditioners. Every
//! right-hand side must land bitwise on its reference solve.

mod common;
use common::{assert_matches_oracle, observe, problem_on, Observables, Problem};
use pop_baro::prelude::*;
use pop_core::solvers::{BatchWorkspace, SolverWorkspace};
use std::collections::BTreeSet;

/// Right-hand sides per case: the widest batch.
const K: usize = 5;

/// One P-CSI configuration with its right-hand sides and their oracles.
struct Case {
    name: String,
    p: Problem,
    pre: Box<dyn Preconditioner>,
    kind: SolverKind,
    bs: Vec<DistVec>,
    oracles: Vec<Observables>,
}

fn cfg() -> SolverConfig {
    SolverConfig {
        tol: 1e-10,
        max_iters: 5000,
        check_every: 10,
        ..SolverConfig::default()
    }
}

fn case(grid: &Grid, bx: usize, by: usize, evp: bool) -> Case {
    let p = problem_on(grid, bx, by, 9000.0, 0);
    let shapes: BTreeSet<_> = p
        .layout
        .decomp
        .blocks
        .iter()
        .map(|b| (b.nx, b.ny))
        .collect();
    assert_eq!(shapes.len(), 4, "{bx}x{by}: block shapes {shapes:?}");
    let pre: Box<dyn Preconditioner> = if evp {
        Box::new(BlockEvp::with_defaults(&p.op))
    } else {
        Box::new(Diagonal::new(&p.op))
    };
    let world = CommWorld::serial();
    let (bounds, _) = estimate_bounds(&p.op, pre.as_ref(), &world, &LanczosConfig::default());
    let bs: Vec<DistVec> = (0..K)
        .map(|l| common::rhs_in_range(&p.op, 0x7e4d_0000 + l as u64))
        .collect();
    let oracles = bs
        .iter()
        .map(|b| {
            let mut x = DistVec::zeros(&p.layout);
            let kind = SolverKind::Pcsi(bounds);
            let st = common::solve_reference(kind, &p.op, pre.as_ref(), &world, b, &mut x, &cfg());
            assert_eq!(st.outcome, SolveOutcome::Converged);
            observe(&st, &x)
        })
        .collect();
    Case {
        name: format!("{bx}x{by} {}", pre.name()),
        p,
        pre,
        kind: SolverKind::Pcsi(bounds),
        bs,
        oracles,
    }
}

/// Solve the first `k` right-hand sides of `c` on `world`: one at a time
/// at `k = 1`, else as one batch.
fn solve(c: &Case, world: &CommWorld, k: usize) -> Vec<Observables> {
    let (op, pre) = (&c.p.op, c.pre.as_ref());
    if k == 1 {
        let mut x = DistVec::zeros(&c.p.layout);
        let mut ws = SolverWorkspace::new();
        let st = c
            .kind
            .solve(op, pre, world, &c.bs[0], &mut x, &cfg(), &mut ws);
        return vec![observe(&st, &x)];
    }
    let mut xs: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&c.p.layout)).collect();
    let bs: Vec<&DistVec> = c.bs[..k].iter().collect();
    let mut x_refs: Vec<&mut DistVec> = xs.iter_mut().collect();
    let mut ws = BatchWorkspace::new();
    let stats = c
        .kind
        .solve_batch(op, pre, world, &bs, &mut x_refs, &cfg(), &mut ws);
    drop(x_refs);
    stats
        .iter()
        .zip(&xs)
        .map(|(st, x)| observe(st, x))
        .collect()
}

#[test]
fn pcsi_on_several_block_shapes_matches_unfused_per_lane() {
    let grid = Grid::gx01_scaled(11, 90, 60);
    // 90 × 60 in 16 × 14 blocks leaves 10-wide and 4-tall edges; in
    // 13 × 11 blocks, 12-wide and 5-tall ones.
    let cases: Vec<Case> = [false, true]
        .into_iter()
        .flat_map(|evp| [case(&grid, 16, 14, evp), case(&grid, 13, 11, evp)])
        .collect();
    for (wname, world) in [
        ("serial", CommWorld::serial()),
        ("threaded", CommWorld::threaded()),
    ] {
        for k in [1, 3, 5] {
            // Twice round, so every layout's solve follows the other's on
            // the same threads.
            for round in 0..2 {
                for c in &cases {
                    for (l, got) in solve(c, &world, k).iter().enumerate() {
                        let tag = format!("{} {wname} k={k} round {round} lane {l}", c.name);
                        assert_matches_oracle(&tag, &c.oracles[l], got);
                    }
                }
            }
        }
    }
}
