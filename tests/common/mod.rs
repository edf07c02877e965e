//! Shared harness for the integration suites.
//!
//! Every equivalence suite needs the same scaffolding: a seeded PRNG so
//! "random" fields are reproducible from the seed alone, a masked
//! multi-block problem with a right-hand side in the operator's range, a
//! bitwise-comparable bundle of everything a solve produces, and runners
//! for the three execution backends (serial, thread pool, ranksim message
//! passing). This module is the single copy; the suites `mod common;` it
//! and keep only what is specific to the contract they pin.
//!
//! Not every suite uses every helper, hence the module-wide `dead_code`
//! allow — each test binary compiles its own copy of this file.
#![allow(dead_code)]

pub mod fuzz;
pub mod minipop_reference;
pub mod precond;
pub mod reference;

pub use reference::solve_reference;

use pop_baro::prelude::*;
use pop_core::solvers::{SolveStats, SolverWorkspace};
use pop_simd::SimdMode;
use std::sync::Arc;

/// SplitMix64: a tiny, stable PRNG so seeded fields are reproducible from
/// the seed alone.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A uniform value in [-1, 1) derived from (seed, i, j) — order-independent,
/// so `fill_with` traversal order never matters.
pub fn noise(seed: u64, i: usize, j: usize) -> f64 {
    let mut s = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ ((j as u64) << 32);
    let bits = splitmix64(&mut s);
    (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A masked multi-block problem with a pseudo-random right-hand side built
/// in the operator's range (apply A to a random field), so every solver
/// converges from zero in a few hundred iterations.
pub struct Problem {
    pub layout: Arc<DistLayout>,
    pub op: NinePoint,
    pub rhs: DistVec,
}

/// The standard equivalence fixture: a land-masked 90×60 grid in 18×20
/// blocks — deliberately not a lane multiple in x, so every SIMD kernel row
/// has a scalar tail.
pub fn problem(seed: u64) -> Problem {
    let grid = Grid::gx01_scaled(11, 90, 60);
    problem_on(&grid, 18, 20, 9000.0, seed)
}

/// The fixture on an arbitrary grid, block shape, and timestep.
pub fn problem_on(grid: &Grid, bx: usize, by: usize, tau: f64, seed: u64) -> Problem {
    let layout = DistLayout::build(grid, bx, by);
    let op = NinePoint::assemble(grid, &layout, &CommWorld::serial(), tau);
    let rhs = rhs_in_range(&op, seed);
    Problem { layout, op, rhs }
}

/// A right-hand side in `op`'s range: `A` applied to a seeded noise field.
pub fn rhs_in_range(op: &NinePoint, seed: u64) -> DistVec {
    let world = CommWorld::serial();
    let mut field = DistVec::zeros(&op.layout);
    field.fill_with(|i, j| noise(seed, i, j));
    world.halo_update(&mut field);
    let mut rhs = DistVec::zeros(&op.layout);
    op.apply(&world, &field, &mut rhs);
    rhs
}

/// The serve suites' fixture: an operator behind an `Arc` (what a
/// `SolveRequest` carries) on a 48×40 global grid in 12×10 blocks; the
/// right-hand sides come from [`rhs_in_range`] per request.
pub struct ServeProblem {
    pub layout: Arc<DistLayout>,
    pub op: Arc<NinePoint>,
}

pub fn serve_problem(grid_seed: u64, tau: f64) -> ServeProblem {
    let grid = Grid::gx1_scaled(grid_seed, 48, 40);
    let layout = DistLayout::build(&grid, 12, 10);
    let op = NinePoint::assemble(&grid, &layout, &CommWorld::serial(), tau);
    ServeProblem {
        layout,
        op: Arc::new(op),
    }
}

/// Both solvers on `(p.op, pre)`, P-CSI with Lanczos bounds estimated
/// through `pre`.
pub fn solver_matrix(p: &Problem, pre: &dyn Preconditioner) -> Vec<SolverKind> {
    let shared = CommWorld::serial();
    let (bounds, _) = estimate_bounds(&p.op, pre, &shared, &LanczosConfig::default());
    vec![SolverKind::ChronGear, SolverKind::Pcsi(bounds)]
}

/// The fault-plan seeds of a chaos suite: `POP_CHAOS_SEED` when set (to
/// replay one failure), else the suite's pinned pair.
pub fn chaos_seeds(pinned: [u64; 2]) -> Vec<u64> {
    match std::env::var("POP_CHAOS_SEED") {
        Ok(v) => vec![v.parse().expect("POP_CHAOS_SEED must be an integer")],
        Err(_) => pinned.to_vec(),
    }
}

/// The suites' common solve settings: converge properly, never spin.
pub fn solver_cfg() -> SolverConfig {
    SolverConfig {
        tol: 1e-10,
        max_iters: 5000,
        check_every: 10,
        ..SolverConfig::default()
    }
}

/// Everything a solve produces that callers can observe, as raw bits.
#[derive(PartialEq, Debug)]
pub struct Observables {
    pub iterations: usize,
    pub outcome: SolveOutcome,
    pub restarts: usize,
    pub matvecs: usize,
    pub precond_applies: usize,
    pub final_residual_bits: u64,
    pub history_bits: Vec<(usize, u64)>,
    pub x_bits: Vec<u64>,
}

pub fn observe(st: &SolveStats, x: &DistVec) -> Observables {
    Observables {
        iterations: st.iterations,
        outcome: st.outcome,
        restarts: st.restarts,
        matvecs: st.matvecs,
        precond_applies: st.precond_applies,
        final_residual_bits: st.final_relative_residual.to_bits(),
        history_bits: st
            .residual_history
            .iter()
            .map(|&(k, r)| (k, r.to_bits()))
            .collect(),
        x_bits: x.to_global().iter().map(|v| v.to_bits()).collect(),
    }
}

/// Solve on a shared-memory backend (serial or thread pool).
pub fn run_world(
    world: &CommWorld,
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
) -> Observables {
    let mut x = DistVec::zeros(&p.layout);
    let mut ws = SolverWorkspace::new();
    let st = kind.solve(&p.op, pre, world, &p.rhs, &mut x, &solver_cfg(), &mut ws);
    observe(&st, &x)
}

/// The whole solve's scalar oracle, serial: [`solve_reference`], built on
/// `NinePoint::apply_reference` and whole-field vector passes — no fused
/// sweep and no stencil lane kernel.
pub fn run_reference(p: &Problem, pre: &dyn Preconditioner, kind: SolverKind) -> Observables {
    let mut x = DistVec::zeros(&p.layout);
    let world = CommWorld::serial();
    let st = solve_reference(kind, &p.op, pre, &world, &p.rhs, &mut x, &solver_cfg());
    observe(&st, &x)
}

/// Solve on `ranks` simulated message-passing ranks with a zero-cost
/// network and the default (binomial) collective schedule.
pub fn run_ranks(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    ranks: usize,
) -> Observables {
    run_ranks_cfg(p, pre, kind, ranks, RankSimConfig::default())
}

/// Solve on simulated ranks under an explicit ranksim configuration (to
/// pin a collective algorithm, overlap mode, or fault plan).
pub fn run_ranks_cfg(
    p: &Problem,
    pre: &dyn Preconditioner,
    kind: SolverKind,
    ranks: usize,
    cfg: RankSimConfig,
) -> Observables {
    let world = RankWorld::new(&p.layout, ranks, Arc::new(ZeroCost), cfg);
    let x0 = DistVec::zeros(&p.layout);
    let out = solve_on_ranks(&world, &p.op, pre, kind, &p.rhs, &x0, &solver_cfg());
    observe(out.stats(), &out.x)
}

/// Field-by-field bitwise comparison with readable failure messages.
pub fn assert_same(name: &str, base: &Observables, got: &Observables) {
    assert_eq!(
        got.iterations, base.iterations,
        "{name}: iteration counts differ"
    );
    assert_eq!(got.outcome, base.outcome, "{name}: solve outcome differs");
    assert_eq!(got.restarts, base.restarts, "{name}: restart counts differ");
    assert_eq!(got.matvecs, base.matvecs, "{name}: matvec counts differ");
    assert_eq!(
        got.precond_applies, base.precond_applies,
        "{name}: preconditioner counts differ"
    );
    assert_eq!(
        got.final_residual_bits,
        base.final_residual_bits,
        "{name}: final residuals differ ({:e} vs {:e})",
        f64::from_bits(got.final_residual_bits),
        f64::from_bits(base.final_residual_bits)
    );
    assert_eq!(
        got.history_bits, base.history_bits,
        "{name}: residual histories differ"
    );
    for (k, (a, b)) in got.x_bits.iter().zip(&base.x_bits).enumerate() {
        assert_eq!(
            a,
            b,
            "{name}: solution differs at point {k}: {:e} vs {:e}",
            f64::from_bits(*a),
            f64::from_bits(*b)
        );
    }
}

/// A run against [`run_reference`]'s oracle: the solution, its iteration
/// count and final residual, bit for bit. (The work counters differ by
/// design — the fused loops fold the preconditioner into other sweeps.)
pub fn assert_matches_oracle(name: &str, oracle: &Observables, got: &Observables) {
    assert_eq!(
        (got.iterations, got.final_residual_bits, &got.x_bits),
        (
            oracle.iterations,
            oracle.final_residual_bits,
            &oracle.x_bits
        ),
        "{name}: differs from the reference solve"
    );
}

/// Interior-by-interior bitwise comparison of two solutions.
pub fn assert_bits_equal(a: &DistVec, b: &DistVec, what: &str) {
    for (ba, bb) in a.blocks.iter().zip(b.blocks.iter()) {
        for j in 0..ba.ny {
            for (va, vb) in ba.interior_row(j).iter().zip(bb.interior_row(j)) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{what}: solution bits differ");
            }
        }
    }
}

/// Every dispatch mode this machine can run: the portable lanes, and AVX2
/// where detected.
pub fn lane_modes() -> Vec<SimdMode> {
    let mut m = vec![SimdMode::Portable];
    if pop_simd::detected_avx2() {
        m.push(SimdMode::Avx2);
    }
    m
}

/// The startup dispatch decision (`None`), then every mode forced in turn.
pub fn startup_then_forced_modes() -> Vec<Option<SimdMode>> {
    std::iter::once(None)
        .chain(lane_modes().into_iter().map(Some))
        .collect()
}

/// Restores the startup dispatch decision even if an assertion panics, so a
/// failure in a forced-mode section can't poison other tests in the binary.
pub struct ModeGuard;

impl Drop for ModeGuard {
    fn drop(&mut self) {
        pop_simd::force_mode(None);
    }
}
