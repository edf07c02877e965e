//! Batched multi-RHS solves (DESIGN.md §12).
//!
//! POP calls the barotropic solver once per time step, but ensemble runs,
//! data-assimilation increments, and multi-tracer splittings all solve the
//! *same* operator against several right-hand sides. A batch advances
//! `k ≤ 16` such systems in lockstep through the same recurrence a single
//! solve runs, instantiated on lane-vectorised tiles: the four SIMD lanes of
//! a [`MultiBlockVec`] carry four independent RHS vectors, so the 9-point
//! stencil coefficients and the EVP influence matrices are loaded **once
//! per block** and amortised across lanes, and every reduction carries all
//! `k` lanes' partials in a **single** allreduce message — P-CSI's
//! per-iteration allreduce count stays flat in `k`.
//!
//! The contract is bitwise: each RHS follows exactly the floating point
//! trajectory its single-RHS [`super::CommSolver::solve_comm`] would have
//! produced, in every dispatch mode (`tests/batch_equivalence.rs`). That
//! holds because it *is* the same loop, and every lane kernel underneath is
//! lane-pinned to its single-RHS image (`kernels.rs`).
//!
//! Lanes retire independently: when one RHS converges at a check, its
//! solution is gathered out, its [`SolveStats`] are frozen (per-RHS
//! iteration counts, not the batch maximum), and its lane keeps computing
//! harmless garbage that no reduction slot or other lane ever reads. A lane
//! restart re-runs the solver's start at width 1 on staging vectors and
//! scatters the result back into the lane (DESIGN.md §10). Ragged batches
//! (`k` not a multiple of [`LANES`]) fill the tail lanes with copies of
//! lane 0's system; the shadow lanes are never assessed, gathered, or
//! reported.

use super::{
    Control, Recurrence, SolveCtl, SolveStats, SolverConfig, SolverWorkspace, TileKernels, ZEROS,
};
use crate::precond::Preconditioner;
use pop_comm::{BlockVec, CommVec, Communicator, MultiBlockVec, MAX_GROUPS, MAX_SWEEP_PARTIALS};
use pop_simd::LANES;
use pop_stencil::NinePoint;
use std::ops::Deref;
use std::sync::Arc;

/// Widest batch the engine accepts: every lane of the [`MAX_GROUPS`] lane
/// groups a [`MultiBlockVec`] holds. The fused reduction row must fit it
/// too — ChronGear carries two scalars per RHS (`ρ̃`, `δ̃`) and `2 ×
/// MAX_BATCH ≤ MAX_SWEEP_PARTIALS` must hold so one allreduce still fits
/// every lane's partials.
pub const MAX_BATCH: usize = MAX_GROUPS * LANES;
const _: () = assert!(2 * MAX_BATCH <= MAX_SWEEP_PARTIALS);

/// Reusable arena for batched solves: the batch's lane-loaded right-hand
/// sides and iterates, the recurrence's own `k`-wide vectors, and width-1
/// staging for lane restarts. Steady-state reuse across solves on one
/// layout and width performs no heap allocation per iteration.
pub struct BatchWorkspace<C: Communicator> {
    io: SolverWorkspace<C::Vec<MultiBlockVec>>,
    vecs: SolverWorkspace<C::Vec<MultiBlockVec>>,
    stage: SolverWorkspace<C::Vec<BlockVec>>,
}

impl<C: Communicator> Default for BatchWorkspace<C> {
    fn default() -> Self {
        BatchWorkspace {
            io: SolverWorkspace::default(),
            vecs: SolverWorkspace::default(),
            stage: SolverWorkspace::default(),
        }
    }
}

impl<C: Communicator> BatchWorkspace<C> {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Load each lane `l < srcs.len()` from `srcs[l]`; ragged tail lanes get
/// copies of `srcs[0]` so they follow a real (finite) trajectory instead
/// of holding zeros that could reach a division.
fn fill_lanes<C, V>(comm: &C, mv: &mut C::Vec<MultiBlockVec>, srcs: &[V])
where
    C: Communicator,
    V: Deref<Target = C::Vec<BlockVec>> + Sync,
{
    let _ = comm.for_each_block_fused([mv], |bk, [mb]| {
        for slot in 0..mb.groups() * LANES {
            let src = srcs.get(slot).unwrap_or(&srcs[0]);
            mb.load_lane(slot / LANES, slot % LANES, src.block(bk));
        }
        ZEROS
    });
}

/// Validate batch geometry: `1 ≤ k ≤ MAX_BATCH`, matching `bs`/`xs`, one
/// shared layout. Returns the batch's slot count: `k` rounded up to whole
/// lane groups.
fn batch_shape<C: Communicator>(bs: &[&C::Vec<BlockVec>], xs: &[&mut C::Vec<BlockVec>]) -> usize {
    let k = bs.len();
    assert_eq!(k, xs.len(), "batch needs one x per rhs");
    assert!(
        (1..=MAX_BATCH).contains(&k),
        "batch width must be 1..={MAX_BATCH}, got {k}"
    );
    let layout = bs[0].layout();
    for b in bs {
        assert!(
            Arc::ptr_eq(b.layout(), layout),
            "batched rhs must share one layout"
        );
    }
    for x in xs {
        assert!(
            Arc::ptr_eq(x.layout(), layout),
            "batched x must share the rhs layout"
        );
    }
    k.next_multiple_of(LANES)
}

/// Batched multi-RHS solve: advance `k ≤ 16` systems `A x_l = b_l`
/// (shared operator and preconditioner, independent right-hand sides) in
/// lockstep through `k`-wide fused sweeps. Per RHS the returned stats and
/// the solution bits are identical to `k` independent
/// [`CommSolver::solve_comm`](super::CommSolver::solve_comm) calls, except
/// `comm`, which reports the whole batch's (much smaller) event count.
pub trait BatchCommSolver: super::CommSolver {
    /// Solve the batch on whatever runtime `comm` provides, reusing `ws`
    /// across solves. Stats are returned in RHS order.
    #[allow(clippy::too_many_arguments)]
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats>;
}

impl<S: Recurrence> BatchCommSolver for S {
    /// Load the lanes, reduce all `k` norms `‖b_l‖` in ONE allreduce, run
    /// the solver's recurrence on the lanes, and report per RHS. The
    /// communication snapshot is the whole batch's delta, duplicated into
    /// each lane's stats: events are shared across lanes by construction,
    /// so a per-lane split would be arbitrary.
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats> {
        let start = comm.stats();
        let slots = batch_shape::<C>(bs, xs);
        let BatchWorkspace { io, vecs, stage } = ws;
        let [mb, mx] = io.take(comm, bs[0], slots);
        let mut lanes: Vec<SolveCtl> = (0..bs.len())
            .map(|_| SolveCtl::new(cfg, S::SPEC.label(), pre.name(), start, vecs.lend_history()))
            .collect();
        fill_lanes(comm, mb, bs);
        fill_lanes(comm, mx, xs);

        // Per-lane ‖b‖₂ with `rhs_norm`'s floor, bitwise equal per lane.
        let masks = &bs[0].layout().masks;
        let sweep = comm.for_each_block_fused([&mut *mb], |bk, [bb]| {
            let mut p = ZEROS;
            MultiBlockVec::dot(bb, bb, &masks[bk], &mut p);
            p
        });
        let red = comm.reduce_sweep(&sweep, slots as u64);
        for (lane, rr) in lanes.iter_mut().zip(red) {
            lane.bnorm = rr.sqrt().max(1e-300);
        }

        let mut ctl = Control::new(comm, cfg, &mut lanes, bs, xs, stage, slots);
        self.recur(op, pre, mb, mx, vecs, &mut ctl);
        let now = comm.stats();
        let stats = lanes.into_iter().map(|lane| {
            let (stats, history) = lane.into_stats(now);
            vecs.keep_history(history);
            stats
        });
        stats.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockEvp, Diagonal};
    use crate::solvers::testutil::fixture;
    use crate::solvers::{ChronGear, CommSolver, Pcsi};
    use pop_comm::DistVec;
    use pop_grid::Grid;

    fn seeded_rhs(model: &DistVec, seed: u64) -> DistVec {
        let mut b = model.clone();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for blk in &mut b.blocks {
            for j in 0..blk.ny {
                for v in blk.interior_row_mut(j) {
                    if *v != 0.0 {
                        *v *= 1.0 + 0.25 * next();
                    }
                }
            }
        }
        b
    }

    /// Batched ChronGear on a ragged k=5 batch is bitwise identical, per
    /// RHS, to five independent single-RHS solves: solutions, iteration
    /// counts, outcomes, and residual histories.
    #[test]
    fn batched_chrongear_matches_single_rhs_bitwise() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let pre = Diagonal::new(&f.op);
        let solver = ChronGear;
        let cfg = SolverConfig::with_tol(1e-11);
        let k = 5;

        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 1)).collect();

        let mut singles = Vec::new();
        let mut ws = SolverWorkspace::default();
        for b in &bs_own {
            let mut x = DistVec::zeros(&f.layout);
            let st = solver.solve_comm(&f.op, &pre, &f.world, b, &mut x, &cfg, &mut ws);
            singles.push((x, st));
        }

        let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();
        let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
        let mut bws = BatchWorkspace::new();
        let stats = solver.solve_batch_comm(&f.op, &pre, &f.world, &bs, &mut xs, &cfg, &mut bws);

        for (l, (x_single, st_single)) in singles.iter().enumerate() {
            let got = xs_own[l].to_global();
            let want = x_single.to_global();
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "lane {l} point {i}: {g:e} vs {w:e}"
                );
            }
            assert_eq!(stats[l].iterations, st_single.iterations, "lane {l}");
            assert_eq!(stats[l].outcome, st_single.outcome, "lane {l}");
            assert_eq!(
                stats[l].final_relative_residual.to_bits(),
                st_single.final_relative_residual.to_bits(),
                "lane {l}"
            );
            assert_eq!(
                stats[l].residual_history, st_single.residual_history,
                "lane {l}"
            );
            assert_eq!(stats[l].matvecs, st_single.matvecs, "lane {l}");
            assert_eq!(
                stats[l].precond_applies, st_single.precond_applies,
                "lane {l}"
            );
        }
    }

    /// Batched P-CSI with the EVP preconditioner stays on the single-RHS
    /// trajectory per lane (k=3 ragged batch exercising the lane-fused EVP
    /// apply inside the batched loop).
    #[test]
    fn batched_csi_evp_matches_single_rhs_bitwise() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let pre = BlockEvp::with_defaults(&f.op);
        let bounds = crate::lanczos::estimate_bounds_fixed_steps(&f.op, &pre, &f.world, 30, 7);
        let solver = Pcsi::new(bounds);
        let cfg = SolverConfig::with_tol(1e-11);
        let k = 3;

        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 11)).collect();

        let mut singles = Vec::new();
        let mut ws = SolverWorkspace::default();
        for b in &bs_own {
            let mut x = DistVec::zeros(&f.layout);
            let st = solver.solve_comm(&f.op, &pre, &f.world, b, &mut x, &cfg, &mut ws);
            singles.push((x, st));
        }

        let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();
        let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
        let mut bws = BatchWorkspace::new();
        let stats = solver.solve_batch_comm(&f.op, &pre, &f.world, &bs, &mut xs, &cfg, &mut bws);

        for (l, (x_single, st_single)) in singles.iter().enumerate() {
            let got = xs_own[l].to_global();
            let want = x_single.to_global();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "lane {l} point {i}: {g:e} vs {w:e}"
                );
            }
            assert_eq!(stats[l].iterations, st_single.iterations, "lane {l}");
            assert_eq!(stats[l].outcome, st_single.outcome, "lane {l}");
        }
    }

    /// The allreduce count is flat in k: a batch of 16 performs exactly as
    /// many allreduces as one single-RHS solve of the same iteration count —
    /// for check-only P-CSI and per-iteration ChronGear, diagonal and EVP.
    #[test]
    fn allreduce_count_flat_in_k() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        // Fixed iteration count: tol 0 runs to the cap on every lane.
        let cfg = SolverConfig {
            tol: 0.0,
            max_iters: 40,
            ..Default::default()
        };
        let k = 16;
        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 21)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();

        let pres: [&dyn Preconditioner; 2] =
            [&Diagonal::new(&f.op), &BlockEvp::with_defaults(&f.op)];
        for pre in pres {
            let bounds = crate::lanczos::estimate_bounds_fixed_steps(&f.op, pre, &f.world, 30, 7);
            let pcsi = Pcsi::new(bounds);
            let mut ws = SolverWorkspace::default();
            let mut bws = BatchWorkspace::new();
            let mut x = DistVec::zeros(&f.layout);
            let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
            let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
            let (c, w, p) = (&f.world, &mut ws, &f.op);
            let runs = [
                (
                    pcsi.solve_comm(p, pre, c, &f.b, &mut x, &cfg, w),
                    pcsi.solve_batch_comm(p, pre, c, &bs, &mut xs, &cfg, &mut bws),
                ),
                (
                    ChronGear.solve_comm(p, pre, c, &f.b, &mut x, &cfg, w),
                    ChronGear.solve_batch_comm(p, pre, c, &bs, &mut xs, &cfg, &mut bws),
                ),
            ];
            for (single, stats) in runs {
                let what = format!("{}+{}", single.solver, pre.name());
                assert_eq!(stats[0].iterations, single.iterations, "{what}");
                assert_eq!(
                    stats[0].comm.allreduces, single.comm.allreduces,
                    "{what}: batched allreduce count must not grow with k"
                );
                assert_eq!(
                    stats[0].comm.halo_updates, single.comm.halo_updates,
                    "{what}"
                );
            }
        }
    }
}
