//! Pipelined preconditioned conjugate gradients (Ghysels & Vanroose,
//! *Parallel Computing* 2014 — the paper's reference [16]).
//!
//! The other school of communication-avoiding CG: instead of *removing* the
//! global reduction (P-CSI's move), restructure the recurrences so the one
//! fused reduction of an iteration can be *overlapped* with the
//! preconditioner application and matrix–vector product. The reduction
//! latency is hidden as long as it is shorter than the iteration's local
//! work — which is exactly the regime that breaks down at extreme scale,
//! the paper's argument for abandoning CG altogether.
//!
//! Implemented here as the related-work baseline: same interface, same
//! counted communication events, with the reduction flagged as overlappable
//! so `pop-perfmodel` can model the hiding (`max(0, T_g − T_local)` instead
//! of `T_g`).
//!
//! The price of pipelining is extra recurrences (four more vectors than
//! ChronGear) and slightly worse round-off behaviour — both visible in the
//! kernel benches and the convergence histories.

use super::control::copy_vec;
use super::kernels::{update, PipeCgUpdate};
use super::{
    residual_sweep, rhs_norm, Control, LinearSolver, Recurrence, SolveCtl, SolveStats,
    SolverConfig, SolverWorkspace, TileKernels, MAX_BATCH, ZEROS,
};
use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{CommVec, CommWorld, Communicator, DistVec};
use pop_stencil::NinePoint;

/// Pipelined PCG.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelinedCg;

impl PipelinedCg {
    /// The pre-fusion loop, kept as the bit-identical test oracle of the fused
    /// path (see [`ChronGear::solve_unfused`](super::ChronGear)).
    pub fn solve_unfused(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        cfg: &SolverConfig,
    ) -> SolveStats {
        let start = world.stats();
        let layout = std::sync::Arc::clone(&x.layout);
        let bnorm = rhs_norm(world, b);

        // r₀ = b − A x₀ ; u₀ = M⁻¹ r₀ ; w₀ = A u₀.
        let mut r = DistVec::zeros(&layout);
        op.residual_reference(world, x, b, &mut r);
        let mut u = DistVec::zeros(&layout);
        pre.apply(world, &r, &mut u);
        world.halo_update(&mut u);
        let mut w = DistVec::zeros(&layout);
        op.apply_reference(world, &u, &mut w);

        let mut m = DistVec::zeros(&layout);
        let mut n = DistVec::zeros(&layout);
        let mut z = DistVec::zeros(&layout);
        let mut q = DistVec::zeros(&layout);
        let mut s = DistVec::zeros(&layout);
        let mut p = DistVec::zeros(&layout);

        let mut gamma_old = 1.0f64;
        let mut alpha_old = 1.0f64;
        let mut matvecs = 2usize;
        let mut precond_applies = 1usize;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut final_rel = f64::INFINITY;
        let mut history: Vec<(usize, f64)> = Vec::new();

        while iterations < cfg.max_iters {
            iterations += 1;

            // The single fused reduction: γ = (r,u), δ = (w,u), and ‖r‖²
            // rides along for free (the pipelined formulation's convergence
            // check costs no extra reduction). On a real machine this
            // allreduce is posted asynchronously and progresses WHILE the
            // two kernels below run — which is why it is flagged
            // overlappable for the cost model.
            let d = world.dot_many(&[(&r, &u), (&w, &u), (&r, &r)]);
            let (gamma, delta, rr) = (d[0], d[1], d[2]);

            // Overlapped local work: m = M⁻¹w ; n = A m.
            pre.apply(world, &w, &mut m);
            precond_applies += 1;
            world.halo_update(&mut m);
            op.apply_reference(world, &m, &mut n);
            matvecs += 1;

            let (alpha, beta) = if iterations == 1 {
                (gamma / delta, 0.0)
            } else {
                let beta = gamma / gamma_old;
                let alpha = gamma / (delta - beta * gamma / alpha_old);
                (alpha, beta)
            };

            // Pipelined recurrences.
            z.xpay(&n, beta);
            q.xpay(&m, beta);
            s.xpay(&w, beta);
            p.xpay(&u, beta);
            x.axpy(alpha, &p);
            r.axpy(-alpha, &s);
            u.axpy(-alpha, &q);
            w.axpy(-alpha, &z);

            gamma_old = gamma;
            alpha_old = alpha;

            final_rel = rr.sqrt() / bnorm;
            if iterations % cfg.check_interval() == 0 {
                history.push((iterations, final_rel));
            }
            if final_rel < cfg.tol {
                converged = true;
                if iterations % cfg.check_interval() != 0 {
                    history.push((iterations, final_rel));
                }
                break;
            }
            if !final_rel.is_finite() {
                break;
            }
        }

        SolveStats {
            solver: self.name(),
            preconditioner: pre.name(),
            iterations,
            converged,
            outcome: super::baseline_outcome(converged, final_rel),
            restarts: 0,
            final_relative_residual: final_rel,
            matvecs,
            precond_applies,
            comm: world.stats().since(&start),
            residual_history: history,
        }
    }
}

impl PipelinedCg {
    /// The recurrence's start: `r₀ = b − A x₀ ; u₀ = M⁻¹ r₀ ; w₀ = A u₀`,
    /// each halo exchange fused with the sweep that reads it (the caller
    /// zeroes `z`, `q`, `s`, `p` and resets the recurrence scalars).
    fn start<C: Communicator, T: TileKernels>(
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<T>,
        [x, r, u, w]: [&mut C::Vec<T>; 4],
        lanes: &mut [SolveCtl],
    ) {
        residual_sweep(op, comm, b, x, r);
        comm.for_each_block_fused([&mut *u], |bk, [ub]| {
            T::precond(pre, bk, r.block(bk), ub);
            ZEROS
        });
        comm.halo_sweep_fused([u, w], |bk, [ub, wb]| {
            T::apply(op, bk, ub, wb);
            ZEROS
        });
        lanes.iter_mut().for_each(|lane| lane.charge(2, 1));
    }
}

impl Recurrence for PipelinedCg {
    const SPEC: SolverSpec = SolverSpec::PipelinedCg;

    /// Three sweeps per iteration: the three dot partials (γ, δ, ‖r‖²) of
    /// every lane and the preconditioner ride one, the matvec a second, and
    /// all *eight* pipelined recurrences collapse into a single third — the
    /// fusion win is largest here because the pipelined formulation is the
    /// most vector-heavy. Bit-identical to [`PipelinedCg::solve_unfused`]
    /// on every runtime, and per lane in a batch.
    fn recur<C: Communicator, T: TileKernels>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        b: &C::Vec<T>,
        x: &mut C::Vec<T>,
        ws: &mut SolverWorkspace<C::Vec<T>>,
        ctl: &mut Control<'_, '_, C>,
    ) {
        let (comm, cfg, k) = (ctl.comm, ctl.cfg, ctl.width());
        let masks = &b.layout().masks;

        // z₀ = q₀ = s₀ = p₀ = 0 (zeroed by the workspace).
        let [r, u, w, m, n, z, q, s, p, x_good] = ws.take(comm, ctl.model(), k);
        copy_vec(comm, x, x_good);
        Self::start(
            op,
            pre,
            comm,
            b,
            [&mut *x, &mut *r, &mut *u, &mut *w],
            ctl.lanes(),
        );
        let (mut gamma_old, mut alpha_old) = ([1.0; MAX_BATCH], [1.0; MAX_BATCH]);
        let mut first = [true; MAX_BATCH];
        let (mut beta, mut alpha, mut nalpha) =
            ([0.0; MAX_BATCH], [0.0; MAX_BATCH], [0.0; MAX_BATCH]);
        ctl.phase("setup");

        while ctl.next() {
            // Sweep 1: the fused reduction's three partials — γ = (r,u),
            // δ = (w,u), ‖r‖² — in three bands, plus the preconditioner
            // application m = M⁻¹w, all in one pass over the block. On a
            // real machine the allreduce is posted asynchronously and
            // progresses WHILE the preconditioner and matvec run — which is
            // why it is flagged overlappable for the cost model.
            let d_sweep = comm.for_each_block_fused([&mut *m], |bk, [mb]| {
                let (rb, ub, wb) = (r.block(bk), u.block(bk), w.block(bk));
                let mut pt = ZEROS;
                T::dot(rb, ub, &masks[bk], &mut pt[..k]);
                T::dot(wb, ub, &masks[bk], &mut pt[k..2 * k]);
                T::dot(rb, rb, &masks[bk], &mut pt[2 * k..3 * k]);
                T::precond(pre, bk, wb, mb);
                pt
            });
            // PipeCG's convergence check rides the fused per-iteration
            // reduction, so the reduce itself is attributed to "check"
            // and everything else to "iterate".
            ctl.phase("iterate");
            let d = comm.reduce_sweep(&d_sweep, 3 * k as u64);
            ctl.phase("check");

            // Sweep 2: n = A m, its halo exchange fused so a split-phase
            // runtime overlaps the strips with the interior stencil points.
            comm.halo_sweep_fused([&mut *m, &mut *n], |bk, [mb, nb]| {
                T::apply(op, bk, mb, nb);
                ZEROS
            });

            for l in 0..k {
                let (gamma, delta) = (d[l], d[k + l]);
                if first[l] {
                    first[l] = false;
                    (alpha[l], beta[l]) = (gamma / delta, 0.0);
                } else {
                    beta[l] = gamma / gamma_old[l];
                    alpha[l] = gamma / (delta - beta[l] * gamma / alpha_old[l]);
                }
                nalpha[l] = -alpha[l];
                gamma_old[l] = gamma;
                alpha_old[l] = alpha[l];
            }

            // Sweep 3: all eight pipelined recurrences fused per point.
            let (bv, av, nav) = (&beta[..k], &alpha[..k], &nalpha[..k]);
            comm.for_each_block_fused(
                [
                    &mut *z, &mut *q, &mut *s, &mut *p, &mut *x, &mut *r, &mut *u, &mut *w,
                ],
                |bk, [zb, qb, sb, pb, xb, rb, ub, wb]| {
                    let (nb, mb) = (n.block(bk), m.block(bk));
                    let write = [zb, qb, sb, pb, xb, rb, ub, wb].map(|t| &mut **t);
                    update(PipeCgUpdate, [nb, mb], write, [bv, av, nav]);
                    ZEROS
                },
            );

            // The pipelined formulation checks every iteration for free, so
            // the recovery monitor sees every residual too; history entries
            // keep the check_every cadence.
            let cadence = ctl.iteration() % cfg.check_interval() == 0;
            for l in ctl.check(&d[2 * k..3 * k], cadence, x, x_good) {
                // The auxiliary recurrences restart from zero (the staging
                // vectors are): they may hold non-finite values from the
                // poisoned run.
                (gamma_old[l], alpha_old[l], first[l]) = (1.0, 1.0, true);
                let vecs = [
                    &mut *x, &mut *r, &mut *u, &mut *w, &mut *z, &mut *q, &mut *s, &mut *p,
                ];
                ctl.restart(l, x_good, vecs, |b, [sx, sr, su, sw, ..], lane| {
                    Self::start(op, pre, comm, b, [sx, sr, su, sw], lane);
                    None
                });
            }
        }
        // Every iteration reduced ‖r‖², so there is no standing sweep to settle.
        ctl.settle(None, x, x_good);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{fixture, rel_error};
    use super::super::ChronGear;
    use super::*;
    use crate::precond::{BlockEvp, Diagonal};
    use pop_grid::Grid;

    #[test]
    fn converges_and_matches_chrongear() {
        let g = Grid::gx1_scaled(41, 56, 48);
        let f = fixture(&g, 14, 12, 9000.0);
        let pre = Diagonal::new(&f.op);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 50_000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let mut x_pipe = DistVec::zeros(&f.layout);
        let st_pipe = PipelinedCg.solve(&f.op, &pre, &f.world, &f.b, &mut x_pipe, &cfg);
        assert!(st_pipe.converged, "{st_pipe:?}");
        assert!(rel_error(&f, &x_pipe) < 1e-8);

        let mut x_cg = DistVec::zeros(&f.layout);
        let st_cg = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut x_cg, &cfg);
        // Same Krylov space: iteration counts agree to a few steps (the
        // pipelined recurrences are mildly less round-off-stable).
        let diff = st_pipe.iterations.abs_diff(st_cg.iterations);
        assert!(
            diff <= st_cg.iterations / 5 + 5,
            "pipecg {} vs chrongear {}",
            st_pipe.iterations,
            st_cg.iterations
        );
    }

    #[test]
    fn one_fused_reduction_per_iteration_check_included() {
        let g = Grid::idealized_basin(20, 20, 500.0, 5.0e4);
        let f = fixture(&g, 10, 10, 3600.0);
        let pre = Diagonal::new(&f.op);
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 2000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let st = PipelinedCg.solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged);
        // One reduction per iteration + 1 for ‖b‖ — the convergence check is
        // fused in, unlike ChronGear's separate check reduction.
        assert_eq!(st.comm.allreduces as usize, st.iterations + 1);
        // Two halo updates per iteration + setup (initial residual + u₀):
        // the extra one is pipelining's structural cost.
        assert_eq!(st.comm.halo_updates as usize, st.iterations + 2);
    }

    #[test]
    fn works_with_evp_preconditioning() {
        let g = Grid::gx1_scaled(41, 56, 48);
        let f = fixture(&g, 14, 12, 9000.0);
        let diag = Diagonal::new(&f.op);
        let evp = BlockEvp::new(&f.op, 8, false);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 50_000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let mut x1 = DistVec::zeros(&f.layout);
        let st_diag = PipelinedCg.solve(&f.op, &diag, &f.world, &f.b, &mut x1, &cfg);
        let mut x2 = DistVec::zeros(&f.layout);
        let st_evp = PipelinedCg.solve(&f.op, &evp, &f.world, &f.b, &mut x2, &cfg);
        assert!(st_diag.converged && st_evp.converged);
        assert!(
            (st_evp.iterations as f64) < 0.7 * st_diag.iterations as f64,
            "EVP {} vs diag {}",
            st_evp.iterations,
            st_diag.iterations
        );
    }
}
