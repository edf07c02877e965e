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

use super::{
    copy_vec, rhs_norm, Check, CommSolver, LinearSolver, SolveCtl, SolveStats, SolverConfig,
    SolverWorkspace,
};
use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{BlockVec, CommVec, CommWorld, Communicator, DistVec, MAX_SWEEP_PARTIALS};
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
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start<C: Communicator>(
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<BlockVec>,
        x: &mut C::Vec<BlockVec>,
        r: &mut C::Vec<BlockVec>,
        u: &mut C::Vec<BlockVec>,
        w: &mut C::Vec<BlockVec>,
        ctl: &mut SolveCtl,
    ) {
        let masks = &b.layout().masks;
        comm.halo_sweep_fused(x, [&mut *r], |bk, xv, [rb]| {
            op.residual_block_into(bk, xv.block(bk), b.block(bk), rb, &masks[bk]);
            [0.0; MAX_SWEEP_PARTIALS]
        });
        comm.for_each_block_fused([&mut *u], |bk, [ub]| {
            pre.apply_block(bk, r.block(bk), ub);
            [0.0; MAX_SWEEP_PARTIALS]
        });
        comm.halo_sweep_fused(u, [w], |bk, uv, [wb]| {
            op.apply_block_into(bk, uv.block(bk), wb, &masks[bk]);
            [0.0; MAX_SWEEP_PARTIALS]
        });
        ctl.charge(2, 1);
    }
}

impl CommSolver for PipelinedCg {
    /// The fused loop: the three dot partials (γ, δ, ‖r‖²) and the
    /// preconditioner ride one sweep, the matvec a second, and all *eight*
    /// pipelined recurrences collapse into a single third sweep — the fusion
    /// win is largest here because the pipelined formulation is the most
    /// vector-heavy. Bit-identical to [`PipelinedCg::solve_unfused`] on
    /// every runtime.
    fn solve_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<BlockVec>,
        x: &mut C::Vec<BlockVec>,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace<C::Vec<BlockVec>>,
    ) -> SolveStats {
        let mut ctl = SolveCtl::new(cfg, self.name(), pre.name(), comm.stats());
        ctl.bnorm = rhs_norm(comm, b);
        let layout = std::sync::Arc::clone(b.layout());

        let [r, u, w, m, n, z, q, s, p, x_good] = ws.take(comm, b, 1);
        copy_vec(comm, x, x_good);

        'recurrence: loop {
            // The auxiliary recurrences must start from zero: after a restart
            // they may hold non-finite values from the poisoned run.
            z.zero_fill();
            q.zero_fill();
            s.zero_fill();
            p.zero_fill();
            Self::start(op, pre, comm, b, x, r, u, w, &mut ctl);

            let mut gamma_old = 1.0f64;
            let mut alpha_old = 1.0f64;
            let mut first = true;
            ctl.obs.phase("setup", || comm.stats());

            while ctl.iterations() < cfg.max_iters {
                ctl.tick();

                // Sweep 1: the fused reduction's three partials — γ = (r,u),
                // δ = (w,u), ‖r‖² — plus the preconditioner application
                // m = M⁻¹w, all in one pass over the block. On a real machine
                // the allreduce is posted asynchronously and progresses WHILE
                // the preconditioner and matvec run — which is why it is
                // flagged overlappable for the cost model.
                let d_sweep = comm.for_each_block_fused([&mut *m], |bk, [mb]| {
                    let mask = &layout.masks[bk];
                    let (rb, ub, wb) = (r.block(bk), u.block(bk), w.block(bk));
                    let nx = rb.nx;
                    let (mut g, mut dl, mut rs) = (0.0, 0.0, 0.0);
                    for j in 0..rb.ny {
                        let rrow = rb.interior_row(j);
                        let urow = ub.interior_row(j);
                        let wrow = wb.interior_row(j);
                        let mrow = &mask[j * nx..(j + 1) * nx];
                        for i in 0..nx {
                            if mrow[i] != 0 {
                                g += rrow[i] * urow[i];
                                dl += wrow[i] * urow[i];
                                rs += rrow[i] * rrow[i];
                            }
                        }
                    }
                    pre.apply_block(bk, wb, mb);
                    let mut pt = [0.0; MAX_SWEEP_PARTIALS];
                    pt[0] = g;
                    pt[1] = dl;
                    pt[2] = rs;
                    pt
                });
                // PipeCG's convergence check rides the fused per-iteration
                // reduction, so the reduce itself is attributed to "check"
                // and everything else to "iterate".
                ctl.obs.phase("iterate", || comm.stats());
                let d = comm.reduce_sweep(&d_sweep, 3);
                ctl.obs.phase("check", || comm.stats());
                let (gamma, delta, rr) = (d[0], d[1], d[2]);

                // Sweep 2: n = A m, its halo exchange fused so a
                // split-phase runtime overlaps the strips with the
                // interior stencil points.
                comm.halo_sweep_fused(m, [&mut *n], |bk, mv, [nb]| {
                    op.apply_block_into(bk, mv.block(bk), nb, &layout.masks[bk]);
                    [0.0; MAX_SWEEP_PARTIALS]
                });

                let (alpha, beta) = if first {
                    first = false;
                    (gamma / delta, 0.0)
                } else {
                    let beta = gamma / gamma_old;
                    let alpha = gamma / (delta - beta * gamma / alpha_old);
                    (alpha, beta)
                };
                let nalpha = -alpha;

                // Sweep 3: all eight pipelined recurrences fused per point. The
                // direction updates read the *old* w and u of the same point
                // (written only afterwards), exactly as the separate whole-vector
                // passes did.
                comm.for_each_block_fused(
                    [
                        &mut *z, &mut *q, &mut *s, &mut *p, &mut *x, &mut *r, &mut *u, &mut *w,
                    ],
                    |bk, [zb, qb, sb, pb, xb, rb, ub, wb]| {
                        let (nb, mb) = (n.block(bk), m.block(bk));
                        let nx = zb.nx;
                        for j in 0..zb.ny {
                            let nr = nb.interior_row(j);
                            let mr = mb.interior_row(j);
                            let zr = zb.interior_row_mut(j);
                            let qr = qb.interior_row_mut(j);
                            let sr = sb.interior_row_mut(j);
                            let pr = pb.interior_row_mut(j);
                            let xr = xb.interior_row_mut(j);
                            let rrow = rb.interior_row_mut(j);
                            let ur = ub.interior_row_mut(j);
                            let wr = wb.interior_row_mut(j);
                            for i in 0..nx {
                                let zv = nr[i] + beta * zr[i];
                                let qv = mr[i] + beta * qr[i];
                                let sv = wr[i] + beta * sr[i];
                                let pv = ur[i] + beta * pr[i];
                                zr[i] = zv;
                                qr[i] = qv;
                                sr[i] = sv;
                                pr[i] = pv;
                                xr[i] += alpha * pv;
                                rrow[i] += nalpha * sv;
                                ur[i] += nalpha * qv;
                                wr[i] += nalpha * zv;
                            }
                        }
                        [0.0; MAX_SWEEP_PARTIALS]
                    },
                );

                gamma_old = gamma;
                alpha_old = alpha;

                // The pipelined formulation checks every iteration for free, so
                // the recovery monitor sees every residual too; history entries
                // keep the check_every cadence.
                let cadence = ctl.iterations() % cfg.check_interval() == 0;
                match ctl.check_vec(comm, cfg, rr, cadence, x, x_good) {
                    Check::Continue | Check::Snapshot => {}
                    Check::Restart => continue 'recurrence,
                    Check::Done(_) => break 'recurrence,
                }
            }
            break;
        }
        // Every iteration reduced ‖r‖², so there is no standing sweep to settle.
        ctl.finish(comm, cfg, None, x, x_good)
    }
}

impl LinearSolver for PipelinedCg {
    fn name(&self) -> &'static str {
        SolverSpec::PipelinedCg.label()
    }

    /// Dynamic-dispatch entry point: the generic fused loop driven by the
    /// shared-memory world.
    fn solve_ws(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        cfg: &SolverConfig,
        ws: &mut SolverWorkspace,
    ) -> SolveStats {
        self.solve_comm(op, pre, world, b, x, cfg, ws)
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
