//! Textbook preconditioned conjugate gradients, with its *two* separate
//! global reductions per iteration.
//!
//! Kept as the historical baseline: ChronGear's contribution was fusing
//! these two reductions into one, and the solver-kernel ablation bench
//! measures exactly that difference.

use super::{
    copy_vec, masked_block_dot, rhs_norm, Check, CommSolver, LinearSolver, SolveCtl, SolveStats,
    SolverConfig, SolverWorkspace,
};
use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{BlockVec, CommVec, CommWorld, Communicator, DistVec, MAX_SWEEP_PARTIALS};
use pop_stencil::NinePoint;

/// Classic PCG (Hestenes–Stiefel with preconditioning).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassicPcg;

impl ClassicPcg {
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

        let mut r = DistVec::zeros(&layout);
        op.residual_reference(world, x, b, &mut r);
        let mut z = DistVec::zeros(&layout);
        pre.apply(world, &r, &mut z);
        let mut p = z.clone();
        let mut ap = DistVec::zeros(&layout);
        let mut rz = world.dot(&r, &z); // reduction #0 (setup)

        let mut matvecs = 1usize;
        let mut precond_applies = 1usize;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut final_rel = f64::INFINITY;
        let mut history: Vec<(usize, f64)> = Vec::new();

        while iterations < cfg.max_iters {
            iterations += 1;

            world.halo_update(&mut p);
            op.apply_reference(world, &p, &mut ap);
            matvecs += 1;

            // Reduction #1 of the iteration.
            let pap = world.dot(&p, &ap);
            let alpha = rz / pap;
            x.axpy(alpha, &p);
            r.axpy(-alpha, &ap);

            pre.apply(world, &r, &mut z);
            precond_applies += 1;

            // Reduction #2 of the iteration.
            let rz_new = world.dot(&r, &z);
            let beta = rz_new / rz;
            rz = rz_new;
            p.xpay(&z, beta);

            if iterations % cfg.check_interval() == 0 {
                let rnorm = world.norm2_sq(&r).sqrt();
                final_rel = rnorm / bnorm;
                history.push((iterations, final_rel));
                if final_rel < cfg.tol {
                    converged = true;
                    break;
                }
                if !final_rel.is_finite() {
                    break;
                }
            }
        }

        if final_rel.is_infinite() {
            final_rel = world.norm2_sq(&r).sqrt() / bnorm;
            converged = final_rel < cfg.tol;
            history.push((iterations, final_rel));
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

impl ClassicPcg {
    /// The recurrence's start: `r₀ = b − A x₀` (with `‖r₀‖²` in slot 0,
    /// where the periodic check expects it), `z₀ = M⁻¹ r₀`, `p₀ = z₀`, and
    /// the setup reduction `r₀ᵀz₀`. Returns the standing residual sweep and
    /// `r₀ᵀz₀`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start<C: Communicator>(
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<BlockVec>,
        x: &mut C::Vec<BlockVec>,
        r: &mut C::Vec<BlockVec>,
        z: &mut C::Vec<BlockVec>,
        p: &mut C::Vec<BlockVec>,
        ctl: &mut SolveCtl,
    ) -> (C::Sweep, f64) {
        let masks = &b.layout().masks;
        let rr_sweep = comm.halo_sweep_fused(x, [&mut *r], |bk, xv, [rb]| {
            let mut pt = [0.0; MAX_SWEEP_PARTIALS];
            pt[0] = op.residual_block_into(bk, xv.block(bk), b.block(bk), rb, &masks[bk]);
            pt
        });
        // z₀ = M⁻¹ r₀ and p₀ = z₀ in one sweep, with the setup rᵀz partial.
        let rz_sweep = comm.for_each_block_fused([z, p], |bk, [zb, pb]| {
            pre.apply_block(bk, r.block(bk), zb);
            for j in 0..pb.ny {
                pb.interior_row_mut(j).copy_from_slice(zb.interior_row(j));
            }
            let mut pt = [0.0; MAX_SWEEP_PARTIALS];
            pt[0] = masked_block_dot(r.block(bk), zb, &masks[bk]);
            pt
        });
        let rz = comm.reduce_sweep(&rz_sweep, 1)[0]; // reduction #0 (setup)
        ctl.charge(1, 1);
        (rr_sweep, rz)
    }
}

impl CommSolver for ClassicPcg {
    /// The fused loop: matvec + pᵀAp partial in one sweep; then x/r updates,
    /// preconditioning, and the ‖r‖² / rᵀz partials in a second sweep; then
    /// the direction update. Still two reductions per iteration — classic
    /// PCG's defining cost — but each one now rides on a fused sweep.
    /// Bit-identical to [`ClassicPcg::solve_unfused`] on every runtime.
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

        let [r, z, p, ap, x_good] = ws.take(comm, b, 1);
        copy_vec(comm, x, x_good);

        let mut rr_sweep;
        'recurrence: loop {
            let mut rz;
            (rr_sweep, rz) = Self::start(op, pre, comm, b, x, r, z, p, &mut ctl);
            ctl.obs.phase("setup", || comm.stats());

            while ctl.iterations() < cfg.max_iters {
                ctl.tick();

                // Sweep 1: the iteration's halo exchange fused with Ap and
                // its pᵀAp partial (split-phase runtimes overlap the
                // strips with the interior stencil points).
                let pap_sweep = comm.halo_sweep_fused(p, [&mut *ap], |bk, pv, [apb]| {
                    let mask = &layout.masks[bk];
                    op.apply_block_into(bk, pv.block(bk), apb, mask);
                    let mut pt = [0.0; MAX_SWEEP_PARTIALS];
                    pt[0] = masked_block_dot(pv.block(bk), apb, mask);
                    pt
                });

                // Reduction #1 of the iteration.
                let pap = comm.reduce_sweep(&pap_sweep, 1)[0];
                let alpha = rz / pap;
                let nalpha = -alpha;

                // Sweep 2: x += αp, r −= αAp, z = M⁻¹r, and the ‖r‖² / rᵀz
                // partials, all while the block is cache-hot. ‖r‖² in lane 0:
                // the periodic check re-reduces this sweep later.
                let d_sweep =
                    comm.for_each_block_fused([&mut *x, &mut *r, &mut *z], |bk, [xb, rb, zb]| {
                        let mask = &layout.masks[bk];
                        let nx = xb.nx;
                        for j in 0..xb.ny {
                            let prow = p.block(bk).interior_row(j);
                            let aprow = ap.block(bk).interior_row(j);
                            let xr = xb.interior_row_mut(j);
                            let rrow = rb.interior_row_mut(j);
                            for i in 0..nx {
                                xr[i] += alpha * prow[i];
                                rrow[i] += nalpha * aprow[i];
                            }
                        }
                        pre.apply_block(bk, rb, zb);
                        let mut pt = [0.0; MAX_SWEEP_PARTIALS];
                        pt[0] = masked_block_dot(rb, rb, mask);
                        pt[1] = masked_block_dot(rb, zb, mask);
                        pt
                    });

                // Reduction #2 of the iteration (consumes rᵀz).
                let rz_new = comm.reduce_sweep(&d_sweep, 1)[1];
                rr_sweep = d_sweep;
                let beta = rz_new / rz;
                rz = rz_new;

                // Sweep 3: the direction update p = z + β p.
                comm.for_each_block_fused([&mut *p], |bk, [pb]| {
                    for j in 0..pb.ny {
                        let zr = z.block(bk).interior_row(j);
                        let prow = pb.interior_row_mut(j);
                        for i in 0..prow.len() {
                            prow[i] = zr[i] + beta * prow[i];
                        }
                    }
                    [0.0; MAX_SWEEP_PARTIALS]
                });

                if ctl.iterations() % cfg.check_interval() == 0 {
                    match ctl.check_sweep(comm, cfg, &rr_sweep, x, x_good) {
                        Check::Continue | Check::Snapshot => {}
                        Check::Restart => continue 'recurrence,
                        Check::Done(_) => break 'recurrence,
                    }
                }
            }
            break;
        }
        ctl.finish(comm, cfg, Some(&rr_sweep), x, x_good)
    }
}

impl LinearSolver for ClassicPcg {
    fn name(&self) -> &'static str {
        SolverSpec::ClassicPcg.label()
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
    use crate::precond::Diagonal;
    use pop_grid::Grid;

    #[test]
    fn converges_and_matches_chrongear_solution() {
        let g = Grid::gx1_scaled(31, 56, 48);
        let f = fixture(&g, 14, 12, 1800.0);
        let pre = Diagonal::new(&f.op);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 5000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let mut x_pcg = DistVec::zeros(&f.layout);
        let st_pcg = ClassicPcg.solve(&f.op, &pre, &f.world, &f.b, &mut x_pcg, &cfg);
        let mut x_cg = DistVec::zeros(&f.layout);
        let st_cg = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut x_cg, &cfg);
        assert!(st_pcg.converged && st_cg.converged);
        assert!(rel_error(&f, &x_pcg) < 1e-8);
        assert!(rel_error(&f, &x_cg) < 1e-8);
        // Same Krylov method: iteration counts agree to a few steps.
        let diff = st_pcg.iterations.abs_diff(st_cg.iterations);
        assert!(
            diff <= 3,
            "pcg {} vs chrongear {}",
            st_pcg.iterations,
            st_cg.iterations
        );
    }

    #[test]
    fn two_reductions_per_iteration() {
        let g = Grid::idealized_basin(16, 16, 300.0, 5.0e4);
        let f = fixture(&g, 8, 8, 3600.0);
        let pre = Diagonal::new(&f.op);
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 1000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let st = ClassicPcg.solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged);
        let checks = st.iterations / cfg.check_every;
        // 2 per iteration + 2 at setup (‖b‖ and r'z) + 1 per check.
        assert_eq!(st.comm.allreduces as usize, 2 * st.iterations + 2 + checks);
    }
}
