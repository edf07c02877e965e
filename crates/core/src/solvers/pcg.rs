//! Textbook preconditioned conjugate gradients, with its *two* separate
//! global reductions per iteration.
//!
//! Kept as the historical baseline: ChronGear's contribution was fusing
//! these two reductions into one, and the solver-kernel ablation bench
//! measures exactly that difference.

use super::control::copy_vec;
use super::kernels::{update, PcgDirection, PcgUpdate};
use super::{
    residual_sweep, rhs_norm, Control, LinearSolver, Recurrence, SolveCtl, SolveStats,
    SolverConfig, SolverWorkspace, TileKernels, MAX_BATCH, ZEROS,
};
use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{CommVec, CommWorld, Communicator, DistVec};
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
    /// The recurrence's start: `r₀ = b − A x₀` (with `‖r₀‖²` in band 0,
    /// where the periodic check expects it), `z₀ = M⁻¹ r₀`, `p₀ = z₀`, and
    /// the setup reduction of every lane's `r₀ᵀz₀` into `rz`. Returns the
    /// residual sweep.
    #[allow(clippy::too_many_arguments)]
    fn start<C: Communicator, T: TileKernels>(
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        b: &C::Vec<T>,
        [x, r, z, p]: [&mut C::Vec<T>; 4],
        rz: &mut [f64],
        lanes: &mut [SolveCtl],
    ) -> C::Sweep {
        let masks = &b.layout().masks;
        let rr = residual_sweep(op, comm, b, x, r);
        // z₀ = M⁻¹ r₀ and p₀ = z₀ in one sweep, with the setup rᵀz partial.
        let rz_sweep = comm.for_each_block_fused([z, p], |bk, [zb, pb]| {
            T::precond(pre, bk, r.block(bk), zb);
            pb.raw_mut().copy_from_slice(zb.raw());
            let mut pt = ZEROS;
            T::dot(r.block(bk), zb, &masks[bk], &mut pt);
            pt
        });
        let w = rz.len();
        rz.copy_from_slice(&comm.reduce_sweep(&rz_sweep, w as u64)[..w]); // reduction #0
        lanes.iter_mut().for_each(|lane| lane.charge(1, 1));
        rr
    }
}

impl Recurrence for ClassicPcg {
    const SPEC: SolverSpec = SolverSpec::ClassicPcg;

    /// Three sweeps per iteration: the matvec with its `pᵀAp` partial; the
    /// `x`/`r` updates, preconditioning, and the `‖r‖²` / `rᵀz` partials;
    /// the direction update. Still two reductions per iteration — classic
    /// PCG's defining cost — but each one rides on a fused sweep.
    /// Bit-identical to [`ClassicPcg::solve_unfused`] on every runtime, and
    /// per lane in a batch.
    fn recur<C: Communicator, T: TileKernels>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        b: &C::Vec<T>,
        x: &mut C::Vec<T>,
        ws: &mut SolverWorkspace<C::Vec<T>>,
        ctl: &mut Control<'_, '_, C>,
    ) {
        let (comm, cfg, w) = (ctl.comm, ctl.cfg, ctl.width());
        let masks = &b.layout().masks;

        let [r, z, p, ap, x_good] = ws.take(comm, ctl.model(), w);
        copy_vec(comm, x, x_good);
        let mut rz = [0.0; MAX_BATCH];
        let (mut beta, mut alpha, mut nalpha) =
            ([0.0; MAX_BATCH], [0.0; MAX_BATCH], [0.0; MAX_BATCH]);
        let vecs = [&mut *x, &mut *r, &mut *z, &mut *p];
        let mut rr = Self::start(op, pre, comm, b, vecs, &mut rz[..w], ctl.lanes());
        ctl.phase("setup");

        while ctl.next() {
            // Sweep 1: the iteration's halo exchange fused with Ap and its
            // pᵀAp partial (split-phase runtimes overlap the strips with the
            // interior stencil points).
            let pap_sweep = comm.halo_sweep_fused([&mut *p, &mut *ap], |bk, [pb, apb]| {
                T::apply(op, bk, pb, apb);
                let mut pt = ZEROS;
                T::dot(pb, apb, &masks[bk], &mut pt);
                pt
            });

            // Reduction #1 of the iteration.
            let pap = comm.reduce_sweep(&pap_sweep, w as u64);
            for l in 0..w {
                alpha[l] = rz[l] / pap[l];
                nalpha[l] = -alpha[l];
            }

            // Sweep 2: x += αp, r −= αAp, z = M⁻¹r, and the ‖r‖² / rᵀz
            // partials, all while the block is cache-hot. ‖r‖² in band 0:
            // the periodic check re-reduces this sweep later.
            let (av, nav) = (&alpha[..w], &nalpha[..w]);
            let d_sweep =
                comm.for_each_block_fused([&mut *x, &mut *r, &mut *z], |bk, [xb, rb, zb]| {
                    update(PcgUpdate, [p.block(bk), ap.block(bk)], [xb, rb], [av, nav]);
                    T::precond(pre, bk, rb, zb);
                    let mut pt = ZEROS;
                    T::dot(rb, rb, &masks[bk], &mut pt[..w]);
                    T::dot(rb, zb, &masks[bk], &mut pt[w..2 * w]);
                    pt
                });

            // Reduction #2 of the iteration: both bands travel, rᵀz is read.
            let red = comm.reduce_sweep(&d_sweep, 2 * w as u64);
            rr = d_sweep;
            for l in 0..w {
                let rz_new = red[w + l];
                beta[l] = rz_new / rz[l];
                rz[l] = rz_new;
            }

            // Sweep 3: the direction update p = z + β p.
            let bv = &beta[..w];
            comm.for_each_block_fused([&mut *p], |bk, [pb]| {
                update(PcgDirection, [z.block(bk)], [pb], [bv]);
                ZEROS
            });

            if ctl.iteration() % cfg.check_interval() == 0 {
                let red = ctl.reduce_check(&rr);
                for l in ctl.check(&red[..w], true, x, x_good) {
                    let vecs = [&mut *x, &mut *r, &mut *z, &mut *p];
                    ctl.restart(l, x_good, vecs, |b, v, lane| {
                        Some(Self::start(op, pre, comm, b, v, &mut rz[l..=l], lane))
                    });
                }
            }
        }
        ctl.settle(Some(&rr), x, x_good);
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
