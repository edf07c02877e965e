//! P-CSI: the Preconditioned Classical Stiefel Iteration (paper Algorithm 2).
//!
//! A Chebyshev-type iteration over the spectral interval `[ν, μ]` of the
//! preconditioned operator `M⁻¹A`. Its recurrence uses only *precomputed*
//! scalars — no inner products — so the loop body contains **zero** global
//! reductions; the only reductions are the periodic convergence checks. That
//! is the entire scalability story of the paper: per iteration, ChronGear
//! pays `(4 + log p)·α` in latency while P-CSI pays `4α` (Eqs. 2 and 3).
//!
//! The price is (a) needing eigenvalue bounds (supplied cheaply by
//! [`crate::lanczos`]) and (b) more iterations than CG for the same
//! tolerance, which is why P-CSI only wins at scale — exactly the crossover
//! the paper measures and the reproduction tracks.

use super::control::copy_vec;
use super::kernels::{split_temps, update, with_temps, CsiStart, CsiUpdate};
use super::{
    residual_sweep, Control, Recurrence, SolveCtl, SolverWorkspace, TileKernels, MAX_BATCH,
};
use crate::lanczos::EigenBounds;
use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{CommVec, Communicator};
use pop_stencil::NinePoint;

/// Preconditioned Classical Stiefel Iteration.
#[derive(Debug, Clone, Copy)]
pub struct Pcsi {
    pub bounds: EigenBounds,
}

impl Pcsi {
    /// A P-CSI solver for a spectrum inside `[bounds.nu, bounds.mu]`.
    pub fn new(bounds: EigenBounds) -> Self {
        assert!(
            bounds.nu > 0.0 && bounds.mu > bounds.nu,
            "invalid eigenvalue bounds: {bounds:?}"
        );
        Pcsi { bounds }
    }
}

impl Pcsi {
    /// The Chebyshev scalars `(α, γ)` of Algorithm 2, step 1:
    /// `α = 2/(μ−ν)`, `γ = β/α = (μ+ν)/2`.
    fn chebyshev(&self) -> (f64, f64) {
        let (nu, mu) = (self.bounds.nu, self.bounds.mu);
        let alpha = 2.0 / (mu - nu);
        let beta = (mu + nu) / (mu - nu);
        (alpha, beta / alpha)
    }

    /// The recurrence's start: `r₀ = b − A x₀ ; Δx₀ = γ⁻¹ M⁻¹ r₀ ;
    /// x₁ = x₀ + Δx₀ ; r₁ = b − A x₁`, returning the last sweep, which
    /// carries `‖r₁‖²` (the caller resets `ω` to `ω₀ = 2/γ`). Entered from
    /// the caller's `x₀` and again, at width 1, from a lane's last good
    /// snapshot on every restart (DESIGN.md §10); the other solvers'
    /// `start` functions likewise.
    #[allow(clippy::too_many_arguments)]
    fn start<C: Communicator, T: TileKernels>(
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        inv_gamma: f64,
        b: &C::Vec<T>,
        [x, r, dx]: [&mut C::Vec<T>; 3],
        lanes: &mut [SolveCtl],
    ) -> C::Sweep {
        // r₀ = b − A x₀ (halo exchange fused with the residual sweep so a
        // split-phase communicator can hide the strip flight time). Nothing
        // reads ‖r₀‖², so the sweep runs without the fold.
        comm.halo_sweep_fused([&mut *x, &mut *r], |g| {
            let first = g.first;
            for (m, [xb, rb]) in g.members() {
                let bk = first + m;
                T::residual_no_norm(op, bk, xb, b.block(bk), rb);
            }
        });

        // Δx₀ = γ⁻¹ M⁻¹ r₀ ; x₁ = x₀ + Δx₀, fused into one sweep, M⁻¹ r₀
        // of a whole group in block temporaries.
        let w = x.width();
        comm.for_each_group_fused([dx, &mut *x], |g| {
            with_temps(g.shape(), w, |temps| {
                let (_, zs) = split_temps(temps, g.owned());
                T::precond_group(pre, g.first, g.blocks_of(&*r), zs);
                for (i, (_, [dxb, xb])) in g.members().enumerate() {
                    let zb = &temps[i][1];
                    update(CsiStart, [zb], [dxb, xb], [&[inv_gamma; MAX_BATCH]]);
                }
            });
        });

        // r₁ = b − A x₁, with ‖r‖² riding along as a per-block partial.
        let rr = residual_sweep(op, comm, b, x, r);
        lanes.iter_mut().for_each(|lane| lane.charge(2, 1));
        rr
    }
}

impl Recurrence for Pcsi {
    const SPEC: SolverSpec = SolverSpec::Pcsi;

    /// One sweep per iteration between checks. Iteration `k`'s residual has
    /// no consumer of its own unless a check reads it (or the cap ends the
    /// solve), so it is deferred and fused into iteration `k + 1`'s sweep:
    /// exchange `x`, then `r = b − A x`, `z = M⁻¹ r`, `Δx = ωz + cΔx` and
    /// `x += Δx`, back to back per block while the tiles are cache-hot.
    /// Each block's residual reads its own pre-update storage plus a halo
    /// ring the exchange filled before any block's update ran, so every
    /// lane's arithmetic is the split sweeps' exactly; nothing reads its
    /// `‖r‖²`, so it runs without the fold, and nothing reads it after its
    /// block's update, so it lives in a block temporary
    /// ([`kernels::with_temps`](super::kernels::with_temps)), as `z` does in
    /// every sweep: the deferred sweep streams only `x`, `Δx` and `b`. On
    /// check iterations and at the cap the residual runs eagerly as its own
    /// sweep into the whole-field `r`, carrying `‖r‖²`, for the check and
    /// the next sweep to read; that check is P-CSI's only reduction, so
    /// between checks the loop performs *zero* global reductions — under a
    /// rank runtime, literally zero reduction messages — which is the
    /// paper's entire scalability story. Bit-identical on every runtime, and
    /// per lane in a batch, to the whole-field reference solve the
    /// integration tests hold it to (`tests/common/reference.rs`).
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
        for lane in ctl.lanes() {
            lane.obs.eigen(self.bounds.nu, self.bounds.mu);
        }
        let (alpha, gamma) = self.chebyshev();
        let inv_gamma = 1.0 / gamma;

        let [r, dx, x_good] = ws.take(comm, ctl.model(), w);
        copy_vec(comm, x, x_good);

        // Per-lane recurrence depth: a restart resets one lane to ω₀.
        let mut omega = [2.0 / gamma; MAX_BATCH];
        let mut c = [0.0; MAX_BATCH];
        let vecs = [&mut *x, &mut *r, &mut *dx];
        let mut rr = Self::start(op, pre, comm, inv_gamma, b, vecs, ctl.lanes());
        ctl.phase("setup");

        let mut deferred = false;
        while ctl.next() {
            let it = ctl.iteration();
            // Step 5: the iterated weight ω_k = 1/(γ − ω_{k−1}/(4α²)).
            for s in 0..w {
                omega[s] = 1.0 / (gamma - omega[s] / (4.0 * alpha * alpha));
                c[s] = gamma * omega[s] - 1.0;
            }
            let (om, cs) = (&omega[..w], &c[..w]);

            // Steps 6–8: r' = M⁻¹ r, Δx = ω r' + c Δx and x += Δx, led,
            // when deferred, by the previous iteration's residual (steps
            // 9–10: its halo exchange is the iteration's only message).
            // `r'`, and a deferred residual, live in block temporaries.
            // A group's residuals are all computed before any of its
            // blocks updates `x`: each reads only its own block's
            // pre-update tile and the ring the exchange filled.
            if deferred {
                comm.halo_sweep_fused([&mut *x, &mut *dx], |g| {
                    let (first, owned) = (g.first, g.owned());
                    with_temps(g.shape(), w, |temps| {
                        for (i, (m, [xb, _])) in g.members().enumerate() {
                            let bk = first + m;
                            T::residual_no_norm(op, bk, xb, b.block(bk), &mut temps[i][0]);
                        }
                        let (rs, zs) = split_temps(temps, owned);
                        T::precond_group(pre, first, rs, zs);
                        for (i, (_, [xb, dxb])) in g.members().enumerate() {
                            update(CsiUpdate, [&temps[i][1]], [dxb, xb], [om, cs]);
                        }
                    });
                });
            } else {
                comm.for_each_group_fused([&mut *dx, &mut *x], |g| {
                    with_temps(g.shape(), w, |temps| {
                        let (_, zs) = split_temps(temps, g.owned());
                        T::precond_group(pre, g.first, g.blocks_of(&*r), zs);
                        for (i, (_, [dxb, xb])) in g.members().enumerate() {
                            update(CsiUpdate, [&temps[i][1]], [dxb, xb], [om, cs]);
                        }
                    });
                });
            }

            // Steps 9–10 eagerly, where something reads ‖r‖² this
            // iteration: the check below, or the settlement at the cap.
            let checked = it % cfg.check_interval() == 0;
            deferred = !checked && it != cfg.max_iters;
            if !deferred {
                rr = residual_sweep(op, comm, b, x, r);
            }

            // Step 11: periodic convergence check — P-CSI's only reduction
            // (the partials stay local until the check consumes them as a
            // global norm; *that* is the allreduce). One allreduce carries
            // every lane's residual: flat in k.
            if checked {
                let red = ctl.reduce_check(&rr);
                for l in ctl.check(&red[..w], x, x_good) {
                    omega[l] = 2.0 / gamma;
                    ctl.restart(l, x_good, [&mut *x, &mut *r, &mut *dx], |b, v, lane| {
                        Self::start(op, pre, comm, inv_gamma, b, v, lane)
                    });
                }
            }
        }
        ctl.settle(&rr, x, x_good);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{fixture, rel_error};
    use super::super::{ChronGear, LinearSolver, SolverConfig};
    use super::*;
    use crate::lanczos::{estimate_bounds, LanczosConfig};
    use crate::precond::{BlockEvp, Diagonal};
    use pop_comm::DistVec;
    use pop_grid::Grid;

    #[test]
    fn converges_with_diagonal_preconditioning() {
        let g = Grid::gx1_scaled(19, 64, 56);
        let f = fixture(&g, 16, 14, 1800.0);
        let pre = Diagonal::new(&f.op);
        let (bounds, _) = estimate_bounds(&f.op, &pre, &f.world, &LanczosConfig::default());
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 20_000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let st = Pcsi::new(bounds).solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged, "stats: {st:?}");
        assert!(rel_error(&f, &x) < 1e-8, "error {}", rel_error(&f, &x));
    }

    #[test]
    fn needs_more_iterations_than_chrongear_but_fewer_reductions() {
        let g = Grid::gx1_scaled(19, 64, 56);
        let f = fixture(&g, 16, 14, 1800.0);
        let pre = Diagonal::new(&f.op);
        let (bounds, _) = estimate_bounds(&f.op, &pre, &f.world, &LanczosConfig::default());
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 20_000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let mut x1 = DistVec::zeros(&f.layout);
        let st_cg = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut x1, &cfg);
        let mut x2 = DistVec::zeros(&f.layout);
        let st_csi = Pcsi::new(bounds).solve(&f.op, &pre, &f.world, &f.b, &mut x2, &cfg);
        assert!(st_cg.converged && st_csi.converged);
        // The paper: K_pcsi > K_cg ...
        assert!(st_csi.iterations > st_cg.iterations);
        // ... but P-CSI reduces far less. Reductions per iteration:
        let cg_per_iter = st_cg.comm.allreduces as f64 / st_cg.iterations as f64;
        let csi_per_iter = st_csi.comm.allreduces as f64 / st_csi.iterations as f64;
        assert!(cg_per_iter > 1.0);
        assert!(
            csi_per_iter < 0.2,
            "P-CSI should only reduce at convergence checks: {csi_per_iter}"
        );
    }

    #[test]
    fn evp_preconditioning_cuts_pcsi_iterations() {
        let g = Grid::gx1_scaled(19, 64, 56);
        // Production-stiff τ: at 1800 s this coarse grid is φ-dominated and
        // preconditioning barely matters; the paper's regime is stiffer.
        let f = fixture(&g, 16, 14, 12_000.0);
        let diag = Diagonal::new(&f.op);
        let evp = BlockEvp::new(&f.op, 8, false);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 20_000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let (b_diag, _) = estimate_bounds(&f.op, &diag, &f.world, &LanczosConfig::default());
        let (b_evp, _) = estimate_bounds(&f.op, &evp, &f.world, &LanczosConfig::default());
        let mut x1 = DistVec::zeros(&f.layout);
        let st_diag = Pcsi::new(b_diag).solve(&f.op, &diag, &f.world, &f.b, &mut x1, &cfg);
        let mut x2 = DistVec::zeros(&f.layout);
        let st_evp = Pcsi::new(b_evp).solve(&f.op, &evp, &f.world, &f.b, &mut x2, &cfg);
        assert!(st_diag.converged && st_evp.converged);
        assert!(
            (st_evp.iterations as f64) < 0.6 * st_diag.iterations as f64,
            "EVP {} vs diagonal {}",
            st_evp.iterations,
            st_diag.iterations
        );
    }

    #[test]
    fn zero_loop_reductions_accounting() {
        let g = Grid::idealized_basin(20, 20, 400.0, 5.0e4);
        let f = fixture(&g, 10, 10, 3600.0);
        let pre = Diagonal::new(&f.op);
        let (bounds, _) = estimate_bounds(&f.op, &pre, &f.world, &LanczosConfig::default());
        f.world.reset_stats();
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 5000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let st = Pcsi::new(bounds).solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged);
        let checks = st.iterations / cfg.check_every;
        assert_eq!(
            st.comm.allreduces as usize,
            checks + 1, // + 1 for ‖b‖ at setup
            "P-CSI must reduce only at convergence checks"
        );
    }

    #[test]
    #[should_panic(expected = "invalid eigenvalue bounds")]
    fn rejects_bad_bounds() {
        let _ = Pcsi::new(EigenBounds { nu: 2.0, mu: 1.0 });
    }
}
