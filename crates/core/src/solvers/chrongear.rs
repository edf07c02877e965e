//! The Chronopoulos–Gear PCG variant (paper Algorithm 1) — POP's production
//! barotropic solver and the baseline of every experiment.
//!
//! ChronGear rearranges PCG so the two inner products of an iteration are
//! computed back-to-back and fused into **one** allreduce (`global_sum` of
//! the pair `(ρ̃, δ̃)`). That single reduction per iteration is exactly the
//! term that dominates the solver's cost at large core counts — the paper's
//! Figure 2 — and what P-CSI removes.

use super::control::copy_vec;
use super::kernels::{update, ChronGearUpdate};
use super::{
    residual_sweep, Control, Recurrence, SolveCtl, SolverWorkspace, TileKernels, MAX_BATCH, ZEROS,
};
use crate::precond::Preconditioner;
use crate::setup::SolverSpec;
use pop_comm::{blockwise, CommVec, Communicator};
use pop_stencil::NinePoint;

/// Chronopoulos–Gear preconditioned conjugate gradients.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChronGear;

impl ChronGear {
    /// The recurrence's start: `r₀ = b − A x₀`, returning the sweep, which
    /// carries `‖r₀‖²` (the caller zeroes `s` and `p` and resets `ρ₀ = 1`,
    /// `σ₀ = 0`).
    fn start<C: Communicator, T: TileKernels>(
        op: &NinePoint,
        comm: &C,
        b: &C::Vec<T>,
        [x, r]: [&mut C::Vec<T>; 2],
        lanes: &mut [SolveCtl],
    ) -> C::Sweep {
        let rr = residual_sweep(op, comm, b, x, r);
        lanes.iter_mut().for_each(|lane| lane.charge(1, 0)); // the initial residual
        rr
    }
}

impl Recurrence for ChronGear {
    const SPEC: SolverSpec = SolverSpec::ChronGear;

    /// Two block sweeps per iteration. **S** is the halo exchange of `r'`
    /// plus the stencil kernel that stores `z = B r'` and carries both
    /// inner-product partials; **U** is the four vector recurrences with the
    /// next `r' = M⁻¹ r` applied to the block while `r` is hot. A sweep
    /// carries a partial only on iterations that reduce it: when a check
    /// will read `‖r‖²` (on cadence, or at the iteration cap for the
    /// settlement) U sums it and leaves `r'` alone, and the preconditioner
    /// runs as its own sweep only once the check has said the solve goes on
    /// — so nothing is applied past the exit. One reduction per iteration
    /// (the fused ρ̃/δ̃ pair of every lane); bit-identical on every runtime,
    /// and per lane in a batch, to the whole-field reference solve the
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
        let masks = &b.layout().masks;

        // s₀ = 0 ; p₀ = 0 (zeroed by the workspace) ; ρ₀ = 1 ; σ₀ = 0.
        let [r, z, az, s, p, x_good] = ws.take(comm, ctl.model(), w);
        copy_vec(comm, x, x_good);
        let mut rr = Self::start(op, comm, b, [&mut *x, &mut *r], ctl.lanes());
        let (mut rho_old, mut sigma) = ([1.0; MAX_BATCH], [0.0; MAX_BATCH]);
        let (mut beta, mut alpha, mut nalpha) =
            ([0.0; MAX_BATCH], [0.0; MAX_BATCH], [0.0; MAX_BATCH]);
        // Does `z` hold M⁻¹ of the current `r`? (After `start`, and after
        // a U sweep that carried ‖r‖² instead, it does not.)
        let mut preconditioned = false;
        ctl.phase("setup");

        while ctl.next() {
            let it = ctl.iteration();

            // Step 4: preconditioning r' = M⁻¹ r, where the last U sweep
            // could not carry it.
            if !preconditioned {
                comm.for_each_group_fused([&mut *z], |g| {
                    let rs = g.blocks_of(&*r);
                    T::precond_group(pre, g.first, rs, g.operand(0));
                });
            }

            // Steps 5–9, sweep S: the single halo exchange of the
            // iteration, fused with the kernel computing z = B r' AND both
            // inner-product partials ρ̃ = rᵀr', δ̃ = (Br')ᵀr' (split-phase
            // runtimes overlap the strips with the interior stencil points).
            let dots = |bk: usize, [zb, azb]: &mut [&mut T; 2]| {
                let mut pt = ZEROS;
                T::apply_dots(op, bk, zb, azb, r.block(bk), &mut pt);
                pt
            };
            let d_sweep = comm.halo_sweep_fused([&mut *z, &mut *az], blockwise(dots));

            // Consuming every lane's pair is the iteration's ONE reduction.
            let d = comm.reduce_sweep(&d_sweep, 2 * w as u64);

            // Steps 10–12: recurrence scalars.
            for l in 0..w {
                let (rho, delta) = (d[l], d[w + l]);
                beta[l] = rho / rho_old[l];
                sigma[l] = delta - beta[l] * beta[l] * sigma[l];
                alpha[l] = rho / sigma[l];
                nalpha[l] = -alpha[l];
                rho_old[l] = rho;
            }

            // Steps 13–16, sweep U: all four updates, then either the next
            // iteration's r' = M⁻¹ r on the still-hot block or — if a check
            // is about to read it — the ‖r‖² partial.
            let checked = it % cfg.check_interval() == 0;
            let norm_wanted = checked || it == cfg.max_iters;
            let (bv, av, nav) = (&beta[..w], &alpha[..w], &nalpha[..w]);
            let u_sweep =
                comm.for_each_group_fused([&mut *s, &mut *p, &mut *x, &mut *r, &mut *z], |g| {
                    let first = g.first;
                    for (m, [sb, pb, xb, rb, zb]) in g.members() {
                        let bk = first + m;
                        let read = [&**zb, az.block(bk)];
                        update(ChronGearUpdate, read, [sb, pb, xb, rb], [bv, av, nav]);
                    }
                    if norm_wanted {
                        for (m, [.., rb, _], row) in g.members_with_rows() {
                            T::dot(rb, rb, &masks[first + m], row);
                        }
                    } else {
                        // The group's r' = M⁻¹ r at once: each block's
                        // reads only its own, already updated, r.
                        let (rs, zs) = g.operands(3, 4);
                        T::precond_group(pre, first, rs, zs);
                    }
                });
            preconditioned = !norm_wanted;
            if norm_wanted {
                rr = u_sweep;
            }

            // Step 17: periodic convergence check (one extra reduction).
            if checked {
                let red = ctl.reduce_check(&rr);
                for l in ctl.check(&red[..w], x, x_good) {
                    // s and p restart from zero: the staging vectors are.
                    (rho_old[l], sigma[l]) = (1.0, 0.0);
                    let vecs = [&mut *x, &mut *r, &mut *s, &mut *p];
                    ctl.restart(l, x_good, vecs, |b, [sx, sr, ..], lane| {
                        Self::start(op, comm, b, [sx, sr], lane)
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
    use super::super::{LinearSolver, SolverConfig};
    use super::*;
    use crate::precond::{BlockEvp, Diagonal, Identity};
    use pop_comm::DistVec;
    use pop_grid::Grid;

    #[test]
    fn converges_on_basin_with_identity() {
        let g = Grid::idealized_basin(24, 24, 800.0, 5.0e4);
        let f = fixture(&g, 12, 12, 3600.0);
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 5000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let st = ChronGear.solve(&f.op, &Identity, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged, "stats: {st:?}");
        assert!(rel_error(&f, &x) < 1e-9, "error {}", rel_error(&f, &x));
    }

    #[test]
    fn converges_on_global_grid_with_diagonal() {
        let g = Grid::gx1_scaled(19, 64, 56);
        let f = fixture(&g, 16, 14, 1800.0);
        let pre = Diagonal::new(&f.op);
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 5000,
            check_every: 5,
            ..SolverConfig::default()
        };
        let st = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged, "stats: {st:?}");
        assert!(st.final_relative_residual < 1e-12);
        assert!(rel_error(&f, &x) < 1e-8);
    }

    #[test]
    fn evp_preconditioning_reduces_iterations() {
        let g = Grid::gx1_scaled(19, 64, 56);
        // Production-stiff τ: at 1800 s this coarse grid is φ-dominated and
        // preconditioning barely matters; the paper's regime is stiffer.
        let f = fixture(&g, 16, 14, 12_000.0);
        let diag = Diagonal::new(&f.op);
        let evp = BlockEvp::new(&f.op, 8, false);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 5000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let mut x1 = DistVec::zeros(&f.layout);
        let st_diag = ChronGear.solve(&f.op, &diag, &f.world, &f.b, &mut x1, &cfg);
        let mut x2 = DistVec::zeros(&f.layout);
        let st_evp = ChronGear.solve(&f.op, &evp, &f.world, &f.b, &mut x2, &cfg);
        assert!(st_diag.converged && st_evp.converged);
        assert!(
            (st_evp.iterations as f64) < 0.6 * st_diag.iterations as f64,
            "EVP {} vs diagonal {} iterations",
            st_evp.iterations,
            st_diag.iterations
        );
    }

    #[test]
    fn one_fused_reduction_per_iteration() {
        let g = Grid::idealized_basin(20, 20, 500.0, 5.0e4);
        let f = fixture(&g, 10, 10, 3600.0);
        let pre = Diagonal::new(&f.op);
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 1000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let st = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged);
        // Reductions = 1 per iteration + 1 per convergence check + 1 for ‖b‖.
        let checks = st.iterations / cfg.check_every;
        assert_eq!(st.comm.allreduces as usize, st.iterations + checks + 1);
        // Halo updates = 1 per iteration + 1 for the initial residual.
        assert_eq!(st.comm.halo_updates as usize, st.iterations + 1);
    }

    #[test]
    fn residual_history_is_recorded_and_decreasing() {
        let g = Grid::idealized_basin(24, 24, 600.0, 5.0e4);
        let f = fixture(&g, 12, 12, 3600.0);
        let pre = Diagonal::new(&f.op);
        let mut x = DistVec::zeros(&f.layout);
        let cfg = SolverConfig {
            tol: 1e-11,
            max_iters: 5000,
            check_every: 5,
            ..SolverConfig::default()
        };
        let st = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut x, &cfg);
        assert!(st.converged);
        assert_eq!(st.residual_history.len(), st.iterations.div_ceil(5));
        // Iterations strictly increasing; overall residual trend downward.
        for w in st.residual_history.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        let first = st.residual_history.first().expect("nonempty").1;
        let last = st.residual_history.last().expect("nonempty").1;
        assert!(last < first);
        assert!(last < cfg.tol);
        assert_eq!(last, st.final_relative_residual);
    }

    #[test]
    fn warm_start_converges_faster() {
        let g = Grid::gx1_scaled(23, 48, 40);
        let f = fixture(&g, 12, 10, 1800.0);
        let pre = Diagonal::new(&f.op);
        let cfg = SolverConfig {
            tol: 1e-12,
            max_iters: 5000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let mut cold = DistVec::zeros(&f.layout);
        let st_cold = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut cold, &cfg);
        // Warm start: true solution perturbed slightly.
        let mut warm = f.x_true.clone();
        warm.scale(1.0 + 1e-6);
        let st_warm = ChronGear.solve(&f.op, &pre, &f.world, &f.b, &mut warm, &cfg);
        assert!(st_warm.iterations < st_cold.iterations);
    }
}
