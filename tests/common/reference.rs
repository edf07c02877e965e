//! The whole-solve scalar reference both solvers are held to.
//!
//! One composition of the per-kernel references: the stencil through
//! `NinePoint::{apply,residual}_reference`, `M⁻¹` through the whole-field
//! `Preconditioner::apply`, every reduction through the world's
//! whole-vector `dot_many` / `norm2_sq`, fresh temporaries every solve and
//! no restarts — no fused sweep, no block temporary, no lane kernel. Each
//! solver's recurrence is its paper algorithm, operation for operation as
//! the fused loops compute it; the convergence check and the `SolveStats`
//! it reports are shared. The fused paths must land on it bit for bit: the
//! solution, the history, the final residual and, on the serial world, the
//! iteration, matvec, apply and communicator counts.

use pop_baro::prelude::*;

/// Each solver's own vectors and scalars, carried across iterations.
enum Recurrence {
    /// Algorithm 1: `z = r'`, `az = B r'`, the directions `s` and `p`.
    ChronGear {
        z: DistVec,
        az: DistVec,
        s: DistVec,
        p: DistVec,
        rho_old: f64,
        sigma: f64,
    },
    /// Algorithm 2: the Chebyshev scalars, `z = r'` and the step `Δx`.
    Pcsi {
        alpha: f64,
        gamma: f64,
        omega: f64,
        z: DistVec,
        dx: DistVec,
    },
}

impl Recurrence {
    /// The start from `x₀`, with `r = b − A x₀` already formed: ChronGear
    /// zeroes its directions (`ρ₀ = 1`, `σ₀ = 0`); P-CSI takes its first
    /// step `x₁ = x₀ + γ⁻¹ M⁻¹ r₀` and re-forms `r`. Returns the steps the
    /// start took, each one `M⁻¹` apply and one matvec like an iteration.
    fn start(
        kind: SolverKind,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        r: &mut DistVec,
    ) -> (Self, usize) {
        let zeros = || DistVec::zeros(&x.layout);
        match kind {
            SolverKind::ChronGear => {
                let rec = Recurrence::ChronGear {
                    z: zeros(),
                    az: zeros(),
                    s: zeros(),
                    p: zeros(),
                    rho_old: 1.0,
                    sigma: 0.0,
                };
                (rec, 0)
            }
            SolverKind::Pcsi(bounds) => {
                let (nu, mu) = (bounds.nu, bounds.mu);
                let alpha = 2.0 / (mu - nu);
                let beta = (mu + nu) / (mu - nu);
                let gamma = beta / alpha;
                let mut z = zeros();
                pre.apply(world, r, &mut z);
                let mut dx = z.clone();
                dx.scale(1.0 / gamma);
                x.axpy(1.0, &dx);
                op.residual_reference(world, x, b, r);
                let omega = 2.0 / gamma;
                let rec = Recurrence::Pcsi {
                    alpha,
                    gamma,
                    omega,
                    z,
                    dx,
                };
                (rec, 1)
            }
        }
    }

    /// One iteration: one `M⁻¹` apply and one matvec for either solver.
    fn step(
        &mut self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        world: &CommWorld,
        b: &DistVec,
        x: &mut DistVec,
        r: &mut DistVec,
    ) {
        match self {
            Recurrence::ChronGear {
                z,
                az,
                s,
                p,
                rho_old,
                sigma,
            } => {
                // r' = M⁻¹ r ; B r' after the iteration's one halo exchange.
                pre.apply(world, r, z);
                world.halo_update(z);
                op.apply_reference(world, z, az);
                // ρ̃ = rᵀr', δ̃ = (Br')ᵀr': the iteration's one reduction.
                let d = world.dot_many(&[(&*r, &*z), (&*az, &*z)]);
                let (rho, delta) = (d[0], d[1]);
                let beta = rho / *rho_old;
                *sigma = delta - beta * beta * *sigma;
                let alpha = rho / *sigma;
                s.xpay(z, beta);
                p.xpay(az, beta);
                x.axpy(alpha, s);
                r.axpy(-alpha, p);
                *rho_old = rho;
            }
            Recurrence::Pcsi {
                alpha,
                gamma,
                omega,
                z,
                dx,
            } => {
                // ω_k = 1/(γ − ω_{k−1}/(4α²)) ; Δx = ω M⁻¹r + (γω − 1) Δx.
                *omega = 1.0 / (*gamma - *omega / (4.0 * *alpha * *alpha));
                pre.apply(world, r, z);
                dx.scale(*gamma * *omega - 1.0);
                dx.axpy(*omega, z);
                x.axpy(1.0, dx);
                op.residual_reference(world, x, b, r);
            }
        }
    }
}

/// Solve `A x = b` (warm-started from `x`) with `kind` through the
/// reference composition, checking `‖r‖ < tol · ‖b‖` every
/// `cfg.check_every` iterations (0 read as 1). A non-finite check ends the
/// solve as diverged; a solve that reaches the cap off cadence settles with
/// one last norm.
pub fn solve_reference(
    kind: SolverKind,
    op: &NinePoint,
    pre: &dyn Preconditioner,
    world: &CommWorld,
    b: &DistVec,
    x: &mut DistVec,
    cfg: &SolverConfig,
) -> SolveStats {
    let before = world.stats();
    let bnorm = world.norm2_sq(b).sqrt().max(1e-300);
    let mut r = DistVec::zeros(&x.layout);
    op.residual_reference(world, x, b, &mut r);
    let (mut rec, start_steps) = Recurrence::start(kind, op, pre, world, b, x, &mut r);

    let mut iterations = 0usize;
    let mut converged = false;
    let mut final_rel = f64::INFINITY;
    let mut history = Vec::new();
    while iterations < cfg.max_iters {
        iterations += 1;
        rec.step(op, pre, world, b, x, &mut r);
        if iterations % cfg.check_every.max(1) == 0 {
            final_rel = world.norm2_sq(&r).sqrt() / bnorm;
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

    let outcome = if converged {
        SolveOutcome::Converged
    } else if final_rel.is_finite() {
        SolveOutcome::MaxIters
    } else {
        SolveOutcome::Diverged
    };
    SolveStats {
        solver: kind.name(),
        preconditioner: pre.name(),
        iterations,
        converged,
        outcome,
        restarts: 0,
        final_relative_residual: final_rel,
        matvecs: 1 + start_steps + iterations,
        precond_applies: start_steps + iterations,
        comm: world.stats().since(&before),
        residual_history: history,
    }
}
