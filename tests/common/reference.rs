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
//!
//! [`lanczos_reference`] is the same kind of oracle for the set-up: the
//! whole-field Lanczos loop the eigenbound estimate ran before it moved
//! onto the fused sweeps, kept operation for operation.

use pop_baro::prelude::*;
use pop_core::tridiag::extreme_eigenvalues;

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

/// The whole-field Lanczos estimate: seven whole-field passes per step
/// (halo, stencil apply, `pᵀAp`, `axpy`, `M⁻¹`, `rᵀz`, `xpay`) through
/// `CommWorld`'s own `dot`, `halo_update` and the `DistVec` updates.
/// `forced_steps` runs exactly that many steps (`tol` is then ignored), as
/// `estimate_bounds_fixed_steps` does; returns the bounds and the steps
/// taken.
pub fn lanczos_reference(
    op: &NinePoint,
    pre: &dyn Preconditioner,
    world: &CommWorld,
    cfg: &LanczosConfig,
    forced_steps: Option<usize>,
) -> (EigenBounds, usize) {
    assert!(cfg.max_steps >= 1, "need at least one Lanczos step");
    let layout = &op.layout;

    // Deterministic pseudo-random start "residual".
    let seed = cfg.seed;
    let mut r = DistVec::zeros(layout);
    r.fill_with(move |i, j| {
        let mut h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(seed);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h % 100_000) as f64 / 50_000.0 - 1.0
    });

    let mut z = DistVec::zeros(layout);
    pre.apply(world, &r, &mut z);
    let mut p = z.clone();
    let mut ap = DistVec::zeros(layout);
    let mut rz = world.dot(&r, &z);

    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut diag: Vec<f64> = Vec::new();
    let mut off: Vec<f64> = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    let mut current = (1.0, 1.0);
    let mut steps_taken = 0usize;

    for step in 1..=cfg.max_steps {
        world.halo_update(&mut p);
        op.apply(world, &p, &mut ap);
        let pap = world.dot(&p, &ap);
        if !(pap.is_finite() && pap > 0.0) || rz <= 0.0 {
            break; // breakdown: operator not SPD along this direction, or converged
        }
        let alpha = rz / pap;
        // (the CG solution update is skipped entirely — only the
        // coefficients are needed for the tridiagonal matrix)
        r.axpy(-alpha, &ap);
        pre.apply(world, &r, &mut z);
        let rz_new = world.dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;

        // Tridiagonal entries (CG ↔ Lanczos correspondence).
        let j = alphas.len(); // 0-based step index
        let d = 1.0 / alpha
            + if j == 0 {
                0.0
            } else {
                betas[j - 1] / alphas[j - 1]
            };
        diag.push(d);
        if beta > 0.0 {
            off.push(beta.sqrt() / alpha);
        } else {
            off.push(0.0);
        }
        alphas.push(alpha);
        betas.push(beta);
        steps_taken = step;

        p.xpay(&z, beta);

        // Extremes of the current tridiagonal (off has one trailing entry
        // that connects to the *next* step; exclude it).
        let e = &off[..diag.len() - 1];
        current = extreme_eigenvalues(&diag, e, 1e-10);

        if forced_steps.is_none() {
            if let Some((plo, phi)) = prev {
                let rel_lo = ((current.0 - plo) / current.0.abs().max(1e-300)).abs();
                let rel_hi = ((current.1 - phi) / current.1.abs().max(1e-300)).abs();
                if rel_lo < cfg.tol && rel_hi < cfg.tol && step >= 3 {
                    break;
                }
            }
            prev = Some(current);
        }

        if rz.abs() < 1e-280 {
            break; // start vector exhausted
        }
    }

    let (mut nu, mut mu) = current;
    // Widen: Lanczos extremes lie inside the true spectrum.
    nu *= 1.0 - cfg.safety_lo;
    mu *= 1.0 + cfg.safety_hi;
    // Guard rails for pathological inputs (degenerate layouts: all-land or
    // single-ocean-cell blocks can break the Lanczos process before any
    // usable tridiagonal exists). Healthy estimates pass through untouched —
    // the branches below only *compare*, so fault-free runs stay
    // bit-identical.
    if !(mu.is_finite() && mu > 0.0) {
        // No usable upper estimate at all: fall back to a generic interval.
        nu = 1e-6;
        mu = 2.0;
    } else {
        // The upper estimate is usable; salvage it. Floor ν at a tiny
        // positive multiple of μ so the interval stays valid (ν ≤ 0 or NaN
        // would make the Chebyshev scalars non-finite), and force μ > ν.
        let floor = mu * 1e-12;
        if !(nu.is_finite() && nu >= floor) {
            nu = floor;
        }
        if mu <= nu {
            mu = 2.0 * nu;
        }
    }
    debug_assert!(EigenBounds { nu, mu }.is_valid());
    (EigenBounds { nu, mu }, steps_taken)
}
