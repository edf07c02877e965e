//! Lanczos estimation of the extreme eigenvalues of `M⁻¹A`.
//!
//! P-CSI's Chebyshev recurrence needs the spectral interval `[ν, μ]` of the
//! preconditioned operator. Following the paper (§3), we run a few steps of
//! the preconditioned Lanczos process — realized through the CG coefficient
//! recurrences, whose `α`/`β` scalars define the Lanczos tridiagonal
//! matrix — and read the extreme eigenvalues off the tridiagonal with Sturm
//! bisection. The process stops once both estimates have settled to a
//! relative tolerance `ε` (paper default 0.15, [`LanczosConfig::default`];
//! the model, the service and the scaling sweep run the stricter
//! [`LanczosConfig::SETUP`]). What the estimate costs is measured, not
//! assumed: the benchmark ledger's `core.lanczos_ms` and
//! `core.lanczos_steps` rows.
//!
//! Because the Lanczos extremes converge *from inside* the spectrum, the
//! returned interval is widened by a safety factor before use.
//!
//! The loop runs on the fused engine the solvers use (DESIGN.md §7): each
//! step is three width-1 group sweeps — **S**, the halo exchange of `p`
//! and `Ap` with the `pᵀAp` partial riding the stencil kernel; **U**,
//! `r −= α·Ap`, `z = M⁻¹r` and the `rᵀz` partial while each group is hot;
//! **P**, `p = z + β·p` — with two reductions and one halo exchange per
//! step. The partials are the canonical row-major ocean-point ones, folded
//! in block order, so every `α`, `β` and bound is the whole-field loop's
//! (`tests/common/reference.rs`), bit for bit
//! (`tests/setup_equivalence.rs`).

use crate::precond::Preconditioner;
use crate::solvers::{update, Axpy, TileKernels, Xpay};
use crate::tridiag::extreme_eigenvalues;
use pop_comm::{
    blockwise, BlockVec, CommVec, CommWorld, Communicator, DistVec, MAX_SWEEP_PARTIALS,
};
use pop_stencil::NinePoint;

/// The spectral interval handed to P-CSI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenBounds {
    /// Lower bound ν on the spectrum of `M⁻¹A`.
    pub nu: f64,
    /// Upper bound μ.
    pub mu: f64,
}

impl EigenBounds {
    /// Whether the interval is usable by the Chebyshev recurrence:
    /// `0 < ν < μ < ∞`. `run` only ever returns valid bounds, but the
    /// fields are public, so hand-built bounds are checked before use.
    pub fn is_valid(&self) -> bool {
        self.nu.is_finite() && self.mu.is_finite() && self.nu > 0.0 && self.mu > self.nu
    }

    /// Condition-number estimate `μ/ν` of the preconditioned operator.
    ///
    /// Returns `+∞` for an invalid interval (ν ≤ 0, non-finite, or μ ≤ ν)
    /// instead of the raw quotient: `μ/ν` on a degenerate layout would be
    /// negative or NaN, which silently poisons anything ranking
    /// preconditioners by conditioning. An unusable interval is "infinitely
    /// badly conditioned", which sorts it last and survives `max`/`<`
    /// comparisons sanely.
    pub fn condition(&self) -> f64 {
        if self.is_valid() {
            self.mu / self.nu
        } else {
            f64::INFINITY
        }
    }
}

/// Configuration of the estimation run.
#[derive(Debug, Clone, Copy)]
pub struct LanczosConfig {
    /// Relative settling tolerance ε for the extreme-eigenvalue estimates
    /// (paper: 0.15 "works efficiently in both 1° and 0.1° POP").
    pub tol: f64,
    /// Hard cap on Lanczos steps.
    pub max_steps: usize,
    /// Relative widening of the returned interval (Lanczos approaches the
    /// true extremes from inside). The upper bound gets a generous margin:
    /// Chebyshev *diverges* if μ < λmax, while overestimating μ only costs a
    /// few percent in convergence rate. The lower bound margin is mild: ν
    /// only affects the rate.
    pub safety_hi: f64,
    pub safety_lo: f64,
    /// Seed of the deterministic pseudo-random start vector.
    pub seed: u64,
}

impl LanczosConfig {
    /// The set-up configuration of the model (`pop_ocean::SolverSetup`),
    /// the solve service and the scaling sweep: ε = 0.01 with up to 300
    /// steps. Stricter than the paper's 0.15 — on the synthetic grids the
    /// smallest eigenvalue of `M⁻¹A` settles more slowly (clustered low
    /// modes from the generated island field).
    pub const SETUP: LanczosConfig = LanczosConfig {
        tol: 0.01,
        max_steps: 300,
        safety_hi: 0.25,
        safety_lo: 0.05,
        seed: 0x5eed_1a2c,
    };
}

/// The paper's ε = 0.15, capped at 60 steps; the margins and seed are
/// [`LanczosConfig::SETUP`]'s.
impl Default for LanczosConfig {
    fn default() -> Self {
        LanczosConfig {
            tol: 0.15,
            max_steps: 60,
            ..Self::SETUP
        }
    }
}

/// Estimate `[ν, μ]` of `M⁻¹A`; returns the bounds and the number of Lanczos
/// steps actually taken.
pub fn estimate_bounds(
    op: &NinePoint,
    pre: &dyn Preconditioner,
    world: &CommWorld,
    cfg: &LanczosConfig,
) -> (EigenBounds, usize) {
    run(op, pre, world, cfg, None)
}

/// Run exactly `steps` Lanczos steps regardless of settling — used by the
/// Figure 3 experiment (P-CSI iteration count vs. Lanczos steps).
pub fn estimate_bounds_fixed_steps(
    op: &NinePoint,
    pre: &dyn Preconditioner,
    world: &CommWorld,
    steps: usize,
    seed: u64,
) -> EigenBounds {
    let cfg = LanczosConfig {
        max_steps: steps,
        tol: 0.0, // never settle early
        seed,
        ..Default::default()
    };
    run(op, pre, world, &cfg, Some(steps)).0
}

fn run(
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

    // z = M⁻¹ r, with the first rᵀz partial.
    let masks = &layout.masks;
    let mut z = DistVec::zeros(layout);
    let sweep = world.for_each_group_fused([&mut z], |g| {
        let first = g.first;
        BlockVec::precond_group(pre, first, g.blocks_of(&r), g.operand(0));
        for (m, [zb], row) in g.members_with_rows() {
            BlockVec::dot(r.block(first + m), zb, &masks[first + m], row);
        }
    });
    let mut rz = world.reduce_sweep(&sweep, 1)[0];
    let mut p = z.clone();
    let mut ap = DistVec::zeros(layout);

    let mut alphas: Vec<f64> = Vec::new();
    let mut betas: Vec<f64> = Vec::new();
    let mut diag: Vec<f64> = Vec::new();
    let mut off: Vec<f64> = Vec::new();
    let mut prev: Option<(f64, f64)> = None;
    let mut current = (1.0, 1.0);
    let mut steps_taken = 0usize;

    for step in 1..=cfg.max_steps {
        // Sweep P: the last step's p = z + β·p, deferred to here so a step
        // that ends the estimate does not pay for it.
        if let Some(&beta) = betas.last() {
            world.for_each_group_fused([&mut p], |g| {
                let first = g.first;
                for (m, [pb]) in g.members() {
                    update(Xpay, [z.block(first + m)], [pb], [&[beta]]);
                }
            });
        }

        // Sweep S: the step's one halo exchange, then Ap with the pᵀAp
        // partial riding the stencil kernel: its second band, `(Ap)ᵀp`
        // (the first, here `pᵀp`, is not read).
        let stencil = |bk: usize, [pb, apb]: &mut [&mut BlockVec; 2]| {
            let mut pt = [0.0; MAX_SWEEP_PARTIALS];
            BlockVec::apply_dots(op, bk, pb, apb, pb, &mut pt);
            pt
        };
        let s_sweep = world.halo_sweep_fused([&mut p, &mut ap], blockwise(stencil));
        let pap = world.reduce_sweep(&s_sweep, 1)[1];
        if !(pap.is_finite() && pap > 0.0) || rz <= 0.0 {
            break; // breakdown: operator not SPD along this direction, or converged
        }
        let alpha = rz / pap;

        // Sweep U: r −= α·Ap (the CG solution update is skipped entirely —
        // only the coefficients are needed for the tridiagonal matrix),
        // then z = M⁻¹ r and the rᵀz partial on the still-hot group.
        let nalpha = [-alpha];
        let u_sweep = world.for_each_group_fused([&mut r, &mut z], |g| {
            let first = g.first;
            for (m, [rb, _]) in g.members() {
                update(Axpy, [ap.block(first + m)], [rb], [&nalpha]);
            }
            let (rs, zs) = g.operands(0, 1);
            BlockVec::precond_group(pre, first, rs, zs);
            for (m, [rb, zb], row) in g.members_with_rows() {
                BlockVec::dot(rb, zb, &masks[first + m], row);
            }
        });
        let rz_new = world.reduce_sweep(&u_sweep, 1)[0];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockEvp, Diagonal, Identity};
    use pop_comm::DistLayout;
    use pop_grid::Grid;
    use pop_stencil::DenseMatrix;

    fn setup(seed: u64) -> (CommWorld, NinePoint) {
        let g = Grid::gx1_scaled(seed, 48, 40);
        let layout = DistLayout::build(&g, 12, 10);
        let world = CommWorld::serial();
        // A production-stiff time step (the coarse test grid needs a larger
        // τ than 1° POP to reach the same gravity-wave stiffness).
        let op = NinePoint::assemble(&g, &layout, &world, 12_000.0);
        (world, op)
    }

    /// Dense reference spectrum of diag(A)⁻¹A over ocean points.
    fn dense_extremes(g: &Grid, tau: f64) -> (f64, f64) {
        let layout = DistLayout::build(g, g.nx, g.ny);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(g, &layout, &world, tau);
        // Build dense preconditioned matrix D^{-1/2} A D^{-1/2} over ocean.
        let ocean: Vec<(usize, usize)> = (0..g.ny)
            .flat_map(|j| (0..g.nx).map(move |i| (i, j)))
            .filter(|&(i, j)| g.is_ocean(i, j))
            .collect();
        let n = ocean.len();
        let index: std::collections::HashMap<(usize, usize), usize> =
            ocean.iter().enumerate().map(|(k, &p)| (p, k)).collect();
        let blk = &op;
        let b = 0usize;
        let mut m = DenseMatrix::zeros(n);
        let d = |i: usize, j: usize| blk.a0.blocks[b].get(i, j);
        for (row, &(i, j)) in ocean.iter().enumerate() {
            let (i, j) = (i as isize, j as isize);
            let mut add = |ii: isize, jj: isize, v: f64| {
                if v == 0.0 {
                    return;
                }
                let ii = ii.rem_euclid(g.nx as isize) as usize;
                if jj < 0 || jj >= g.ny as isize {
                    return;
                }
                if let Some(&col) = index.get(&(ii, jj as usize)) {
                    let scaled =
                        v / (d(ocean[row].0, ocean[row].1).sqrt() * d(ii, jj as usize).sqrt());
                    let old = m.get(row, col);
                    m.set(row, col, old + scaled);
                }
            };
            let a = &op;
            add(i, j, a.a0.blocks[b].at(i, j));
            add(i, j + 1, a.an.blocks[b].at(i, j));
            add(i, j - 1, a.an.blocks[b].at(i, j - 1));
            add(i + 1, j, a.ae.blocks[b].at(i, j));
            add(i - 1, j, a.ae.blocks[b].at(i - 1, j));
            add(i + 1, j + 1, a.ane.blocks[b].at(i, j));
            add(i + 1, j - 1, a.ane.blocks[b].at(i, j - 1));
            add(i - 1, j + 1, a.ane.blocks[b].at(i - 1, j));
            add(i - 1, j - 1, a.ane.blocks[b].at(i - 1, j - 1));
        }
        // Power iteration for λmax; inverse-free λmin via power iteration on
        // (λmax·I − M).
        let power = |mat: &DenseMatrix, shift: f64, sign: f64| -> f64 {
            let mut v: Vec<f64> = (0..n)
                .map(|k| ((k * 37 + 11) % 101) as f64 / 50.0 - 1.0)
                .collect();
            let mut lam = 0.0;
            let mut w = vec![0.0; n];
            for _ in 0..3000 {
                mat.matvec(&v, &mut w);
                for k in 0..n {
                    w[k] = sign * w[k] + shift * v[k];
                }
                let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
                for k in 0..n {
                    v[k] = w[k] / norm;
                }
                lam = norm;
            }
            lam
        };
        let lmax = power(&m, 0.0, 1.0);
        let lmin = lmax - power(&m, lmax, -1.0);
        (lmin, lmax)
    }

    #[test]
    fn bounds_cover_dense_spectrum_on_small_grid() {
        let g = Grid::gx1_scaled(3, 24, 20);
        let layout = DistLayout::build(&g, 24, 20);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 1800.0);
        let pre = Diagonal::new(&op);
        let (bounds, steps) = estimate_bounds(
            &op,
            &pre,
            &world,
            &LanczosConfig {
                tol: 0.01,
                max_steps: 200,
                ..Default::default()
            },
        );
        let (lmin, lmax) = dense_extremes(&g, 1800.0);
        assert!(steps >= 3);
        assert!(
            bounds.nu <= lmin * 1.02 && bounds.mu >= lmax * 0.98,
            "bounds [{}, {}] vs dense [{lmin}, {lmax}]",
            bounds.nu,
            bounds.mu
        );
        // And not absurdly loose.
        assert!(bounds.mu <= lmax * 1.5);
        assert!(bounds.nu >= lmin / 5.0);
    }

    #[test]
    fn settles_in_few_steps_at_paper_tolerance() {
        let (world, op) = setup(7);
        let pre = Diagonal::new(&op);
        let (_, steps) = estimate_bounds(&op, &pre, &world, &LanczosConfig::default());
        assert!(
            (3..=30).contains(&steps),
            "expected a handful of steps at ε=0.15, got {steps}"
        );
    }

    #[test]
    fn evp_preconditioned_operator_better_conditioned() {
        let (world, op) = setup(9);
        let diag = Diagonal::new(&op);
        let evp = BlockEvp::new(&op, 8, false);
        let cfg = LanczosConfig {
            tol: 0.02,
            max_steps: 250,
            ..Default::default()
        };
        let (bd, _) = estimate_bounds(&op, &diag, &world, &cfg);
        let (be, _) = estimate_bounds(&op, &evp, &world, &cfg);
        assert!(
            be.condition() < 0.5 * bd.condition(),
            "EVP κ={} vs diagonal κ={}",
            be.condition(),
            bd.condition()
        );
    }

    /// Regression: `condition()` used to return the raw quotient `μ/ν`,
    /// which is *negative* for ν < 0 and NaN for the 0/0 interval — both
    /// poison any comparison ranking preconditioners. Degenerate intervals
    /// must read as infinitely badly conditioned instead.
    #[test]
    fn condition_is_infinite_for_degenerate_intervals() {
        let negative_nu = EigenBounds { nu: -1.0, mu: 2.0 };
        assert!(!negative_nu.is_valid());
        assert_eq!(negative_nu.condition(), f64::INFINITY);

        let zero_zero = EigenBounds { nu: 0.0, mu: 0.0 };
        assert!(!zero_zero.is_valid());
        assert_eq!(zero_zero.condition(), f64::INFINITY);

        let inverted = EigenBounds { nu: 2.0, mu: 1.0 };
        assert!(!inverted.is_valid());
        assert_eq!(inverted.condition(), f64::INFINITY);

        let nan_mu = EigenBounds {
            nu: 1.0,
            mu: f64::NAN,
        };
        assert_eq!(nan_mu.condition(), f64::INFINITY);

        // A healthy interval is untouched.
        let ok = EigenBounds { nu: 0.5, mu: 2.0 };
        assert!(ok.is_valid());
        assert_eq!(ok.condition(), 4.0);
    }

    #[test]
    fn fixed_steps_is_deterministic() {
        let (world, op) = setup(11);
        let pre = Identity;
        let a = estimate_bounds_fixed_steps(&op, &pre, &world, 8, 42);
        let b = estimate_bounds_fixed_steps(&op, &pre, &world, 8, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn more_steps_widen_or_hold_the_interval() {
        let (world, op) = setup(13);
        let pre = Diagonal::new(&op);
        let few = estimate_bounds_fixed_steps(&op, &pre, &world, 4, 1);
        let many = estimate_bounds_fixed_steps(&op, &pre, &world, 40, 1);
        // Lanczos extremes converge monotonically outward.
        assert!(many.mu >= few.mu * 0.999);
        assert!(many.nu <= few.nu * 1.001);
    }
}
