//! The barotropic mode: one implicit free-surface solve per time step.

use crate::setup::{SolverChoice, SolverSetup};
use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::solvers::{SolveStats, SolverConfig};
use pop_grid::{Grid, GRAVITY};
use pop_stencil::NinePoint;
use std::sync::Arc;

/// The implicit free-surface barotropic mode.
///
/// Owns the assembled operator `A = φ·area − ∇·H∇` (SPD form of the paper's
/// Eq. 1 with `φ = 1/(gτ²)`), a configured solver, and the surface-height
/// state; [`BarotropicMode::step`] performs one solve
///
/// ```text
/// A ηⁿ⁺¹ = ψ,   ψ = φ·area·(ηⁿ − τ ∇·(H u*))
/// ```
///
/// warm-started from `ηⁿ` exactly as POP does, and accumulates the solver
/// statistics the experiments read off.
pub struct BarotropicMode {
    pub layout: Arc<DistLayout>,
    pub op: NinePoint,
    setup: SolverSetup,
    cfg: SolverConfig,
    /// Current surface height (the warm start for the next solve).
    pub eta: DistVec,
    /// φ·area per point, the factor that turns the forecast into ψ.
    phi_area: DistVec,
    /// The right-hand side ψ, rewritten row by row every step. Its halo is
    /// never written and stays zero (the solvers read `b`'s interior only).
    rhs: DistVec,
    pub tau: f64,
    /// Cumulative iterations over all steps.
    pub total_iterations: usize,
    /// Number of solves performed.
    pub solves: usize,
    /// Stats of the most recent solve.
    pub last_stats: Option<SolveStats>,
}

impl BarotropicMode {
    /// Assemble the operator for time step `tau` on `grid` (blocks of
    /// `bx × by`) and set up the chosen solver, with standard gravity.
    pub fn new(
        grid: &Grid,
        world: &CommWorld,
        bx: usize,
        by: usize,
        tau: f64,
        choice: SolverChoice,
        cfg: SolverConfig,
    ) -> Self {
        Self::with_gravity(grid, world, bx, by, tau, choice, cfg, GRAVITY)
    }

    /// Like [`BarotropicMode::new`] with an explicit gravitational
    /// acceleration (reduced-gravity mode for the eddying runs).
    #[allow(clippy::too_many_arguments)]
    pub fn with_gravity(
        grid: &Grid,
        world: &CommWorld,
        bx: usize,
        by: usize,
        tau: f64,
        choice: SolverChoice,
        cfg: SolverConfig,
        gravity: f64,
    ) -> Self {
        let layout = DistLayout::build(grid, bx, by);
        let op = NinePoint::assemble_with_gravity(grid, &layout, world, tau, gravity);
        let setup = SolverSetup::new(choice, &op, world);
        let eta = DistVec::zeros(&layout);
        let mut phi_area = DistVec::zeros(&layout);
        let phi = 1.0 / (gravity * tau * tau);
        phi_area.fill_with(|i, j| phi * grid.metrics.area(i, j));
        let rhs = DistVec::zeros(&layout);
        BarotropicMode {
            layout,
            op,
            setup,
            cfg,
            eta,
            phi_area,
            rhs,
            tau,
            total_iterations: 0,
            solves: 0,
            last_stats: None,
        }
    }

    pub fn choice(&self) -> SolverChoice {
        self.setup.choice()
    }

    /// Advance the surface height given the *forecast* field
    /// `f = ηⁿ − τ ∇·(H u*)` (what η would be without the implicit gravity
    /// wave correction). Returns the solve statistics.
    pub fn step(&mut self, world: &CommWorld, forecast: &DistVec) -> &SolveStats {
        // ψ = φ·area · forecast
        for ((out, f), pa) in self
            .rhs
            .blocks
            .iter_mut()
            .zip(&forecast.blocks)
            .zip(&self.phi_area.blocks)
        {
            for j in 0..out.ny {
                let row = out.interior_row_mut(j);
                for ((o, fv), pv) in row
                    .iter_mut()
                    .zip(f.interior_row(j))
                    .zip(pa.interior_row(j))
                {
                    *o = fv * pv;
                }
            }
        }
        let st = self
            .setup
            .solve(&self.op, world, &self.rhs, &mut self.eta, &self.cfg);
        self.total_iterations += st.iterations;
        self.solves += 1;
        self.last_stats = Some(st);
        self.last_stats.as_ref().expect("just set")
    }

    /// Mean iterations per solve so far.
    pub fn mean_iterations(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.solves as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_grid::Grid;

    fn mode(choice: SolverChoice, tol: f64) -> (CommWorld, BarotropicMode) {
        let g = Grid::idealized_basin(32, 32, 1500.0, 5.0e4);
        let world = CommWorld::serial();
        let cfg = SolverConfig {
            tol,
            max_iters: 20_000,
            check_every: 10,
            ..SolverConfig::default()
        };
        let m = BarotropicMode::new(&g, &world, 16, 16, 2400.0, choice, cfg);
        (world, m)
    }

    #[test]
    fn constant_forecast_is_a_fixed_point() {
        // With f = c (a uniform surface and no divergence), the solution of
        // A η = φ·area·c is η = c: the Laplacian of a constant vanishes in
        // the interior ... but NOT near the basin walls, where the Dirichlet
        // ring pulls the solution down. Use the interior to check.
        let (world, mut m) = mode(SolverChoice::ChronGearDiag, 1e-13);
        let mut f = DistVec::zeros(&m.layout);
        f.fill_with(|_, _| 0.5);
        m.step(&world, &f);
        let eta = m.eta.to_global();
        // Far-interior point of the 32×32 basin.
        let center = eta[16 * 32 + 16];
        assert!(
            (center - 0.5).abs() < 0.05,
            "interior surface should track the forecast: {center}"
        );
    }

    #[test]
    fn warm_start_reduces_iterations_across_steps() {
        let (world, mut m) = mode(SolverChoice::ChronGearDiag, 1e-12);
        let mut f = DistVec::zeros(&m.layout);
        f.fill_with(|i, j| ((i as f64) * 0.2).sin() * ((j as f64) * 0.15).cos());
        let first = m.step(&world, &f).iterations;
        // Same forecast again: warm start should converge almost instantly.
        let second = m.step(&world, &f).iterations;
        assert!(
            second * 2 < first,
            "warm start: first {first}, second {second}"
        );
    }

    #[test]
    fn all_solvers_produce_the_same_surface() {
        let mut results = Vec::new();
        for choice in SolverChoice::PAPER_SET {
            let (world, mut m) = mode(choice, 1e-13);
            let mut f = DistVec::zeros(&m.layout);
            f.fill_with(|i, j| ((i * j) as f64 * 0.01).sin());
            m.step(&world, &f);
            results.push(m.eta.to_global());
        }
        let scale = results[0]
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()))
            .max(1e-30);
        for r in &results[1..] {
            for (a, b) in results[0].iter().zip(r) {
                assert!((a - b).abs() < 1e-8 * scale, "solvers disagree: {a} vs {b}");
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let (world, mut m) = mode(SolverChoice::PcsiDiag, 1e-11);
        let mut f = DistVec::zeros(&m.layout);
        f.fill_with(|i, _| (i as f64 * 0.3).cos());
        m.step(&world, &f);
        m.step(&world, &f);
        assert_eq!(m.solves, 2);
        assert!(m.total_iterations > 0);
        assert!(m.mean_iterations() > 0.0);
        assert!(m.last_stats.as_ref().expect("stats").converged);
    }
}
