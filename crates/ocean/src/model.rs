//! The mini-POP model: wind-driven gyres, implicit free surface, and a
//! layered prognostic temperature field.
//!
//! # Discretization
//!
//! Velocities live at the B-grid corner (U) points, exactly as in POP, and
//! the surface-height gradient and the flux divergence are the *adjoint
//! pair* whose composition is the nine-point energy Laplacian assembled in
//! `pop-stencil`:
//!
//! ```text
//! (Gη)ₓ|corner = (η_SE + η_NE − η_SW − η_NW) / (2·dxu)
//! DIV(hu·u)|cell = Σ_corners sₓ·(hu·dyu/2)·u + s_y·(hu·dxu/2)·v
//! DIV(hu·Gη) ≡ A_lap η            (exact, by construction)
//! ```
//!
//! With that identity the implicit free-surface step is a genuine backward
//! Euler for the gravity waves — unconditionally stable — and the total
//! ocean volume is conserved to round-off (`Σ_cells DIV = 0` pairwise).
//! The B-grid checkerboard mode of `η` is in the null space of `G`, so it
//! never forces the velocities, and because `DIV`'s range is orthogonal to
//! that null space it is never excited either.
//!
//! A corner is *active* when its `hu > 0`, which by POP's min-depth rule
//! means all four surrounding T cells are ocean — so corner-centered physics
//! never straddles the coastline.

use crate::barotropic::BarotropicMode;
use crate::forcing::{coriolis, double_gyre_wind, reference_temperature};
use crate::setup::SolverChoice;
use pop_comm::{CommWorld, DistVec};
use pop_core::solvers::SolverConfig;
use pop_grid::Grid;

/// Configuration of a [`MiniPop`] run.
#[derive(Debug, Clone)]
pub struct MiniPopConfig {
    /// Barotropic time step (s).
    pub tau: f64,
    /// Gravitational acceleration (m/s²). Full gravity for barotropic-solver
    /// experiments; a reduced value (`g' ≈ 0.03`) turns the model into a
    /// 1.5-layer reduced-gravity ocean whose mesoscale eddies are resolved
    /// on O(20 km) grids — the chaotic regime the ensemble runs need.
    pub gravity: f64,
    /// Process-block extents for the solver layout.
    pub bx: usize,
    pub by: usize,
    /// Solver/preconditioner combination in the loop.
    pub solver: SolverChoice,
    /// Barotropic convergence tolerance (POP default 1e-13; §6 sweeps this).
    pub tolerance: f64,
    /// Peak wind stress (N/m²).
    pub wind_tau0: f64,
    /// Linear bottom drag (1/s).
    pub drag: f64,
    /// Lateral viscosity (m²/s).
    pub viscosity: f64,
    /// Temperature diffusivity (m²/s).
    pub kappa: f64,
    /// Restoring rate of temperature towards the reference profile (1/s).
    pub restoring: f64,
    /// Smagorinsky eddy-viscosity coefficient (dimensionless, ~0.1–0.3):
    /// a deformation-dependent viscosity `ν_e = C·dx²·|D|` that absorbs the
    /// enstrophy cascade of the centered advection at the grid scale while
    /// leaving the large-scale chaotic eddies alive.
    pub smagorinsky: f64,
    /// Thermal-expansion buoyancy coupling (m/s² per °C per meter of depth):
    /// the depth-mean temperature gradient accelerates the flow. This closes
    /// the T → momentum loop so temperature perturbations can grow
    /// chaotically — the property the §6 ensemble method rests on.
    pub buoyancy: f64,
    /// Number of temperature layers.
    pub nlev: usize,
}

impl MiniPopConfig {
    /// Defaults tuned for a vigorous (eddying) double gyre on O(50-100 km)
    /// grids.
    pub fn default_for(grid: &Grid) -> Self {
        let min_dx = grid
            .metrics
            .dxt
            .iter()
            .chain(grid.metrics.dyt.iter())
            .copied()
            .fold(f64::INFINITY, f64::min);
        // Advective CFL margin at 2.5 m/s; gravity waves are implicit.
        let tau = (0.1 * min_dx / 2.5).clamp(300.0, 7200.0);
        MiniPopConfig {
            tau,
            gravity: pop_grid::GRAVITY,
            bx: (grid.nx / 4).max(8),
            by: (grid.ny / 4).max(8),
            solver: SolverChoice::ChronGearDiag,
            tolerance: 1e-13,
            wind_tau0: 0.3,
            drag: 5.0e-7,
            viscosity: 0.002 * min_dx,
            kappa: 0.001 * min_dx,
            restoring: 2.0e-8,
            smagorinsky: 0.2,
            buoyancy: 1.0e-5,
            nlev: 4,
        }
    }
}

impl MiniPopConfig {
    /// The chaotic (eddying) configuration used by the §6 verification
    /// experiments: a 1.5-layer reduced-gravity double gyre in the spirit of
    /// Jiang, Shen & Ghil (1995). The deformation radius √(g'H)/f ≈ 40 km is
    /// resolved on O(20 km) grids, nonlinear recirculation is strong, and
    /// tiny temperature perturbations grow through the buoyancy coupling.
    pub fn eddying_for(grid: &Grid) -> Self {
        let mut cfg = Self::default_for(grid);
        cfg.gravity = 0.03;
        cfg.wind_tau0 = 0.4;
        cfg.drag = 5.0e-8;
        let min_dx = grid
            .metrics
            .dxt
            .iter()
            .chain(grid.metrics.dyt.iter())
            .copied()
            .fold(f64::INFINITY, f64::min);
        cfg.viscosity = 0.006 * min_dx; // Munk layer ~ Δx at β ≈ 2e-11
        cfg.smagorinsky = 0.1;
        cfg.kappa = 0.002 * min_dx;
        cfg.buoyancy = 5.0e-6;
        cfg.tau = (0.25 * min_dx / 2.5).clamp(300.0, 7200.0);
        cfg
    }
}

/// A captured prognostic state of [`MiniPop`] (see [`MiniPop::snapshot`]).
#[derive(Debug, Clone)]
pub struct ModelState {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub eta: Vec<f64>,
    pub temp: Vec<Vec<f64>>,
    pub steps: usize,
}

/// The reduced-physics ocean model. See the crate and module docs for what
/// it is (and is not) meant to capture.
pub struct MiniPop {
    pub grid: Grid,
    pub config: MiniPopConfig,
    pub barotropic: BarotropicMode,
    /// Zonal/meridional barotropic velocity at U (corner) points (m/s);
    /// zero at inactive corners (`hu == 0`).
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    /// Surface height at T points (m), global copy of the solver state.
    pub eta: Vec<f64>,
    /// Temperature layers at T points (°C), each `nx·ny`.
    pub temp: Vec<Vec<f64>>,
    /// Steps taken.
    pub steps: usize,
    // scratch
    u_star: Vec<f64>,
    v_star: Vec<f64>,
    forecast: DistVec,
    scratch: Vec<f64>,
    tbar: Vec<f64>,
}

impl MiniPop {
    pub fn new(grid: Grid, config: MiniPopConfig, world: &CommWorld) -> Self {
        // Convergence checked every iteration: the verification experiments
        // sweep tolerances three orders of magnitude apart, and a coarse
        // check cadence would make nearby tolerances stop at the same check
        // and produce bit-identical trajectories.
        let solver_cfg = SolverConfig {
            tol: config.tolerance,
            max_iters: 50_000,
            check_every: 1,
            ..SolverConfig::default()
        };
        let barotropic = BarotropicMode::with_gravity(
            &grid,
            world,
            config.bx.min(grid.nx),
            config.by.min(grid.ny),
            config.tau,
            config.solver,
            solver_cfg,
            config.gravity,
        );
        let n = grid.nx * grid.ny;
        let mut temp = Vec::with_capacity(config.nlev);
        for k in 0..config.nlev {
            let zf = (k as f64 + 0.5) / config.nlev as f64;
            let mut layer = vec![0.0; n];
            for j in 0..grid.ny {
                let yf = (j as f64 + 0.5) / grid.ny as f64;
                for i in 0..grid.nx {
                    if grid.mask[j * grid.nx + i] {
                        layer[j * grid.nx + i] = reference_temperature(yf, zf);
                    }
                }
            }
            temp.push(layer);
        }
        let forecast = DistVec::zeros(&barotropic.layout);
        MiniPop {
            grid,
            config,
            barotropic,
            u: vec![0.0; n],
            v: vec![0.0; n],
            eta: vec![0.0; n],
            temp,
            steps: 0,
            u_star: vec![0.0; n],
            v_star: vec![0.0; n],
            forecast,
            scratch: vec![0.0; n],
            tbar: vec![0.0; n],
        }
    }

    /// Wrapped cell/corner index, or `None` past a non-periodic edge.
    #[inline]
    fn nb(&self, i: isize, j: isize) -> Option<usize> {
        let (nx, ny) = (self.grid.nx as isize, self.grid.ny as isize);
        if j < 0 || j >= ny {
            return None;
        }
        let i = if i >= 0 && i < nx {
            i
        } else if self.grid.periodic_x {
            i.rem_euclid(nx)
        } else {
            return None;
        };
        Some((j * nx + i) as usize)
    }

    /// Is corner `k` active (all four surrounding cells ocean)?
    #[inline]
    fn corner_active(&self, k: usize) -> bool {
        self.grid.hu[k] > 0.0
    }

    /// Corner-lattice neighbour value with zero-gradient fallback at
    /// inactive corners (free-slip-ish lateral condition).
    #[inline]
    fn corner_or(&self, field: &[f64], i: isize, j: isize, center: f64) -> f64 {
        match self.nb(i, j) {
            Some(k) if self.corner_active(k) => field[k],
            _ => center,
        }
    }

    /// The 4-cell gradient of a T-point field at corner `(i, j)` (must be
    /// active). Returns `(∂/∂x, ∂/∂y)`.
    #[inline]
    fn corner_grad(&self, field: &[f64], i: usize, j: usize) -> (f64, f64) {
        let nx = self.grid.nx;
        let ie = if i + 1 < nx { i + 1 } else { 0 }; // active ⇒ wrap is legal
        let k_sw = j * nx + i;
        let k_se = j * nx + ie;
        let k_nw = (j + 1) * nx + i;
        let k_ne = (j + 1) * nx + ie;
        let gx = (field[k_se] + field[k_ne] - field[k_sw] - field[k_nw])
            / (2.0 * self.grid.metrics.dxu[k_sw]);
        let gy = (field[k_nw] + field[k_ne] - field[k_sw] - field[k_se])
            / (2.0 * self.grid.metrics.dyu[k_sw]);
        (gx, gy)
    }

    /// Advance the model one barotropic time step.
    pub fn step(&mut self, world: &CommWorld) {
        let (nx, ny) = (self.grid.nx, self.grid.ny);
        let tau = self.config.tau;
        let n = nx * ny;

        // --- 0. depth-mean temperature (buoyancy source) ---
        let inv_nlev = 1.0 / self.config.nlev as f64;
        for k in 0..n {
            self.tbar[k] = self.temp.iter().map(|l| l[k]).sum::<f64>() * inv_nlev;
        }

        // --- 1. explicit momentum at corners ---
        for j in 0..ny {
            let lat = self.grid.metrics.lat_t[j];
            let f_cor = coriolis(lat);
            let yf = (j as f64 + 1.0) / ny as f64; // corner sits between rows
            let wind = double_gyre_wind(self.config.wind_tau0, yf);
            let (sin_f, cos_f) = (f_cor * tau).sin_cos();
            for i in 0..nx {
                let k = j * nx + i;
                if !self.corner_active(k) {
                    self.u_star[k] = 0.0;
                    self.v_star[k] = 0.0;
                    continue;
                }
                let (ii, jj) = (i as isize, j as isize);
                let dx = self.grid.metrics.dxu[k];
                let dy = self.grid.metrics.dyu[k];
                let (uc, vc) = (self.u[k], self.v[k]);

                let u_e = self.corner_or(&self.u, ii + 1, jj, uc);
                let u_w = self.corner_or(&self.u, ii - 1, jj, uc);
                let u_n = self.corner_or(&self.u, ii, jj + 1, uc);
                let u_s = self.corner_or(&self.u, ii, jj - 1, uc);
                let v_e = self.corner_or(&self.v, ii + 1, jj, vc);
                let v_w = self.corner_or(&self.v, ii - 1, jj, vc);
                let v_n = self.corner_or(&self.v, ii, jj + 1, vc);
                let v_s = self.corner_or(&self.v, ii, jj - 1, vc);

                // Nonlinear advection (centered) — the chaos source.
                let adv_u = uc * (u_e - u_w) / (2.0 * dx) + vc * (u_n - u_s) / (2.0 * dy);
                let adv_v = uc * (v_e - v_w) / (2.0 * dx) + vc * (v_n - v_s) / (2.0 * dy);
                // Lateral friction: constant background plus Smagorinsky
                // deformation-dependent eddy viscosity.
                let lap_u = (u_e - 2.0 * uc + u_w) / (dx * dx) + (u_n - 2.0 * uc + u_s) / (dy * dy);
                let lap_v = (v_e - 2.0 * vc + v_w) / (dx * dx) + (v_n - 2.0 * vc + v_s) / (dy * dy);
                let d_t = (u_e - u_w) / (2.0 * dx) - (v_n - v_s) / (2.0 * dy);
                let d_s = (v_e - v_w) / (2.0 * dx) + (u_n - u_s) / (2.0 * dy);
                let nu_eff = self.config.viscosity
                    + self.config.smagorinsky * dx * dy * (d_t * d_t + d_s * d_s).sqrt();
                // Wind stress felt by the column.
                let depth = self.grid.hu[k].max(50.0);
                let wind_u = wind / (1025.0 * depth);
                // Buoyancy: depth-mean temperature gradient (all 4 cells of
                // an active corner are ocean, so the gradient is clean).
                let (gtx, gty) = self.corner_grad(&self.tbar, i, j);
                let buoy_u = self.config.buoyancy * depth * gtx;
                let buoy_v = self.config.buoyancy * depth * gty;

                let du =
                    uc + tau * (-adv_u - self.config.drag * uc + nu_eff * lap_u + wind_u + buoy_u);
                let dv = vc + tau * (-adv_v - self.config.drag * vc + nu_eff * lap_v + buoy_v);
                // Exact inertial rotation (neutrally stable Coriolis).
                self.u_star[k] = cos_f * du + sin_f * dv;
                self.v_star[k] = -sin_f * du + cos_f * dv;
            }
        }

        // --- 2. forecast surface: f = ηⁿ − (τ/area)·DIV(hu·u*) ---
        // DIV is the exact adjoint of the corner gradient; see module docs.
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                if !self.grid.mask[k] {
                    self.scratch[k] = 0.0;
                    continue;
                }
                let (ii, jj) = (i as isize, j as isize);
                let mut div = 0.0;
                // (corner offset, sₓ for this cell, s_y for this cell)
                let corners = [
                    ((ii, jj), -1.0, -1.0),       // cell is SW of its NE corner
                    ((ii - 1, jj), 1.0, -1.0),    // cell is SE of its NW corner
                    ((ii, jj - 1), -1.0, 1.0),    // cell is NW of its SE corner
                    ((ii - 1, jj - 1), 1.0, 1.0), // cell is NE of its SW corner
                ];
                for ((ci, cj), sx, sy) in corners {
                    if let Some(ck) = self.nb(ci, cj) {
                        let hu = self.grid.hu[ck];
                        if hu > 0.0 {
                            div += sx * hu * self.grid.metrics.dyu[ck] * 0.5 * self.u_star[ck]
                                + sy * hu * self.grid.metrics.dxu[ck] * 0.5 * self.v_star[ck];
                        }
                    }
                }
                // `div` here is the adjoint form, equal to −area·∇·(H u):
                // on u = Gη it reproduces +A_lap η (the positive-definite
                // Laplacian), so the *physical* forecast adds it.
                let area = self.grid.metrics.area(i, j);
                self.scratch[k] = self.eta[k] + tau * div / area;
            }
        }
        {
            let f_ref = &self.scratch;
            self.forecast.fill_with(|i, j| f_ref[j * nx + i]);
        }

        // --- 3. implicit solve for ηⁿ⁺¹ (the solver under test) ---
        self.barotropic.step(world, &self.forecast);
        self.barotropic.eta.to_global_into(&mut self.eta);

        // --- 4. velocity correction by the new surface gradient ---
        for j in 0..ny {
            for i in 0..nx {
                let k = j * nx + i;
                if !self.corner_active(k) {
                    self.u[k] = 0.0;
                    self.v[k] = 0.0;
                    continue;
                }
                let (gx, gy) = self.corner_grad(&self.eta, i, j);
                self.u[k] = self.u_star[k] - self.config.gravity * tau * gx;
                self.v[k] = self.v_star[k] - self.config.gravity * tau * gy;
            }
        }

        // --- 5. temperature: upwind advection + diffusion + restoring ---
        let nlev = self.config.nlev;
        for kl in 0..nlev {
            let scale = 1.0 - 0.8 * (kl as f64 + 0.5) / nlev as f64;
            let zf = (kl as f64 + 0.5) / nlev as f64;
            {
                let t_old = &self.temp[kl];
                for j in 0..ny {
                    let yf = (j as f64 + 0.5) / ny as f64;
                    let t_ref = reference_temperature(yf, zf);
                    for i in 0..nx {
                        let k = j * nx + i;
                        if !self.grid.mask[k] {
                            self.scratch[k] = 0.0;
                            continue;
                        }
                        let (ii, jj) = (i as isize, j as isize);
                        let dx = self.grid.metrics.dx(i, j);
                        let dy = self.grid.metrics.dy(i, j);
                        // Cell-centered velocity: mean of active corners.
                        let mut uk = 0.0;
                        let mut vk = 0.0;
                        let mut cnt = 0.0;
                        for (ci, cj) in [(ii, jj), (ii - 1, jj), (ii, jj - 1), (ii - 1, jj - 1)] {
                            if let Some(ck) = self.nb(ci, cj) {
                                if self.corner_active(ck) {
                                    uk += self.u[ck];
                                    vk += self.v[ck];
                                    cnt += 1.0;
                                }
                            }
                        }
                        if cnt > 0.0 {
                            uk = uk / cnt * scale;
                            vk = vk / cnt * scale;
                        }
                        let tc = t_old[k];
                        let at = |di: isize, dj: isize| -> f64 {
                            match self.nb(ii + di, jj + dj) {
                                Some(kk) if self.grid.mask[kk] => t_old[kk],
                                _ => tc,
                            }
                        };
                        let t_e = at(1, 0);
                        let t_w = at(-1, 0);
                        let t_n = at(0, 1);
                        let t_s = at(0, -1);
                        // First-order upwind keeps the field bounded.
                        let adv = if uk >= 0.0 {
                            uk * (tc - t_w) / dx
                        } else {
                            uk * (t_e - tc) / dx
                        } + if vk >= 0.0 {
                            vk * (tc - t_s) / dy
                        } else {
                            vk * (t_n - tc) / dy
                        };
                        let lap =
                            (t_e - 2.0 * tc + t_w) / (dx * dx) + (t_n - 2.0 * tc + t_s) / (dy * dy);
                        self.scratch[k] = tc
                            + tau
                                * (-adv
                                    + self.config.kappa * lap
                                    + self.config.restoring * (t_ref - tc));
                    }
                }
            }
            std::mem::swap(&mut self.temp[kl], &mut self.scratch);
        }

        self.steps += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, world: &CommWorld, n: usize) {
        for _ in 0..n {
            self.step(world);
        }
    }

    /// Capture the full prognostic state (for ensemble branching from a
    /// spun-up ocean, the standard §6 workflow).
    pub fn snapshot(&self) -> ModelState {
        ModelState {
            u: self.u.clone(),
            v: self.v.clone(),
            eta: self.eta.clone(),
            temp: self.temp.clone(),
            steps: self.steps,
        }
    }

    /// Restore a previously captured state (solver warm start included).
    pub fn restore(&mut self, state: &ModelState) {
        assert_eq!(state.u.len(), self.u.len(), "state from a different grid");
        assert_eq!(state.temp.len(), self.temp.len(), "level count mismatch");
        self.u.clone_from(&state.u);
        self.v.clone_from(&state.v);
        self.eta.clone_from(&state.eta);
        self.temp.clone_from(&state.temp);
        self.steps = state.steps;
        let nx = self.grid.nx;
        let eta_ref = &self.eta;
        self.barotropic.eta.fill_with(|i, j| eta_ref[j * nx + i]);
    }

    /// Apply a tiny multiplicative perturbation to the initial temperature —
    /// the paper's §6 ensemble construction (`O(10⁻¹⁴)`).
    pub fn perturb_temperature(&mut self, epsilon: f64, seed: u64) {
        for (kl, layer) in self.temp.iter_mut().enumerate() {
            for (k, t) in layer.iter_mut().enumerate() {
                if *t != 0.0 {
                    let mut h = (k as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((kl as u64) << 32)
                        .wrapping_add(seed.wrapping_mul(0xD1B5_4A32_D192_ED03));
                    h ^= h >> 33;
                    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    h ^= h >> 33;
                    let r = (h % 2_000_001) as f64 / 1_000_000.0 - 1.0; // [-1, 1]
                    *t *= 1.0 + epsilon * r;
                }
            }
        }
    }

    /// Mean kinetic energy per active corner (m²/s²).
    pub fn kinetic_energy(&self) -> f64 {
        let mut ke = 0.0;
        let mut count = 0usize;
        for (k, &hu) in self.grid.hu.iter().enumerate() {
            if hu > 0.0 {
                ke += 0.5 * (self.u[k] * self.u[k] + self.v[k] * self.v[k]);
                count += 1;
            }
        }
        ke / count.max(1) as f64
    }

    /// Max |η| (m).
    pub fn max_eta(&self) -> f64 {
        self.eta.iter().fold(0.0f64, |a, &b| a.max(b.abs()))
    }

    /// Area-weighted mean surface height over the ocean (m): conserved to
    /// round-off by the adjoint-pair discretization.
    pub fn mean_eta(&self) -> f64 {
        let mut vol = 0.0;
        let mut area = 0.0;
        for j in 0..self.grid.ny {
            for i in 0..self.grid.nx {
                let k = j * self.grid.nx + i;
                if self.grid.mask[k] {
                    let a = self.grid.metrics.area(i, j);
                    vol += a * self.eta[k];
                    area += a;
                }
            }
        }
        vol / area.max(1e-300)
    }

    /// All temperature values flattened (ocean points only), the field the
    /// §6 statistics run on.
    pub fn temperature_vector(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.temp {
            for (k, &t) in layer.iter().enumerate() {
                if self.grid.mask[k] {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Is every prognostic field finite and physically plausible?
    ///
    /// The surface-height bound accounts for reduced gravity: in a
    /// 1.5-layer model `η` is the *interface* displacement, bounded by the
    /// layer depth rather than by meters of sea surface.
    pub fn is_healthy(&self) -> bool {
        let h_max = self.grid.ht.iter().copied().fold(0.0f64, f64::max);
        let eta_bound = 50.0f64.max(1.2 * h_max);
        let speed_ok = self
            .u
            .iter()
            .chain(self.v.iter())
            .all(|x| x.is_finite() && x.abs() < 10.0);
        let eta_ok = self
            .eta
            .iter()
            .all(|x| x.is_finite() && x.abs() < eta_bound);
        let t_ok = self
            .temp
            .iter()
            .flat_map(|l| l.iter())
            .all(|x| x.is_finite() && (-5.0..45.0).contains(x));
        speed_ok && eta_ok && t_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::CommWorld;
    use pop_grid::Grid;

    fn small_model(solver: SolverChoice, tol: f64) -> (CommWorld, MiniPop) {
        let g = Grid::idealized_basin(40, 32, 1200.0, 8.0e4);
        let world = CommWorld::serial();
        let mut cfg = MiniPopConfig::default_for(&g);
        cfg.solver = solver;
        cfg.tolerance = tol;
        cfg.nlev = 3;
        let m = MiniPop::new(g, cfg, &world);
        (world, m)
    }

    #[test]
    fn spins_up_and_stays_healthy() {
        let (world, mut m) = small_model(SolverChoice::ChronGearDiag, 1e-12);
        m.run(&world, 300);
        assert!(m.is_healthy());
        assert!(m.kinetic_energy() > 1e-8, "wind should spin up a gyre");
        assert!(m.max_eta() > 1e-4, "surface should tilt");
    }

    #[test]
    fn volume_conserved_to_roundoff() {
        let (world, mut m) = small_model(SolverChoice::ChronGearDiag, 1e-13);
        m.run(&world, 200);
        assert!(
            m.mean_eta().abs() < 1e-10,
            "mean surface height drifted: {}",
            m.mean_eta()
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let (world, mut m) = small_model(SolverChoice::PcsiDiag, 1e-12);
            m.run(&world, 40);
            m.temperature_vector()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn perturbations_propagate_into_the_flow() {
        // Plumbing check for the §6 ensemble method: an O(1e-14) temperature
        // perturbation must reach the velocity field through the buoyancy
        // coupling (full chaotic growth is exercised by the long test below
        // and by the fig13 experiment binary).
        let (world, mut a) = small_model(SolverChoice::ChronGearDiag, 1e-13);
        let (world_b, mut b) = small_model(SolverChoice::ChronGearDiag, 1e-13);
        b.perturb_temperature(1e-14, 42);
        a.run(&world, 50);
        b.run(&world_b, 50);
        assert!(a.is_healthy() && b.is_healthy());
        let du: f64 =
            a.u.iter()
                .zip(&b.u)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
        assert!(du > 0.0, "perturbation must reach the velocities");
        assert!(du < 1e-8, "...but stay tiny over a short run");
    }

    #[test]
    #[ignore = "long (several minutes in release): full chaotic-growth demonstration"]
    fn tiny_perturbations_grow_in_the_eddying_regime() {
        let g = Grid::idealized_basin(80, 64, 500.0, 2.0e4);
        let world = CommWorld::serial();
        let mut cfg = MiniPopConfig::eddying_for(&g);
        cfg.nlev = 3;
        let mut a = MiniPop::new(g.clone(), cfg.clone(), &world);
        let mut b = MiniPop::new(g, cfg, &world);
        b.perturb_temperature(1e-14, 42);
        let rms_at = |a: &MiniPop, b: &MiniPop| -> f64 {
            let ta = a.temperature_vector();
            let tb = b.temperature_vector();
            (ta.iter()
                .zip(&tb)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                / ta.len() as f64)
                .sqrt()
        };
        a.run(&world, 1000);
        b.run(&world, 1000);
        let early = rms_at(&a, &b);
        a.run(&world, 5000);
        b.run(&world, 5000);
        let late = rms_at(&a, &b);
        assert!(a.is_healthy() && b.is_healthy());
        assert!(
            late > 100.0 * early,
            "chaotic growth expected: early {early:e}, late {late:e}"
        );
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (world, mut m) = small_model(SolverChoice::ChronGearDiag, 1e-12);
        m.run(&world, 20);
        let state = m.snapshot();
        let probe_a = {
            m.run(&world, 10);
            m.temperature_vector()
        };
        m.restore(&state);
        let probe_b = {
            m.run(&world, 10);
            m.temperature_vector()
        };
        assert_eq!(probe_a, probe_b, "restore must reproduce the trajectory");
    }

    #[test]
    fn different_solvers_same_climate_short_run() {
        // Over a short run (before chaos decorrelates), tight-tolerance
        // solutions from different solvers must agree closely.
        let (world_a, mut a) = small_model(SolverChoice::ChronGearDiag, 1e-13);
        let (world_b, mut b) = small_model(SolverChoice::PcsiEvp, 1e-13);
        a.run(&world_a, 30);
        b.run(&world_b, 30);
        let ta = a.temperature_vector();
        let tb = b.temperature_vector();
        for (x, y) in ta.iter().zip(&tb) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn solver_is_exercised_every_step() {
        let (world, mut m) = small_model(SolverChoice::ChronGearDiag, 1e-12);
        m.run(&world, 10);
        assert_eq!(m.barotropic.solves, 10);
        assert!(m.barotropic.total_iterations >= 10);
    }

    #[test]
    fn works_on_global_grid_with_land() {
        let g = Grid::gx1_scaled(77, 48, 40);
        let world = CommWorld::serial();
        let mut cfg = MiniPopConfig::default_for(&g);
        cfg.nlev = 2;
        let mut m = MiniPop::new(g, cfg, &world);
        m.run(&world, 40);
        assert!(m.is_healthy());
        // Inactive corners and land cells stay inert.
        for (k, &hu) in m.grid.hu.iter().enumerate() {
            if hu == 0.0 {
                assert_eq!(m.u[k], 0.0);
                assert_eq!(m.v[k], 0.0);
            }
        }
        for (k, &mask) in m.grid.mask.iter().enumerate() {
            if !mask {
                assert_eq!(m.temp[0][k], 0.0);
            }
        }
    }
}
