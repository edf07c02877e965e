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
    nbrs: Neighbours,
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
        let nbrs = Neighbours::new(&grid);
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
            nbrs,
        }
    }

    /// Advance the model one barotropic time step.
    ///
    /// Every explicit pass sweeps whole rows: each point reads its
    /// neighbours at `k ± 1` and `k ± nx` (wrapped at the two edge columns,
    /// clamped to the point's own row past the south and north edges) and
    /// picks them, or its own value, by the flags (`Neighbours`) found once
    /// in [`MiniPop::new`]; land and inactive corners are computed like any
    /// other point and then selected away. No branch depends on the data,
    /// so the interior columns of a row vectorise, divisions included. Each
    /// value is the same expression, on the same operands in the same
    /// order, as a search over the point's neighbours would give (the
    /// per-point step kept in `tests/common/minipop_reference.rs`): the
    /// trajectory is bit for bit the same.
    pub fn step(&mut self, world: &CommWorld) {
        let MiniPop {
            grid,
            config: cfg,
            barotropic,
            u,
            v,
            eta,
            temp,
            steps,
            u_star,
            v_star,
            forecast,
            scratch,
            tbar,
            nbrs,
        } = self;
        let (nx, ny) = (grid.nx, grid.ny);
        let tau = cfg.tau;
        let m = &grid.metrics;
        // The rows north and south of row `j`, or row `j` itself past an
        // edge (the flags then pick the centre).
        let north = |j: usize| (j + 1).min(ny - 1);
        let south = |j: usize| j.saturating_sub(1);

        // --- 0. depth-mean temperature (buoyancy source) ---
        // Level by level from `Iterator::sum`'s start value, −0.0.
        tbar.fill(-0.0);
        for layer in temp.iter() {
            for (t, l) in tbar.iter_mut().zip(layer) {
                *t += l;
            }
        }
        let inv_nlev = 1.0 / cfg.nlev as f64;
        for t in tbar.iter_mut() {
            *t *= inv_nlev;
        }

        // --- 1. explicit momentum at corners ---
        for j in 0..ny {
            let f_cor = coriolis(m.lat_t[j]);
            let yf = (j as f64 + 1.0) / ny as f64; // corner sits between rows
            let wind = double_gyre_wind(cfg.wind_tau0, yf);
            let (sin_f, cos_f) = (f_cor * tau).sin_cos();
            let (jn, js) = (north(j), south(j));
            let (uc, un, us) = (row(u, nx, j), row(u, nx, jn), row(u, nx, js));
            let (vc, vn, vs) = (row(v, nx, j), row(v, nx, jn), row(v, nx, js));
            let (tb, tb_n) = (row(tbar, nx, j), row(tbar, nx, jn));
            let (dxu, dyu) = (row(&m.dxu, nx, j), row(&m.dyu, nx, j));
            let (hu, fl) = (row(&grid.hu, nx, j), row(&nbrs.corner, nx, j));
            let u_out = row_mut(u_star, nx, j);
            let v_out = row_mut(v_star, nx, j);
            columns(
                nx,
                #[inline(always)]
                |i, w, e| {
                    let f = fl[i];
                    let (u0, v0) = (uc[i], vc[i]);
                    // A missing or inactive neighbour reads the centre: a
                    // zero-gradient (free-slip-ish) lateral condition.
                    let u_e = pick(f, E, uc[e], u0);
                    let u_w = pick(f, W, uc[w], u0);
                    let u_n = pick(f, N, un[i], u0);
                    let u_s = pick(f, S, us[i], u0);
                    let v_e = pick(f, E, vc[e], v0);
                    let v_w = pick(f, W, vc[w], v0);
                    let v_n = pick(f, N, vn[i], v0);
                    let v_s = pick(f, S, vs[i], v0);
                    let (dx, dy) = (dxu[i], dyu[i]);
                    let (dx2, dy2) = (2.0 * dx, 2.0 * dy);
                    let (dxx, dyy) = (dx * dx, dy * dy);

                    // Nonlinear advection (centered) — the chaos source.
                    let adv_u = u0 * (u_e - u_w) / dx2 + v0 * (u_n - u_s) / dy2;
                    let adv_v = u0 * (v_e - v_w) / dx2 + v0 * (v_n - v_s) / dy2;
                    // Lateral friction: constant background plus Smagorinsky
                    // deformation-dependent eddy viscosity.
                    let lap_u = (u_e - 2.0 * u0 + u_w) / dxx + (u_n - 2.0 * u0 + u_s) / dyy;
                    let lap_v = (v_e - 2.0 * v0 + v_w) / dxx + (v_n - 2.0 * v0 + v_s) / dyy;
                    let d_t = (u_e - u_w) / dx2 - (v_n - v_s) / dy2;
                    let d_s = (v_e - v_w) / dx2 + (u_n - u_s) / dy2;
                    let nu_eff =
                        cfg.viscosity + cfg.smagorinsky * dx * dy * (d_t * d_t + d_s * d_s).sqrt();
                    // Wind stress felt by the column.
                    let depth = hu[i].max(50.0);
                    let wind_u = wind / (1025.0 * depth);
                    // Buoyancy: depth-mean temperature gradient (all 4 cells of
                    // an active corner are ocean, so the gradient is clean).
                    let (gtx, gty) = corner_grad(tb, tb_n, i, e, dx2, dy2);
                    let buoy_u = cfg.buoyancy * depth * gtx;
                    let buoy_v = cfg.buoyancy * depth * gty;

                    let du = u0 + tau * (-adv_u - cfg.drag * u0 + nu_eff * lap_u + wind_u + buoy_u);
                    let dv = v0 + tau * (-adv_v - cfg.drag * v0 + nu_eff * lap_v + buoy_v);
                    // Exact inertial rotation (neutrally stable Coriolis).
                    let active = f & ACTIVE != 0;
                    u_out[i] = if active { cos_f * du + sin_f * dv } else { 0.0 };
                    v_out[i] = if active {
                        -sin_f * du + cos_f * dv
                    } else {
                        0.0
                    };
                },
            );
        }

        // --- 2. forecast surface: f = ηⁿ − (τ/area)·DIV(hu·u*) ---
        // DIV is the exact adjoint of the corner gradient; see module docs.
        // The cell's corners in the order they are summed: NE, NW, SE, SW.
        // An inactive one adds +0.0, which leaves the sum exact: it starts
        // at +0.0 and so can never be −0.0.
        for j in 0..ny {
            let js = south(j);
            let (hu, hu_s) = (row(&grid.hu, nx, j), row(&grid.hu, nx, js));
            let (dxu, dxu_s) = (row(&m.dxu, nx, j), row(&m.dxu, nx, js));
            let (dyu, dyu_s) = (row(&m.dyu, nx, j), row(&m.dyu, nx, js));
            let (us, us_s) = (row(u_star, nx, j), row(u_star, nx, js));
            let (vs, vs_s) = (row(v_star, nx, j), row(v_star, nx, js));
            let (dxt, dyt) = (row(&m.dxt, nx, j), row(&m.dyt, nx, j));
            let (fl, ocean, eta_c) = (
                row(&nbrs.cell, nx, j),
                row(&grid.mask, nx, j),
                row(eta, nx, j),
            );
            let out = row_mut(scratch, nx, j);
            columns(
                nx,
                #[inline(always)]
                |i, w, _| {
                    let f = fl[i];
                    // A corner's term, (sₓ, s_y) the cell's signs at it: the
                    // cell is SW of its NE corner, SE of its NW corner, NW of
                    // its SE corner and NE of its SW corner.
                    let flux = |sx: f64, sy: f64, hu: f64, dyu: f64, dxu: f64, u: f64, v: f64| {
                        sx * hu * dyu * 0.5 * u + sy * hu * dxu * 0.5 * v
                    };
                    let ne = flux(-1.0, -1.0, hu[i], dyu[i], dxu[i], us[i], vs[i]);
                    let nw = flux(1.0, -1.0, hu[w], dyu[w], dxu[w], us[w], vs[w]);
                    let se = flux(-1.0, 1.0, hu_s[i], dyu_s[i], dxu_s[i], us_s[i], vs_s[i]);
                    let sw = flux(1.0, 1.0, hu_s[w], dyu_s[w], dxu_s[w], us_s[w], vs_s[w]);
                    let div = 0.0
                        + pick(f, CORNER_NE, ne, 0.0)
                        + pick(f, CORNER_NW, nw, 0.0)
                        + pick(f, CORNER_SE, se, 0.0)
                        + pick(f, CORNER_SW, sw, 0.0);
                    // `div` here is the adjoint form, equal to −area·∇·(H u):
                    // on u = Gη it reproduces +A_lap η (the positive-definite
                    // Laplacian), so the *physical* forecast adds it.
                    let area = dxt[i] * dyt[i];
                    out[i] = if ocean[i] {
                        eta_c[i] + tau * div / area
                    } else {
                        0.0
                    };
                },
            );
        }
        forecast.fill_from_global(scratch);

        // --- 3. implicit solve for ηⁿ⁺¹ (the solver under test) ---
        barotropic.step(world, forecast);
        barotropic.eta.to_global_into(eta);

        // --- 4. velocity correction by the new surface gradient ---
        let g_tau = cfg.gravity * tau;
        for j in 0..ny {
            let (ec, en) = (row(eta, nx, j), row(eta, nx, north(j)));
            let (dxu, dyu) = (row(&m.dxu, nx, j), row(&m.dyu, nx, j));
            let fl = row(&nbrs.corner, nx, j);
            let (us, vs) = (row(u_star, nx, j), row(v_star, nx, j));
            let (u_out, v_out) = (row_mut(u, nx, j), row_mut(v, nx, j));
            columns(
                nx,
                #[inline(always)]
                |i, _, e| {
                    let (gx, gy) = corner_grad(ec, en, i, e, 2.0 * dxu[i], 2.0 * dyu[i]);
                    let active = fl[i] & ACTIVE != 0;
                    u_out[i] = if active { us[i] - g_tau * gx } else { 0.0 };
                    v_out[i] = if active { vs[i] - g_tau * gy } else { 0.0 };
                },
            );
        }

        // --- 5. temperature: upwind advection + diffusion + restoring ---
        // The cell-centred velocity, the mean of the cell's active corners
        // (summed NE, NW, SE, SW as in the forecast), does not depend on
        // the level: it is divided once, into the storage of the spent
        // u*, v*, and each level scales it. An all-inactive cell keeps its
        // +0.0 sum, which any level's (positive) scale leaves +0.0.
        let (u_cell, v_cell) = (u_star, v_star);
        for j in 0..ny {
            let js = south(j);
            let (uc, us, vc, vs) = (row(u, nx, j), row(u, nx, js), row(v, nx, j), row(v, nx, js));
            let fl = row(&nbrs.cell, nx, j);
            let u_out = row_mut(u_cell, nx, j);
            let v_out = row_mut(v_cell, nx, j);
            columns(
                nx,
                #[inline(always)]
                |i, w, _| {
                    let f = fl[i];
                    let uk = 0.0
                        + pick(f, CORNER_NE, uc[i], 0.0)
                        + pick(f, CORNER_NW, uc[w], 0.0)
                        + pick(f, CORNER_SE, us[i], 0.0)
                        + pick(f, CORNER_SW, us[w], 0.0);
                    let vk = 0.0
                        + pick(f, CORNER_NE, vc[i], 0.0)
                        + pick(f, CORNER_NW, vc[w], 0.0)
                        + pick(f, CORNER_SE, vs[i], 0.0)
                        + pick(f, CORNER_SW, vs[w], 0.0);
                    let cnt = f64::from((f & CORNERS).count_ones());
                    u_out[i] = if cnt > 0.0 { uk / cnt } else { uk };
                    v_out[i] = if cnt > 0.0 { vk / cnt } else { vk };
                },
            );
        }
        let nlev = cfg.nlev;
        for (kl, layer) in temp.iter_mut().enumerate() {
            let scale = 1.0 - 0.8 * (kl as f64 + 0.5) / nlev as f64;
            let zf = (kl as f64 + 0.5) / nlev as f64;
            for j in 0..ny {
                let yf = (j as f64 + 0.5) / ny as f64;
                let t_ref = reference_temperature(yf, zf);
                let (tc_row, tn, ts) = (
                    row(layer, nx, j),
                    row(layer, nx, north(j)),
                    row(layer, nx, south(j)),
                );
                let (dxt, dyt) = (row(&m.dxt, nx, j), row(&m.dyt, nx, j));
                let (ub, vb) = (row(u_cell, nx, j), row(v_cell, nx, j));
                let (fl, ocean) = (row(&nbrs.cell, nx, j), row(&grid.mask, nx, j));
                let out = row_mut(scratch, nx, j);
                columns(
                    nx,
                    #[inline(always)]
                    |i, w, e| {
                        let f = fl[i];
                        let tc = tc_row[i];
                        let t_e = pick(f, E, tc_row[e], tc);
                        let t_w = pick(f, W, tc_row[w], tc);
                        let t_n = pick(f, N, tn[i], tc);
                        let t_s = pick(f, S, ts[i], tc);
                        let (dx, dy) = (dxt[i], dyt[i]);
                        let (uk, vk) = (ub[i] * scale, vb[i] * scale);
                        // First-order upwind keeps the field bounded.
                        let adv = uk * (if uk >= 0.0 { tc - t_w } else { t_e - tc }) / dx
                            + vk * (if vk >= 0.0 { tc - t_s } else { t_n - tc }) / dy;
                        let lap =
                            (t_e - 2.0 * tc + t_w) / (dx * dx) + (t_n - 2.0 * tc + t_s) / (dy * dy);
                        out[i] = if ocean[i] {
                            tc + tau * (-adv + cfg.kappa * lap + cfg.restoring * (t_ref - tc))
                        } else {
                            0.0
                        };
                    },
                );
            }
            std::mem::swap(layer, scratch);
        }

        *steps += 1;
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
        self.barotropic.eta.fill_from_global(&self.eta);
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

/// Neighbour flag bits: the point's east, west, north or south neighbour on
/// its own lattice exists (inside the grid, or across a periodic seam) and
/// is ocean (a T cell) or active (a corner).
const E: u8 = 1;
const W: u8 = 1 << 1;
const N: u8 = 1 << 2;
const S: u8 = 1 << 3;
/// A corner's own flag: it is active (`hu > 0`).
const ACTIVE: u8 = 1 << 4;
/// A cell's corner flags: that corner of the cell exists and is active.
const CORNER_NE: u8 = 1 << 4;
const CORNER_NW: u8 = 1 << 5;
const CORNER_SE: u8 = 1 << 6;
const CORNER_SW: u8 = 1 << 7;
const CORNERS: u8 = CORNER_NE | CORNER_NW | CORNER_SE | CORNER_SW;

/// Which neighbours of each point the explicit passes read: one flag byte
/// per point on each lattice, found once from the grid's mask and `hu` by
/// [`Neighbours::new`] (which also decides the periodic seam and the grid's
/// edges). The passes read the neighbour at `k ± 1` / `k ± nx` and the flag
/// picks it or the fallback.
struct Neighbours {
    /// T lattice: `E | W | N | S` for ocean neighbour cells, and
    /// `CORNER_NE | CORNER_NW | CORNER_SE | CORNER_SW` for the cell's
    /// active corners (`(i, j)`, `(i − 1, j)`, `(i, j − 1)`,
    /// `(i − 1, j − 1)` on the corner lattice).
    cell: Vec<u8>,
    /// Corner lattice: `ACTIVE`, and `E | W | N | S` for active neighbour
    /// corners.
    corner: Vec<u8>,
}

impl Neighbours {
    /// One pass over the grid, a row at a time, on 0/1 bytes of the mask
    /// and of `hu > 0`.
    fn new(grid: &Grid) -> Self {
        let (nx, ny) = (grid.nx, grid.ny);
        let ocean: Vec<u8> = grid.mask.iter().map(|&o| u8::from(o)).collect();
        let active: Vec<u8> = grid.hu.iter().map(|&h| u8::from(h > 0.0)).collect();
        let mut cell = vec![0u8; nx * ny];
        let mut corner = vec![0u8; nx * ny];
        for j in 0..ny {
            // 0 or 1: is there a row north / south of `j`.
            let (has_n, has_s) = (u8::from(j + 1 < ny), u8::from(j > 0));
            let (jn, js) = ((j + 1).min(ny - 1), j.saturating_sub(1));
            let (oc, on, os) = (row(&ocean, nx, j), row(&ocean, nx, jn), row(&ocean, nx, js));
            let (ac, an, as_) = (
                row(&active, nx, j),
                row(&active, nx, jn),
                row(&active, nx, js),
            );
            let (cells, corners) = (row_mut(&mut cell, nx, j), row_mut(&mut corner, nx, j));
            columns(
                nx,
                #[inline(always)]
                |i, w, e| {
                    let has_e = u8::from(grid.periodic_x || i + 1 < nx);
                    let has_w = u8::from(grid.periodic_x || i > 0);
                    let bit = |b: u8, yes: u8| b * yes;
                    cells[i] = bit(E, has_e & oc[e])
                        | bit(W, has_w & oc[w])
                        | bit(N, has_n & on[i])
                        | bit(S, has_s & os[i])
                        | bit(CORNER_NE, ac[i])
                        | bit(CORNER_NW, has_w & ac[w])
                        | bit(CORNER_SE, has_s & as_[i])
                        | bit(CORNER_SW, has_s & has_w & as_[w]);
                    corners[i] = bit(ACTIVE, ac[i])
                        | bit(E, has_e & ac[e])
                        | bit(W, has_w & ac[w])
                        | bit(N, has_n & an[i])
                        | bit(S, has_s & as_[i]);
                },
            );
        }
        Neighbours { cell, corner }
    }
}

/// `v` where flag `bit` is set in `f`, else `fallback`: a select, not a
/// branch.
#[inline(always)]
fn pick(f: u8, bit: u8, v: f64, fallback: f64) -> f64 {
    if f & bit != 0 {
        v
    } else {
        fallback
    }
}

/// Row `j` of a row-major field `nx` wide.
#[inline(always)]
fn row<T>(x: &[T], nx: usize, j: usize) -> &[T] {
    &x[j * nx..][..nx]
}

#[inline(always)]
fn row_mut<T>(x: &mut [T], nx: usize, j: usize) -> &mut [T] {
    &mut x[j * nx..][..nx]
}

/// Calls `point(i, w, e)` for every column `i` of a row `nx` wide, `w` and
/// `e` its west and east columns wrapped around the row (the flags mask the
/// wrap where the grid is not periodic). The interior columns are one loop
/// at unit offsets, which the compiler vectorises once `point` is inlined:
/// callers mark the closure `#[inline(always)]`, since it is called from
/// three places.
#[inline(always)]
fn columns(nx: usize, mut point: impl FnMut(usize, usize, usize)) {
    if nx == 1 {
        point(0, 0, 0);
        return;
    }
    point(0, nx - 1, 1);
    for i in 1..nx - 1 {
        point(i, i - 1, i + 1);
    }
    point(nx - 1, nx - 2, 0);
}

/// The 4-cell gradient `(∂/∂x, ∂/∂y)` of a T-point field at corner `i` of
/// a row, from the field's rows `c` (south of the corner) and `n` (north),
/// `e` the wrapped east column and `dx2`, `dy2` twice the corner's spacing.
/// Meaningful at an active corner, whose four cells are ocean.
#[inline(always)]
fn corner_grad(c: &[f64], n: &[f64], i: usize, e: usize, dx2: f64, dy2: f64) -> (f64, f64) {
    let gx = (c[e] + n[e] - c[i] - n[i]) / dx2;
    let gy = (n[i] + n[e] - c[i] - c[e]) / dy2;
    (gx, gy)
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
