//! The mini-POP time step the model's explicit physics is held to.
//!
//! This is `MiniPop::step` as it was before the passes moved onto per-point
//! neighbour flags and row sweeps, kept operation for operation as free
//! functions over the model's public state: every neighbour found by an
//! `Option` search with its periodic wrap, the upwind direction taken by a
//! branch on the velocity's sign, the forecast scattered through
//! `DistVec::fill_with`, fresh temporaries every step. The model's own step
//! must land on it bit for bit: u, v, η, every temperature layer and every
//! solve (`tests/minipop_equivalence.rs`).

use pop_baro::ocean::forcing::{coriolis, double_gyre_wind, reference_temperature};
use pop_baro::ocean::ModelState;
use pop_baro::prelude::*;

/// Wrapped cell/corner index, or `None` past a non-periodic edge.
fn nb(grid: &Grid, i: isize, j: isize) -> Option<usize> {
    let (nx, ny) = (grid.nx as isize, grid.ny as isize);
    if j < 0 || j >= ny {
        return None;
    }
    let i = if i >= 0 && i < nx {
        i
    } else if grid.periodic_x {
        i.rem_euclid(nx)
    } else {
        return None;
    };
    Some((j * nx + i) as usize)
}

/// Is corner `k` active (all four surrounding cells ocean)?
fn corner_active(grid: &Grid, k: usize) -> bool {
    grid.hu[k] > 0.0
}

/// Corner-lattice neighbour value with zero-gradient fallback at inactive
/// corners.
fn corner_or(grid: &Grid, field: &[f64], i: isize, j: isize, center: f64) -> f64 {
    match nb(grid, i, j) {
        Some(k) if corner_active(grid, k) => field[k],
        _ => center,
    }
}

/// The 4-cell gradient of a T-point field at active corner `(i, j)`.
fn corner_grad(grid: &Grid, field: &[f64], i: usize, j: usize) -> (f64, f64) {
    let nx = grid.nx;
    let ie = if i + 1 < nx { i + 1 } else { 0 };
    let k_sw = j * nx + i;
    let k_se = j * nx + ie;
    let k_nw = (j + 1) * nx + i;
    let k_ne = (j + 1) * nx + ie;
    let gx =
        (field[k_se] + field[k_ne] - field[k_sw] - field[k_nw]) / (2.0 * grid.metrics.dxu[k_sw]);
    let gy =
        (field[k_nw] + field[k_ne] - field[k_sw] - field[k_se]) / (2.0 * grid.metrics.dyu[k_sw]);
    (gx, gy)
}

/// Advance `m` one time step the way the model did before its passes ran
/// on flags: the oracle of `MiniPop::step`.
pub fn step_reference(m: &mut MiniPop, world: &CommWorld) {
    let (nx, ny) = (m.grid.nx, m.grid.ny);
    let tau = m.config.tau;
    let n = nx * ny;
    let grid = &m.grid;
    let cfg = &m.config;
    let mut u_star = vec![0.0; n];
    let mut v_star = vec![0.0; n];
    let mut scratch = vec![0.0; n];
    let mut tbar = vec![0.0; n];

    // --- 0. depth-mean temperature (buoyancy source) ---
    let inv_nlev = 1.0 / cfg.nlev as f64;
    for (k, t) in tbar.iter_mut().enumerate() {
        *t = m.temp.iter().map(|l| l[k]).sum::<f64>() * inv_nlev;
    }

    // --- 1. explicit momentum at corners ---
    for j in 0..ny {
        let lat = grid.metrics.lat_t[j];
        let f_cor = coriolis(lat);
        let yf = (j as f64 + 1.0) / ny as f64;
        let wind = double_gyre_wind(cfg.wind_tau0, yf);
        let (sin_f, cos_f) = (f_cor * tau).sin_cos();
        for i in 0..nx {
            let k = j * nx + i;
            if !corner_active(grid, k) {
                u_star[k] = 0.0;
                v_star[k] = 0.0;
                continue;
            }
            let (ii, jj) = (i as isize, j as isize);
            let dx = grid.metrics.dxu[k];
            let dy = grid.metrics.dyu[k];
            let (uc, vc) = (m.u[k], m.v[k]);

            let u_e = corner_or(grid, &m.u, ii + 1, jj, uc);
            let u_w = corner_or(grid, &m.u, ii - 1, jj, uc);
            let u_n = corner_or(grid, &m.u, ii, jj + 1, uc);
            let u_s = corner_or(grid, &m.u, ii, jj - 1, uc);
            let v_e = corner_or(grid, &m.v, ii + 1, jj, vc);
            let v_w = corner_or(grid, &m.v, ii - 1, jj, vc);
            let v_n = corner_or(grid, &m.v, ii, jj + 1, vc);
            let v_s = corner_or(grid, &m.v, ii, jj - 1, vc);

            let adv_u = uc * (u_e - u_w) / (2.0 * dx) + vc * (u_n - u_s) / (2.0 * dy);
            let adv_v = uc * (v_e - v_w) / (2.0 * dx) + vc * (v_n - v_s) / (2.0 * dy);
            let lap_u = (u_e - 2.0 * uc + u_w) / (dx * dx) + (u_n - 2.0 * uc + u_s) / (dy * dy);
            let lap_v = (v_e - 2.0 * vc + v_w) / (dx * dx) + (v_n - 2.0 * vc + v_s) / (dy * dy);
            let d_t = (u_e - u_w) / (2.0 * dx) - (v_n - v_s) / (2.0 * dy);
            let d_s = (v_e - v_w) / (2.0 * dx) + (u_n - u_s) / (2.0 * dy);
            let nu_eff = cfg.viscosity + cfg.smagorinsky * dx * dy * (d_t * d_t + d_s * d_s).sqrt();
            let depth = grid.hu[k].max(50.0);
            let wind_u = wind / (1025.0 * depth);
            let (gtx, gty) = corner_grad(grid, &tbar, i, j);
            let buoy_u = cfg.buoyancy * depth * gtx;
            let buoy_v = cfg.buoyancy * depth * gty;

            let du = uc + tau * (-adv_u - cfg.drag * uc + nu_eff * lap_u + wind_u + buoy_u);
            let dv = vc + tau * (-adv_v - cfg.drag * vc + nu_eff * lap_v + buoy_v);
            u_star[k] = cos_f * du + sin_f * dv;
            v_star[k] = -sin_f * du + cos_f * dv;
        }
    }

    // --- 2. forecast surface: f = ηⁿ − (τ/area)·DIV(hu·u*) ---
    for j in 0..ny {
        for i in 0..nx {
            let k = j * nx + i;
            if !grid.mask[k] {
                scratch[k] = 0.0;
                continue;
            }
            let (ii, jj) = (i as isize, j as isize);
            let mut div = 0.0;
            let corners = [
                ((ii, jj), -1.0, -1.0),
                ((ii - 1, jj), 1.0, -1.0),
                ((ii, jj - 1), -1.0, 1.0),
                ((ii - 1, jj - 1), 1.0, 1.0),
            ];
            for ((ci, cj), sx, sy) in corners {
                if let Some(ck) = nb(grid, ci, cj) {
                    let hu = grid.hu[ck];
                    if hu > 0.0 {
                        div += sx * hu * grid.metrics.dyu[ck] * 0.5 * u_star[ck]
                            + sy * hu * grid.metrics.dxu[ck] * 0.5 * v_star[ck];
                    }
                }
            }
            let area = grid.metrics.area(i, j);
            scratch[k] = m.eta[k] + tau * div / area;
        }
    }
    let mut forecast = DistVec::zeros(&m.barotropic.layout);
    forecast.fill_with(|i, j| scratch[j * nx + i]);

    // --- 3. implicit solve for ηⁿ⁺¹ ---
    m.barotropic.step(world, &forecast);
    m.barotropic.eta.to_global_into(&mut m.eta);

    // --- 4. velocity correction by the new surface gradient ---
    for j in 0..ny {
        for i in 0..nx {
            let k = j * nx + i;
            if !corner_active(grid, k) {
                m.u[k] = 0.0;
                m.v[k] = 0.0;
                continue;
            }
            let (gx, gy) = corner_grad(grid, &m.eta, i, j);
            m.u[k] = u_star[k] - cfg.gravity * tau * gx;
            m.v[k] = v_star[k] - cfg.gravity * tau * gy;
        }
    }

    // --- 5. temperature: upwind advection + diffusion + restoring ---
    let nlev = cfg.nlev;
    for kl in 0..nlev {
        let scale = 1.0 - 0.8 * (kl as f64 + 0.5) / nlev as f64;
        let zf = (kl as f64 + 0.5) / nlev as f64;
        {
            let t_old = &m.temp[kl];
            for j in 0..ny {
                let yf = (j as f64 + 0.5) / ny as f64;
                let t_ref = reference_temperature(yf, zf);
                for i in 0..nx {
                    let k = j * nx + i;
                    if !grid.mask[k] {
                        scratch[k] = 0.0;
                        continue;
                    }
                    let (ii, jj) = (i as isize, j as isize);
                    let dx = grid.metrics.dx(i, j);
                    let dy = grid.metrics.dy(i, j);
                    let mut uk = 0.0;
                    let mut vk = 0.0;
                    let mut cnt = 0.0;
                    for (ci, cj) in [(ii, jj), (ii - 1, jj), (ii, jj - 1), (ii - 1, jj - 1)] {
                        if let Some(ck) = nb(grid, ci, cj) {
                            if corner_active(grid, ck) {
                                uk += m.u[ck];
                                vk += m.v[ck];
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
                        match nb(grid, ii + di, jj + dj) {
                            Some(kk) if grid.mask[kk] => t_old[kk],
                            _ => tc,
                        }
                    };
                    let t_e = at(1, 0);
                    let t_w = at(-1, 0);
                    let t_n = at(0, 1);
                    let t_s = at(0, -1);
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
                    scratch[k] = tc + tau * (-adv + cfg.kappa * lap + cfg.restoring * (t_ref - tc));
                }
            }
        }
        std::mem::swap(&mut m.temp[kl], &mut scratch);
    }

    m.steps += 1;
}

/// `MiniPop::restore` as it was: the state's fields cloned back and the
/// solver's warm start refilled through `DistVec::fill_with`.
pub fn restore_reference(m: &mut MiniPop, state: &ModelState) {
    m.u.clone_from(&state.u);
    m.v.clone_from(&state.v);
    m.eta.clone_from(&state.eta);
    m.temp.clone_from(&state.temp);
    m.steps = state.steps;
    let nx = m.grid.nx;
    let eta_ref = &m.eta;
    m.barotropic.eta.fill_with(|i, j| eta_ref[j * nx + i]);
}
