//! The mini-POP step ≡ its per-point oracle, bit for bit.
//!
//! `MiniPop::step` runs its explicit physics as row sweeps over neighbour
//! flags found once at construction; `common::minipop_reference` keeps the
//! step it replaced, which searched for every neighbour per point and
//! branched on the data. Two models start from the same state, one advanced
//! by each, and after every step u, v, η, every temperature layer and the
//! solve's iteration count and final residual must agree bit for bit.

use pop_baro::prelude::*;

mod common;

use common::minipop_reference::{restore_reference, step_reference};

/// The benchmark's gyre: a 64×48 closed basin in the eddying regime, three
/// levels, P-CSI + block-EVP in the loop.
fn gyre() -> (Grid, MiniPopConfig) {
    let grid = Grid::idealized_basin(64, 48, 500.0, 2.0e4);
    let mut cfg = MiniPopConfig::eddying_for(&grid);
    cfg.solver = SolverChoice::PcsiEvp;
    cfg.nlev = 3;
    (grid, cfg)
}

/// A periodic gx1-like grid with continents and islands: wrap columns,
/// and inactive corners well inside the domain.
fn global() -> (Grid, MiniPopConfig) {
    let grid = Grid::gx1_scaled(7, 60, 40);
    let mut cfg = MiniPopConfig::default_for(&grid);
    cfg.solver = SolverChoice::ChronGearDiag;
    cfg.nlev = 4;
    (grid, cfg)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Everything a step leaves behind, as raw bits.
#[derive(PartialEq, Debug)]
struct State {
    u: Vec<u64>,
    v: Vec<u64>,
    eta: Vec<u64>,
    temp: Vec<Vec<u64>>,
    steps: usize,
    iterations: usize,
    residual: u64,
}

fn state(m: &MiniPop) -> State {
    let st = m.barotropic.last_stats.as_ref();
    State {
        u: bits(&m.u),
        v: bits(&m.v),
        eta: bits(&m.eta),
        temp: m.temp.iter().map(|l| bits(l)).collect(),
        steps: m.steps,
        iterations: st.map_or(0, |s| s.iterations),
        residual: st.map_or(0, |s| s.final_relative_residual.to_bits()),
    }
}

/// A model stepped by `MiniPop::step` beside one stepped by the oracle.
struct Pair {
    world: CommWorld,
    model: MiniPop,
    oracle: MiniPop,
}

impl Pair {
    fn new((grid, cfg): (Grid, MiniPopConfig)) -> Self {
        let world = CommWorld::serial();
        let model = MiniPop::new(grid.clone(), cfg.clone(), &world);
        let oracle = MiniPop::new(grid, cfg, &world);
        Pair {
            world,
            model,
            oracle,
        }
    }

    /// Advance both `n` steps, comparing after each.
    fn run(&mut self, name: &str, n: usize) {
        for _ in 0..n {
            self.model.step(&self.world);
            step_reference(&mut self.oracle, &self.world);
            let (got, want) = (state(&self.model), state(&self.oracle));
            if got != want {
                let field = [
                    ("u", got.u == want.u),
                    ("v", got.v == want.v),
                    ("eta", got.eta == want.eta),
                    ("temperature", got.temp == want.temp),
                    (
                        "solve",
                        (got.iterations, got.residual) == (want.iterations, want.residual),
                    ),
                ];
                let differ: Vec<_> = field.iter().filter(|f| !f.1).map(|f| f.0).collect();
                panic!(
                    "{name}: step {} differs from the oracle in {differ:?}",
                    want.steps
                );
            }
        }
    }
}

/// Active corners with u ≥ 0, u < 0, v ≥ 0 and v < 0: the temperature
/// pass's cells, which average them, see both upwind directions in x and y.
fn upwind_directions(m: &MiniPop) -> [usize; 4] {
    let mut seen = [0; 4];
    for k in 0..m.u.len() {
        if m.grid.hu[k] > 0.0 {
            seen[usize::from(m.u[k] < 0.0)] += 1;
            seen[2 + usize::from(m.v[k] < 0.0)] += 1;
        }
    }
    seen
}

#[test]
fn gyre_step_is_the_oracle_bitwise() {
    let mut p = Pair::new(gyre());
    p.model.perturb_temperature(1.0e-6, 2015);
    p.oracle.perturb_temperature(1.0e-6, 2015);
    p.run("gyre", 1000);
    assert!(p.model.is_healthy());
    let seen = upwind_directions(&p.model);
    assert!(
        seen.iter().all(|&c| c > 0),
        "both upwind directions in x and y: {seen:?}"
    );
}

#[test]
fn periodic_grid_with_islands_is_the_oracle_bitwise() {
    let p = Pair::new(global());
    let g = &p.model.grid;
    let (nx, ny) = (g.nx, g.ny);
    assert!(g.periodic_x);
    let wraps = (0..ny).any(|j| g.hu[j * nx + nx - 1] > 0.0);
    assert!(wraps, "an active corner on the seam");
    let inner_dead = (1..ny - 2)
        .flat_map(|j| (1..nx - 1).map(move |i| j * nx + i))
        .any(|k| g.mask[k] && g.hu[k] == 0.0);
    assert!(
        inner_dead,
        "an inactive corner beside ocean, inside the domain"
    );
    let mut p = p;
    p.run("gx1", 300);
    assert!(p.model.is_healthy());
}

#[test]
fn restore_mid_run_is_the_oracle_bitwise() {
    for (name, setup) in [("gyre", gyre()), ("gx1", global())] {
        let mut p = Pair::new(setup);
        p.run(name, 60);
        let (snap_model, snap_oracle) = (p.model.snapshot(), p.oracle.snapshot());
        p.run(name, 25);
        p.model.restore(&snap_model);
        restore_reference(&mut p.oracle, &snap_oracle);
        p.run(name, 40);
    }
}

#[test]
fn perturbed_temperature_is_the_oracle_bitwise() {
    for (name, setup) in [("gyre", gyre()), ("gx1", global())] {
        let mut p = Pair::new(setup);
        p.model.perturb_temperature(1.0e-14, 42);
        p.oracle.perturb_temperature(1.0e-14, 42);
        p.run(name, 100);
    }
}
