//! Bitwise equivalence of the set-up's Lanczos estimate.
//!
//! `estimate_bounds` runs on the fused sweeps (three group sweeps a step,
//! the `pᵀAp` and `rᵀz` partials riding the stencil and `M⁻¹` kernels).
//! It must return exactly what the whole-field loop it replaced returns —
//! kept as `common::reference::lanczos_reference` — on every operator a
//! benchmark workload builds: the same `ν` and `μ` bits, the same step
//! count, and the same allreduce and halo-exchange counts. Each operator is
//! crossed with both preconditioners and with the paper's default
//! configuration, the set-up one the model and the service run, and the
//! fixed step counts of Figure 3's sweep.

use pop_baro::core::lanczos::estimate_bounds_fixed_steps;
use pop_baro::prelude::*;

mod common;

use common::reference::lanczos_reference;

/// The operators of the gated workloads: the 1° grid in 40×48 blocks, the
/// gyre basin, the service's two tenants and the 1024-rank sweep's 8×6
/// decomposition — with the time steps their workloads assemble at.
fn operators() -> Vec<(&'static str, NinePoint)> {
    let cases = [
        ("gx1 40x48", Grid::gx1(2015), (40, 48), 1100.0),
        (
            "gyre 16x12",
            Grid::idealized_basin(64, 48, 500.0, 2.0e4),
            (16, 12),
            2400.0,
        ),
        (
            "serve-0 8x8",
            Grid::gx1_scaled(2015, 96, 80),
            (8, 8),
            4000.0,
        ),
        (
            "serve-1 8x8",
            Grid::gx1_scaled(2016, 96, 80),
            (8, 8),
            5500.0,
        ),
        (
            "ranks-1024 8x6",
            Grid::gx1_scaled(2015, 320, 240),
            (8, 6),
            2700.0,
        ),
    ];
    let world = CommWorld::serial();
    cases
        .into_iter()
        .map(|(name, g, (bx, by), tau)| {
            let layout = DistLayout::build(&g, bx, by);
            (name, NinePoint::assemble(&g, &layout, &world, tau))
        })
        .collect()
}

/// How a case runs the estimate: to settling under a configuration, or a
/// fixed number of steps.
#[derive(Clone, Copy, Debug)]
enum Run {
    Settle(LanczosConfig),
    Fixed(usize),
}

fn runs() -> [Run; 4] {
    [
        Run::Settle(LanczosConfig::default()),
        Run::Settle(LanczosConfig::SETUP),
        Run::Fixed(8),
        Run::Fixed(30),
    ]
}

/// What one estimate produced, as bits, and what it communicated.
#[derive(Debug, PartialEq)]
struct Estimate {
    nu: u64,
    mu: u64,
    steps: Option<usize>,
    comm: pop_baro::comm::StatsSnapshot,
}

fn observe(
    world: &CommWorld,
    f: impl FnOnce(&CommWorld) -> (EigenBounds, Option<usize>),
) -> Estimate {
    let before = world.stats();
    let (b, steps) = f(world);
    Estimate {
        nu: b.nu.to_bits(),
        mu: b.mu.to_bits(),
        steps,
        comm: world.stats().since(&before),
    }
}

fn check(name: &str, op: &NinePoint, pre: &dyn Preconditioner, world: &CommWorld) {
    let seed = LanczosConfig::default().seed;
    for run in runs() {
        let (engine, oracle) = match run {
            Run::Settle(cfg) => (
                observe(world, |w| {
                    let (b, s) = estimate_bounds(op, pre, w, &cfg);
                    (b, Some(s))
                }),
                observe(world, |w| {
                    let (b, s) = lanczos_reference(op, pre, w, &cfg, None);
                    (b, Some(s))
                }),
            ),
            Run::Fixed(steps) => {
                let cfg = LanczosConfig {
                    max_steps: steps,
                    tol: 0.0,
                    ..LanczosConfig::default()
                };
                (
                    observe(world, |w| {
                        (estimate_bounds_fixed_steps(op, pre, w, steps, seed), None)
                    }),
                    observe(world, |w| {
                        (lanczos_reference(op, pre, w, &cfg, Some(steps)).0, None)
                    }),
                )
            }
        };
        assert_eq!(engine, oracle, "{name} / {} / {run:?}", pre.name());
        assert!(engine.comm.allreduces > 0 && engine.comm.halo_updates > 0);
    }
}

/// Every operator × both preconditioners × every run, on the serial world.
#[test]
fn engine_estimate_is_the_whole_field_loop_bitwise() {
    let world = CommWorld::serial();
    for (name, op) in operators() {
        check(name, &op, &Diagonal::new(&op), &world);
        check(name, &op, &BlockEvp::with_defaults(&op), &world);
    }
}

/// The threaded world folds the same partials in the same block order.
#[test]
fn threaded_estimate_is_the_serial_one() {
    let (serial, threaded) = (CommWorld::serial(), CommWorld::threaded());
    for (name, op) in operators() {
        let pre = BlockEvp::with_defaults(&op);
        let cfg = LanczosConfig::SETUP;
        let (a, sa) = estimate_bounds(&op, &pre, &serial, &cfg);
        let (b, sb) = estimate_bounds(&op, &pre, &threaded, &cfg);
        assert_eq!(
            (a.nu.to_bits(), a.mu.to_bits(), sa),
            (b.nu.to_bits(), b.mu.to_bits(), sb),
            "{name}"
        );
    }
}
