//! Observability end to end: run one P-CSI + block-EVP solve with a live
//! [`ObsSink`] and print what it captured — the Prometheus text exposition
//! of the metrics registry, then the convergence trace as JSON lines.
//!
//! Run with: `cargo run --release --example obs_dump`

use pop_baro::core::solvers::SolverWorkspace;
use pop_baro::prelude::*;

fn main() {
    let grid = Grid::gx1_scaled(2015, 160, 128);
    let layout = DistLayout::build(&grid, 20, 16);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 1200.0);

    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.07).sin() * ((j as f64) * 0.11).cos());
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);

    // The paper's production configuration: P-CSI with the block-EVP
    // preconditioner, spectral bounds from a one-time Lanczos estimation.
    let evp = BlockEvp::with_defaults(&op);
    // Which tile path the preconditioner's work goes down: EVP marching
    // away from coasts, the band-LU direct solve where a tile touches land.
    let census = evp.census();
    let paths = [
        ("all-land", census.all_land),
        ("marching", census.marching),
        ("banded", census.banded),
    ];
    let points: usize = paths.iter().map(|(_, c)| c.points).sum();
    println!("block-EVP tile census ({0}x{0} tiles):", evp.tile_size());
    for (path, c) in paths {
        println!(
            "  {path:<9} {:>5} tiles {:>7} points ({:>5.1} % of points)",
            c.tiles,
            c.points,
            100.0 * c.points as f64 / points as f64
        );
    }
    // How many of the solved tiles go four at a time through a lane pack —
    // a tile needs a same-shape, same-path sibling in its sweep group (up
    // to four consecutive same-shape blocks) — and how many of the lane
    // slots the apply's tile solves fill.
    println!(
        "  packed    {:>5} of {} solved tiles, in {} packs of {:.2} live lanes on average",
        census.packed.tiles,
        census.marching.tiles + census.banded.tiles,
        census.packs,
        census.packed.tiles as f64 / census.packs.max(1) as f64
    );
    println!(
        "  lanes     {:>5} slots in {} tile solves, {:.1} % idle",
        census.lanes,
        census.lanes / 4,
        100.0 * census.idle_share()
    );
    let (bounds, lanczos_steps) = estimate_bounds(&op, &evp, &world, &LanczosConfig::default());
    println!(
        "eigenbounds: nu = {:.6}, mu = {:.6} (condition {:.1}, {lanczos_steps} Lanczos steps)",
        bounds.nu,
        bounds.mu,
        bounds.condition()
    );

    // Thread a live sink through the solver configuration. The same config
    // with the default (disabled) sink produces bit-identical solves — the
    // telemetry is free to leave on in production.
    let obs = ObsSink::enabled();
    let cfg = SolverConfig {
        tol: 1e-13,
        max_iters: 50_000,
        check_every: 10,
        ..SolverConfig::default()
    }
    .with_obs(obs.clone());

    let mut x = DistVec::zeros(&layout);
    let mut ws = SolverWorkspace::new();
    let stats = Pcsi::new(bounds).solve_ws(&op, &evp, &world, &rhs, &mut x, &cfg, &mut ws);
    assert!(stats.converged, "P-CSI did not converge");
    println!(
        "solved in {} iterations, {} allreduces ({} convergence checks), residual {:.2e}\n",
        stats.iterations,
        stats.comm.allreduces,
        stats.residual_history.len(),
        stats.final_relative_residual
    );

    println!("---- Prometheus exposition ----");
    print!("{}", obs.prometheus());

    println!("---- convergence trace (JSON lines) ----");
    for t in obs.traces() {
        println!("{}", pop_baro::obs::export::trace_json(&t));
    }
}
