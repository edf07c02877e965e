//! The paper's headline experiment in miniature: measure real iteration
//! counts of the four solver configurations on a 0.1°-like grid, then model
//! barotropic wall time and whole-POP simulation rate across production
//! core counts on Yellowstone (substitution S2 in DESIGN.md).
//!
//! Run with: `cargo run --release --example high_res_scaling`

use pop_baro::perfmodel::cost::{PrecondKind, SolverKind, SolverProfile};
use pop_baro::prelude::*;

fn main() {
    let grid = Grid::gx01_scaled(2015, 450, 300);
    let layout = DistLayout::build(&grid, 30, 20);
    let world = CommWorld::serial();
    // Stiffness-matched time step for the scaled grid (see DESIGN.md S4).
    let op = NinePoint::assemble(&grid, &layout, &world, 8.0 * 86.4);

    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.05).sin() + ((j as f64) * 0.08).cos());
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);
    let cfg = SolverConfig::default();

    println!(
        "measuring iteration counts on a {}x{} 0.1deg-like grid...",
        grid.nx, grid.ny
    );
    let mut profiles = Vec::new();
    for choice in SolverChoice::PAPER_SET {
        let setup = SolverSetup::new(choice, &op, &world);
        let mut x = DistVec::zeros(&layout);
        let stats = setup.solve(&op, &world, &rhs, &mut x, &cfg);
        assert!(stats.converged);
        println!("  {}: {} iterations", choice.label(), stats.iterations);
        profiles.push((
            choice,
            SolverProfile {
                solver: if choice.is_pcsi() {
                    SolverKind::Pcsi
                } else {
                    SolverKind::ChronGear
                },
                precond: if choice.precond == PrecondSpec::Evp {
                    PrecondKind::Evp
                } else {
                    PrecondKind::Diagonal
                },
                iterations: stats.iterations as f64,
                check_every: cfg.check_every,
            },
        ));
    }

    let model = PopModel::new(PopConfig::gx01_yellowstone());
    println!(
        "\n{:<8} {:>10} {:>10} {:>10} {:>10}   {:>6}",
        "cores", "cg+diag", "cg+evp", "pcsi+diag", "pcsi+evp", "SYPD*"
    );
    for p in [470usize, 1350, 2700, 5400, 10800, 16875] {
        let times: Vec<f64> = profiles
            .iter()
            .map(|(_, prof)| model.day(p, prof, 0).barotropic.total())
            .collect();
        let sypd = model.day(p, &profiles[3].1, 0).sypd;
        println!(
            "{:<8} {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s   {:>6.1}",
            p, times[0], times[1], times[2], times[3], sypd
        );
    }
    println!("(* whole-POP simulated years per day with P-CSI+EVP)");
    let base = model.day(16875, &profiles[0].1, 0).barotropic.total();
    let best = model.day(16875, &profiles[3].1, 0).barotropic.total();
    println!(
        "\nbarotropic speedup at 16,875 cores: {:.1}x (paper: 5.2x on Yellowstone)",
        base / best
    );
}
