//! A miniature §6 verification campaign: build a small perturbation
//! ensemble, then check a loose-tolerance solver (flagged) and the paper's
//! P-CSI+EVP at the default tolerance against it with the RMSZ metric.
//!
//! This is the fast demonstration; the full-fidelity campaign (40 members,
//! saturated horizons) is `cargo run -p pop-bench --release --bin
//! run_all -- --full fig13`.
//!
//! Run with: `cargo run --release --example ensemble_verification`

use pop_baro::prelude::*;
use pop_baro::verif::consistency::{evaluate, DEFAULT_ALLOWED_FAILURES, DEFAULT_MARGIN};

fn main() {
    let grid = Grid::idealized_basin(48, 36, 500.0, 2.0e4);
    let world = CommWorld::serial();
    let mut base = MiniPopConfig::eddying_for(&grid);
    base.nlev = 2;
    base.solver = SolverChoice::ChronGearDiag;
    base.tolerance = 1e-13;

    let cfg = EnsembleConfig {
        members: 10,
        perturbation: 1e-14,
        months: 6,
        steps_per_month: 400,
        spinup_steps: 2000,
    };
    println!(
        "spinning up and branching a {}-member ensemble ({} months x {} steps)...",
        cfg.members, cfg.months, cfg.steps_per_month
    );
    let lab = VerificationLab::new(grid, base, cfg, &world);
    let ensemble = lab.build_ensemble(&world);

    println!("\nmember RMSZ envelope per month (the 'natural variability band'):");
    for (t, (lo, hi)) in ensemble.member_rmsz_range.iter().enumerate() {
        println!("  month {}: [{:.2}, {:.2}]", t + 1, lo, hi);
    }

    for (label, solver, tol) in [
        (
            "sloppy solver (tol 1e-10)",
            SolverChoice::ChronGearDiag,
            1e-10,
        ),
        ("new P-CSI+EVP (tol 1e-13)", SolverChoice::PcsiEvp, 1e-13),
    ] {
        let months = lab.run_trajectory(&world, None, solver, tol);
        let report = evaluate(&ensemble, &months, DEFAULT_MARGIN, DEFAULT_ALLOWED_FAILURES);
        println!("\ncandidate: {label}");
        print!("  RMSZ by month:");
        for z in &report.rmsz {
            print!(" {z:.2}");
        }
        println!("\n  verdict: {:?}", report.verdict);
    }
    println!(
        "\nthe sloppy tolerance is flagged ORDERS OF MAGNITUDE outside the band, and the\n\
         new solver scores far closer to the ensemble than any loose tolerance - the\n\
         discrimination that let the paper clear P-CSI+EVP for the CESM release.\n\
         (at this short demo horizon the ensemble spread has not saturated, so even\n\
         benign candidates sit above the band; see EXPERIMENTS.md, Fig 13.)"
    );
}
