//! The auto-tuned preconditioner selection is a pure function.
//!
//! DESIGN.md §15.3 promises that a [`PrecondSelector`] decision depends on
//! exactly three inputs — the operator fingerprint, the Lanczos condition
//! estimates, and the recorded history for that fingerprint — and on
//! nothing else: not wall time, not allocation addresses, not iteration
//! order of any map. This suite treats that as a property and checks it
//! over a seeded family of operators: identical inputs give identical
//! selections (down to the score bits), an empty history store behaves
//! exactly like no store at all (the condition-estimate fallback), and
//! history entries only ever influence the fingerprint they were recorded
//! under.

use pop_baro::prelude::*;
use pop_core::fingerprint::operator_fingerprint;

mod common;
use common::{problem_on, splitmix64};

/// Everything a `Selection` exposes, flattened to exactly comparable bits.
fn flatten(sel: &Selection) -> (u64, PrecondSpec, bool, Vec<(u64, u64, u64)>) {
    let scores = sel
        .scores
        .iter()
        .map(|s| {
            (
                s.mean_iterations.unwrap_or(-1.0).to_bits(),
                s.sqrt_condition.unwrap_or(-1.0).to_bits(),
                s.cost.unwrap_or(-1.0).to_bits(),
            )
        })
        .collect();
    (sel.fingerprint, sel.spec, sel.used_history, scores)
}

/// The seeded operator family: three grids × three timesteps, spanning the
/// φ-dominated, mixed, and Laplacian-dominated regimes.
fn operators() -> Vec<(String, Grid, usize, usize, f64)> {
    let mut ops = Vec::new();
    for (gname, grid, bx, by) in [
        ("gx01", Grid::gx01_scaled(11, 90, 60), 18usize, 20usize),
        ("gx1", Grid::gx1_scaled(23, 40, 32), 10, 8),
        (
            "basin",
            Grid::idealized_basin(48, 48, 4000.0, 100_000.0),
            48,
            48,
        ),
    ] {
        for tau in [30.0, 1800.0, 34560.0] {
            ops.push((format!("{gname} tau={tau}"), grid.clone(), bx, by, tau));
        }
    }
    ops
}

/// Identical `(fingerprint, bounds, history)` inputs must yield identical
/// selections — across repeated calls, across a freshly built selector, and
/// across a freshly assembled (but equal) operator.
#[test]
fn identical_inputs_give_identical_selections() {
    for (name, grid, bx, by, tau) in operators() {
        let world = CommWorld::serial();
        let p = problem_on(&grid, bx, by, tau, 7);
        let fp = operator_fingerprint(&p.op);

        // A seeded history: MG measured best on half the fingerprints,
        // diagonal on the rest, plus noise records for other fingerprints.
        let history = SolveHistory::new();
        let mut s = fp;
        for label in ["diag", "evp", "mg"] {
            let its = 10 + (splitmix64(&mut s) % 400) as usize;
            history.record(fp, label, its);
            history.record(fp ^ 0xDEAD_BEEF, label, 1);
        }

        for hist in [None, Some(&history)] {
            let selector = PrecondSelector::default();
            let base = selector.select(&p.op, &world, hist);
            assert_eq!(base.fingerprint, fp, "{name}: fingerprint mismatch");
            assert_eq!(
                base.used_history,
                hist.is_some(),
                "{name}: history mode mismatch"
            );
            // Repeat with the same selector, a new selector, and a freshly
            // assembled operator: all bit-identical.
            let again = selector.select(&p.op, &world, hist);
            let fresh_selector = PrecondSelector::default().select(&p.op, &world, hist);
            let p2 = problem_on(&grid, bx, by, tau, 7);
            let fresh_op = PrecondSelector::default().select(&p2.op, &world, hist);
            for (arm, got) in [
                ("repeat", again),
                ("fresh selector", fresh_selector),
                ("fresh operator", fresh_op),
            ] {
                assert_eq!(
                    flatten(&got),
                    flatten(&base),
                    "{name}: {arm} selection diverged"
                );
            }
        }
    }
}

/// An empty history store is indistinguishable from no store: both take the
/// condition-estimate fallback and land on the same spec with the same
/// √κ-based scores.
#[test]
fn empty_history_falls_back_to_condition_estimates() {
    for (name, grid, bx, by, tau) in operators() {
        let world = CommWorld::serial();
        let p = problem_on(&grid, bx, by, tau, 7);
        let selector = PrecondSelector::default();
        let empty = SolveHistory::new();
        let with_empty = selector.select(&p.op, &world, Some(&empty));
        let without = selector.select(&p.op, &world, None);
        assert!(
            !with_empty.used_history,
            "{name}: empty store counted as history"
        );
        assert_eq!(
            flatten(&with_empty),
            flatten(&without),
            "{name}: empty store diverged from no store"
        );
        for s in &with_empty.scores {
            assert!(
                s.sqrt_condition.is_some() && s.mean_iterations.is_none(),
                "{name}: fallback must rank by condition estimates only"
            );
        }
    }
}

/// History recorded under other fingerprints never leaks into a selection:
/// adding foreign records leaves the decision bit-identical to no history.
#[test]
fn foreign_fingerprint_history_is_inert() {
    let (_, grid, bx, by, tau) = &operators()[4];
    let world = CommWorld::serial();
    let p = problem_on(grid, *bx, *by, *tau, 7);
    let fp = operator_fingerprint(&p.op);
    let selector = PrecondSelector::default();
    let foreign = SolveHistory::new();
    for k in 1..=16u64 {
        foreign.record(fp.wrapping_add(k), "mg", 1);
        foreign.record(fp.wrapping_mul(0x9e37_79b9).wrapping_add(k), "diag", 90_000);
    }
    let with_foreign = selector.select(&p.op, &world, Some(&foreign));
    let without = selector.select(&p.op, &world, None);
    assert!(!with_foreign.used_history);
    assert_eq!(flatten(&with_foreign), flatten(&without));
}

/// In history mode the ranking is `mean iterations × per-iteration cost`
/// over recorded candidates only: a measured-cheap MG must win even when
/// the condition estimate would have gone elsewhere, and unrecorded
/// candidates must never be ranked.
#[test]
fn measured_history_overrides_condition_estimates_deterministically() {
    let (_, grid, bx, by, tau) = &operators()[1];
    let world = CommWorld::serial();
    let p = problem_on(grid, *bx, *by, *tau, 7);
    let fp = operator_fingerprint(&p.op);
    let selector = PrecondSelector::default();
    let history = SolveHistory::new();
    history.record(fp, "diag", 50_000);
    history.record(fp, "mg", 2);
    let sel = selector.select(&p.op, &world, Some(&history));
    assert!(sel.used_history);
    assert_eq!(sel.spec, PrecondSpec::Mg, "measured-cheap MG must win");
    let evp = sel
        .scores
        .iter()
        .find(|s| s.spec == PrecondSpec::Evp)
        .expect("evp is a default candidate");
    assert!(
        evp.cost.is_none(),
        "unrecorded candidate must not be ranked"
    );
    // Same store contents rebuilt from scratch → same decision.
    let rebuilt = SolveHistory::new();
    rebuilt.record(fp, "diag", 50_000);
    rebuilt.record(fp, "mg", 2);
    let again = selector.select(&p.op, &world, Some(&rebuilt));
    assert_eq!(flatten(&again), flatten(&sel));
}

/// The operator regimes of DESIGN.md §15.3 land where the cost model says
/// they should. On the 0.1°-shaped operator, measured P-CSI iteration
/// counts feed a history the selector must then use, and MG must need
/// strictly fewer iterations than diagonal. Without history, the stiff
/// whole-domain basin (φ fades, one block spans the domain, estimated √κ ≈ 2
/// for MG against ≈ 25 for EVP) must go to multigrid, and the φ-dominated
/// short-timestep operator must keep a cheap preconditioner.
#[test]
fn regimes_select_the_expected_preconditioner() {
    let world = CommWorld::serial();
    let selector = PrecondSelector::default();

    let grid = Grid::gx01_scaled(7, 180, 120);
    let p = problem_on(&grid, 36, 24, 345.6, 7);
    let cfg = SolverConfig {
        check_every: 1,
        ..common::solver_cfg()
    };
    let history = SolveHistory::new();
    let fp = operator_fingerprint(&p.op);
    let mut iters = Vec::new();
    for spec in [PrecondSpec::Diagonal, PrecondSpec::Evp, PrecondSpec::Mg] {
        let state = OperatorState::build(&p.op, spec, Some(&LanczosConfig::default()), &world);
        let solver = Pcsi::new(state.bounds.expect("bounds requested"));
        let mut x = DistVec::zeros(&p.layout);
        let st = solver.solve(&p.op, state.precond.as_ref(), &world, &p.rhs, &mut x, &cfg);
        assert!(st.converged, "pcsi+{}: {st:?}", spec.label());
        history.record(fp, spec.label(), st.iterations);
        iters.push(st.iterations);
    }
    assert!(
        iters[2] < iters[0],
        "MG-preconditioned P-CSI must need strictly fewer iterations than diagonal ({iters:?})"
    );
    assert!(selector.select(&p.op, &world, Some(&history)).used_history);

    let basin = Grid::idealized_basin(120, 96, 4000.0, 100_000.0);
    let stiff = problem_on(&basin, 120, 96, 345_600.0, 7);
    let sel = selector.select(&stiff.op, &world, None);
    assert_eq!(
        sel.spec,
        PrecondSpec::Mg,
        "the stiff whole-domain basin operator must go to multigrid"
    );
    let sqrt_kappa = |spec| {
        let score = sel.scores.iter().find(|s| s.spec == spec);
        score.and_then(|s| s.sqrt_condition).expect("ranked")
    };
    assert!(
        sqrt_kappa(PrecondSpec::Mg) < 3.0
            && sqrt_kappa(PrecondSpec::Evp) > 5.0 * sqrt_kappa(PrecondSpec::Mg),
        "MG must hold √κ near 2 where EVP's estimate is more than five times higher"
    );
    let short = problem_on(&grid, 36, 24, 30.0, 7);
    assert_ne!(
        selector.select(&short.op, &world, None).spec,
        PrecondSpec::Mg,
        "the φ-dominated operator should keep a cheap preconditioner"
    );
}
