//! Auto-tuned preconditioner selection (DESIGN.md §15.3).
//!
//! No fixed preconditioner wins everywhere: diagonal is unbeatable on
//! well-conditioned operators (tiny per-iteration cost), EVP wins the
//! paper's production regime, and multigrid wins once conditioning makes
//! iteration counts the bottleneck. Following the auto-tuning argument of
//! Phillips et al. (PAPERS.md), the selector picks a [`PrecondSpec`] per
//! operator at setup time from two signals, in priority order:
//!
//! 1. **Measured history** — when a [`SolveHistory`] has recorded solves for
//!    this operator fingerprint, candidates *with* history are ranked by
//!    `mean measured iterations × per-iteration cost` and the cheapest wins.
//!    Candidates without history are not ranked against measurements
//!    (modelled and measured iteration counts are not commensurable).
//! 2. **Condition estimate** — otherwise each candidate is built, its
//!    spectral interval `[ν, μ]` of `M⁻¹A` estimated with the seeded
//!    Lanczos process, and candidates are ranked by `√(μ/ν) ×
//!    per-iteration cost` — the Chebyshev/CG iteration-count scaling times
//!    what one iteration costs.
//!
//! Ties break toward the earliest candidate in the configured order, so the
//! selection is a pure deterministic function of `(operator fingerprint,
//! Lanczos bounds, history contents)` — pinned by
//! `tests/precond_selector.rs`.

use crate::fingerprint::operator_fingerprint;
use crate::lanczos::{estimate_bounds, LanczosConfig};
use crate::setup::PrecondSpec;
use pop_comm::CommWorld;
use pop_obs::SolveHistory;
use pop_stencil::NinePoint;

/// Flops per ocean point one solver iteration spends outside the
/// preconditioner: the nine-point matvec (≈ 9 multiply-adds) plus the
/// vector recurrences (≈ 4). Identical for every candidate, but it keeps
/// the ranking honest: a preconditioner that halves iterations at 30 flops
/// each must beat `(13 + cost)`-scaling, not just its own cost.
const BASE_ITER_FLOPS: f64 = 13.0;

/// The candidate set and estimation settings of one selection run.
#[derive(Debug, Clone)]
pub struct SelectorConfig {
    /// Candidates in priority order (earlier wins ties).
    pub candidates: Vec<PrecondSpec>,
    /// Lanczos settings for the condition-estimate fallback.
    pub lanczos: LanczosConfig,
}

impl Default for SelectorConfig {
    /// The tentpole trio: POP's production default, the paper's block-EVP,
    /// and the multigrid V-cycle.
    fn default() -> Self {
        SelectorConfig {
            candidates: vec![PrecondSpec::Diagonal, PrecondSpec::Evp, PrecondSpec::Mg],
            lanczos: LanczosConfig::default(),
        }
    }
}

/// Nominal per-application cost of a candidate in flops per ocean point —
/// the paper's §4.3 figures (diagonal = 1, reduced EVP ≈ 14) extended to
/// the other specs. A static model rather than the built preconditioner's
/// own accounting, so the history fast path never has to construct the
/// candidates it is ranking.
pub fn nominal_flops_per_point(spec: PrecondSpec) -> f64 {
    match spec {
        PrecondSpec::Identity => 0.0,
        PrecondSpec::Diagonal => 1.0,
        PrecondSpec::Evp => 14.0,
        // Band-LU substitutions at the default 8×8 tile: half-width
        // w = 9, a multiply and a subtract per band entry (2w + 1 per
        // row) and the pivot division.
        PrecondSpec::BlockLu => 39.0,
        // Two parity-chain V(1,1) cycles (§15.2): two damped-Jacobi sweeps
        // and two residuals per level per chain, geometric-series level
        // sizes, plus the sign staging of the combination.
        PrecondSpec::Mg => 70.0,
    }
}

/// How one candidate scored during selection.
#[derive(Debug, Clone, Copy)]
pub struct CandidateScore {
    pub spec: PrecondSpec,
    /// Mean measured iterations from history, when that signal was used.
    pub mean_iterations: Option<f64>,
    /// `√(μ/ν)` from the Lanczos estimate, when that signal was used.
    pub sqrt_condition: Option<f64>,
    /// Ranking key: predicted iterations × per-iteration flops. `None` when
    /// the candidate was not rankable (no history in history mode).
    pub cost: Option<f64>,
}

/// The outcome of a selection run.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Fingerprint of the operator the selection was made for.
    pub fingerprint: u64,
    /// The winner.
    pub spec: PrecondSpec,
    /// Whether measured history (rather than condition estimates) decided.
    pub used_history: bool,
    /// Every candidate's score, in configured candidate order.
    pub scores: Vec<CandidateScore>,
}

/// Deterministic preconditioner selection for one operator.
pub struct PrecondSelector {
    cfg: SelectorConfig,
}

impl Default for PrecondSelector {
    fn default() -> Self {
        PrecondSelector::new(SelectorConfig::default())
    }
}

impl PrecondSelector {
    pub fn new(cfg: SelectorConfig) -> Self {
        assert!(!cfg.candidates.is_empty(), "need at least one candidate");
        PrecondSelector { cfg }
    }

    pub fn config(&self) -> &SelectorConfig {
        &self.cfg
    }

    /// Pick the cheapest candidate for `op`. Pure function of the operator
    /// coefficients, the configured candidate order, and (when provided)
    /// the history contents for this operator's fingerprint.
    pub fn select(
        &self,
        op: &NinePoint,
        world: &CommWorld,
        history: Option<&SolveHistory>,
    ) -> Selection {
        let fingerprint = operator_fingerprint(op);
        let recorded: Vec<bool> = self
            .cfg
            .candidates
            .iter()
            .map(|spec| {
                history
                    .and_then(|h| h.mean_iterations(fingerprint, spec.label()))
                    .is_some()
            })
            .collect();
        let used_history = recorded.iter().any(|&r| r);

        let scores: Vec<CandidateScore> = self
            .cfg
            .candidates
            .iter()
            .zip(&recorded)
            .map(|(&spec, &has_history)| {
                let per_iter = BASE_ITER_FLOPS + nominal_flops_per_point(spec);
                if used_history {
                    let mean = has_history.then(|| {
                        history
                            .expect("used_history implies a store")
                            .mean_iterations(fingerprint, spec.label())
                            .expect("recorded candidate has a mean")
                    });
                    CandidateScore {
                        spec,
                        mean_iterations: mean,
                        sqrt_condition: None,
                        cost: mean.map(|m| m * per_iter),
                    }
                } else {
                    let precond = spec.build(op);
                    let (bounds, _steps) =
                        estimate_bounds(op, precond.as_ref(), world, &self.cfg.lanczos);
                    let sqrt_kappa = bounds.condition().sqrt();
                    CandidateScore {
                        spec,
                        mean_iterations: None,
                        sqrt_condition: Some(sqrt_kappa),
                        cost: Some(sqrt_kappa * per_iter),
                    }
                }
            })
            .collect();

        // First strictly-cheaper candidate wins; earlier order wins ties.
        let mut best: Option<(usize, f64)> = None;
        for (k, s) in scores.iter().enumerate() {
            if let Some(c) = s.cost {
                if best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((k, c));
                }
            }
        }
        let (winner, _) = best.expect("at least one candidate must be rankable");
        Selection {
            fingerprint,
            spec: self.cfg.candidates[winner],
            used_history,
            scores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::testutil::fixture;
    use pop_grid::Grid;

    #[test]
    fn empty_history_falls_back_to_condition_estimates() {
        let grid = Grid::gx1_scaled(23, 40, 32);
        let f = fixture(&grid, 10, 8, 5000.0);
        let sel = PrecondSelector::default();
        let h = SolveHistory::new();
        let with_empty = sel.select(&f.op, &f.world, Some(&h));
        let without = sel.select(&f.op, &f.world, None);
        assert!(!with_empty.used_history);
        assert_eq!(with_empty.spec, without.spec);
        for s in &with_empty.scores {
            assert!(s.sqrt_condition.is_some());
            assert!(s.mean_iterations.is_none());
        }
    }

    #[test]
    fn history_overrides_condition_estimates() {
        let grid = Grid::gx1_scaled(23, 40, 32);
        let f = fixture(&grid, 10, 8, 5000.0);
        let sel = PrecondSelector::default();
        let fp = operator_fingerprint(&f.op);
        let h = SolveHistory::new();
        // Make diagonal look measured-terrible and EVP measured-great; MG
        // unrecorded must not be ranked at all.
        h.record(fp, "diag", 100_000);
        h.record(fp, "evp", 3);
        let s = sel.select(&f.op, &f.world, Some(&h));
        assert!(s.used_history);
        assert_eq!(s.spec, PrecondSpec::Evp);
        let mg = s
            .scores
            .iter()
            .find(|c| c.spec == PrecondSpec::Mg)
            .expect("mg is a default candidate");
        assert!(mg.cost.is_none(), "unrecorded candidate must not be ranked");
    }

    #[test]
    fn history_for_other_fingerprints_is_ignored() {
        let grid = Grid::gx1_scaled(23, 40, 32);
        let f = fixture(&grid, 10, 8, 5000.0);
        let sel = PrecondSelector::default();
        let fp = operator_fingerprint(&f.op);
        let h = SolveHistory::new();
        h.record(fp.wrapping_add(1), "diag", 1);
        let s = sel.select(&f.op, &f.world, Some(&h));
        assert!(!s.used_history, "foreign fingerprints must not count");
    }
}
