//! Cross-solve history keyed by operator fingerprint.
//!
//! The preconditioner selector (`pop-core`) ranks candidate preconditioners
//! for an operator it has seen before by what actually happened: mean
//! measured iteration counts per `(operator fingerprint, preconditioner
//! label)` pair beat any a-priori condition-number model. This store is that
//! memory — deliberately tiny and deliberately *not* part of the metrics
//! registry: registry label values must be `&'static str`, while
//! fingerprints are runtime `u64`s, and the selector needs exact keyed
//! lookups rather than exposition-format samples.
//!
//! Determinism contract: selection must be a pure function of (operator,
//! history). [`SolveHistory`] only ever hands out aggregate means computed
//! from integer sums, so two histories fed the same records in any order
//! compare equal and produce bit-identical means.

use std::collections::HashMap;
use std::sync::Mutex;

/// Aggregate outcome of every recorded solve for one
/// `(fingerprint, preconditioner)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Number of recorded solves.
    pub solves: u64,
    /// Total iterations across those solves.
    pub total_iterations: u64,
}

impl CandidateStats {
    /// Mean iterations per solve. Exact integer division semantics are not
    /// needed — the quotient of two exactly-represented integers is
    /// deterministic.
    pub fn mean_iterations(&self) -> f64 {
        debug_assert!(self.solves > 0);
        self.total_iterations as f64 / self.solves as f64
    }
}

/// Thread-safe store of per-`(fingerprint, precond)` solve outcomes.
#[derive(Debug, Default)]
pub struct SolveHistory {
    inner: Mutex<HashMap<(u64, &'static str), CandidateStats>>,
}

impl SolveHistory {
    pub fn new() -> SolveHistory {
        SolveHistory::default()
    }

    /// Record one finished solve of the operator with `fingerprint` under
    /// the preconditioner labelled `precond` (a `PrecondSpec::label`-style
    /// static label) that took `iterations` iterations.
    pub fn record(&self, fingerprint: u64, precond: &'static str, iterations: usize) {
        let mut map = self.inner.lock().expect("history store poisoned");
        let e = map.entry((fingerprint, precond)).or_default();
        e.solves += 1;
        e.total_iterations += iterations as u64;
    }

    /// Mean measured iterations for the pair, `None` if never recorded.
    pub fn mean_iterations(&self, fingerprint: u64, precond: &str) -> Option<f64> {
        let map = self.inner.lock().expect("history store poisoned");
        map.get(&(fingerprint, precond))
            .map(|s| s.mean_iterations())
    }

    /// Raw aggregate for the pair, `None` if never recorded.
    pub fn stats(&self, fingerprint: u64, precond: &str) -> Option<CandidateStats> {
        let map = self.inner.lock().expect("history store poisoned");
        map.get(&(fingerprint, precond)).copied()
    }

    /// Has *any* preconditioner been recorded for this fingerprint?
    pub fn has_any(&self, fingerprint: u64) -> bool {
        let map = self.inner.lock().expect("history store poisoned");
        map.keys().any(|&(fp, _)| fp == fingerprint)
    }

    /// Forget everything (tests; cache-eviction policies).
    pub fn clear(&self) {
        self.inner.lock().expect("history store poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mean() {
        let h = SolveHistory::new();
        assert!(!h.has_any(7));
        assert_eq!(h.mean_iterations(7, "diag"), None);
        h.record(7, "diag", 100);
        h.record(7, "diag", 50);
        h.record(7, "mg", 30);
        assert!(h.has_any(7));
        assert_eq!(h.mean_iterations(7, "diag"), Some(75.0));
        assert_eq!(h.mean_iterations(7, "mg"), Some(30.0));
        assert_eq!(h.mean_iterations(8, "diag"), None);
        assert_eq!(
            h.stats(7, "diag"),
            Some(CandidateStats {
                solves: 2,
                total_iterations: 150
            })
        );
        h.clear();
        assert!(!h.has_any(7));
    }

    #[test]
    fn means_are_order_independent() {
        let (a, b) = (SolveHistory::new(), SolveHistory::new());
        for it in [13usize, 97, 61, 7] {
            a.record(1, "evp", it);
        }
        for it in [7usize, 61, 97, 13] {
            b.record(1, "evp", it);
        }
        assert_eq!(
            a.mean_iterations(1, "evp").unwrap().to_bits(),
            b.mean_iterations(1, "evp").unwrap().to_bits()
        );
    }
}
