//! Ensemble-based statistical verification of solver changes (paper §6).
//!
//! Changing the barotropic solver cannot preserve bit-for-bit results, and
//! §6 of the paper shows that a plain RMSE check against a reference run is
//! *unable* to tell a sloppy solver (tolerance 1e-10) from a strict one
//! (1e-16): chaotic divergence swamps the signal (their Fig. 12). The
//! paper's alternative — adopted here — is statistical:
//!
//! 1. Build an ensemble of `m` runs identical up to an `O(10⁻¹⁴)` initial
//!    temperature perturbation. The ensemble samples the model's natural
//!    variability.
//! 2. For a candidate run (new solver, new tolerance, new machine...),
//!    compute the root-mean-square **Z-score** of its temperature field
//!    against the ensemble's pointwise mean and standard deviation.
//! 3. The candidate is *consistent* if its RMSZ falls within the range the
//!    ensemble members themselves produce (leave-one-out), and flagged if it
//!    sits far outside (their Fig. 13 flags 1e-10 and 1e-11).
//!
//! [`stats`] holds the metric math (testable in isolation);
//! [`ensemble`] runs `pop-ocean` models to produce the monthly fields;
//! [`consistency`] wraps both into the pass/fail decision;
//! [`mms`] is the sharper unit-level oracle — manufactured solutions with
//! analytically known answers, for testing that a solver solves the
//! *equation*, not just that it matches another implementation.

pub mod consistency;
pub mod ensemble;
pub mod mms;
pub mod stats;

pub use consistency::{ConsistencyReport, Verdict};
pub use ensemble::{EnsembleConfig, EnsembleStats, VerificationLab};
pub use mms::MmsCase;
pub use stats::{rmse, rmsz, rmsz_detailed, EnsembleMoments, RmszScore};
