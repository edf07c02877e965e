//! `pop-obs`: the observability layer for the barotropic solvers.
//!
//! The paper's scalability argument is built on *measuring* where solve
//! time goes — reductions vs. halos vs. compute, iteration counts per
//! preconditioner (Figs. 5–8). This crate makes that telemetry a first-class
//! part of the reproduction:
//!
//! * [`Registry`] — a lock-free metrics registry (counters, gauges,
//!   fixed-bucket histograms) keyed by static names, safe to hammer from the
//!   thread pool and the ranksim rank threads.
//! * [`ConvergenceTrace`] — the per-solve record: residual at every
//!   convergence check, eigenbound estimates, restart events, and
//!   communication counts attributed to solver phases.
//! * [`export`] — Prometheus text format, JSON-lines and SLO-quantile
//!   renderers.
//! * [`ObsSink`] — the handle threaded through `SolverConfig`. The default
//!   sink is disabled and costs nothing on the hot path; solver output is
//!   bit-identical with observability on or off (`tests/obs_equivalence.rs`).
//!
//! The metric catalogue and trace schema are documented in DESIGN.md §11.

pub mod export;
pub mod quantile;
pub mod registry;
pub mod sink;
pub mod trace;

pub use quantile::{histogram_quantile, slo_quantiles, Quantiles};
pub use registry::{MetricSample, Registry, SampleValue, MAX_LABELS};
pub use sink::{ObsSink, SolveObs, RESIDUAL_BUCKETS};
pub use trace::{ConvergenceTrace, PhaseComm};
