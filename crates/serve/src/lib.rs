//! `pop-serve`: a multi-tenant solve service over the barotropic solvers.
//!
//! The paper's P-CSI + block-EVP stack amortizes an expensive per-operator
//! setup (O(n³) EVP influence matrices, band-LU land-tile factors, a
//! seeded Lanczos eigenbound estimation) over many cheap solves. This
//! crate turns that property into a serving architecture:
//!
//! ```text
//!   submit ──► admission ──► bounded queue ──► dispatch worker pool (×N)
//!              (full? quota?                     │ each worker, under the
//!               deadline feasible                │ queue lock: shed expired,
//!               at pool parallelism?)            │ pick priority lane,
//!                                                │ round-robin by tenant
//!                                                ▼
//!                                     take ONE coalesced group per
//!                                     (operator, solver, precond, tol)
//!                                     in one pass, release the lock
//!                                                ▼
//!                  shared LRU operator-state cache ──► solve, per-worker
//!                  (fingerprint-keyed, Arc'd,            workspaces:
//!                   single-flight builds)                1–2 requests, one
//!                                                        by one, single-RHS;
//!                                                        3+, batched
//!                                                         │
//!                                                         ▼
//!                                     per-request response channels
//! ```
//!
//! **Which engine.** A group of at most `LANES / 2 = 2` requests solves
//! its members one after another on the single-RHS engine
//! ([`pop_core::setup::Solver::solve`]); a wider group rides the batched
//! engine ([`pop_core::setup::Solver::solve_batch`]), a lane per request.
//! The batched engine fills four SIMD lanes whatever the width, so one
//! request would pay for four and solve each EVP tile on its own, where
//! the single-RHS engine packs four tiles across blocks: on the 96×80
//! serve operator one request takes 9.5 ms batched and 4.3 ms single, and
//! three requests are the first group the batched engine solves faster.
//! The choice is a fixed rule, with no setting; `batch_width` and the
//! width metrics report the width the dispatcher coalesced, whichever engine
//! ran it.
//!
//! **Correctness contract.** Every served result is bit-identical to a
//! standalone solve of the same request — regardless of batching width,
//! engine, cache state, arrival order or **worker count**. Two properties
//! compose to give this: the batched engine pins each request to a lane
//! bitwise-equal to its single-RHS trajectory, and
//! [`pop_core::setup::OperatorState::build`] is deterministic so a cache
//! hit (or a single-flighted concurrent build) returns the same bits a
//! cold build would. Workers never share solve state — each has its own
//! workspaces and serial communicator world.
//! `tests/serve_cache_equivalence.rs` enforces it end to end across
//! `workers ∈ {1, 2, 4}`.
//!
//! **Degradation contract.** Overload shows up as structured [`Reject`]s
//! (queue full, tenant quota, infeasible or expired deadline), never as
//! silent queue growth; a solve that does not converge still resolves its
//! ticket, with a structured outcome and a finite answer. SLO metrics
//! (queue depth, latency histograms with p50/p90/p99 via
//! `pop_obs::quantile`, cache hit/shed counters) export through the
//! standard `pop-obs` registry.
//!
//! See DESIGN.md §13 for the full architecture discussion.

pub mod cache;
pub mod request;
pub mod sched;
pub mod service;

pub use cache::{CacheKey, CacheStats, SharedOperatorCache};
pub use request::{Priority, Reject, SolveRequest, SolveResponse, SolverSpec, Ticket};
pub use sched::{fair_order, LaneState, QueueItem, INTERACTIVE_STREAK_LIMIT};
pub use service::{ServiceConfig, SolverService, LATENCY_BUCKETS, MAX_WORKERS, WIDTH_BUCKETS};
