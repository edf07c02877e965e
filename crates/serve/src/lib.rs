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
//!                                     via BatchPlanner, release the lock
//!                                                ▼
//!                  shared LRU operator-state cache ──► batched multi-RHS
//!                  (fingerprint-keyed, Arc'd,            solve, per-worker
//!                   single-flight builds)                workspace
//!                                                         │
//!                                                         ▼
//!                                     per-request response channels
//! ```
//!
//! **Correctness contract.** Every served result is bit-identical to a
//! standalone solve of the same request — regardless of batching width,
//! cache state, arrival order, **worker count**, or injected ranksim
//! faults (benign plans). Three properties compose to give this: the
//! batched engine pins each request to a lane bitwise-equal to its
//! single-RHS trajectory (PR 6),
//! [`pop_core::setup::OperatorState::build`] is deterministic so a cache
//! hit (or a single-flighted concurrent build) returns the same bits a
//! cold build would, and the solvers are bitwise identical across
//! serial/threaded/ranksim backends. Workers never share solve state —
//! each has its own workspace and communicator world.
//! `tests/serve_cache_equivalence.rs` and `tests/serve_chaos.rs` enforce
//! it end to end across `workers ∈ {1, 2, 4}`.
//!
//! **Degradation contract.** Overload shows up as structured [`Reject`]s
//! (queue full, tenant quota, infeasible or expired deadline), never as
//! silent queue growth; ranksim faults show up as latency and solver
//! restarts, never as wrong results. SLO metrics (queue depth, latency
//! histograms with p50/p90/p99 via `pop_obs::quantile`, cache hit/shed
//! counters) export through the standard `pop-obs` registry.
//!
//! See DESIGN.md §13 for the full architecture discussion.

pub mod cache;
pub mod request;
pub mod sched;
pub mod service;

pub use cache::{CacheKey, CacheStats, SharedOperatorCache};
pub use request::{Priority, Reject, SolveRequest, SolveResponse, SolverSpec, Ticket};
pub use sched::{fair_order, LaneState, QueueItem, INTERACTIVE_STREAK_LIMIT};
pub use service::{
    Backend, ServiceConfig, SolverService, LATENCY_BUCKETS, MAX_WORKERS, WIDTH_BUCKETS,
};
