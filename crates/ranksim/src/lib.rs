//! # pop-ranksim
//!
//! A rank-based message-passing runtime for the barotropic solvers: each
//! simulated MPI rank runs as its own worker (an OS thread; a cooperative
//! fiber in worlds past 256 ranks) owning a *private* slice of the block
//! decomposition, halo updates are explicit point-to-point messages of
//! boundary strips, and global reductions move per-block partial rows along
//! a selectable message schedule (binomial tree, butterflies, node-aware)
//! — so P-CSI's communication-avoidance is **executed**, not just counted.
//!
//! The shared-memory world (`pop_comm::CommWorld`) runs the solvers fast
//! and counts the communication they *would* do; this crate makes them do
//! it. Both runtimes implement `pop_comm::Communicator`, both drive the
//! same fused solver kernels, and the determinism contract (block-ordered
//! reduction folds) makes their solutions and residual trajectories
//! bit-identical — which is what lets the simulated timings be attributed
//! to communication structure alone.
//!
//! Pieces:
//!
//! - [`RankWorld`] / [`RankComm`] — the runtime ([`runtime`]), over the
//!   crate-private rank executors (`executor.rs`) and message fabric
//!   (`fabric.rs`).
//! - [`RankField`] ([`RankVec`], [`MultiRankVec`]) — a rank's private blocks
//!   ([`mod@vec`]).
//! - [`NetworkModel`] ([`ZeroCost`], [`LatencyBandwidth`],
//!   [`HierarchicalNet`]) — what a message costs in simulated seconds,
//!   optionally node-aware ([`net`]).
//! - [`ReduceAlgo`] — which allreduce schedule collectives execute
//!   (binomial, recursive doubling, Rabenseifner, hierarchical, or auto
//!   selection), all bit-identical by construction, and the schedules
//!   themselves ([`collective`]).
//! - [`FaultPlan`] / [`FaultConfig`] — seeded, deterministic network fault
//!   injection: delay, duplication, reordering, drop-with-retry, poisoned
//!   strips, whole-rank stalls ([`fault`]).
//! - [`SolverKind`] / [`solve_on_ranks`] — scatter, SPMD solve, gather
//!   ([`driver`]).
//! - [`chrome_trace_json`] — per-rank event timelines for `chrome://tracing`
//!   ([`trace`]).
//!
//! ```
//! use pop_ranksim::{RankSimConfig, RankWorld, ZeroCost};
//! use pop_comm::{CommVec, Communicator, DistLayout, DistVec};
//! use pop_grid::Grid;
//! use std::sync::Arc;
//!
//! let grid = Grid::gx1_scaled(5, 48, 40);
//! let layout = DistLayout::build(&grid, 12, 10);
//! let mut v = DistVec::zeros(&layout);
//! v.fill_with(|i, j| (i + j) as f64);
//!
//! // Four ranks, free network: every rank computes the same global dot
//! // product through a real gather/broadcast tree of messages.
//! let world = RankWorld::new(&layout, 4, Arc::new(ZeroCost), RankSimConfig::default());
//! let reports = world.run(|comm| {
//!     let rv = comm.import(&v);
//!     comm.dot_fused(&rv, &rv)
//! });
//! assert!(reports.windows(2).all(|w| w[0].result == w[1].result));
//! ```

pub mod collective;
pub mod driver;
mod executor;
mod fabric;
pub mod fault;
pub mod net;
pub mod runtime;
pub mod trace;
pub mod vec;

pub use collective::ReduceAlgo;
pub use driver::{solve_on_ranks, RankSolveOutcome, SolverKind};
pub use fault::{FaultConfig, FaultPlan};
pub use net::{HierarchicalNet, LatencyBandwidth, NetworkModel, ZeroCost};
pub use runtime::{sim_time, RankComm, RankReport, RankSimConfig, RankSweep, RankWorld};
pub use trace::{chrome_trace_json, write_chrome_trace, Span, SpanKind};
pub use vec::{MultiRankVec, RankField, RankVec};
