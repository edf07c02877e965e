//! Simulated message-passing runtime for the POP-like barotropic solver.
//!
//! The paper's solvers run under MPI on up to 16,875 cores. This crate stands
//! in for MPI (substitution **S1** in `DESIGN.md`): it provides the exact
//! communication *semantics* the solvers need — halo updates around each
//! decomposition block, fused global reductions, and fused block sweeps —
//! executed either serially (deterministic, for numerics) or over a
//! persistent in-crate worker pool ([`pool`]), while counting every
//! communication event so the machine model in `pop-perfmodel` can translate
//! counts into large-core-count wall time.
//!
//! The programming model is bulk-synchronous SPMD over *blocks*: a
//! [`DistVec`] owns one halo-padded tile per active decomposition block, and
//! collective operations ([`CommWorld::halo_update`],
//! [`CommWorld::dot_many`], …) act on all blocks at once. Because partial
//! reductions are always combined in block order, results are bit-for-bit
//! identical between the serial and threaded backends — a property the
//! integration tests pin down, and the same property POP relies on for
//! reproducible decompositions.
//!
//! What is *not* simulated here: wire time. Latency/bandwidth costs live in
//! `pop-perfmodel`, parameterized by the event counts recorded in
//! [`CommStats`] — and, since the `pop-ranksim` crate, in a rank-based
//! runtime implementing the same [`Communicator`] trait with real
//! point-to-point messages and simulated network time.

pub mod blockvec;
pub mod communicator;
pub mod distvec;
pub mod group;
pub mod halo;
pub mod layout;
pub mod multivec;
pub mod pool;
pub mod tile;
pub mod transfer;
pub mod world;

pub use blockvec::{masked_block_dot, BlockVec};
pub use communicator::{CommVec, Communicator};
pub use distvec::{DistField, DistVec, MultiDistVec};
pub use group::{blockwise, Group, SweepGroups, GROUP_BLOCKS};
pub use layout::DistLayout;
pub use multivec::{masked_dot_multi, MultiBlockVec, MAX_GROUPS};
pub use tile::Tile;
pub use transfer::{coarse_extent, parents, prolong_add_masked, restrict_masked};
pub use world::{CommStats, CommWorld, StatsSnapshot, SweepPartials, MAX_SWEEP_PARTIALS};
