//! Curvilinear ocean grids, synthetic bathymetry, land masks, and block
//! domain decomposition for a POP-like ocean model.
//!
//! This crate provides the *geometry substrate* of the barotropic-solver
//! reproduction: everything the elliptic operator and the distributed solver
//! need to know about where the ocean is and how it is laid out.
//!
//! The pieces are:
//!
//! - [`Metrics`]: per-point grid spacings (`dx`, `dy`) for latitude-longitude
//!   and Mercator grids. The 1° POP grid has a longitude-to-latitude spacing
//!   ratio that varies strongly with latitude while the 0.1° grid is close to
//!   isotropic; the paper attributes the lower iteration counts of the 0.1°
//!   case to this, so the distinction is reproduced here.
//! - [`Bathymetry`]: seeded synthetic depth fields with continents, islands
//!   and straits, standing in for the ETOPO-derived POP bathymetry.
//! - [`Grid`]: the bundle of dimensions, metrics, depth, and land mask,
//!   with named constructors for the paper's two production resolutions
//!   ([`Grid::gx1`] ≈ 1°, 320×384 and [`Grid::gx01`] ≈ 0.1°, 3600×2400).
//! - [`Decomposition`]: the 2-D block decomposition with land-block
//!   elimination and space-filling-curve rank assignment used by POP at scale.
//!
//! Everything is deterministic given a seed, so experiments are reproducible.

pub mod bathymetry;
pub mod decomp;
pub mod grid;
pub mod metrics;
pub mod sfc;

pub use bathymetry::{Bathymetry, BathymetryBuilder};
pub use decomp::{BlockInfo, Decomposition, Direction, RankAssignment};
pub use grid::{Grid, GridKind};
pub use metrics::Metrics;

/// Mean Earth radius in meters, used when converting angular grid spacing to
/// physical distances.
pub const EARTH_RADIUS_M: f64 = 6.371e6;

/// Gravitational acceleration in m/s², used by the implicit free-surface
/// operator assembly downstream.
pub const GRAVITY: f64 = 9.806;
