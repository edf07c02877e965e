//! The nine-point barotropic elliptic operator.
//!
//! POP's implicit free-surface method turns the vertically integrated
//! momentum/continuity equations into one elliptic solve per time step,
//!
//! ```text
//! [∇·H∇ − φ(τ)] η = ψ(ηⁿ, ηⁿ⁻¹, τ)          (paper Eq. 1)
//! ```
//!
//! discretized with a nine-point stencil on the orthogonal curvilinear grid.
//! This crate assembles that operator and applies it matrix-free to
//! distributed vectors.
//!
//! Two properties of the real POP operator matter to the paper and are
//! reproduced exactly:
//!
//! 1. **Symmetric four-array storage.** Each row holds nine coefficients but
//!    symmetry lets POP store only four arrays `{A0, AN, AE, ANE}`; the
//!    couplings to S/W/SW/SE/NW neighbours are read from the neighbour's own
//!    entries (see [`NinePoint::apply`], which matches the index pattern of
//!    the paper's Eq. 4).
//! 2. **Small axis couplings.** On a near-isotropic grid the N/S/E/W
//!    couplings are one order of magnitude smaller than the center/diagonal
//!    ones. Our assembly derives the coefficients from the corner-based
//!    B-grid energy functional, which yields exactly this structure (the
//!    E-W coupling is ∝ `wy − wx`, vanishing when `dx = dy`), and it is what
//!    justifies the paper's "reduced EVP" preconditioner variant.
//!
//! The operator restricted to ocean points is symmetric positive definite:
//! the Laplacian part is an energy Hessian (PSD) and the `φ` free-surface
//! term adds a strictly positive diagonal.

pub mod dense;
pub mod level;
pub mod local;
pub mod multi;
pub mod op;
mod simd;

pub use dense::DenseMatrix;
pub use level::MgLevel;
pub use local::LocalStencil;
pub use op::NinePoint;
