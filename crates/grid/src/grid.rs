//! The [`Grid`]: dimensions, metrics, bathymetry and land mask in one bundle.

use crate::bathymetry::{Bathymetry, BathymetryBuilder};
use crate::metrics::Metrics;

/// Which production grid a [`Grid`] mimics; used by experiment harnesses to
/// label output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// ≈1° displaced-pole grid (paper: 320×384, `gx1v6`).
    Gx1,
    /// ≈0.1° tripole-like grid (paper: 3600×2400, `tx0.1v2`).
    Gx01,
    /// Anything else (scaled benchmark grids, idealized basins).
    Custom,
}

/// A horizontal ocean grid: curvilinear metrics plus bathymetry and masks.
///
/// Depth is carried both at T points (`ht`, cell centers — where the
/// sea-surface-height unknowns live) and at U points (`hu`, cell corners —
/// where the B-grid stencil couples diagonal neighbours). Following POP,
/// `hu` is the minimum of the four surrounding T depths, which closes
/// straits that are only diagonally connected and keeps the operator an
/// M-matrix-like 9-point stencil.
#[derive(Debug, Clone)]
pub struct Grid {
    pub kind: GridKind,
    pub nx: usize,
    pub ny: usize,
    /// Zonal periodicity (global grids wrap; idealized basins do not).
    pub periodic_x: bool,
    pub metrics: Metrics,
    /// Depth at T points, meters; 0 = land.
    pub ht: Vec<f64>,
    /// Depth at U (NE-corner) points, meters; 0 where any surrounding T cell
    /// is land or at the northern boundary row.
    pub hu: Vec<f64>,
    /// Ocean mask at T points.
    pub mask: Vec<bool>,
}

impl Grid {
    /// Assemble a grid from metrics and bathymetry (must agree on dims).
    pub fn from_parts(
        kind: GridKind,
        metrics: Metrics,
        bathy: &Bathymetry,
        periodic_x: bool,
    ) -> Self {
        assert_eq!(metrics.nx, bathy.nx, "metrics/bathymetry nx mismatch");
        assert_eq!(metrics.ny, bathy.ny, "metrics/bathymetry ny mismatch");
        let (nx, ny) = (metrics.nx, metrics.ny);
        let ht = bathy.depth.clone();
        let mask: Vec<bool> = ht.iter().map(|&d| d > 0.0).collect();
        let mut hu = vec![0.0f64; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                hu[j * nx + i] = corner_depth(&ht, nx, ny, periodic_x, i, j);
            }
        }
        Grid {
            kind,
            nx,
            ny,
            periodic_x,
            metrics,
            ht,
            hu,
            mask,
        }
    }

    /// The paper's low-resolution production grid: ≈1°, 320×384,
    /// latitude-longitude metrics (anisotropic away from the equator) with a
    /// mild dipole distortion.
    pub fn gx1(seed: u64) -> Self {
        Self::gx1_scaled(seed, 320, 384)
    }

    /// A gx1-like grid at arbitrary dimensions (same metric family and land
    /// fraction); used to keep tests and quick benches fast.
    pub fn gx1_scaled(seed: u64, nx: usize, ny: usize) -> Self {
        let metrics = Metrics::lat_lon(nx, ny, -78.0, 78.0).with_dipole_distortion(0.15);
        let bathy = BathymetryBuilder::new(seed)
            .land_fraction(0.35)
            .islands(8 * nx / 320 + 1)
            .straits(2)
            .build(nx, ny);
        let kind = if (nx, ny) == (320, 384) {
            GridKind::Gx1
        } else {
            GridKind::Custom
        };
        Grid::from_parts(kind, metrics, &bathy, true)
    }

    /// The paper's high-resolution production grid: ≈0.1°, 3600×2400,
    /// Mercator metrics (aspect ratio ≈ 1, hence the better conditioning the
    /// paper observes) with a mild dipole distortion.
    pub fn gx01(seed: u64) -> Self {
        Self::gx01_scaled(seed, 3600, 2400)
    }

    /// A gx01-like grid at arbitrary dimensions.
    pub fn gx01_scaled(seed: u64, nx: usize, ny: usize) -> Self {
        let metrics = Metrics::mercator(nx, ny, -72.0, 72.0).with_dipole_distortion(0.1);
        let bathy = BathymetryBuilder::new(seed)
            .land_fraction(0.3)
            .islands(30 * nx / 3600 + 2)
            .straits(3)
            .build(nx, ny);
        let kind = if (nx, ny) == (3600, 2400) {
            GridKind::Gx01
        } else {
            GridKind::Custom
        };
        Grid::from_parts(kind, metrics, &bathy, true)
    }

    /// A fully open rectangular basin with uniform metrics and a one-point
    /// land wall on every side. No zonal periodicity. The workhorse for unit
    /// tests and for validating solvers against analytic expectations.
    pub fn idealized_basin(nx: usize, ny: usize, depth_m: f64, spacing_m: f64) -> Self {
        assert!(nx >= 3 && ny >= 3, "basin too small");
        let metrics = Metrics::uniform(nx, ny, spacing_m);
        let mut depth = vec![depth_m; nx * ny];
        for i in 0..nx {
            depth[i] = 0.0;
            depth[(ny - 1) * nx + i] = 0.0;
        }
        for j in 0..ny {
            depth[j * nx] = 0.0;
            depth[j * nx + nx - 1] = 0.0;
        }
        let bathy = Bathymetry { nx, ny, depth };
        Grid::from_parts(GridKind::Custom, metrics, &bathy, false)
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny);
        j * self.nx + i
    }

    #[inline]
    pub fn is_ocean(&self, i: usize, j: usize) -> bool {
        self.mask[self.idx(i, j)]
    }

    /// Number of ocean T points.
    pub fn ocean_points(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// Ocean fraction by point count.
    pub fn ocean_fraction(&self) -> f64 {
        self.ocean_points() as f64 / (self.nx * self.ny) as f64
    }
}

/// POP-style corner depth: minimum of the four surrounding T depths
/// (0 if any is land). Corner `(i, j)` is the NE corner of T cell `(i, j)`.
fn corner_depth(ht: &[f64], nx: usize, ny: usize, periodic_x: bool, i: usize, j: usize) -> f64 {
    if j + 1 >= ny {
        return 0.0; // northern boundary: no cell beyond
    }
    let ie = if i + 1 < nx {
        i + 1
    } else if periodic_x {
        0
    } else {
        return 0.0; // eastern boundary of a non-periodic grid
    };
    let d00 = ht[j * nx + i];
    let d10 = ht[j * nx + ie];
    let d01 = ht[(j + 1) * nx + i];
    let d11 = ht[(j + 1) * nx + ie];
    d00.min(d10).min(d01).min(d11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basin_has_wall_of_land() {
        let g = Grid::idealized_basin(10, 8, 1000.0, 1.0e4);
        assert!(!g.is_ocean(0, 3));
        assert!(!g.is_ocean(9, 3));
        assert!(!g.is_ocean(4, 0));
        assert!(!g.is_ocean(4, 7));
        assert!(g.is_ocean(4, 4));
        assert_eq!(g.ocean_points(), 8 * 6);
    }

    #[test]
    fn hu_zero_next_to_land_and_boundary() {
        let g = Grid::idealized_basin(8, 8, 500.0, 1.0e3);
        // Corner adjacent to the west wall involves a land T cell.
        assert_eq!(g.hu[g.idx(0, 3)], 0.0);
        // Interior corner away from land is full depth.
        assert_eq!(g.hu[g.idx(3, 3)], 500.0);
        // Northern row corners always zero.
        assert_eq!(g.hu[g.idx(3, 7)], 0.0);
    }

    #[test]
    fn hu_periodic_wrap() {
        // A periodic strip of ocean: corner at i = nx-1 must see column 0.
        let nx = 6;
        let ny = 5;
        let metrics = Metrics::uniform(nx, ny, 1.0);
        let mut depth = vec![1000.0; nx * ny];
        for i in 0..nx {
            depth[i] = 0.0;
            depth[(ny - 1) * nx + i] = 0.0;
        }
        let b = Bathymetry { nx, ny, depth };
        let g = Grid::from_parts(GridKind::Custom, metrics, &b, true);
        assert_eq!(
            g.hu[g.idx(nx - 1, 2)],
            1000.0,
            "seam corner sees wrapped column"
        );
    }

    #[test]
    fn gx1_scaled_properties() {
        let g = Grid::gx1_scaled(42, 80, 96);
        assert!(g.periodic_x);
        assert!(g.ocean_fraction() > 0.4 && g.ocean_fraction() < 0.95);
        assert!(
            g.metrics.max_aspect_ratio() > 1.5,
            "1°-like grid is anisotropic"
        );
    }

    #[test]
    fn gx01_scaled_is_isotropic() {
        let g = Grid::gx01_scaled(42, 180, 120);
        // dipole distortion adds a bit of anisotropy, but far less than gx1
        assert!(g.metrics.max_aspect_ratio() < 1.5);
    }

    #[test]
    fn deterministic_grids() {
        let a = Grid::gx1_scaled(13, 64, 48);
        let b = Grid::gx1_scaled(13, 64, 48);
        assert_eq!(a.ht, b.ht);
        assert_eq!(a.hu, b.hu);
    }
}
