//! Seeded synthetic bathymetry: continents, islands, straits, shelves.
//!
//! The real POP grids carry ETOPO-derived bathymetry we do not have, so this
//! module generates depth fields that are *structurally* equivalent for the
//! solver: large connected landmasses (continents), small scattered islands,
//! narrow straits, smooth depth variation from shelf to abyss, and a
//! controllable global land fraction. All of these drive the properties the
//! paper relies on — masked irregular domains, variable coefficients, and
//! land blocks that can be eliminated from the decomposition.
//!
//! Generation is deterministic for a given seed.

use pop_rng::SmallRng;

/// A depth field on an `nx × ny` T grid. `depth[j*nx+i] == 0.0` means land;
/// positive values are ocean depth in meters.
#[derive(Debug, Clone)]
pub struct Bathymetry {
    pub nx: usize,
    pub ny: usize,
    pub depth: Vec<f64>,
}

impl Bathymetry {
    /// Ocean fraction of the total area (unweighted point count).
    pub fn ocean_fraction(&self) -> f64 {
        let ocean = self.depth.iter().filter(|&&d| d > 0.0).count();
        ocean as f64 / self.depth.len() as f64
    }

    #[inline]
    pub fn is_ocean(&self, i: usize, j: usize) -> bool {
        self.depth[j * self.nx + i] > 0.0
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.depth[j * self.nx + i]
    }
}

/// Configurable builder for [`Bathymetry`].
#[derive(Debug, Clone)]
pub struct BathymetryBuilder {
    seed: u64,
    land_fraction: f64,
    max_depth: f64,
    octaves: u32,
    n_islands: usize,
    n_straits: usize,
    periodic_x: bool,
}

impl BathymetryBuilder {
    /// A builder with POP-flavoured defaults: ~35% land, 5500 m abyss,
    /// a handful of islands and straits, zonally periodic.
    pub fn new(seed: u64) -> Self {
        BathymetryBuilder {
            seed,
            land_fraction: 0.35,
            max_depth: 5500.0,
            octaves: 4,
            n_islands: 12,
            n_straits: 3,
            periodic_x: true,
        }
    }

    /// Target land fraction in `[0, 0.9]`. The realized fraction is close to
    /// but not exactly the target (threshold on smooth noise, then
    /// connectivity fixes).
    pub fn land_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=0.9).contains(&f), "land fraction out of range");
        self.land_fraction = f;
        self
    }

    /// Maximum ocean depth in meters.
    pub fn max_depth(mut self, d: f64) -> Self {
        assert!(d > 0.0);
        self.max_depth = d;
        self
    }

    /// Number of small islands sprinkled into open ocean.
    pub fn islands(mut self, n: usize) -> Self {
        self.n_islands = n;
        self
    }

    /// Number of narrow straits carved through land.
    pub fn straits(mut self, n: usize) -> Self {
        self.n_straits = n;
        self
    }

    /// Whether the domain wraps zonally (a global ocean does).
    pub fn periodic_x(mut self, p: bool) -> Self {
        self.periodic_x = p;
        self
    }

    /// Generate the bathymetry.
    pub fn build(&self, nx: usize, ny: usize) -> Bathymetry {
        assert!(
            nx >= 4 && ny >= 4,
            "grid too small for bathymetry generation"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // --- multi-octave value noise field in [0, 1] ---
        let mut field = vec![0.0f64; nx * ny];
        let mut amp = 1.0;
        let mut total_amp = 0.0;
        // Base lattice: coarse enough that blobs span a good fraction of the
        // domain (continent scale).
        let mut cells_x = 4usize.max(nx / 96);
        let mut cells_y = 4usize.max(ny / 96);
        for _ in 0..self.octaves {
            add_value_noise_octave(
                &mut field,
                nx,
                ny,
                cells_x,
                cells_y,
                amp,
                self.periodic_x,
                &mut rng,
            );
            total_amp += amp;
            amp *= 0.5;
            cells_x = (cells_x * 2).min(nx);
            cells_y = (cells_y * 2).min(ny);
        }
        for v in &mut field {
            *v /= total_amp;
        }

        // --- threshold to hit the target land fraction ---
        let mut sorted = field.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("noise is finite"));
        let k = ((1.0 - self.land_fraction) * (sorted.len() - 1) as f64).round() as usize;
        let threshold = sorted[k];

        let mut depth = vec![0.0f64; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let v = field[j * nx + i];
                if v < threshold {
                    // Ocean: smooth shelf-to-abyss profile. Points far below
                    // the threshold are deep; near-threshold points are
                    // shallow shelves.
                    let rel = ((threshold - v) / threshold.max(1e-9)).clamp(0.0, 1.0);
                    let prof = rel.sqrt(); // fast drop-off then flat abyss
                    depth[j * nx + i] =
                        (100.0 + (self.max_depth - 100.0) * prof).min(self.max_depth);
                }
            }
        }

        // --- islands: small circular seamounts breaking the surface ---
        for _ in 0..self.n_islands {
            let ci = rng.gen_range(0..nx);
            let cj = rng.gen_range(ny / 8..ny - ny / 8);
            let r = rng.gen_range(1..=3 + nx / 160);
            for dj in -(r as isize)..=(r as isize) {
                for di in -(r as isize)..=(r as isize) {
                    if di * di + dj * dj > (r * r) as isize {
                        continue;
                    }
                    let jj = cj as isize + dj;
                    if jj < 0 || jj >= ny as isize {
                        continue;
                    }
                    let ii = wrap_i(ci as isize + di, nx, self.periodic_x);
                    if let Some(ii) = ii {
                        depth[jj as usize * nx + ii] = 0.0;
                    }
                }
            }
        }

        // --- straits: narrow zonal channels carved through land ---
        for s in 0..self.n_straits {
            let j = (ny / (self.n_straits + 1)) * (s + 1);
            let width = 1 + s % 2; // 1- or 2-point-wide passages (Bering-like)
            for i in 0..nx {
                for w in 0..width {
                    let jj = (j + w).min(ny - 1);
                    let k = jj * nx + i;
                    if depth[k] == 0.0 {
                        depth[k] = 150.0; // shallow sill
                    }
                }
            }
        }

        // Solid land at the first/last row (Arctic/Antarctic closure; also
        // keeps the dipole corner out of the picture).
        for i in 0..nx {
            depth[i] = 0.0;
            depth[(ny - 1) * nx + i] = 0.0;
        }

        let mut b = Bathymetry { nx, ny, depth };
        remove_isolated_seas(&mut b, self.periodic_x);
        b
    }
}

/// Keep only the largest connected ocean component; fill the rest with land.
///
/// POP masks out marginal seas it cannot simulate well; more importantly the
/// elliptic solve must act on a connected domain for the condition-number
/// properties to be meaningful.
#[allow(clippy::needless_range_loop)] // parallel indexing of two arrays
fn remove_isolated_seas(b: &mut Bathymetry, periodic_x: bool) {
    let (nx, ny) = (b.nx, b.ny);
    let mut label = vec![0u32; nx * ny]; // 0 = unvisited/land
    let mut sizes: Vec<usize> = vec![0]; // sizes[l] for label l, slot 0 unused
    let mut stack = Vec::new();

    for start in 0..nx * ny {
        if b.depth[start] <= 0.0 || label[start] != 0 {
            continue;
        }
        let l = sizes.len() as u32;
        sizes.push(0);
        stack.push(start);
        label[start] = l;
        while let Some(k) = stack.pop() {
            sizes[l as usize] += 1;
            let (i, j) = (k % nx, k / nx);
            let mut push = |ii: usize, jj: usize| {
                let kk = jj * nx + ii;
                if b.depth[kk] > 0.0 && label[kk] == 0 {
                    label[kk] = l;
                    stack.push(kk);
                }
            };
            if j > 0 {
                push(i, j - 1);
            }
            if j + 1 < ny {
                push(i, j + 1);
            }
            if i > 0 {
                push(i - 1, j);
            } else if periodic_x {
                push(nx - 1, j);
            }
            if i + 1 < nx {
                push(i + 1, j);
            } else if periodic_x {
                push(0, j);
            }
        }
    }

    if sizes.len() <= 2 {
        return; // zero or one component: nothing to remove
    }
    let keep = (1..sizes.len())
        .max_by_key(|&l| sizes[l])
        .expect("nonempty") as u32;
    for k in 0..nx * ny {
        if label[k] != 0 && label[k] != keep {
            b.depth[k] = 0.0;
        }
    }
}

fn wrap_i(i: isize, nx: usize, periodic: bool) -> Option<usize> {
    if i >= 0 && (i as usize) < nx {
        Some(i as usize)
    } else if periodic {
        Some(i.rem_euclid(nx as isize) as usize)
    } else {
        None
    }
}

/// One octave of bilinear value noise added into `field`.
#[allow(clippy::too_many_arguments)]
fn add_value_noise_octave(
    field: &mut [f64],
    nx: usize,
    ny: usize,
    cells_x: usize,
    cells_y: usize,
    amp: f64,
    periodic_x: bool,
    rng: &mut SmallRng,
) {
    let lx = cells_x + 1;
    let ly = cells_y + 1;
    let mut lattice = vec![0.0f64; lx * ly];
    for v in &mut lattice {
        *v = rng.gen::<f64>();
    }
    if periodic_x {
        // Match the seam so the noise wraps smoothly in x.
        for j in 0..ly {
            lattice[j * lx + lx - 1] = lattice[j * lx];
        }
    }
    let smooth = |t: f64| t * t * (3.0 - 2.0 * t);
    for j in 0..ny {
        let fy = j as f64 / ny as f64 * cells_y as f64;
        let jy = (fy as usize).min(cells_y - 1);
        let ty = smooth(fy - jy as f64);
        for i in 0..nx {
            let fx = i as f64 / nx as f64 * cells_x as f64;
            let ix = (fx as usize).min(cells_x - 1);
            let tx = smooth(fx - ix as f64);
            let v00 = lattice[jy * lx + ix];
            let v10 = lattice[jy * lx + ix + 1];
            let v01 = lattice[(jy + 1) * lx + ix];
            let v11 = lattice[(jy + 1) * lx + ix + 1];
            let v0 = v00 + (v10 - v00) * tx;
            let v1 = v01 + (v11 - v01) * tx;
            field[j * nx + i] += amp * (v0 + (v1 - v0) * ty);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = BathymetryBuilder::new(7).build(64, 48);
        let b = BathymetryBuilder::new(7).build(64, 48);
        assert_eq!(a.depth, b.depth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = BathymetryBuilder::new(1).build(64, 48);
        let b = BathymetryBuilder::new(2).build(64, 48);
        assert_ne!(a.depth, b.depth);
    }

    #[test]
    fn land_fraction_roughly_honored() {
        for target in [0.2, 0.35, 0.5] {
            let b = BathymetryBuilder::new(42)
                .land_fraction(target)
                .build(128, 96);
            let land = 1.0 - b.ocean_fraction();
            // Connectivity cleanup and islands/straits move the realized
            // fraction; allow a generous band.
            assert!(
                (land - target).abs() < 0.2,
                "target {target}, realized {land}"
            );
        }
    }

    #[test]
    fn depths_bounded() {
        let b = BathymetryBuilder::new(3).max_depth(4000.0).build(96, 64);
        assert!(b.depth.iter().all(|&d| (0.0..=4000.0).contains(&d)));
        assert!(b.depth.iter().any(|&d| d > 3000.0), "some deep ocean");
    }

    #[test]
    fn polar_walls_are_land() {
        let b = BathymetryBuilder::new(5).build(64, 48);
        for i in 0..64 {
            assert!(!b.is_ocean(i, 0));
            assert!(!b.is_ocean(i, 47));
        }
    }

    #[test]
    fn ocean_is_connected() {
        let b = BathymetryBuilder::new(11).build(128, 96);
        // Re-run the labelling: exactly one ocean component must remain.
        let (nx, ny) = (b.nx, b.ny);
        let mut seen = vec![false; nx * ny];
        let start = (0..nx * ny)
            .find(|&k| b.depth[k] > 0.0)
            .expect("some ocean");
        let mut stack = vec![start];
        seen[start] = true;
        let mut count = 0usize;
        while let Some(k) = stack.pop() {
            count += 1;
            let (i, j) = (k % nx, k / nx);
            let mut push = |kk: usize| {
                if b.depth[kk] > 0.0 && !seen[kk] {
                    seen[kk] = true;
                    stack.push(kk);
                }
            };
            if j > 0 {
                push(k - nx);
            }
            if j + 1 < ny {
                push(k + nx);
            }
            push(j * nx + (i + nx - 1) % nx);
            push(j * nx + (i + 1) % nx);
        }
        let total = b.depth.iter().filter(|&&d| d > 0.0).count();
        assert_eq!(count, total, "ocean must be a single connected component");
    }

    #[test]
    fn straits_leave_open_water_rows() {
        let b = BathymetryBuilder::new(9)
            .land_fraction(0.6)
            .straits(2)
            .build(96, 64);
        assert!(b.ocean_fraction() > 0.2);
    }
}
