//! The seeded pathological-mask family of `tests/mask_fuzz.rs`, in a file
//! of its own so `crates/comm/tests/halo_exchange.rs` can run the halo
//! oracle over the same layouts (it includes this file by path; only
//! `pop-grid` and `pop-rng` are used here).
#![allow(dead_code)]

use pop_grid::{Bathymetry, Grid, GridKind, Metrics};
use pop_rng::SmallRng;

pub const NX: usize = 64;
pub const NY: usize = 40;
pub const BX: usize = 16;
pub const BY: usize = 10;

/// Build a pathological but reproducible mask. The western third is a solid
/// ocean basin (the guaranteed region); the rest is seeded noise with the
/// four engineered degeneracies stamped on top.
pub fn fuzzed_grid(seed: u64) -> Grid {
    grid_of(fuzzed_depth(seed))
}

pub fn fuzzed_depth(seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut depth = vec![0.0f64; NX * NY];
    let d = |depth: &mut Vec<f64>, i: usize, j: usize, v: f64| depth[j * NX + i] = v;

    // Random speckle ocean over the interior (p = 0.55), solid basin in the
    // western third. The outer ring stays land.
    for j in 1..NY - 1 {
        for i in 1..NX - 1 {
            let ocean = i < NX / 3 || rng.gen::<f64>() < 0.55;
            if ocean {
                d(&mut depth, i, j, 100.0 + 400.0 * rng.gen::<f64>());
            }
        }
    }

    // Feature 1: an all-land block (block row 1, block col 2).
    for j in BY..2 * BY {
        for i in 2 * BX..3 * BX {
            d(&mut depth, i, j, 0.0);
        }
    }
    // Feature 2: a single-ocean-point block (block row 2, block col 2).
    for j in 2 * BY..3 * BY {
        for i in 2 * BX..3 * BX {
            d(&mut depth, i, j, 0.0);
        }
    }
    d(&mut depth, 2 * BX + BX / 2, 2 * BY + BY / 2, 250.0);
    // Feature 3: isolated ocean cells — land moats stamped around three
    // seeded positions in the eastern noise field.
    for _ in 0..3 {
        let ci = rng.gen_range(NX / 2 + 2..NX - 2);
        let cj = rng.gen_range(2..NY - 2);
        for dj in -1i64..=1 {
            for di in -1i64..=1 {
                let (i, j) = ((ci as i64 + di) as usize, (cj as i64 + dj) as usize);
                d(
                    &mut depth,
                    i,
                    j,
                    if di == 0 && dj == 0 { 180.0 } else { 0.0 },
                );
            }
        }
    }
    // Feature 4: a one-cell-wide channel crossing the all-land block,
    // connecting whatever lies on either side through a 1-wide strait.
    let channel_j = BY + BY / 2;
    for i in 2 * BX..3 * BX {
        d(&mut depth, i, channel_j, 320.0);
    }

    depth
}

pub fn grid_of(depth: Vec<f64>) -> Grid {
    let bathy = Bathymetry {
        nx: NX,
        ny: NY,
        depth,
    };
    Grid::from_parts(
        GridKind::Custom,
        Metrics::uniform(NX, NY, 5.0e4),
        &bathy,
        false,
    )
}
