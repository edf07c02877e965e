//! The shared-memory halo exchange against a cell-by-cell oracle.
//!
//! `CommWorld::halo_update` runs from a per-layout plan of row copies; this
//! suite never looks at the plan. For every padded cell of every block it
//! derives, from the decomposition arithmetic and the global field alone,
//! what the cell must hold after an exchange — the interior untouched, a
//! ring cell the adjacent block's value at that position, `0` where the
//! position is land, off the domain, under an eliminated block, or beyond a
//! neighbour narrower than the halo — and compares bit for bit, for the
//! single-RHS tile and the batched one at widths 4 and 8, on the serial and
//! the threaded world. CI runs it optimised as well: the row copier's bounds
//! are `debug_assert!`s.

use pop_comm::{BlockVec, CommWorld, DistLayout, DistVec, MultiDistVec};
use pop_grid::{Bathymetry, Decomposition, Grid, GridKind, Metrics};
use pop_simd::LANES;
use std::sync::Arc;

#[path = "../../../tests/common/fuzz.rs"]
mod fuzz;

/// Lane `l`'s global field: distinct per lane, never zero on ocean.
fn val(l: usize, i: usize, j: usize) -> f64 {
    ((1 + l) * (1 + i * 7 + j * 131)) as f64
}

/// What ring-or-interior cell `(i, j)` of block `b` holds after an exchange
/// of lane `l`'s field, from the global picture alone.
fn expected(g: &Grid, layout: &DistLayout, b: usize, l: usize, i: isize, j: isize) -> f64 {
    let d = &layout.decomp;
    let me = &d.blocks[b];
    // Which adjacent block does the cell lie over?
    let side = |c: isize, n: usize| (c >= n as isize) as isize - (c < 0) as isize;
    let (dbi, dbj) = (side(i, me.nx), side(j, me.ny));
    let bj2 = me.bj as isize + dbj;
    if bj2 < 0 || bj2 >= d.my as isize {
        return 0.0; // off the domain
    }
    let mut bi2 = me.bi as isize + dbi;
    if bi2 < 0 || bi2 >= d.mx as isize {
        if !d.periodic_x {
            return 0.0;
        }
        bi2 = bi2.rem_euclid(d.mx as isize);
    }
    let (bi2, bj2) = (bi2 as usize, bj2 as usize);
    if d.block_at[bj2 * d.mx + bi2].is_none() {
        return 0.0; // eliminated land block
    }
    // That block's extent, and the cell's position inside it.
    let (i0, j0) = (bi2 * d.block_nx, bj2 * d.block_ny);
    let (nx2, ny2) = (d.block_nx.min(g.nx - i0), d.block_ny.min(g.ny - j0));
    let local = |c: isize, side: isize, n: usize, n2: usize| match side {
        1 => c - n as isize,
        -1 => c + n2 as isize,
        _ => c,
    };
    let (li, lj) = (local(i, dbi, me.nx, nx2), local(j, dbj, me.ny, ny2));
    if li < 0 || li >= nx2 as isize || lj < 0 || lj >= ny2 as isize {
        return 0.0; // beyond a neighbour narrower than the halo
    }
    let (gi, gj) = (i0 + li as usize, j0 + lj as usize);
    if g.is_ocean(gi, gj) {
        val(l, gi, gj)
    } else {
        0.0
    }
}

/// Every lane's source vector: interiors from `val`, rings deliberately
/// stale so the exchange has every ring cell to fix.
fn sources(layout: &Arc<DistLayout>, k: usize) -> Vec<DistVec> {
    (0..k)
        .map(|l| {
            let mut v = DistVec::zeros(layout);
            v.blocks.iter_mut().for_each(|b| b.fill(9.5));
            v.fill_with(|i, j| val(l, i, j));
            v
        })
        .collect()
}

fn bits(t: &BlockVec) -> Vec<u64> {
    t.raw().iter().map(|v| v.to_bits()).collect()
}

/// Exchange lanes `0..k` on `world` — as `k` single vectors when `k == 1`,
/// as one `k`-wide field otherwise — and return lane `l`'s tiles.
fn exchanged(world: &CommWorld, layout: &Arc<DistLayout>, k: usize) -> Vec<DistVec> {
    let mut srcs = sources(layout, k);
    let before = world.stats();
    if k == 1 {
        world.halo_update(&mut srcs[0]);
    } else {
        let mut mv = MultiDistVec::with_width(layout, k);
        for (l, src) in srcs.iter().enumerate() {
            for (mb, sb) in mv.blocks.iter_mut().zip(&src.blocks) {
                mb.load_lane(l / LANES, l % LANES, sb);
            }
        }
        world.halo_update(&mut mv);
        for (l, src) in srcs.iter_mut().enumerate() {
            for (mb, sb) in mv.blocks.iter().zip(&mut src.blocks) {
                mb.store_lane(l / LANES, l % LANES, sb);
            }
        }
    }
    let d = world.stats().since(&before);
    assert_eq!(d.halo_updates, 1);
    assert_eq!(d.halo_messages, layout.halo_plan.messages());
    assert_eq!(d.halo_bytes, layout.halo_plan.bytes(k));
    srcs
}

/// The whole contract on one layout.
fn check(name: &str, g: &Grid, layout: &Arc<DistLayout>) {
    let h = layout.halo as isize;
    for k in [1, LANES, 2 * LANES] {
        let serial = exchanged(&CommWorld::serial(), layout, k);
        let threaded = exchanged(&CommWorld::threaded(), layout, k);
        for (l, (s, t)) in serial.iter().zip(&threaded).enumerate() {
            for (b, info) in layout.decomp.blocks.iter().enumerate() {
                assert_eq!(
                    bits(&s.blocks[b]),
                    bits(&t.blocks[b]),
                    "{name} k={k} lane {l} block {b}: serial and threaded differ"
                );
                for j in -h..info.ny as isize + h {
                    for i in -h..info.nx as isize + h {
                        let got = s.blocks[b].at(i, j);
                        let want = expected(g, layout, b, l, i, j);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} k={k} lane {l} block {b} cell ({i},{j}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}

fn custom_grid(nx: usize, ny: usize, periodic: bool, ocean: impl Fn(usize, usize) -> bool) -> Grid {
    let depth = (0..nx * ny)
        .map(|k| if ocean(k % nx, k / nx) { 300.0 } else { 0.0 })
        .collect();
    Grid::from_parts(
        GridKind::Custom,
        Metrics::uniform(nx, ny, 5.0e4),
        &Bathymetry { nx, ny, depth },
        periodic,
    )
}

#[test]
fn exchange_matches_the_oracle_on_global_and_fuzzed_layouts() {
    let g = Grid::gx1_scaled(21, 48, 40);
    check("gx1 12x10", &g, &DistLayout::build(&g, 12, 10));
    check("gx1 12x10 halo 2", &g, &halo2(&g, 12, 10));
    // Ragged edge blocks in both directions.
    check("gx1 13x9", &g, &DistLayout::build(&g, 13, 9));
    for seed in [11u64, 29, 47] {
        let g = fuzz::fuzzed_grid(seed);
        let layout = DistLayout::build(&g, fuzz::BX, fuzz::BY);
        check(&format!("fuzz seed {seed}"), &g, &layout);
    }
}

/// A halo-2 layout of `g` in `bx × by` blocks: only a ring wider than one
/// cell can reach past a one-cell-wide neighbour.
fn halo2(g: &Grid, bx: usize, by: usize) -> Arc<DistLayout> {
    DistLayout::new(g, Decomposition::new(g, bx, by), 2)
}

#[test]
fn edge_block_narrower_than_the_halo() {
    // 17 columns in blocks of 8: the easternmost block is one column wide,
    // half the halo. Periodic, so it is also block 0's *west* neighbour.
    for periodic in [true, false] {
        let g = custom_grid(17, 12, periodic, |_, j| (1..11).contains(&j));
        let layout = halo2(&g, 8, 6);
        assert_eq!(layout.halo, 2);
        assert!(layout.decomp.blocks.iter().any(|b| b.nx == 1));
        check(&format!("narrow periodic={periodic}"), &g, &layout);
    }
    // And one row tall, for the north/south strips.
    let g = custom_grid(16, 13, true, |_, _| true);
    let layout = halo2(&g, 8, 6);
    assert!(layout.decomp.blocks.iter().any(|b| b.ny == 1));
    check("one-row block", &g, &layout);
}

#[test]
fn periodic_grid_one_block_wide() {
    // The block is its own east, west and (through the row above/below)
    // diagonal neighbour: rows are copied within one tile.
    let g = custom_grid(12, 18, true, |i, j| (i + 2 * j) % 7 != 0);
    let layout = DistLayout::build(&g, 12, 6);
    let d = &layout.decomp;
    assert_eq!(d.mx, 1);
    assert!(
        (0..d.blocks.len()).all(|b| d.neighbors[b][0] == Some(b) && d.neighbors[b][1] == Some(b))
    );
    check("one block wide", &g, &layout);
    // One block wide *and* narrower than the halo.
    let g = custom_grid(1, 8, true, |_, _| true);
    let d = Decomposition::new(&g, 1, 4);
    check("one column", &g, &DistLayout::new(&g, d, 2));
}

#[test]
fn block_with_every_neighbour_eliminated() {
    // 5×3 blocks of 6×4; ocean only inside blocks (1,1) and (3,1).
    let g = custom_grid(30, 12, false, |i, j| {
        (4..8).contains(&j) && (i / 6) % 2 == 1
    });
    let layout = DistLayout::build(&g, 6, 4);
    assert_eq!(layout.n_blocks(), 2);
    assert!(layout
        .decomp
        .neighbors
        .iter()
        .all(|n| n.iter().all(Option::is_none)));
    assert_eq!(layout.halo_plan.messages(), 0);
    check("islands", &g, &layout);
}

/// Messages and bytes of one exchange on the layouts of the four gated
/// benchmark workloads. The halo-2 rows are the counts of the
/// gather/scatter exchange the plan replaced, recorded before the plan
/// existed; the halo-1 rows are what the benchmark layouts exchange now.
/// Both widths send the same strips: an edge strip half as deep at width
/// 1, a corner one point instead of four.
#[test]
fn message_and_byte_counts_are_the_pre_plan_values() {
    type Counts = [(usize, u64, u64); 2];
    let cases: [(&str, Grid, usize, usize, usize, Counts); 4] = [
        (
            "gx1 40x48",
            Grid::gx1(2015),
            40,
            48,
            60,
            [(2, 418, 159_296), (1, 418, 78_032)],
        ),
        (
            "0.1deg 45x30",
            Grid::gx01_scaled(2015, 900, 600),
            45,
            30,
            367,
            [(2, 2670, 855_392), (1, 2670, 417_248)],
        ),
        (
            "gyre 16x12",
            Grid::idealized_basin(64, 48, 500.0, 2.0e4),
            16,
            12,
            16,
            [(2, 84, 11_904), (1, 84, 5_664)],
        ),
        (
            "serve 8x8",
            Grid::gx1_scaled(2015, 96, 80),
            8,
            8,
            101,
            [(2, 686, 55_936), (1, 686, 25_312)],
        ),
    ];
    for (name, g, bx, by, blocks, counts) in cases {
        for (halo, messages, bytes) in counts {
            let name = format!("{name} halo {halo}");
            let layout = DistLayout::new(&g, Decomposition::new(&g, bx, by), halo);
            assert_eq!(layout.n_blocks(), blocks, "{name}");
            let plan = &layout.halo_plan;
            assert_eq!(
                (plan.messages(), plan.bytes(1)),
                (messages, bytes),
                "{name}"
            );
            for world in [CommWorld::serial(), CommWorld::threaded()] {
                let mut v = DistVec::zeros(&layout);
                world.halo_update(&mut v);
                let mut mv = MultiDistVec::with_width(&layout, 2 * LANES);
                world.halo_update(&mut mv);
                let s = world.stats();
                assert_eq!(s.halo_updates, 2, "{name}");
                assert_eq!(s.halo_messages, 2 * messages, "{name}");
                assert_eq!(s.halo_bytes, bytes * (1 + 2 * LANES as u64), "{name}");
                assert_eq!(
                    s.halo_bytes,
                    plan.bytes(1) + plan.bytes(2 * LANES),
                    "{name}"
                );
            }
        }
    }
}

/// A field whose tiles are not the layout's shape is refused before any row
/// moves — in release builds too (the copier trusts the plan's offsets).
#[test]
#[should_panic(expected = "does not have its layout's shape")]
fn a_foreign_tile_is_refused() {
    let g = Grid::gx1_scaled(21, 48, 40);
    let layout = DistLayout::build(&g, 12, 10);
    let mut v = DistVec::zeros(&layout);
    v.blocks[3] = BlockVec::zeros(5, 5, 2);
    CommWorld::serial().halo_update(&mut v);
}
