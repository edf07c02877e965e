//! Properties of the padded-stride [`BlockVec`] storage.
//!
//! For the SIMD kernel layer, every block row is stored with its stride
//! rounded up to the 4-lane width and the backing buffer 32-byte aligned
//! (DESIGN.md §9). These tests pin the contract on deliberately awkward,
//! non-lane-multiple shapes like 13×7: the pad columns are storage-only
//! (no kernel, reduction, or halo exchange ever reads or writes them), and
//! the halo exchange and fused apply remain bitwise faithful.

use pop_baro::prelude::*;
use pop_comm::{masked_block_dot, BlockVec};
use pop_simd::{SimdMode, LANES};

/// A uniform value in [-1, 1) derived from (seed, i, j), order-independent.
fn noise(seed: u64, i: usize, j: usize) -> f64 {
    let mut s = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ ((j as u64) << 32);
    s = s.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn lane_modes() -> Vec<SimdMode> {
    let mut m = vec![SimdMode::Portable];
    if pop_simd::detected_avx2() {
        m.push(SimdMode::Avx2);
    }
    m
}

/// Stride, size, and alignment invariants on assorted odd shapes.
#[test]
fn padded_stride_invariants() {
    for (nx, ny, h) in [
        (13usize, 7usize, 2usize),
        (13, 7, 1),
        (1, 1, 2),
        (5, 3, 1),
        (16, 8, 2),
        (7, 11, 2),
        (18, 20, 2),
    ] {
        let b = BlockVec::zeros(nx, ny, h);
        assert_eq!(b.stride() % LANES, 0, "({nx},{ny},{h}): stride lane-padded");
        assert!(
            b.stride() >= nx + 2 * h,
            "({nx},{ny},{h}): stride too small"
        );
        assert_eq!(
            b.raw().len(),
            b.stride() * (ny + 2 * h),
            "({nx},{ny},{h}): raw size"
        );
        assert_eq!(
            b.raw().as_ptr() as usize % 32,
            0,
            "({nx},{ny},{h}): base not 32-byte aligned"
        );
        // Lane-multiple stride ⇒ every row starts at the same alignment
        // phase, so row 0's alignment carries to all rows.
        assert_eq!((b.stride() * 8) % 32, 0);
    }
}

/// `masked_block_dot` on a padded 13×7 block matches a plain reference
/// accumulation over logical indices, bitwise — padding must not change
/// which cells (or in which order) the partial sums.
#[test]
fn block_dot_ignores_padding() {
    let (nx, ny) = (13usize, 7usize);
    let mut a = BlockVec::zeros(nx, ny, 2);
    let mut b = BlockVec::zeros(nx, ny, 2);
    let mask: Vec<u8> = (0..nx * ny).map(|k| (k % 5 != 3) as u8).collect();
    for j in 0..ny {
        for i in 0..nx {
            a.set(i, j, noise(1, i, j));
            b.set(i, j, noise(2, i, j));
        }
    }
    // Poison the pad columns: if anything reads them, NaN propagates.
    for v in [&mut a, &mut b] {
        let (s, w) = (v.stride(), v.nx + 2 * v.halo);
        let raw = v.raw_mut();
        for r in 0..ny + 4 {
            raw[r * s + w..(r + 1) * s].fill(f64::NAN);
        }
    }
    let mut want = 0.0f64;
    for j in 0..ny {
        for i in 0..nx {
            if mask[j * nx + i] != 0 {
                want += a.get(i, j) * b.get(i, j);
            }
        }
    }
    let got = masked_block_dot(&a, &b, &mask);
    assert!(got.is_finite(), "dot read a pad column");
    assert_eq!(got.to_bits(), want.to_bits());
}

/// On a multi-block 13×7 decomposition: the halo exchange leaves interiors
/// untouched, and NaN-poisoned pad columns never leak into the exchange,
/// the fused apply (any dispatch mode), or the global reductions.
#[test]
fn pad_columns_are_storage_only_end_to_end() {
    let grid = Grid::gx01_scaled(9, 39, 28);
    let layout = DistLayout::build(&grid, 13, 7);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 700.0);

    let mut x = DistVec::zeros(&layout);
    x.fill_with(|i, j| noise(7, i, j));
    world.halo_update(&mut x);

    // Clean reference pass.
    let clean_interior = x.to_global();
    let clean_dot = world.dot(&x, &x);
    let mut y = DistVec::zeros(&layout);
    op.apply_reference(&world, &x, &mut y);
    let clean_y = y.to_global();

    // Poison every pad column of every block, halo rows included.
    for blk in &mut x.blocks {
        let (s, w, rows) = (blk.stride(), blk.nx + 2 * blk.halo, blk.ny + 2 * blk.halo);
        let raw = blk.raw_mut();
        for r in 0..rows {
            raw[r * s + w..(r + 1) * s].fill(f64::NAN);
        }
    }

    world.halo_update(&mut x);
    assert_eq!(
        x.to_global(),
        clean_interior,
        "halo exchange disturbed interiors or read pads"
    );
    let dot = world.dot(&x, &x);
    assert_eq!(dot.to_bits(), clean_dot.to_bits(), "dot read a pad column");

    for mode in lane_modes() {
        let mut y2 = DistVec::zeros(&layout);
        for b in 0..layout.n_blocks() {
            op.apply_block_into_mode(mode, b, &x.blocks[b], &mut y2.blocks[b], &layout.masks[b]);
        }
        let got = y2.to_global();
        assert!(
            got.iter().all(|v| v.is_finite()),
            "{} apply read a pad column",
            mode.name()
        );
        for (k, (a, b)) in got.iter().zip(&clean_y).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} apply differs at point {k} with poisoned pads",
                mode.name()
            );
        }
    }
}

/// The fused dispatch apply is bit-identical to the straightforward
/// reference loops on non-lane-multiple blocks, and the result does not
/// depend on the decomposition (13×7 vs 39×14 blocks have different pad
/// widths and halo traffic but must agree bitwise) — the halo exchange is
/// faithful on padded strides.
#[test]
fn apply_matches_reference_across_decompositions() {
    let grid = Grid::gx01_scaled(5, 39, 28);
    let world = CommWorld::serial();
    let run = |bx: usize, by: usize| -> (Vec<f64>, Vec<f64>) {
        let layout = DistLayout::build(&grid, bx, by);
        let op = NinePoint::assemble(&grid, &layout, &world, 700.0);
        let mut x = DistVec::zeros(&layout);
        x.fill_with(|i, j| noise(11, i, j));
        world.halo_update(&mut x);
        let mut y = DistVec::zeros(&layout);
        op.apply(&world, &x, &mut y);
        let mut yr = DistVec::zeros(&layout);
        op.apply_reference(&world, &x, &mut yr);
        (y.to_global(), yr.to_global())
    };
    let (y_a, yref_a) = run(13, 7);
    let (y_b, _) = run(39, 14);
    for (k, (a, r)) in y_a.iter().zip(&yref_a).enumerate() {
        assert_eq!(
            a.to_bits(),
            r.to_bits(),
            "apply vs reference differ at point {k}"
        );
    }
    for (k, (a, b)) in y_a.iter().zip(&y_b).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "decompositions disagree at point {k}: halo exchange unfaithful"
        );
    }
}
