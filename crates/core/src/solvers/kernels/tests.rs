//! The pointwise updates through [`update`], against their scalar
//! formulas written out below in each update's per-element order: at width
//! 1 on every row length from 1 to 8 (each ragged tail, and rows that are
//! only tail), on every lane-group count, in every dispatch mode, with
//! per-slot scalars that differ by slot and a NaN-poisoned halo ring.

use super::*;
use pop_comm::MAX_GROUPS;
use pop_simd::SimdMode;

/// A halo value the sweep must neither read into the interior nor write.
const POISON: u64 = 0x7ff8_dead_beef_0001;

/// Is flat index `k` of a `T` tile of this shape an interior value, and of
/// which slot (`image · POINT_WIDTH + lane`)?
fn slot_of<T: Tile>(k: usize, (nx, ny, halo): (usize, usize, usize)) -> Option<usize> {
    let (stride, rows) = extent(nx, ny, halo);
    let (p, lane) = (k / T::POINT_WIDTH, k % T::POINT_WIDTH);
    let (image, q) = (p / (stride * rows), p % (stride * rows));
    let (jj, ii) = (q / stride, q % stride);
    let inside = (halo..halo + nx).contains(&ii) && (halo..halo + ny).contains(&jj);
    inside.then_some(image * T::POINT_WIDTH + lane)
}

/// A tile with seeded values in (−1, 1) inside and [`POISON`] on the ring.
fn seeded<T: Tile>(shape: (usize, usize, usize), width: usize, seed: u64) -> T {
    let mut t = T::zeros(shape.0, shape.1, shape.2, width);
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for (k, v) in t.raw_mut().iter_mut().enumerate() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = match slot_of::<T>(k, shape) {
            Some(_) => (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
            None => f64::from_bits(POISON),
        };
    }
    t
}

/// Run `U` through [`update`] on `T` tiles of `shape` and `width`, and hold
/// every value to `formula` at its slot's scalars, bit for bit.
fn check<T, U, const R: usize, const W: usize, const S: usize>(
    shape: (usize, usize, usize),
    width: usize,
    make: &impl Fn() -> U,
    formula: &impl Fn([f64; R], &mut [f64; W], [f64; S]),
) where
    T: Tile,
    U: Update<R, W, S>,
{
    let read: [T; R] = std::array::from_fn(|k| seeded(shape, width, 10 + k as u64));
    let mut write: [T; W] = std::array::from_fn(|k| seeded(shape, width, 30 + k as u64));
    // Per-slot scalars, distinct in every slot (and past the batch's last
    // one, which must go unread).
    let scalars: [Vec<f64>; S] = std::array::from_fn(|k| {
        (0..width.max(LANES))
            .map(|slot| 0.75 - 0.3 * k as f64 + 0.0625 * slot as f64)
            .collect()
    });
    let before = write.clone();
    update(
        make(),
        read.each_ref(),
        write.each_mut(),
        scalars.each_ref().map(|s| &s[..]),
    );
    let what = format!("{} at width {width}, {shape:?}", std::any::type_name::<U>());
    for k in 0..write[0].raw().len() {
        let Some(slot) = slot_of::<T>(k, shape) else {
            for t in &write {
                assert_eq!(
                    t.raw()[k].to_bits(),
                    POISON,
                    "{what}: ring value {k} written"
                );
            }
            continue;
        };
        let mut want: [f64; W] = std::array::from_fn(|m| before[m].raw()[k]);
        formula(
            std::array::from_fn(|m| read[m].raw()[k]),
            &mut want,
            std::array::from_fn(|m| scalars[m][slot]),
        );
        for (m, t) in write.iter().enumerate() {
            let got = t.raw()[k];
            assert!(got.is_finite(), "{what}: operand {m} value {k} not finite");
            assert_eq!(
                got.to_bits(),
                want[m].to_bits(),
                "{what}: operand {m} value {k}"
            );
        }
    }
}

/// [`check`] at width 1 on rows of 1 to 8 points and on every lane-group
/// count, in every dispatch mode.
fn sweep<U, const R: usize, const W: usize, const S: usize>(
    make: impl Fn() -> U,
    formula: impl Fn([f64; R], &mut [f64; W], [f64; S]),
) where
    U: Update<R, W, S>,
{
    struct Unforce;
    impl Drop for Unforce {
        fn drop(&mut self) {
            pop_simd::force_mode(None);
        }
    }
    let avx2 = pop_simd::detected_avx2();
    for mode in [SimdMode::Portable, SimdMode::Avx2] {
        if mode == SimdMode::Avx2 && !avx2 {
            continue;
        }
        let _guard = Unforce;
        pop_simd::force_mode(Some(mode));
        for nx in [1, 2, 3, 4, 5, 7, 8] {
            check::<BlockVec, U, R, W, S>((nx, 3, 1), 1, &make, &formula);
        }
        for groups in 1..=MAX_GROUPS {
            check::<MultiBlockVec, U, R, W, S>((5, 3, 1), groups * LANES, &make, &formula);
        }
    }
}

/// `force_mode` is process-global, so every update runs in this one test.
#[test]
fn every_update_matches_its_scalar_formula_at_both_widths_in_every_mode() {
    sweep(
        || CsiStart,
        |[z], [dx, x]: &mut [f64; 2], [inv_gamma]| {
            let d = z * inv_gamma;
            *dx = d;
            *x += d;
        },
    );
    sweep(
        || CsiUpdate,
        |[z], [dx, x]: &mut [f64; 2], [omega, c]| {
            let d = *dx * c + omega * z;
            *dx = d;
            *x += d;
        },
    );
    sweep(
        || ChronGearUpdate,
        |[z, az], [s, p, x, r]: &mut [f64; 4], [beta, alpha, nalpha]| {
            let sv = z + beta * *s;
            let pv = az + beta * *p;
            *s = sv;
            *p = pv;
            *x += alpha * sv;
            *r += nalpha * pv;
        },
    );
    // The Lanczos estimate's two, in `DistVec::axpy` / `xpay`'s order.
    sweep(
        || Axpy,
        |[x], [y]: &mut [f64; 1], [a]| {
            *y += a * x;
        },
    );
    sweep(
        || Xpay,
        |[x], [y]: &mut [f64; 1], [a]| {
            *y = x + a * *y;
        },
    );
}
