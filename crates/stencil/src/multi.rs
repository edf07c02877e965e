//! Batched multi-RHS kernels for the nine-point apply and residual.
//!
//! Where the single-RHS kernels (`crate::simd`) vectorize lane-parallel
//! across grid *columns*, these kernels vectorize across *right-hand
//! sides*: the four lanes of a [`MultiBlockVec`] group carry four
//! independent RHS vectors, each operator coefficient is loaded **once**
//! per point and splatted across lanes, and one sweep advances all of
//! them. That amortization — coefficients, mask words, halo traffic, and
//! loop overhead shared by `k` solves — is the batched engine's speedup.
//!
//! # Bitwise determinism
//!
//! Each lane executes exactly the scalar single-RHS operation sequence:
//! the nine products sum in the canonical order of
//! `NinePoint::apply_reference`, land masking is the same bitwise AND, and
//! no FMA is emitted. The per-RHS masked `‖r‖²` partials accumulate
//! *lanewise* in spatial row-major order with land contributing a masked
//! `+0.0`; that is bitwise identical to the scalar skip-accumulation
//! because the accumulator starts at `+0.0` and can never become `-0.0`
//! (round-to-nearest gives `x + (-x) = +0.0`), and `acc + (+0.0) == acc`
//! exactly for every other value. Because the single-RHS kernels are
//! themselves dispatch-invariant (scalar ≡ portable ≡ AVX2, pinned by
//! `op.rs` tests), every dispatch mode here reproduces the single-RHS
//! trajectory bit-for-bit — [`SimdMode::Scalar`] simply shares the
//! portable-lane instantiation.

use crate::op::NinePoint;
use crate::simd::TileShape;
use pop_comm::MultiBlockVec;
use pop_simd::{LaneF64, Portable4, SimdMode, LANES};

/// Borrowed views of one block's coefficient storage (single-RHS tiles:
/// coefficients are shared by every lane) plus the interior shape.
struct CoeffBlock<'a> {
    nx: usize,
    ny: usize,
    h: usize,
    /// Row stride in points — identical for coefficient and multi tiles.
    s: usize,
    a0: &'a [f64],
    an: &'a [f64],
    ae: &'a [f64],
    ane: &'a [f64],
}

/// Most lane groups one interleaved pass advances: one register set per
/// group, matching the batch engine's `MAX_BATCH / LANES` bound; wider
/// vectors fall back to another chunked pass.
const MAX_GROUPS: usize = 4;

/// One point's nine coefficients, splat once and shared by every lane of
/// every group the inner loop advances — the coefficient amortization the
/// batched engine is built on.
#[derive(Clone, Copy)]
struct NineCoeffs<V> {
    c0: V,
    cn: V,
    cs: V,
    ce: V,
    cw: V,
    cne: V,
    cse: V,
    cnw: V,
    csw: V,
}

#[inline(always)]
fn splat_nine<V: LaneF64>(c: &CoeffBlock, p: usize) -> NineCoeffs<V> {
    NineCoeffs {
        c0: V::splat(c.a0[p]),
        cn: V::splat(c.an[p]),
        cs: V::splat(c.an[p - c.s]),
        ce: V::splat(c.ae[p]),
        cw: V::splat(c.ae[p - 1]),
        cne: V::splat(c.ane[p]),
        cse: V::splat(c.ane[p - c.s]),
        cnw: V::splat(c.ane[p - 1]),
        csw: V::splat(c.ane[p - c.s - 1]),
    }
}

/// The nine products summed in the canonical order for one point's lane
/// group: pre-splat coefficients against lane loads of the nine neighbour
/// points. Operation-for-operation the lane image of the scalar
/// `Rows::nine_scalar`, lane base `xb`. (Splats carry no arithmetic, so
/// hoisting them out of the group loop leaves every lane's operation
/// sequence untouched.)
///
/// # Safety
/// `xb` must be an interior point's lane base with one halo row/column on
/// each side in `xr`. With [`pop_simd::Avx2`] lanes the caller must be
/// executing under the `avx2` target feature.
#[inline(always)]
unsafe fn nine_multi_at<V: LaneF64>(k: &NineCoeffs<V>, s: usize, xr: &[f64], xb: usize) -> V {
    let sl = s * LANES;
    let at = |o: usize| V::load(xr.as_ptr().add(o));
    let v = k.c0.mul(at(xb));
    let v = v.add(k.cn.mul(at(xb + sl)));
    let v = v.add(k.cs.mul(at(xb - sl)));
    let v = v.add(k.ce.mul(at(xb + LANES)));
    let v = v.add(k.cw.mul(at(xb - LANES)));
    let v = v.add(k.cne.mul(at(xb + sl + LANES)));
    let v = v.add(k.cse.mul(at(xb - sl + LANES)));
    let v = v.add(k.cnw.mul(at(xb + sl - LANES)));
    v.add(k.csw.mul(at(xb - sl - LANES)))
}

#[inline(always)]
fn apply_multi_lanes<V: LaneF64>(
    c: &CoeffBlock,
    groups: usize,
    xr: &[f64],
    yr: &mut [f64],
    maskbits: &[f64],
) {
    let rows = c.ny + 2 * c.h;
    let gstride = rows * c.s * LANES;
    let mut g0 = 0;
    while g0 < groups {
        let gn = (groups - g0).min(MAX_GROUPS);
        for j in 0..c.ny {
            let p0 = (j + c.h) * c.s + c.h;
            let b0 = ((g0 * rows + j + c.h) * c.s + c.h) * LANES;
            let mrow = &maskbits[j * c.nx..(j + 1) * c.nx];
            for (i, &mi) in mrow.iter().enumerate() {
                let k = splat_nine::<V>(c, p0 + i);
                let m = V::splat(mi);
                for g in 0..gn {
                    unsafe {
                        let xb = b0 + g * gstride + i * LANES;
                        let v = nine_multi_at::<V>(&k, c.s, xr, xb);
                        v.and_bits(m).store(yr.as_mut_ptr().add(xb));
                    }
                }
            }
        }
        g0 += gn;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_multi_avx2(
    c: &CoeffBlock,
    groups: usize,
    xr: &[f64],
    yr: &mut [f64],
    maskbits: &[f64],
) {
    apply_multi_lanes::<pop_simd::Avx2>(c, groups, xr, yr, maskbits);
}

#[inline(always)]
fn residual_multi_lanes<V: LaneF64>(
    c: &CoeffBlock,
    groups: usize,
    xr: &[f64],
    rhs: &[f64],
    rr: &mut [f64],
    maskbits: &[f64],
    partials: &mut [f64],
) {
    let rows = c.ny + 2 * c.h;
    let gstride = rows * c.s * LANES;
    let mut g0 = 0;
    while g0 < groups {
        let gn = (groups - g0).min(MAX_GROUPS);
        // One accumulator register per group: per-lane running sums in
        // spatial row-major order, land adding a masked `+0.0` (bitwise
        // neutral — see the module docs). Interleaving groups reorders
        // only which accumulator an instruction feeds, never the fold
        // order within any lane.
        let mut acc = [V::splat(0.0); MAX_GROUPS];
        for j in 0..c.ny {
            let p0 = (j + c.h) * c.s + c.h;
            let b0 = ((g0 * rows + j + c.h) * c.s + c.h) * LANES;
            let mrow = &maskbits[j * c.nx..(j + 1) * c.nx];
            for (i, &mi) in mrow.iter().enumerate() {
                let k = splat_nine::<V>(c, p0 + i);
                let m = V::splat(mi);
                for (g, a) in acc.iter_mut().enumerate().take(gn) {
                    unsafe {
                        // Masking A·x before the subtraction makes land
                        // produce `rhs − 0.0`, exactly the scalar land
                        // branch.
                        let xb = b0 + g * gstride + i * LANES;
                        let v = nine_multi_at::<V>(&k, c.s, xr, xb);
                        let rv = V::load(rhs.as_ptr().add(xb)).sub(v.and_bits(m));
                        rv.store(rr.as_mut_ptr().add(xb));
                        *a = a.add(rv.mul(rv).and_bits(m));
                    }
                }
            }
        }
        for (g, a) in acc.iter().enumerate().take(gn) {
            unsafe { a.store(partials.as_mut_ptr().add((g0 + g) * LANES)) };
        }
        g0 += gn;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn residual_multi_avx2(
    c: &CoeffBlock,
    groups: usize,
    xr: &[f64],
    rhs: &[f64],
    rr: &mut [f64],
    maskbits: &[f64],
    partials: &mut [f64],
) {
    residual_multi_lanes::<pop_simd::Avx2>(c, groups, xr, rhs, rr, maskbits, partials);
}

impl NinePoint {
    /// Block `b`'s coefficient views for the batched kernels, after checking
    /// that `x`, every other operand, the coefficient tiles and the mask
    /// words all share `x`'s padded shape (and lane-group count).
    fn coeff_block<'a>(
        &'a self,
        b: usize,
        x: &MultiBlockVec,
        others: &[(&str, &MultiBlockVec)],
    ) -> CoeffBlock<'a> {
        let shape = TileShape::of_multi(x);
        for (name, v) in others {
            shape.check_multi(name, v);
        }
        let [a0, an, ae, ane] = self.coeff_tiles(b, shape);
        shape.check_interior_len("maskbits", self.layout.maskbits[b].len());
        CoeffBlock {
            nx: shape.nx,
            ny: shape.ny,
            h: shape.halo,
            s: shape.stride,
            a0,
            an,
            ae,
            ane,
        }
    }

    /// Batched `y_b = A x_b`: every lane of every group gets the single-RHS
    /// kernel's bits for its own RHS. `x`'s halo must be current (one
    /// [`halo_update`](pop_comm::Communicator::halo_update) per iteration,
    /// shared by all `k` RHS).
    pub fn apply_block_multi(&self, b: usize, x: &MultiBlockVec, y: &mut MultiBlockVec) {
        self.apply_block_multi_mode(pop_simd::mode(), b, x, y);
    }

    /// [`NinePoint::apply_block_multi`] with an explicit dispatch choice.
    pub fn apply_block_multi_mode(
        &self,
        mode: SimdMode,
        b: usize,
        x: &MultiBlockVec,
        y: &mut MultiBlockVec,
    ) {
        let c = self.coeff_block(b, x, &[("y", y)]);
        let groups = x.groups();
        let maskbits = &self.layout.maskbits[b];
        match mode {
            // Scalar and portable share one instantiation: the portable
            // lanes are the per-lane scalar ops by construction.
            SimdMode::Scalar | SimdMode::Portable => {
                apply_multi_lanes::<Portable4>(&c, groups, x.raw(), y.raw_mut(), maskbits)
            }
            SimdMode::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: dispatch only selects Avx2 after runtime detection.
                unsafe {
                    apply_multi_avx2(&c, groups, x.raw(), y.raw_mut(), maskbits)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AVX2 dispatch off x86-64")
            }
        }
    }

    /// Batched fused residual: `r_b = rhs_b − A x_b` for all `k` RHS in one
    /// pass, with per-RHS masked `‖r‖²` partials written to
    /// `partials[g*LANES + lane]` — each slot bitwise equal to the
    /// single-RHS `residual_block_into` partial of that lane's RHS.
    pub fn residual_block_multi(
        &self,
        b: usize,
        x: &MultiBlockVec,
        rhs: &MultiBlockVec,
        r: &mut MultiBlockVec,
        partials: &mut [f64],
    ) {
        self.residual_block_multi_mode(pop_simd::mode(), b, x, rhs, r, partials);
    }

    /// [`NinePoint::residual_block_multi`] with an explicit dispatch choice.
    pub fn residual_block_multi_mode(
        &self,
        mode: SimdMode,
        b: usize,
        x: &MultiBlockVec,
        rhs: &MultiBlockVec,
        r: &mut MultiBlockVec,
        partials: &mut [f64],
    ) {
        let c = self.coeff_block(b, x, &[("rhs", rhs), ("r", r)]);
        let groups = x.groups();
        assert!(partials.len() >= groups * LANES, "partials slice too short");
        let maskbits = &self.layout.maskbits[b];
        match mode {
            SimdMode::Scalar | SimdMode::Portable => residual_multi_lanes::<Portable4>(
                &c,
                groups,
                x.raw(),
                rhs.raw(),
                r.raw_mut(),
                maskbits,
                partials,
            ),
            SimdMode::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: dispatch only selects Avx2 after runtime detection.
                unsafe {
                    residual_multi_avx2(
                        &c,
                        groups,
                        x.raw(),
                        rhs.raw(),
                        r.raw_mut(),
                        maskbits,
                        partials,
                    )
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AVX2 dispatch off x86-64")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use pop_comm::{BlockVec, CommWorld, DistLayout, DistVec, MultiBlockVec};
    use pop_grid::Grid;
    use pop_simd::{SimdMode, LANES};
    use std::sync::Arc;

    use crate::op::NinePoint;

    fn test_field(layout: &Arc<DistLayout>, seed: u64) -> DistVec {
        let mut v = DistVec::zeros(layout);
        v.fill_with(|i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(seed);
            (h % 1000) as f64 / 500.0 - 1.0 + 0.001
        });
        v
    }

    /// The odd-block operator with a two-group operand and a one-group
    /// tile of the same block, for the shape-check tests below.
    fn mismatched_groups_case() -> (NinePoint, MultiBlockVec, MultiBlockVec) {
        let g = Grid::gx1_scaled(13, 65, 49);
        let layout = DistLayout::build(&g, 13, 7);
        let op = NinePoint::assemble(&g, &layout, &CommWorld::serial(), 1500.0);
        let shape = &op.a0.blocks[0];
        let two = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, 2);
        let one = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, 1);
        (op, two, one)
    }

    // Raw lane stores follow `x`'s group count: a narrower output is a heap
    // overrun, so this must panic in release builds too.
    #[test]
    #[should_panic(expected = "stencil operand `y` shape mismatch")]
    fn batched_apply_rejects_an_output_with_fewer_groups() {
        let (op, mx, mut my) = mismatched_groups_case();
        op.apply_block_multi(0, &mx, &mut my);
    }

    #[test]
    #[should_panic(expected = "stencil operand `rhs` shape mismatch")]
    fn batched_residual_rejects_a_right_hand_side_with_fewer_groups() {
        let (op, mx, mrhs) = mismatched_groups_case();
        let mut mr = mx.clone();
        let mut partials = [0.0; 2 * LANES];
        op.residual_block_multi(0, &mx, &mrhs, &mut mr, &mut partials);
    }

    #[test]
    #[should_panic(expected = "partials slice too short")]
    fn batched_residual_rejects_short_partials() {
        let (op, mx, _) = mismatched_groups_case();
        let mut mr = mx.clone();
        let mut partials = [0.0; 2 * LANES - 1];
        op.residual_block_multi(0, &mx, &mx, &mut mr, &mut partials);
    }

    /// Batched apply and residual must reproduce, lane for lane, the
    /// single-RHS kernels' bits — outputs and the order-sensitive norm
    /// partials — on odd-sized blocks, under every dispatch mode.
    #[test]
    fn batched_kernels_bitwise_match_single_rhs() {
        let g = Grid::gx1_scaled(13, 65, 49);
        let layout = DistLayout::build(&g, 13, 7);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 1500.0);
        let groups = 2;
        let k = groups * LANES;

        let xs: Vec<DistVec> = (0..k as u64)
            .map(|s| {
                let mut x = test_field(&layout, 100 + s);
                world.halo_update(&mut x);
                x
            })
            .collect();
        let rhss: Vec<DistVec> = (0..k as u64)
            .map(|s| test_field(&layout, 200 + s))
            .collect();

        let mut modes = vec![SimdMode::Scalar, SimdMode::Portable];
        if pop_simd::detected_avx2() {
            modes.push(SimdMode::Avx2);
        }
        for b in 0..layout.n_blocks() {
            let shape = &xs[0].blocks[b];
            let mut mx = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
            let mut mrhs = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
            for l in 0..k {
                mx.load_lane(l / LANES, l % LANES, &xs[l].blocks[b]);
                mrhs.load_lane(l / LANES, l % LANES, &rhss[l].blocks[b]);
            }
            let mask = &layout.masks[b];

            // Single-RHS reference (scalar mode — all modes agree).
            let mut y_ref: Vec<BlockVec> = Vec::new();
            let mut r_ref: Vec<BlockVec> = Vec::new();
            let mut acc_ref = vec![0.0f64; k];
            for l in 0..k {
                let mut y = BlockVec::zeros(shape.nx, shape.ny, shape.halo);
                op.apply_block_into_mode(SimdMode::Scalar, b, &xs[l].blocks[b], &mut y, mask);
                let mut r = BlockVec::zeros(shape.nx, shape.ny, shape.halo);
                acc_ref[l] = op.residual_block_into_mode(
                    SimdMode::Scalar,
                    b,
                    &xs[l].blocks[b],
                    &rhss[l].blocks[b],
                    &mut r,
                    mask,
                );
                y_ref.push(y);
                r_ref.push(r);
            }

            for &mode in &modes {
                let mut my = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
                my.fill(f64::NAN); // prove every interior lane is written
                my.zero_halo();
                op.apply_block_multi_mode(mode, b, &mx, &mut my);
                let mut mr = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
                mr.fill(f64::NAN);
                mr.zero_halo();
                let mut acc = vec![f64::NAN; k];
                op.residual_block_multi_mode(mode, b, &mx, &mrhs, &mut mr, &mut acc);

                let mut got = BlockVec::zeros(shape.nx, shape.ny, shape.halo);
                for l in 0..k {
                    my.store_lane(l / LANES, l % LANES, &mut got);
                    for j in 0..got.ny {
                        for (a, c) in got.interior_row(j).iter().zip(y_ref[l].interior_row(j)) {
                            assert_eq!(a.to_bits(), c.to_bits(), "{mode:?} apply lane {l}");
                        }
                    }
                    mr.store_lane(l / LANES, l % LANES, &mut got);
                    for j in 0..got.ny {
                        for (a, c) in got.interior_row(j).iter().zip(r_ref[l].interior_row(j)) {
                            assert_eq!(a.to_bits(), c.to_bits(), "{mode:?} residual lane {l}");
                        }
                    }
                    assert_eq!(
                        acc[l].to_bits(),
                        acc_ref[l].to_bits(),
                        "{mode:?} norm partial lane {l}"
                    );
                }
            }
        }
    }
}
