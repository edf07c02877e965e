//! Batched multi-RHS kernels for the nine-point apply and residual.
//!
//! Where the single-RHS kernels (`crate::simd`) vectorize lane-parallel
//! across grid *columns*, these kernels vectorize across *right-hand
//! sides*: the four lanes of a [`MultiBlockVec`] group carry four
//! independent RHS vectors, each operator coefficient is loaded **once**
//! per point and splatted across lanes, and one sweep advances all of
//! them. That amortization — coefficients, mask bytes, halo traffic, and
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
//! exactly for every other value. So both lane types reproduce the
//! single-RHS trajectory bit-for-bit.
//!
//! Like the column-lane kernels of `crate::simd`, the sweep is written once
//! (`MultiSweep`, a [`LaneJob`]) and what becomes of a lane group's masked
//! `A·x` is its `MultiEpilogue`: `Store` or `Residual` — the latter with or
//! without its `‖r‖²` folds, a compile-time choice (`Residual<NORM>`).
//!
//! # The group count is a type parameter
//!
//! One sweep advances every lane group of the tile at each point, so the
//! `‖r‖²` fold carries one accumulator per group from the first point to
//! the last. The sweep body takes the group count as a const generic
//! `G ∈ 1..=`[`MAX_GROUPS`], and the job maps the tile's runtime
//! `groups()` to it with one `match`: the accumulators are then a `[V; G]`
//! array the compiler keeps in registers and the per-point group loop is
//! unrolled. With a runtime count the array is indexed through memory and
//! every step of the fold goes through a store and a load. Which register
//! an instruction feeds is all that changes; no lane's operation order does.

use crate::op::NinePoint;
use crate::simd::{StencilBlock, TileShape};
use pop_comm::{MultiBlockVec, MAX_GROUPS};
use pop_simd::{LaneF64, LaneJob, SimdMode, LANES};

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
fn splat_nine<V: LaneF64>(c: &StencilBlock, p: usize) -> NineCoeffs<V> {
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
/// each side in `xr`, and [`LaneJob::run`]'s contract for `V` holds.
#[inline(always)]
unsafe fn nine_multi_at<V: LaneF64>(k: &NineCoeffs<V>, s: usize, xr: &[f64], xb: usize) -> V {
    let sl = s * LANES;
    // The lowest load starts at the south-west neighbour, the highest ends
    // with the north-east one.
    debug_assert!(xb >= sl + LANES && xb + sl + 2 * LANES <= xr.len());
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

/// What a [`MultiSweep`] stores for one lane group, given its masked `A·x`
/// (`+0.0` on land) at lane base `xb`, and what it sums on the way.
trait MultiEpilogue {
    /// The lane group to store at `xb`. `m` is the point's mask word, splat;
    /// `acc` the running register the sweep keeps for this lane group —
    /// per-lane sums in spatial row-major order. (Interleaving groups
    /// reorders only which register an instruction feeds, never the fold
    /// order within any lane.)
    ///
    /// # Safety
    /// `xb .. xb + LANES` must be an interior point's lane group of the
    /// shape the epilogue's tiles were checked against, and
    /// [`LaneJob::run`]'s contract for `V` holds.
    #[inline(always)]
    unsafe fn lanes<V: LaneF64>(&self, _xb: usize, ax: V, _m: V, _acc: &mut V) -> V {
        ax
    }

    /// The finished registers, one per lane group.
    ///
    /// # Safety
    /// [`LaneJob::run`]'s contract for `V`.
    #[inline(always)]
    unsafe fn partials<V: LaneF64>(&mut self, _acc: &[V]) {}
}

/// `y_b = A x_b`: the masked `A·x` itself, nothing summed.
struct Store;

impl MultiEpilogue for Store {}

/// `r_b = rhs_b − A x_b`, plus the per-RHS masked `‖r‖²` partials when
/// `NORM` (a sweep whose norms nobody reads skips the fold, not the
/// residual). Masking `A·x` before the subtraction makes land produce
/// `rhs − 0.0`, exactly the reference's land branch; land adds a masked
/// `+0.0` to the sums (bitwise neutral — see the module docs).
struct Residual<'a, const NORM: bool> {
    rhs: &'a [f64],
    /// `groups · LANES` slots when `NORM` (asserted where the job is built).
    partials: &'a mut [f64],
}

impl<const NORM: bool> MultiEpilogue for Residual<'_, NORM> {
    #[inline(always)]
    unsafe fn lanes<V: LaneF64>(&self, xb: usize, ax: V, m: V, acc: &mut V) -> V {
        debug_assert!(xb + LANES <= self.rhs.len());
        // SAFETY: in bounds by this function's contract.
        let rv = V::load(self.rhs.as_ptr().add(xb)).sub(ax);
        if NORM {
            *acc = acc.add(rv.mul(rv).and_bits(m));
        }
        rv
    }

    #[inline(always)]
    unsafe fn partials<V: LaneF64>(&mut self, acc: &[V]) {
        if !NORM {
            return;
        }
        for (slots, a) in self.partials.chunks_exact_mut(LANES).zip(acc) {
            // SAFETY: `slots` is `LANES` long.
            a.store(slots.as_mut_ptr());
        }
    }
}

/// The nine-point sweep over one block's `groups · LANES` right-hand sides
/// into the tile `out`. Built only by [`NinePoint::apply_block_multi_mode`]
/// and [`NinePoint::residual_block_multi_mode`], from a [`StencilBlock`]
/// (its `xr` the batched operand: `LANES` values per point, coefficients
/// one), an output and epilogue tiles that were all checked against one
/// [`TileShape`] (lane-group count included).
struct MultiSweep<'a, E> {
    blk: StencilBlock<'a>,
    groups: usize,
    mask: &'a [u8],
    out: &'a mut [f64],
    epi: E,
}

impl<E: MultiEpilogue> MultiSweep<'_, E> {
    /// The sweep over all `G` lane groups, one accumulator register each.
    ///
    /// # Safety
    /// [`LaneJob::run`]'s contract for `V`, and `G == self.groups`.
    #[inline(always)]
    unsafe fn sweep<V: LaneF64, const G: usize>(self) {
        let MultiSweep {
            blk: c,
            groups,
            mask,
            out,
            mut epi,
        } = self;
        debug_assert_eq!(G, groups);
        let rows = c.ny + 2 * c.h;
        let gstride = rows * c.s * LANES;
        let mut acc = [V::splat(0.0); G];
        for j in 0..c.ny {
            let p0 = (j + c.h) * c.s + c.h;
            let b0 = ((j + c.h) * c.s + c.h) * LANES;
            let mrow = &mask[j * c.nx..(j + 1) * c.nx];
            for (i, &mi) in mrow.iter().enumerate() {
                let k = splat_nine::<V>(&c, p0 + i);
                let m = V::splat(pop_simd::mask_word(mi));
                for (g, a) in acc.iter_mut().enumerate() {
                    // SAFETY: `xb` is the lane base of interior point
                    // `(i, j)` of group `g < G = groups` in the checked
                    // shape, which `out` has too: a halo ring (`h ≥ 1`)
                    // surrounds it.
                    unsafe {
                        let xb = b0 + g * gstride + i * LANES;
                        debug_assert!(xb + LANES <= out.len());
                        let ax = nine_multi_at::<V>(&k, c.s, c.xr, xb);
                        let v = epi.lanes(xb, ax.and_bits(m), m, a);
                        v.store(out.as_mut_ptr().add(xb));
                    }
                }
            }
        }
        // SAFETY: `V` is this call's own.
        epi.partials(&acc);
    }
}

impl<E: MultiEpilogue> LaneJob for MultiSweep<'_, E> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: LaneF64>(self) {
        // `MultiBlockVec::zeros` holds `groups` to `1..=MAX_GROUPS`.
        match self.groups {
            1 => self.sweep::<V, 1>(),
            2 => self.sweep::<V, 2>(),
            3 => self.sweep::<V, 3>(),
            4 => self.sweep::<V, 4>(),
            g => unreachable!("{g} lane groups: a tile holds 1..={MAX_GROUPS}"),
        }
    }
}

impl NinePoint {
    /// Block `b`'s operand views for the batched kernels, after checking
    /// that `x`, every other operand, the coefficient tiles and the mask
    /// words all share `x`'s padded shape (and lane-group count).
    fn multi_block<'a>(
        &'a self,
        b: usize,
        x: &'a MultiBlockVec,
        others: &[(&str, &MultiBlockVec)],
    ) -> StencilBlock<'a> {
        let shape = TileShape::of_multi(x);
        for (name, v) in others {
            shape.check_multi(name, v);
        }
        shape.check_interior_len("layout mask", self.layout.masks[b].len());
        StencilBlock::new(shape, x.raw(), self.coeff_tiles(b, shape))
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
        let job = MultiSweep {
            blk: self.multi_block(b, x, &[("y", y)]),
            groups: x.groups(),
            mask: &self.layout.masks[b],
            out: y.raw_mut(),
            epi: Store,
        };
        pop_simd::dispatch(mode, job)
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
        assert!(
            partials.len() >= x.groups() * LANES,
            "partials slice too short"
        );
        self.residual_multi::<true>(mode, b, x, rhs, r, partials);
    }

    /// [`NinePoint::residual_block_multi`] without the `‖r‖²` folds, for a
    /// sweep whose norms nobody reads: the same kernel writing the same `r`
    /// bits.
    pub fn residual_block_multi_no_norm(
        &self,
        b: usize,
        x: &MultiBlockVec,
        rhs: &MultiBlockVec,
        r: &mut MultiBlockVec,
    ) {
        self.residual_multi::<false>(pop_simd::mode(), b, x, rhs, r, &mut []);
    }

    /// The batched residual, its `‖r‖²` partials folded when `NORM`.
    fn residual_multi<const NORM: bool>(
        &self,
        mode: SimdMode,
        b: usize,
        x: &MultiBlockVec,
        rhs: &MultiBlockVec,
        r: &mut MultiBlockVec,
        partials: &mut [f64],
    ) {
        let job = MultiSweep {
            blk: self.multi_block(b, x, &[("rhs", rhs), ("r", r)]),
            groups: x.groups(),
            mask: &self.layout.masks[b],
            out: r.raw_mut(),
            epi: Residual::<NORM> {
                rhs: rhs.raw(),
                partials,
            },
        };
        pop_simd::dispatch(mode, job)
    }
}

#[cfg(test)]
mod tests {
    use pop_comm::{
        masked_block_dot, BlockVec, CommWorld, DistLayout, DistVec, MultiBlockVec, MAX_GROUPS,
    };
    use pop_grid::Grid;
    use pop_simd::LANES;

    use crate::op::tests::{all_modes, odd_block_cases, test_field};
    use crate::op::NinePoint;

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

    /// The batched residual without its norm folds writes exactly the
    /// residual the folding sweep writes — odd-block family, every
    /// lane-group count, both lane types.
    #[test]
    fn no_norm_residual_matches_the_folding_residual_at_every_group_count() {
        let bits = |v: &MultiBlockVec| v.raw().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, layout, _, op) in odd_block_cases() {
            let lanes = MAX_GROUPS * LANES;
            let xs: Vec<DistVec> = (0..lanes as u64)
                .map(|s| test_field(&layout, 300 + s))
                .collect();
            let rhss: Vec<DistVec> = (0..lanes as u64)
                .map(|s| test_field(&layout, 400 + s))
                .collect();
            for (b, groups) in
                (0..layout.n_blocks()).flat_map(|b| (1..=MAX_GROUPS).map(move |g| (b, g)))
            {
                let shape = &xs[0].blocks[b];
                let tile = || MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
                let (mut mx, mut mrhs) = (tile(), tile());
                for l in 0..groups * LANES {
                    mx.load_lane(l / LANES, l % LANES, &xs[l].blocks[b]);
                    mrhs.load_lane(l / LANES, l % LANES, &rhss[l].blocks[b]);
                }
                for mode in all_modes() {
                    let mut want = tile();
                    want.fill(f64::NAN);
                    let mut got = want.clone();
                    let mut partials = vec![0.0; groups * LANES];
                    op.residual_block_multi_mode(mode, b, &mx, &mrhs, &mut want, &mut partials);
                    op.residual_multi::<false>(mode, b, &mx, &mrhs, &mut got, &mut []);
                    assert!(
                        bits(&got) == bits(&want),
                        "{name} block {b} groups {groups} {mode:?}"
                    );
                }
            }
        }
    }

    /// Batched apply and residual reproduce, lane for lane, the references'
    /// bits for that lane's right-hand side — `apply_reference`,
    /// `residual_reference` and the `masked_block_dot` of the residual with
    /// itself for the order-sensitive norm partials — on the odd-block
    /// family (13×7, and blocks 1, 2, 3, 5 and 7 columns wide), at every
    /// lane-group count (each its own instance of the sweep), on both lane
    /// types.
    #[test]
    fn batched_kernels_bitwise_match_single_rhs() {
        for (name, layout, world, op) in odd_block_cases() {
            let lanes = MAX_GROUPS * LANES;
            let mut xs: Vec<DistVec> = (0..lanes as u64)
                .map(|s| test_field(&layout, 100 + s))
                .collect();
            let rhss: Vec<DistVec> = (0..lanes as u64)
                .map(|s| test_field(&layout, 200 + s))
                .collect();
            let mut y_ref = Vec::new();
            let mut r_ref = Vec::new();
            for (x, rhs) in xs.iter_mut().zip(&rhss) {
                let mut r = DistVec::zeros(&layout);
                op.residual_reference(&world, x, rhs, &mut r); // refreshes x's halo
                let mut y = DistVec::zeros(&layout);
                op.apply_reference(&world, x, &mut y);
                y_ref.push(y);
                r_ref.push(r);
            }

            for (b, groups) in
                (0..layout.n_blocks()).flat_map(|b| (1..=MAX_GROUPS).map(move |g| (b, g)))
            {
                let k = groups * LANES;
                let shape = &xs[0].blocks[b];
                let mut mx = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
                let mut mrhs = MultiBlockVec::zeros(shape.nx, shape.ny, shape.halo, groups);
                for l in 0..k {
                    mx.load_lane(l / LANES, l % LANES, &xs[l].blocks[b]);
                    mrhs.load_lane(l / LANES, l % LANES, &rhss[l].blocks[b]);
                }
                let mask = &layout.masks[b];

                for mode in all_modes() {
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
                        let tag = format!("{name} block {b} groups {groups} {mode:?} lane {l}");
                        let (y_want, r_want) = (&y_ref[l].blocks[b], &r_ref[l].blocks[b]);
                        my.store_lane(l / LANES, l % LANES, &mut got);
                        for j in 0..got.ny {
                            for (a, c) in got.interior_row(j).iter().zip(y_want.interior_row(j)) {
                                assert_eq!(a.to_bits(), c.to_bits(), "{tag} apply");
                            }
                        }
                        mr.store_lane(l / LANES, l % LANES, &mut got);
                        for j in 0..got.ny {
                            for (a, c) in got.interior_row(j).iter().zip(r_want.interior_row(j)) {
                                assert_eq!(a.to_bits(), c.to_bits(), "{tag} residual");
                            }
                        }
                        let acc_want = masked_block_dot(r_want, r_want, mask);
                        assert_eq!(acc[l].to_bits(), acc_want.to_bits(), "{tag} norm partial");
                    }
                }
            }
        }
    }
}
