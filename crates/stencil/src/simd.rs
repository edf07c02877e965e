//! Lane-parallel kernels for the fused 9-point apply, apply-with-dots and
//! residual.
//!
//! One generic 4-lane implementation ([`pop_simd::LaneF64`]) instantiated
//! for the portable `[f64; 4]` lanes and for AVX2, plus the scalar
//! reference loop; [`SimdMode`] selects among them. Each lane computes one
//! grid column's output with the *exact* scalar operation sequence — the
//! nine products are summed in the same fixed order as
//! `NinePoint::apply_reference`, no FMA, no horizontal ops — so every
//! dispatch choice produces bitwise-identical blocks. Land masking is a
//! lanewise bitwise AND with precomputed `f64` mask words
//! (`DistLayout::maskbits`), equivalent bit-for-bit to the scalar
//! `if ocean { v } else { 0.0 }` select.
//!
//! The residual's masked `‖r‖²` partial and the two dot-product partials of
//! the apply-with-dots variant are order-sensitive running sums; they stay
//! scalar row-major chains in *all* modes — folded in right behind each lane
//! group's store — so no reduction ever depends on dispatch.

use pop_comm::{BlockVec, MultiBlockVec};
use pop_simd::{LaneF64, Portable4, SimdMode, LANES};

/// The padded layout the flat kernels index a tile by. Every operand of one
/// block apply is read or written through windows computed from a single
/// shape (unchecked `pop_simd::window`s and raw lane stores), so operands
/// that disagree are out-of-bounds accesses, not wrong answers: the entry
/// points compare shapes with plain `assert!`-strength checks, in release
/// builds too — a few integer compares per block apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileShape {
    pub nx: usize,
    pub ny: usize,
    pub halo: usize,
    pub stride: usize,
    /// `f64`s of storage; with the fields above it fixes the lane-group
    /// count of a [`MultiBlockVec`].
    pub len: usize,
}

impl TileShape {
    /// The shape of the operand the kernels take their indexing from,
    /// checked to describe its storage: a halo ring, and `(ny + 2·halo)`
    /// rows of `stride ≥ nx + 2·halo` points. (`nx`, `ny` and `halo` are
    /// public fields of the tiles, so the tile's word is not taken for it.)
    pub(crate) fn of(x: &BlockVec) -> Self {
        Self::claimed(x).validated(1)
    }

    /// [`TileShape::of`] for a batched operand.
    pub(crate) fn of_multi(x: &MultiBlockVec) -> Self {
        Self::claimed_multi(x).validated(x.groups() * LANES)
    }

    /// The shape a tile claims to have (its public fields, unverified).
    fn claimed(v: &BlockVec) -> Self {
        Self::new(v.nx, v.ny, v.halo, v.stride(), v.raw().len())
    }

    fn claimed_multi(v: &MultiBlockVec) -> Self {
        Self::new(v.nx, v.ny, v.halo, v.stride(), v.raw().len())
    }

    fn new(nx: usize, ny: usize, halo: usize, stride: usize, len: usize) -> Self {
        TileShape {
            nx,
            ny,
            halo,
            stride,
            len,
        }
    }

    fn validated(self, width: usize) -> Self {
        assert!(self.halo >= 1, "stencil needs one halo layer");
        assert!(
            self.stride >= self.nx + 2 * self.halo
                && self.len == (self.ny + 2 * self.halo) * self.stride * width,
            "tile storage does not match its shape"
        );
        self
    }

    /// Panic unless the named operand has exactly this shape.
    pub(crate) fn check(self, name: &str, v: &BlockVec) {
        self.check_shape(name, Self::claimed(v));
    }

    /// [`TileShape::check`] for a batched operand.
    pub(crate) fn check_multi(self, name: &str, v: &MultiBlockVec) {
        self.check_shape(name, Self::claimed_multi(v));
    }

    fn check_shape(self, name: &str, got: TileShape) {
        if got != self {
            shape_mismatch(name, got, self);
        }
    }

    /// Panic unless a coefficient tile (one value per point, whatever the
    /// operand's width) has this shape's row stride and row count.
    pub(crate) fn check_coeff(self, tile: &BlockVec) {
        let rows = self.ny + 2 * self.halo;
        assert!(
            tile.stride() == self.stride && tile.raw().len() == rows * self.stride,
            "coefficient tile stride mismatch"
        );
    }

    /// Panic unless a per-point interior array (`mask`, `maskbits`) covers
    /// the interior exactly.
    pub(crate) fn check_interior_len(self, name: &str, len: usize) {
        assert!(len == self.nx * self.ny, "`{name}` length mismatch");
    }
}

#[cold]
#[inline(never)]
fn shape_mismatch(name: &str, got: TileShape, want: TileShape) -> ! {
    panic!("stencil operand `{name}` shape mismatch: {got:?}, expected {want:?}");
}

/// Borrowed views of one block's operands: padded solution/coefficient
/// storage (row stride `s`, halo `h`) and the block interior shape. Built
/// only from operands that passed [`TileShape::check`].
pub(crate) struct StencilBlock<'a> {
    pub nx: usize,
    pub ny: usize,
    pub h: usize,
    pub s: usize,
    pub xr: &'a [f64],
    pub a0: &'a [f64],
    pub an: &'a [f64],
    pub ae: &'a [f64],
    pub ane: &'a [f64],
}

impl<'a> StencilBlock<'a> {
    /// Views of the operand `xr` and the coefficient tiles
    /// `[a0, an, ae, ane]`, every one of them checked to have `shape`.
    pub(crate) fn new(shape: TileShape, xr: &'a [f64], [a0, an, ae, ane]: [&'a [f64]; 4]) -> Self {
        StencilBlock {
            nx: shape.nx,
            ny: shape.ny,
            h: shape.halo,
            s: shape.stride,
            xr,
            a0,
            an,
            ae,
            ane,
        }
    }
}

/// The row windows the nine-term kernel reads, sliced exactly as the
/// scalar loop in `NinePoint::apply_block_into` historically did: the
/// `w`-suffixed coefficient windows start one cell west, the solution rows
/// are one cell wider on each side (`xc[i + 1]` is `x(i, j)`).
struct Rows<'a> {
    a0r: &'a [f64],
    anr: &'a [f64],
    ans: &'a [f64],
    aew: &'a [f64],
    anew: &'a [f64],
    anesw: &'a [f64],
    xc: &'a [f64],
    xn: &'a [f64],
    xs: &'a [f64],
}

impl<'a> Rows<'a> {
    #[inline(always)]
    fn slice(blk: &StencilBlock<'a>, j: usize) -> (usize, Rows<'a>) {
        let (nx, h, s) = (blk.nx, blk.h, blk.s);
        let base = (j + h) * s + h;
        // SAFETY: the northmost window ends at `base + s + nx + 1 ≤`
        // storage length for every interior row `j < ny` of a halo-padded
        // block (`h ≥ 1`, `s ≥ nx + 2h`, `(ny + 2h)·s` floats — what
        // `TileShape::checked` asserted of every slice in `blk`); all other
        // windows end lower. (Debug-checked inside `window`.)
        let rows = unsafe {
            let w = pop_simd::window;
            Rows {
                a0r: w(blk.a0, base, nx),
                anr: w(blk.an, base, nx),
                ans: w(blk.an, base - s, nx),
                aew: w(blk.ae, base - 1, nx + 1),
                anew: w(blk.ane, base - 1, nx + 1),
                anesw: w(blk.ane, base - s - 1, nx + 1),
                xc: w(blk.xr, base - 1, nx + 2),
                xn: w(blk.xr, base + s - 1, nx + 2),
                xs: w(blk.xr, base - s - 1, nx + 2),
            }
        };
        (base, rows)
    }

    /// The nine products summed in the canonical order, scalar.
    #[inline(always)]
    fn nine_scalar(&self, i: usize) -> f64 {
        self.a0r[i] * self.xc[i + 1]
            + self.anr[i] * self.xn[i + 1]
            + self.ans[i] * self.xs[i + 1]
            + self.aew[i + 1] * self.xc[i + 2]
            + self.aew[i] * self.xc[i]
            + self.anew[i + 1] * self.xn[i + 2]
            + self.anesw[i + 1] * self.xs[i + 2]
            + self.anew[i] * self.xn[i]
            + self.anesw[i] * self.xs[i]
    }

    /// The nine products summed in the canonical order, four columns per
    /// lane group. Operation-for-operation the lane image of
    /// [`Rows::nine_scalar`].
    ///
    /// # Safety
    /// `i + LANES <= nx`; with [`pop_simd::Avx2`] lanes the caller must be
    /// executing under the `avx2` target feature.
    #[inline(always)]
    unsafe fn nine_lanes<V: LaneF64>(&self, i: usize) -> V {
        let at = |s: &[f64], k: usize| V::load(s.as_ptr().add(k));
        let v = at(self.a0r, i).mul(at(self.xc, i + 1));
        let v = v.add(at(self.anr, i).mul(at(self.xn, i + 1)));
        let v = v.add(at(self.ans, i).mul(at(self.xs, i + 1)));
        let v = v.add(at(self.aew, i + 1).mul(at(self.xc, i + 2)));
        let v = v.add(at(self.aew, i).mul(at(self.xc, i)));
        let v = v.add(at(self.anew, i + 1).mul(at(self.xn, i + 2)));
        let v = v.add(at(self.anesw, i + 1).mul(at(self.xs, i + 2)));
        let v = v.add(at(self.anew, i).mul(at(self.xn, i)));
        v.add(at(self.anesw, i).mul(at(self.xs, i)))
    }
}

/// Branch-free masked select, the scalar image of `LaneF64::and_bits`.
#[inline(always)]
fn and_select(v: f64, maskword: f64) -> f64 {
    f64::from_bits(v.to_bits() & maskword.to_bits())
}

// ---------------------------------------------------------------------------
// apply: y = A x
// ---------------------------------------------------------------------------

fn apply_scalar(blk: &StencilBlock, yr: &mut [f64], mask: &[u8]) {
    for j in 0..blk.ny {
        let (base, rows) = Rows::slice(blk, j);
        let yrow = &mut yr[base..base + blk.nx];
        let mrow = &mask[j * blk.nx..(j + 1) * blk.nx];
        for i in 0..blk.nx {
            let v = rows.nine_scalar(i);
            yrow[i] = if mrow[i] != 0 { v } else { 0.0 };
        }
    }
}

#[inline(always)]
fn apply_lanes<V: LaneF64>(blk: &StencilBlock, yr: &mut [f64], maskbits: &[f64]) {
    for j in 0..blk.ny {
        let (base, rows) = Rows::slice(blk, j);
        let yrow = &mut yr[base..base + blk.nx];
        let mrow = &maskbits[j * blk.nx..(j + 1) * blk.nx];
        let mut i = 0;
        while i + LANES <= blk.nx {
            unsafe {
                let v = rows.nine_lanes::<V>(i);
                let m = V::load(mrow.as_ptr().add(i));
                v.and_bits(m).store(yrow.as_mut_ptr().add(i));
            }
            i += LANES;
        }
        for k in i..blk.nx {
            yrow[k] = and_select(rows.nine_scalar(k), mrow[k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_avx2(blk: &StencilBlock, yr: &mut [f64], maskbits: &[f64]) {
    apply_lanes::<pop_simd::Avx2>(blk, yr, maskbits);
}

pub(crate) fn apply(
    mode: SimdMode,
    blk: &StencilBlock,
    yr: &mut [f64],
    mask: &[u8],
    maskbits: &[f64],
) {
    debug_assert_eq!(mask.len(), blk.nx * blk.ny);
    debug_assert_eq!(maskbits.len(), blk.nx * blk.ny);
    match mode {
        SimdMode::Scalar => apply_scalar(blk, yr, mask),
        SimdMode::Portable => apply_lanes::<Portable4>(blk, yr, maskbits),
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                apply_avx2(blk, yr, maskbits)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

// ---------------------------------------------------------------------------
// apply + dots: y = A x, plus the masked Σ r·x and Σ y·x partials
// ---------------------------------------------------------------------------

/// One ocean point's contribution to the two running sums. Two independent
/// scalar chains in row-major ocean-point order — the order (and hence the
/// bits) of two `masked_block_dot` passes — that overlap each other and the
/// next lane group's stencil loads instead of costing two passes of their
/// own.
#[inline(always)]
fn fold_dots(acc: &mut [f64; 2], ocean: u8, r: f64, y: f64, x: f64) {
    if ocean != 0 {
        acc[0] += r * x;
        acc[1] += y * x;
    }
}

fn apply_dots_scalar(blk: &StencilBlock, yr: &mut [f64], rr: &[f64], mask: &[u8]) -> [f64; 2] {
    let mut acc = [0.0f64; 2];
    for j in 0..blk.ny {
        let (base, rows) = Rows::slice(blk, j);
        let yrow = &mut yr[base..base + blk.nx];
        let rrow = &rr[base..base + blk.nx];
        let mrow = &mask[j * blk.nx..(j + 1) * blk.nx];
        for i in 0..blk.nx {
            let v = rows.nine_scalar(i);
            yrow[i] = if mrow[i] != 0 { v } else { 0.0 };
            fold_dots(&mut acc, mrow[i], rrow[i], yrow[i], rows.xc[i + 1]);
        }
    }
    acc
}

#[inline(always)]
fn apply_dots_lanes<V: LaneF64>(
    blk: &StencilBlock,
    yr: &mut [f64],
    rr: &[f64],
    mask: &[u8],
    maskbits: &[f64],
) -> [f64; 2] {
    let mut acc = [0.0f64; 2];
    for j in 0..blk.ny {
        let (base, rows) = Rows::slice(blk, j);
        let yrow = &mut yr[base..base + blk.nx];
        let rrow = &rr[base..base + blk.nx];
        let mbrow = &maskbits[j * blk.nx..(j + 1) * blk.nx];
        let mrow = &mask[j * blk.nx..(j + 1) * blk.nx];
        let mut i = 0;
        while i + LANES <= blk.nx {
            unsafe {
                let v = rows.nine_lanes::<V>(i);
                let m = V::load(mbrow.as_ptr().add(i));
                v.and_bits(m).store(yrow.as_mut_ptr().add(i));
            }
            // Folded in right behind the store, while the group is hot.
            for k in i..i + LANES {
                fold_dots(&mut acc, mrow[k], rrow[k], yrow[k], rows.xc[k + 1]);
            }
            i += LANES;
        }
        for k in i..blk.nx {
            yrow[k] = and_select(rows.nine_scalar(k), mbrow[k]);
            fold_dots(&mut acc, mrow[k], rrow[k], yrow[k], rows.xc[k + 1]);
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn apply_dots_avx2(
    blk: &StencilBlock,
    yr: &mut [f64],
    rr: &[f64],
    mask: &[u8],
    maskbits: &[f64],
) -> [f64; 2] {
    apply_dots_lanes::<pop_simd::Avx2>(blk, yr, rr, mask, maskbits)
}

pub(crate) fn apply_dots(
    mode: SimdMode,
    blk: &StencilBlock,
    yr: &mut [f64],
    rr: &[f64],
    mask: &[u8],
    maskbits: &[f64],
) -> [f64; 2] {
    debug_assert_eq!(mask.len(), blk.nx * blk.ny);
    debug_assert_eq!(maskbits.len(), blk.nx * blk.ny);
    match mode {
        SimdMode::Scalar => apply_dots_scalar(blk, yr, rr, mask),
        SimdMode::Portable => apply_dots_lanes::<Portable4>(blk, yr, rr, mask, maskbits),
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                apply_dots_avx2(blk, yr, rr, mask, maskbits)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

// ---------------------------------------------------------------------------
// residual: r = rhs − A x, plus the masked ‖r‖² partial
// ---------------------------------------------------------------------------

fn residual_scalar(blk: &StencilBlock, rhs: &[f64], rr: &mut [f64], mask: &[u8]) -> f64 {
    let mut acc = 0.0f64;
    for j in 0..blk.ny {
        let (base, rows) = Rows::slice(blk, j);
        let brow = &rhs[base..base + blk.nx];
        let rrow = &mut rr[base..base + blk.nx];
        let mrow = &mask[j * blk.nx..(j + 1) * blk.nx];
        for i in 0..blk.nx {
            let v = rows.nine_scalar(i);
            if mrow[i] != 0 {
                let rv = brow[i] - v;
                rrow[i] = rv;
                acc += rv * rv;
            } else {
                rrow[i] = brow[i] - 0.0;
            }
        }
    }
    acc
}

#[inline(always)]
fn residual_lanes<V: LaneF64>(
    blk: &StencilBlock,
    rhs: &[f64],
    rr: &mut [f64],
    mask: &[u8],
    maskbits: &[f64],
) -> f64 {
    let mut acc = 0.0f64;
    for j in 0..blk.ny {
        let (base, rows) = Rows::slice(blk, j);
        let brow = &rhs[base..base + blk.nx];
        let rrow = &mut rr[base..base + blk.nx];
        let mbrow = &maskbits[j * blk.nx..(j + 1) * blk.nx];
        let mrow = &mask[j * blk.nx..(j + 1) * blk.nx];
        let mut i = 0;
        while i + LANES <= blk.nx {
            unsafe {
                // Masking A·x before the subtraction makes land produce
                // `rhs − 0.0`, exactly the scalar land branch.
                let v = rows.nine_lanes::<V>(i);
                let m = V::load(mbrow.as_ptr().add(i));
                let rv = V::load(brow.as_ptr().add(i)).sub(v.and_bits(m));
                rv.store(rrow.as_mut_ptr().add(i));
            }
            // The norm partial is an order-sensitive running sum: always
            // the same scalar row-major accumulation, folded in right
            // behind the store while the lane group is still in registers.
            for k in i..i + LANES {
                if mrow[k] != 0 {
                    acc += rrow[k] * rrow[k];
                }
            }
            i += LANES;
        }
        for k in i..blk.nx {
            rrow[k] = brow[k] - and_select(rows.nine_scalar(k), mbrow[k]);
            if mrow[k] != 0 {
                acc += rrow[k] * rrow[k];
            }
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn residual_avx2(
    blk: &StencilBlock,
    rhs: &[f64],
    rr: &mut [f64],
    mask: &[u8],
    maskbits: &[f64],
) -> f64 {
    residual_lanes::<pop_simd::Avx2>(blk, rhs, rr, mask, maskbits)
}

pub(crate) fn residual(
    mode: SimdMode,
    blk: &StencilBlock,
    rhs: &[f64],
    rr: &mut [f64],
    mask: &[u8],
    maskbits: &[f64],
) -> f64 {
    debug_assert_eq!(mask.len(), blk.nx * blk.ny);
    debug_assert_eq!(maskbits.len(), blk.nx * blk.ny);
    match mode {
        SimdMode::Scalar => residual_scalar(blk, rhs, rr, mask),
        SimdMode::Portable => residual_lanes::<Portable4>(blk, rhs, rr, mask, maskbits),
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                residual_avx2(blk, rhs, rr, mask, maskbits)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}
